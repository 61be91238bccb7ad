#include <gtest/gtest.h>

#include "chip/generator.hpp"
#include "pacor/drc.hpp"
#include "pacor/pipeline.hpp"

namespace pacor::core {
namespace {

/// Random small instances spanning cluster shapes and congestion levels;
/// every variant must produce a DRC-clean, 100%-complete solution with
/// self-consistent accounting -- the paper's headline completion claim as
/// a sweep property.
struct InstanceSpec {
  const char* tag;
  std::int32_t size;
  std::int32_t valves;
  std::int32_t pins;
  std::int32_t obstacles;
  std::vector<std::int32_t> lmSizes;
  std::vector<std::int32_t> plainSizes;
  std::uint32_t seed;
};

chip::Chip makeInstance(const InstanceSpec& spec) {
  chip::GeneratorParams p;
  p.name = spec.tag;
  p.width = spec.size;
  p.height = spec.size;
  p.valveCount = spec.valves;
  p.pinCount = spec.pins;
  p.obstacleCellCount = spec.obstacles;
  p.lmClusterSizes = spec.lmSizes;
  p.plainClusterSizes = spec.plainSizes;
  p.clusterRadius = 4;
  p.seed = spec.seed;
  return chip::generateChip(p);
}

class PipelineSweep : public ::testing::TestWithParam<InstanceSpec> {};

TEST_P(PipelineSweep, AllVariantsCompleteAndDrcClean) {
  const chip::Chip chip = makeInstance(GetParam());
  for (const auto& cfg :
       {pacorDefaultConfig(), withoutSelectionConfig(), detourFirstConfig()}) {
    const PacorResult result = routeChip(chip, cfg);
    EXPECT_TRUE(result.complete) << chip.name;
    const auto report = checkSolution(chip, result);
    EXPECT_TRUE(report.clean()) << chip.name << ": " << report.str();

    // Accounting invariants.
    std::int64_t total = 0;
    std::int64_t matchedLen = 0;
    int matched = 0;
    for (const RoutedCluster& c : result.clusters) {
      total += c.totalLength;
      if (c.lengthMatchRequested && c.lengthMatched) {
        ++matched;
        matchedLen += c.totalLength;
        EXPECT_LE(c.lengthSpread(), chip.delta);
      }
    }
    EXPECT_EQ(result.totalChannelLength, total);
    EXPECT_EQ(result.matchedChannelLength, matchedLen);
    EXPECT_EQ(result.matchedClusterCount, matched);
    EXPECT_LE(result.matchedClusterCount, result.multiValveClusterCount);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PipelineSweep,
    ::testing::Values(
        // Pairs only (the Chip2 shape).
        InstanceSpec{"pairs", 24, 10, 24, 20, {2, 2, 2}, {}, 11},
        // One large matched tree.
        InstanceSpec{"bigtree", 32, 10, 24, 30, {6}, {}, 12},
        // Mixed matched + plain clusters (exercises MST routing).
        InstanceSpec{"mixed", 32, 14, 28, 40, {3, 2}, {3, 2}, 13},
        // Obstacle-free.
        InstanceSpec{"open", 28, 12, 24, 0, {4, 2}, {2}, 14},
        // Dense obstacles.
        InstanceSpec{"dense", 36, 12, 30, 220, {3, 3}, {}, 15},
        // Only singletons (pure escape problem).
        InstanceSpec{"singles", 24, 12, 30, 25, {}, {}, 16},
        // Odd cluster sizes stress DME balancing.
        InstanceSpec{"odd", 40, 16, 32, 50, {5, 3}, {}, 17},
        // Many small matched clusters.
        InstanceSpec{"many", 44, 24, 44, 60, {2, 2, 2, 2, 2, 2}, {}, 18}),
    [](const auto& info) { return std::string(info.param.tag); });

class SeedSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(SeedSweep, StressInstancesCompleteUnderAllVariants) {
  const chip::Chip chip = chip::generateChip(chip::stressParams(GetParam()));
  for (const auto& cfg :
       {pacorDefaultConfig(), withoutSelectionConfig(), detourFirstConfig()}) {
    const PacorResult result = routeChip(chip, cfg);
    EXPECT_TRUE(result.complete) << chip.name;
    const auto report = checkSolution(chip, result);
    EXPECT_TRUE(report.clean()) << chip.name << ": " << report.str();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep, ::testing::Values(1u, 2u, 3u, 4u));

TEST(PipelineDeterminism, SameInputSameResult) {
  const chip::Chip chip = chip::generateChip(chip::s3Params());
  const PacorResult a = routeChip(chip);
  const PacorResult b = routeChip(chip);
  EXPECT_EQ(a.matchedClusterCount, b.matchedClusterCount);
  EXPECT_EQ(a.totalChannelLength, b.totalChannelLength);
  ASSERT_EQ(a.clusters.size(), b.clusters.size());
  for (std::size_t i = 0; i < a.clusters.size(); ++i) {
    EXPECT_EQ(a.clusters[i].pin, b.clusters[i].pin);
    EXPECT_EQ(a.clusters[i].valveLengths, b.clusters[i].valveLengths);
  }
}

TEST(PipelineDelta, LargerDeltaNeverMatchesFewer) {
  chip::Chip chip = chip::generateChip(chip::s4Params());
  chip.delta = 1;
  const int tight = routeChip(chip).matchedClusterCount;
  chip.delta = 4;
  const int loose = routeChip(chip).matchedClusterCount;
  EXPECT_GE(loose, tight);
}

}  // namespace
}  // namespace pacor::core
