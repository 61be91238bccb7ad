#include <gtest/gtest.h>

#include <sstream>

#include "chip/activation.hpp"
#include "chip/chip.hpp"
#include "chip/design_rules.hpp"
#include "chip/generator.hpp"
#include "chip/io.hpp"

namespace pacor::chip {
namespace {

TEST(Activation, StatusCompatibility) {
  using A = Activation;
  EXPECT_TRUE(compatible(A::kOpen, A::kOpen));
  EXPECT_TRUE(compatible(A::kClosed, A::kClosed));
  EXPECT_FALSE(compatible(A::kOpen, A::kClosed));
  EXPECT_TRUE(compatible(A::kOpen, A::kDontCare));
  EXPECT_TRUE(compatible(A::kDontCare, A::kClosed));
  EXPECT_TRUE(compatible(A::kDontCare, A::kDontCare));
}

TEST(ActivationSequence, ValidatesAlphabet) {
  EXPECT_NO_THROW(ActivationSequence("01X01"));
  EXPECT_THROW(ActivationSequence("012"), std::invalid_argument);
  EXPECT_THROW(ActivationSequence("0x1"), std::invalid_argument);  // lowercase x
}

TEST(ActivationSequence, SequenceCompatibility) {
  const ActivationSequence a("01X");
  const ActivationSequence b("0XX");
  const ActivationSequence c("11X");
  EXPECT_TRUE(a.compatibleWith(b));
  EXPECT_TRUE(b.compatibleWith(a));
  EXPECT_FALSE(a.compatibleWith(c));
  EXPECT_FALSE(a.compatibleWith(ActivationSequence("01X0")));  // length mismatch
  EXPECT_TRUE(a.compatibleWith(a));
}

TEST(DesignRules, GridPitchAndConversion) {
  DesignRules rules{10, 10};
  EXPECT_EQ(rules.gridPitchUm(), 20);
  EXPECT_EQ(rules.umToCells(205), 10);
  EXPECT_EQ(rules.cellsToUm(7), 140);
  EXPECT_TRUE(rules.valid());
  EXPECT_FALSE((DesignRules{0, 10}).valid());
}

Chip tinyChip() {
  Chip chip;
  chip.name = "tiny";
  chip.routingGrid = grid::Grid(8, 8);
  chip.valves = {{0, {3, 3}, ActivationSequence("01")},
                 {1, {5, 3}, ActivationSequence("0X")},
                 {2, {3, 5}, ActivationSequence("10")}};
  chip.pins = {{0, {0, 0}}, {1, {7, 4}}};
  chip.obstacles = {{6, 6}};
  chip.givenClusters = {{{0, 1}, true}};
  return chip;
}

TEST(Chip, ValidInstancePasses) {
  const Chip chip = tinyChip();
  EXPECT_EQ(chip.validate(), std::nullopt);
}

TEST(Chip, ValidationCatchesOutOfBoundsValve) {
  Chip chip = tinyChip();
  chip.valves[0].pos = {99, 0};
  EXPECT_NE(chip.validate(), std::nullopt);
}

TEST(Chip, ValidationCatchesOverlappingValves) {
  Chip chip = tinyChip();
  chip.valves[1].pos = chip.valves[0].pos;
  EXPECT_NE(chip.validate(), std::nullopt);
}

TEST(Chip, ValidationCatchesInteriorPin) {
  Chip chip = tinyChip();
  chip.pins[0].pos = {4, 4};
  EXPECT_NE(chip.validate(), std::nullopt);
}

TEST(Chip, ValidationCatchesIncompatibleCluster) {
  Chip chip = tinyChip();
  chip.givenClusters = {{{0, 2}, true}};  // 01 vs 10: incompatible
  EXPECT_NE(chip.validate(), std::nullopt);
}

TEST(Chip, ValidationCatchesDuplicateClusterMembership) {
  Chip chip = tinyChip();
  chip.givenClusters = {{{0, 1}, true}, {{1, 2}, false}};
  EXPECT_NE(chip.validate(), std::nullopt);
}

TEST(Chip, ValidationCatchesTinyCluster) {
  Chip chip = tinyChip();
  chip.givenClusters = {{{0}, true}};
  EXPECT_NE(chip.validate(), std::nullopt);
}

TEST(Chip, ValidationCatchesSequenceLengthMismatch) {
  Chip chip = tinyChip();
  chip.valves[2].sequence = ActivationSequence("100");
  EXPECT_NE(chip.validate(), std::nullopt);
}

TEST(Chip, ObstacleMapSeeded) {
  const Chip chip = tinyChip();
  const auto map = chip.makeObstacleMap();
  EXPECT_TRUE(map.isObstacle({6, 6}));
  EXPECT_EQ(map.obstacleCount(), 1);
}

TEST(ChipIo, RoundTrip) {
  const Chip chip = tinyChip();
  std::stringstream buf;
  writeChip(buf, chip);
  const Chip back = readChip(buf);
  EXPECT_EQ(back.name, chip.name);
  EXPECT_EQ(back.routingGrid.width(), 8);
  EXPECT_EQ(back.valves.size(), 3u);
  EXPECT_EQ(back.valves[1].pos, chip.valves[1].pos);
  EXPECT_EQ(back.valves[1].sequence, chip.valves[1].sequence);
  EXPECT_EQ(back.pins.size(), 2u);
  EXPECT_EQ(back.obstacles, chip.obstacles);
  ASSERT_EQ(back.givenClusters.size(), 1u);
  EXPECT_TRUE(back.givenClusters[0].lengthMatched);
  EXPECT_EQ(back.givenClusters[0].valves, chip.givenClusters[0].valves);
}

TEST(ChipIo, RejectsGarbage) {
  std::stringstream buf("not-a-chip 1\n");
  EXPECT_THROW(readChip(buf), std::runtime_error);
}

TEST(ChipIo, SkipsComments) {
  const Chip chip = tinyChip();
  std::stringstream buf;
  writeChip(buf, chip);
  std::stringstream commented("# heading comment\n" + buf.str());
  EXPECT_NO_THROW(readChip(commented));
}

TEST(Generator, SmallDesignsMatchTable1) {
  struct Expect {
    const char* name;
    std::int32_t w, h, valves, pins, obs;
    std::size_t clusters;
  };
  const Expect expectations[] = {
      {"S1", 12, 12, 5, 14, 9, 2},    {"S2", 22, 22, 10, 40, 54, 2},
      {"S3", 52, 52, 15, 93, 0, 5},   {"S4", 72, 72, 20, 139, 27, 7},
      {"S5", 152, 152, 40, 306, 135, 13},
  };
  const GeneratorParams params[] = {s1Params(), s2Params(), s3Params(), s4Params(),
                                    s5Params()};
  for (std::size_t i = 0; i < std::size(expectations); ++i) {
    const Chip chip = generateChip(params[i]);
    const Expect& e = expectations[i];
    EXPECT_EQ(chip.name, e.name);
    EXPECT_EQ(chip.routingGrid.width(), e.w);
    EXPECT_EQ(chip.routingGrid.height(), e.h);
    EXPECT_EQ(chip.valves.size(), static_cast<std::size_t>(e.valves));
    EXPECT_EQ(chip.pins.size(), static_cast<std::size_t>(e.pins));
    EXPECT_EQ(chip.obstacles.size(), static_cast<std::size_t>(e.obs));
    EXPECT_EQ(chip.givenClusters.size(), e.clusters);
    EXPECT_EQ(chip.validate(), std::nullopt);
  }
}

TEST(Generator, RealChipPresetsMatchTable1) {
  const Chip c1 = generateChip(chip1Params());
  EXPECT_EQ(c1.routingGrid.width(), 179);
  EXPECT_EQ(c1.routingGrid.height(), 413);
  EXPECT_EQ(c1.valves.size(), 176u);
  EXPECT_EQ(c1.pins.size(), 556u);
  EXPECT_EQ(c1.obstacles.size(), 1800u);
  EXPECT_EQ(c1.givenClusters.size(), 40u);

  const Chip c2 = generateChip(chip2Params());
  EXPECT_EQ(c2.routingGrid.width(), 231);
  EXPECT_EQ(c2.valves.size(), 56u);
  EXPECT_EQ(c2.givenClusters.size(), 22u);
  for (const auto& cluster : c2.givenClusters)
    EXPECT_EQ(cluster.valves.size(), 2u);  // paper: Chip2 has only pairs
}

TEST(Generator, DeterministicForFixedSeed) {
  const Chip a = generateChip(s2Params());
  const Chip b = generateChip(s2Params());
  ASSERT_EQ(a.valves.size(), b.valves.size());
  for (std::size_t i = 0; i < a.valves.size(); ++i) {
    EXPECT_EQ(a.valves[i].pos, b.valves[i].pos);
    EXPECT_EQ(a.valves[i].sequence, b.valves[i].sequence);
  }
}

TEST(Generator, ClusterMembersCompatibleAcrossClustersNot) {
  const Chip chip = generateChip(s3Params());
  for (const auto& cluster : chip.givenClusters) {
    for (std::size_t i = 0; i < cluster.valves.size(); ++i)
      for (std::size_t j = i + 1; j < cluster.valves.size(); ++j)
        EXPECT_TRUE(chip.valve(cluster.valves[i])
                        .sequence.compatibleWith(chip.valve(cluster.valves[j]).sequence));
  }
  // Valves from different given clusters are made incompatible.
  const auto& a = chip.givenClusters[0].valves[0];
  const auto& b = chip.givenClusters[1].valves[0];
  EXPECT_FALSE(chip.valve(a).sequence.compatibleWith(chip.valve(b).sequence));
}

TEST(Generator, PlainClusterGroupsSupported) {
  GeneratorParams p = s2Params();
  p.plainClusterSizes = {3};
  p.valveCount = 13;
  const Chip chip = generateChip(p);
  EXPECT_EQ(chip.givenClusters.size(), 3u);
  EXPECT_FALSE(chip.givenClusters.back().lengthMatched);
  EXPECT_EQ(chip.validate(), std::nullopt);
}

TEST(Generator, RejectsInfeasibleParams) {
  GeneratorParams p;
  p.width = 10;
  p.height = 10;
  p.valveCount = 200;  // cannot fit
  EXPECT_THROW(generateChip(p), std::invalid_argument);

  GeneratorParams tiny;
  tiny.width = 4;
  tiny.height = 4;
  EXPECT_THROW(generateChip(tiny), std::invalid_argument);

  GeneratorParams badCluster = s1Params();
  badCluster.lmClusterSizes = {1};
  EXPECT_THROW(generateChip(badCluster), std::invalid_argument);
}

TEST(Generator, Table1DesignsEnumeration) {
  const auto designs = table1Designs();
  ASSERT_EQ(designs.size(), 7u);
  EXPECT_EQ(designs[0].name, "Chip1");
  EXPECT_EQ(designs[6].name, "S5");
}

}  // namespace
}  // namespace pacor::chip
