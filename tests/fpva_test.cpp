#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "chip/generator.hpp"
#include "chip/io.hpp"
#include "pacor/pipeline.hpp"
#include "verify/oracle.hpp"

// Tier-1 coverage of the FPVA valve-array generator and its spec grammar:
// the generated instances must validate, round-trip through the chip text
// format, and route oracle-clean with the default flow.

namespace pacor {
namespace {

TEST(FpvaGenerator, DefaultEightByEightValidatesAndHasTheLattice) {
  chip::FpvaParams params;  // 8x8, auto pitch/blocks
  const auto c = chip::generateFpvaChip(params);
  EXPECT_EQ(c.validate(), std::nullopt);
  EXPECT_EQ(c.name, "fpva_8x8");
  EXPECT_EQ(c.valves.size(), 64u);
  // 2x2 blocks at this size: one compatible group of 4 valves per block.
  EXPECT_EQ(c.givenClusters.size(), 16u);
  for (const auto& cl : c.givenClusters) EXPECT_EQ(cl.valves.size(), 4u);
  // Every valve sits on the pitch lattice inside the margin ring.
  for (const auto& v : c.valves) {
    EXPECT_EQ((v.pos.x - 3) % 4, 0) << "valve x off-lattice";
    EXPECT_EQ((v.pos.y - 3) % 4, 0) << "valve y off-lattice";
  }
}

TEST(FpvaGenerator, RoundTripsThroughChipIo) {
  chip::FpvaParams params;
  params.rows = 6;
  params.cols = 9;
  params.obstaclePermille = 20;
  params.seed = 7;
  const auto original = chip::generateFpvaChip(params);
  std::stringstream first;
  chip::writeChip(first, original);
  std::stringstream input(first.str());
  const auto reread = chip::readChip(input);
  EXPECT_EQ(reread.validate(), std::nullopt);
  EXPECT_EQ(reread.name, original.name);
  EXPECT_EQ(reread.valves.size(), original.valves.size());
  EXPECT_EQ(reread.givenClusters.size(), original.givenClusters.size());
  EXPECT_EQ(reread.obstacles.size(), original.obstacles.size());
  // The canonical text of the reread chip is byte-identical: every field
  // survived the round trip.
  std::stringstream second;
  chip::writeChip(second, reread);
  EXPECT_EQ(second.str(), first.str());
}

TEST(FpvaGenerator, DeterministicForASeedAndDistinctAcrossSeeds) {
  chip::FpvaParams params;
  params.seed = 11;
  std::stringstream a, b;
  chip::writeChip(a, chip::generateFpvaChip(params));
  chip::writeChip(b, chip::generateFpvaChip(params));
  EXPECT_EQ(a.str(), b.str());
  params.seed = 12;
  std::stringstream c;
  chip::writeChip(c, chip::generateFpvaChip(params));
  EXPECT_NE(a.str(), c.str());
}

TEST(FpvaRouting, EightByEightRoutesOracleClean) {
  const auto c = chip::generateFpvaChip(chip::parseFpvaSpec("8x8"));
  const auto result = core::routeChip(c);
  EXPECT_TRUE(result.complete);
  const auto report = verify::verifySolution(c, result);
  EXPECT_TRUE(report.clean()) << report.str();
}

TEST(FpvaRouting, DenseArrayRoutesOracleClean) {
  // 12x10 with obstacles and every block length-matched: the dense mix;
  // a wide tap frees what its first escape pass leaves behind. 24x24 with
  // obstacles: the first escape pass routes all 144 clusters, so the route
  // ends there, complete (no later pass may split a routed cluster).
  const struct {
    const char* spec;
    int escapeRounds;
  } cases[] = {{"fpva:12x10:obs=30:lm=100", 2}, {"fpva:24x24:obs=30:seed=1", 1}};
  for (const auto& [spec, escapeRounds] : cases) {
    SCOPED_TRACE(spec);
    const auto c = chip::generateFpvaChip(chip::parseFpvaSpec(spec));
    const auto result = core::routeChip(c);
    EXPECT_TRUE(result.complete);
    EXPECT_EQ(result.escapeRounds, escapeRounds);
    const auto report = verify::verifySolution(c, result);
    EXPECT_TRUE(report.clean()) << report.str();
  }
}

TEST(FpvaSpec, ParsesBareAndPrefixedForms) {
  const auto bare = chip::parseFpvaSpec("8x8");
  EXPECT_EQ(bare.rows, 8);
  EXPECT_EQ(bare.cols, 8);
  const auto prefixed = chip::parseFpvaSpec("fpva:16x12");
  EXPECT_EQ(prefixed.rows, 16);
  EXPECT_EQ(prefixed.cols, 12);
}

TEST(FpvaSpec, ParsesKeysWithEitherSeparator) {
  const auto p = chip::parseFpvaSpec(
      "fpva:16x16:pitch=5,margin=4:block=2x4,lm=75:obs=25:pins=8,seq=20,"
      "delta=3:seed=42");
  EXPECT_EQ(p.rows, 16);
  EXPECT_EQ(p.cols, 16);
  EXPECT_EQ(p.pitch, 5);
  EXPECT_EQ(p.margin, 4);
  EXPECT_EQ(p.blockRows, 2);
  EXPECT_EQ(p.blockCols, 4);
  EXPECT_EQ(p.lmPercent, 75);
  EXPECT_EQ(p.obstaclePermille, 25);
  EXPECT_EQ(p.extraPins, 8);
  EXPECT_EQ(p.sequenceLength, 20);
  EXPECT_EQ(p.delta, 3);
  EXPECT_EQ(p.seed, 42u);
}

TEST(FpvaSpec, RejectsMalformedSpecs) {
  EXPECT_THROW(chip::parseFpvaSpec(""), std::invalid_argument);
  EXPECT_THROW(chip::parseFpvaSpec("8"), std::invalid_argument);
  EXPECT_THROW(chip::parseFpvaSpec("8x"), std::invalid_argument);
  EXPECT_THROW(chip::parseFpvaSpec("axb"), std::invalid_argument);
  EXPECT_THROW(chip::parseFpvaSpec("8x8:bogus=1"), std::invalid_argument);
  EXPECT_THROW(chip::parseFpvaSpec("8x8:pitch="), std::invalid_argument);
  EXPECT_THROW(chip::parseFpvaSpec("8x8:block=2"), std::invalid_argument);
}

TEST(FpvaSpec, IsFpvaSpecRecognizesThePrefixOnly) {
  EXPECT_TRUE(chip::isFpvaSpec("fpva:8x8"));
  EXPECT_FALSE(chip::isFpvaSpec("8x8"));  // bare dims: CLI-only shorthand
  EXPECT_FALSE(chip::isFpvaSpec("Chip1"));
  EXPECT_FALSE(chip::isFpvaSpec("designs/fpva.chip"));
}

TEST(FpvaGenerator, RejectsInfeasibleParameters) {
  chip::FpvaParams p;
  p.rows = 1;  // below the 2x2 minimum array
  EXPECT_THROW(chip::generateFpvaChip(p), std::invalid_argument);
  p = {};
  p.pitch = 2;  // below the minimum routable pitch
  EXPECT_THROW(chip::generateFpvaChip(p), std::invalid_argument);
  p = {};
  p.blockRows = 1;
  p.blockCols = 1;  // a block must hold at least two valves
  EXPECT_THROW(chip::generateFpvaChip(p), std::invalid_argument);
  p = {};
  p.rows = 50000;  // grid would overflow the int32 cell-index range
  p.cols = 50000;
  EXPECT_THROW(chip::generateFpvaChip(p), std::invalid_argument);
}

TEST(FpvaGenerator, RandomParamsAlwaysGenerateValidChips) {
  for (std::uint32_t seed = 0; seed < 25; ++seed) {
    const auto params = chip::randomFpvaParams(seed);
    const auto c = chip::generateFpvaChip(params);
    EXPECT_EQ(c.validate(), std::nullopt) << "seed " << seed;
  }
}

}  // namespace
}  // namespace pacor
