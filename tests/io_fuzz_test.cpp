#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <random>
#include <sstream>

#include "chip/delta.hpp"
#include "chip/generator.hpp"
#include "chip/io.hpp"
#include "chip/synth_spec.hpp"
#include "pacor/pipeline.hpp"
#include "pacor/solution_io.hpp"
#include "util/rss.hpp"
#include "verify/oracle.hpp"

namespace pacor {
namespace {

/// Robustness sweeps over the four text formats: every truncation and
/// simple mutation must either parse to a valid object or throw -- never
/// crash, hang, or return garbage that fails validation.

std::string chipText() {
  std::stringstream buf;
  chip::writeChip(buf, chip::generateChip(chip::s1Params()));
  return buf.str();
}

std::string solutionText() {
  const auto chip = chip::generateChip(chip::s1Params());
  std::stringstream buf;
  core::writeSolution(buf, core::routeChip(chip));
  return buf.str();
}

std::string synthText() {
  chip::SynthSpec spec;
  spec.die = grid::Grid(16, 16);
  spec.valveSites = {{4, 4}, {10, 4}};
  spec.flow.channels.push_back({{{2, 8}, {13, 8}}});
  spec.pinSites = {{0, 5}, {15, 5}};
  spec.clusters = {{{0, 1}, true}};
  spec.assay.horizon = 4;
  spec.assay.operations = {{"op", 0, 2, {0, 1}, {}}};
  std::stringstream buf;
  chip::writeSynthSpec(buf, spec);
  return buf.str();
}

/// An edit script with every op kind the text format has.
std::string deltaText() {
  chip::ChipDelta delta;
  delta.setName("S1b").setDelta(3).moveValve(0, {3, 4}).setValveSequence(1, "01X");
  delta.addValve({5, 6}, "10X").removeValve(2).movePin(0, {0, 7}).addPin({0, 9});
  delta.removePin(1).addObstacle({8, 8}).removeObstacle({8, 8});
  delta.setCluster(0, {{0, 1}, true}).addCluster({{3, 4, 5}, false}).removeCluster(1);
  chip::DeltaOp grid;
  grid.kind = chip::DeltaOp::Kind::kSetGrid;
  grid.pos = {20, 24};
  chip::DeltaOp rules = grid;
  rules.kind = chip::DeltaOp::Kind::kSetRules;
  delta.ops.push_back(grid);
  delta.ops.push_back(rules);
  return chip::deltaToString(delta);
}

class TruncationFuzz : public ::testing::TestWithParam<int> {};

TEST_P(TruncationFuzz, ChipReaderNeverCrashes) {
  const std::string full = chipText();
  std::mt19937 rng(static_cast<unsigned>(GetParam()));
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t cut = rng() % full.size();
    std::stringstream is(full.substr(0, cut));
    try {
      const chip::Chip c = chip::readChip(is);
      EXPECT_EQ(c.validate(), std::nullopt);  // parsed => valid
    } catch (const std::runtime_error&) {
      // expected for most cuts
    } catch (const std::invalid_argument&) {
      // activation-sequence validation can fire mid-token
    }
  }
}

// Regression: a chip header like "grid 65536 65536" used to parse
// "successfully" -- width * height overflows the int32 cell-index range,
// so every Grid::index() past the wrap point silently corrupted. The
// reader must reject such dies at parse time.
TEST(ChipReaderOverflow, RejectsGridsPastInt32CellRange) {
  const std::string full = chipText();
  const std::size_t gridPos = full.find("\ngrid ");
  ASSERT_NE(gridPos, std::string::npos);
  const std::size_t lineEnd = full.find('\n', gridPos + 1);
  const std::string huge = full.substr(0, gridPos) + "\ngrid 65536 65536" +
                           full.substr(lineEnd);
  std::stringstream is(huge);
  EXPECT_THROW(chip::readChip(is), std::runtime_error);

  // A big-but-representable die still parses (cells fit in int32); the
  // original content round-trips unchanged.
  std::stringstream ok(full);
  EXPECT_EQ(chip::readChip(ok).validate(), std::nullopt);
}

TEST_P(TruncationFuzz, SolutionReaderNeverCrashes) {
  const std::string full = solutionText();
  std::mt19937 rng(static_cast<unsigned>(100 + GetParam()));
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t cut = rng() % full.size();
    std::stringstream is(full.substr(0, cut));
    try {
      (void)core::readSolution(is);
    } catch (const std::runtime_error&) {
    }
  }
}

TEST_P(TruncationFuzz, SynthReaderNeverCrashes) {
  const std::string full = synthText();
  std::mt19937 rng(static_cast<unsigned>(200 + GetParam()));
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t cut = rng() % full.size();
    std::stringstream is(full.substr(0, cut));
    try {
      (void)chip::readSynthSpec(is);
    } catch (const std::runtime_error&) {
    }
  }
}

TEST_P(TruncationFuzz, DeltaReaderNeverCrashes) {
  const std::string full = deltaText();
  ASSERT_EQ(chip::deltaToString(chip::deltaFromString(full)), full);
  std::mt19937 rng(static_cast<unsigned>(500 + GetParam()));
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t cut = rng() % full.size();
    try {
      (void)chip::deltaFromString(full.substr(0, cut));
    } catch (const std::runtime_error&) {
    }
  }
}

TEST_P(TruncationFuzz, MutatedChipEitherParsesValidOrThrows) {
  const std::string full = chipText();
  std::mt19937 rng(static_cast<unsigned>(300 + GetParam()));
  for (int trial = 0; trial < 40; ++trial) {
    std::string mutated = full;
    // Flip a handful of characters to digits/garbage.
    for (int k = 0; k < 3; ++k) {
      const std::size_t pos = rng() % mutated.size();
      const char repl[] = {'0', '9', '-', 'Z', ' '};
      mutated[pos] = repl[rng() % std::size(repl)];
    }
    std::stringstream is(mutated);
    try {
      const chip::Chip c = chip::readChip(is);
      EXPECT_EQ(c.validate(), std::nullopt);
    } catch (const std::runtime_error&) {
    } catch (const std::invalid_argument&) {
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TruncationFuzz, ::testing::Range(1, 5));

/// Death-test body: runs `parse`, then exits 0 if it threw
/// std::runtime_error and raised the process's peak RSS by less than
/// 32 MB, 1 otherwise. Each parse runs in its own child because the peak
/// only ever rises: in one process a large peak would hide the next.
void parseWithinMemoryBound(const std::function<void()>& parse) {
  const std::int64_t beforeKb = util::peakRssKb();
  bool threw = false;
  try {
    parse();
  } catch (const std::runtime_error& e) {
    threw = true;
    std::fprintf(stderr, "%s\n", e.what());
  }
  const std::int64_t grownKb = util::peakRssKb() - beforeKb;
  std::fprintf(stderr, "threw=%d, peak RSS grew %lld KB\n", threw ? 1 : 0,
               static_cast<long long>(grownKb));
  std::exit(threw && grownKb < 32 * 1024 ? 0 : 1);
}

// Each input claims far more records than it holds. A reader that sized
// memory from the claim would touch 67 MB to 500 MB before failing; one
// that stores records as it reads them fails at the real end of input.
TEST(ReaderMemory, ClaimedCountsAllocateNothing) {
  const std::string solution =
      "pacor-solution 1\ndesign x\ncomplete 0\nstats 0 0 0 0 0 0\nclusters 4000000\n";
  const std::string synth = "pacor-synth 1\nname x\ngrid 16 16\ndelta 1\nvalves 16777216\n";
  std::string chipFile = chipText();
  chipFile = chipFile.substr(0, chipFile.find("clusters ")) + "clusters 1\n1 16777216 0 1\n";
  const std::string delta = "pacor-delta 1\nops 1\nadd-cluster 1 16777216\n";

  EXPECT_EXIT(parseWithinMemoryBound([&] { (void)core::solutionFromString(solution); }),
              ::testing::ExitedWithCode(0), "");
  EXPECT_EXIT(parseWithinMemoryBound([&] {
                std::istringstream is(synth);
                (void)chip::readSynthSpec(is);
              }),
              ::testing::ExitedWithCode(0), "");
  EXPECT_EXIT(parseWithinMemoryBound([&] {
                std::istringstream is(chipFile);
                (void)chip::readChip(is);
              }),
              ::testing::ExitedWithCode(0), "");
  EXPECT_EXIT(parseWithinMemoryBound([&] { (void)chip::deltaFromString(delta); }),
              ::testing::ExitedWithCode(0), "");
}

TEST(SolutionOracleRoundTrip, ParseWriteParseVerifyIsStable) {
  // solution_io must be a faithful codec for the oracle: parse -> write ->
  // parse must reproduce the same bytes, and the oracle must reach the
  // same verdict on the original result and on its round-tripped twin.
  const auto chip = chip::generateChip(chip::s2Params());
  const core::PacorResult routed = core::routeChip(chip);
  const auto original = verify::verifySolution(chip, routed);
  EXPECT_TRUE(original.clean()) << original.str();

  const std::string once = core::solutionToString(routed);
  const core::PacorResult reparsed = core::solutionFromString(once);
  EXPECT_EQ(core::solutionToString(reparsed), once);
  const auto roundTripped = verify::verifySolution(chip, reparsed);
  EXPECT_TRUE(roundTripped.clean()) << roundTripped.str();
}

TEST_P(TruncationFuzz, MutatedSolutionEitherThrowsOrVerifiesSafely) {
  // A malformed .sol must be rejected with a diagnostic (std::runtime_error
  // from the parser) or, if it happens to still parse, survive the full
  // oracle without UB: unknown valve/pin ids, wild coordinates and broken
  // channels all become typed violations, never crashes.
  const auto chip = chip::generateChip(chip::s1Params());
  std::stringstream routedBuf;
  core::writeSolution(routedBuf, core::routeChip(chip));
  const std::string full = routedBuf.str();

  std::mt19937 rng(static_cast<unsigned>(400 + GetParam()));
  for (int trial = 0; trial < 40; ++trial) {
    std::string mutated = full;
    for (int k = 0; k < 3; ++k) {
      const std::size_t pos = rng() % mutated.size();
      const char repl[] = {'0', '9', '-', 'Z', ' '};
      mutated[pos] = repl[rng() % std::size(repl)];
    }
    try {
      const core::PacorResult parsed = core::solutionFromString(mutated);
      const auto report = verify::verifySolution(chip, parsed);
      // Write/parse/verify again: the verdict must be codec-independent.
      const core::PacorResult again =
          core::solutionFromString(core::solutionToString(parsed));
      EXPECT_EQ(verify::verifySolution(chip, again).clean(), report.clean());
    } catch (const std::runtime_error&) {
      // the parser's diagnostic path -- expected for most mutations
    }
  }
}

}  // namespace
}  // namespace pacor
