#include <gtest/gtest.h>

#include <sstream>

#include "chip/generator.hpp"
#include "pacor/drc.hpp"
#include "pacor/pipeline.hpp"
#include "pacor/solution_io.hpp"

namespace pacor::core {
namespace {

TEST(SolutionIo, RoundTripPreservesEverything) {
  const auto chip = chip::generateChip(chip::s2Params());
  const auto result = routeChip(chip);

  std::stringstream buf;
  writeSolution(buf, result);
  const PacorResult back = readSolution(buf);

  EXPECT_EQ(back.design, result.design);
  EXPECT_EQ(back.complete, result.complete);
  EXPECT_EQ(back.multiValveClusterCount, result.multiValveClusterCount);
  EXPECT_EQ(back.matchedClusterCount, result.matchedClusterCount);
  EXPECT_EQ(back.matchedChannelLength, result.matchedChannelLength);
  EXPECT_EQ(back.totalChannelLength, result.totalChannelLength);
  ASSERT_EQ(back.clusters.size(), result.clusters.size());
  for (std::size_t i = 0; i < back.clusters.size(); ++i) {
    const auto& a = back.clusters[i];
    const auto& b = result.clusters[i];
    EXPECT_EQ(a.valves, b.valves);
    EXPECT_EQ(a.pin, b.pin);
    EXPECT_EQ(a.tap, b.tap);
    EXPECT_EQ(a.lengthMatchRequested, b.lengthMatchRequested);
    EXPECT_EQ(a.lengthMatched, b.lengthMatched);
    EXPECT_EQ(a.routed, b.routed);
    EXPECT_EQ(a.valveLengths, b.valveLengths);
    EXPECT_EQ(a.treePaths, b.treePaths);
    EXPECT_EQ(a.escapePath, b.escapePath);
    EXPECT_EQ(a.totalLength, b.totalLength);
  }
}

TEST(SolutionIo, RoundTripStaysDrcClean) {
  const auto chip = chip::generateChip(chip::s3Params());
  const auto result = routeChip(chip);
  std::stringstream buf;
  writeSolution(buf, result);
  const PacorResult back = readSolution(buf);
  const auto report = checkSolution(chip, back);
  EXPECT_TRUE(report.clean()) << report.str();
}

TEST(SolutionIo, RejectsBadHeader) {
  std::stringstream buf("bogus 1\n");
  EXPECT_THROW(readSolution(buf), std::runtime_error);
}

TEST(SolutionIo, RejectsWrongVersion) {
  std::stringstream buf("pacor-solution 7\n");
  EXPECT_THROW(readSolution(buf), std::runtime_error);
}

TEST(SolutionIo, RejectsTruncatedFile) {
  const auto chip = chip::generateChip(chip::s1Params());
  const auto result = routeChip(chip);
  std::stringstream buf;
  writeSolution(buf, result);
  std::string text = buf.str();
  text.resize(text.size() / 2);
  std::stringstream cut(text);
  EXPECT_THROW(readSolution(cut), std::runtime_error);
}

TEST(SolutionIo, RejectsMalformedCells) {
  std::stringstream buf(
      "pacor-solution 1\ndesign x\ncomplete 1\nstats 0 0 0 0 1 0\nclusters 1\n"
      "valves 1 0\nflags 0 0 1\npin 0\ntap 1 1\nlengths 1 5\ntreepaths 1\n"
      "path 3 1 1 1 2\n"  // claims 3 cells, provides 2
      "escape 0\n");
  EXPECT_THROW(readSolution(buf), std::runtime_error);
}

TEST(SolutionIo, SkipsComments) {
  const auto chip = chip::generateChip(chip::s1Params());
  const auto result = routeChip(chip);
  std::stringstream buf;
  writeSolution(buf, result);
  std::stringstream commented("# a comment line\n" + buf.str());
  EXPECT_NO_THROW(readSolution(commented));
}

TEST(SolutionIo, FileRoundTrip) {
  const auto chip = chip::generateChip(chip::s1Params());
  const auto result = routeChip(chip);
  const std::string path = ::testing::TempDir() + "/pacor_sol_test.sol";
  writeSolutionFile(path, result);
  const PacorResult back = readSolutionFile(path);
  EXPECT_EQ(back.clusters.size(), result.clusters.size());
  EXPECT_THROW(readSolutionFile("/nonexistent/dir/x.sol"), std::runtime_error);
}

TEST(SolutionIo, MetricsFileQuotesTheDesignName) {
  PacorResult result;
  result.design = "S1";
  result.metrics.setInt("escape.rounds", 1);
  result.metrics.setReal("time.total_s", 0.25);
  // A name that needs no escaping is written verbatim between quotes.
  EXPECT_EQ(metricsFileText(result), "{\n  \"design\": \"S1\",\n  \"metrics\": " +
                                         result.metrics.toJson(/*pretty=*/true) + "\n}\n");

  result.design = "S1\"x\\y";
  EXPECT_NE(metricsFileText(result).find(R"("design": "S1\"x\\y",)"), std::string::npos)
      << metricsFileText(result);
  result.design = "a\x01" "b";
  EXPECT_NE(metricsFileText(result).find(R"("design": "a\u0001b",)"), std::string::npos)
      << metricsFileText(result);
}

}  // namespace
}  // namespace pacor::core
