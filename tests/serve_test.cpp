// Long-lived serve mode: per-request isolation contracts.
//
//  * Request-scoped search counters: two concurrent in-process routeChip
//    calls must report exactly the per-stage search effort of the same
//    designs run serially (the seed implementation differenced a
//    process-wide tally, so concurrent calls cross-contaminated each
//    other's search.* metrics).
//  * Serve-vs-oneshot byte-identity: requests through one Server -- which
//    shares per-design obstacle templates across requests, sequentially
//    and concurrently -- produce canonical solution text identical to a
//    fresh one-shot routeChip.
//  * Trace ownership: concurrent traced requests are serialized by the
//    server, so both get their own complete trace and neither is
//    silently discarded by supersession.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "chip/delta.hpp"
#include "chip/generator.hpp"
#include "chip/io.hpp"
#include "pacor/eco.hpp"
#include "pacor/pipeline.hpp"
#include "pacor/solution_io.hpp"
#include "serve/serve.hpp"
#include "util/sha256.hpp"

namespace pacor {
namespace {

void expectCountersEqual(const route::SearchCounters& a,
                         const route::SearchCounters& b, const char* stage) {
  SCOPED_TRACE(stage);
  EXPECT_EQ(a.searches, b.searches);
  EXPECT_EQ(a.expansions, b.expansions);
  EXPECT_EQ(a.boundedVisits, b.boundedVisits);
}

void expectSameStageCounters(const core::PacorResult& a, const core::PacorResult& b) {
  expectCountersEqual(a.searchClusterRouting, b.searchClusterRouting,
                      "cluster_routing");
  expectCountersEqual(a.searchEscape, b.searchEscape, "escape");
  expectCountersEqual(a.searchDetour, b.searchDetour, "detour");
}

TEST(RequestIsolation, ConcurrentRouteChipCountersMatchSerial) {
  const chip::Chip chipA = chip::generateChip(chip::s3Params());
  const chip::Chip chipB = chip::generateChip(chip::s4Params());

  const core::PacorResult serialA = core::routeChip(chipA, core::pacorDefaultConfig());
  const core::PacorResult serialB = core::routeChip(chipB, core::pacorDefaultConfig());

  // Both calls run in flight together (spin barrier), so a process-global
  // tally difference would attribute each call's searches to the other.
  // These designs route in a few milliseconds, so one round can miss the
  // contamination window; many rounds make a pre-fix failure near-certain.
  constexpr int kRounds = 20;
  for (int round = 0; round < kRounds; ++round) {
    SCOPED_TRACE(round);
    core::PacorResult concurrentA;
    core::PacorResult concurrentB;
    std::atomic<int> ready{0};
    const auto runOn = [&ready](const chip::Chip& chip, core::PacorResult& out) {
      ready.fetch_add(1);
      while (ready.load() < 2) {
      }
      out = core::routeChip(chip, core::pacorDefaultConfig());
    };
    std::thread ta(runOn, std::cref(chipA), std::ref(concurrentA));
    std::thread tb(runOn, std::cref(chipB), std::ref(concurrentB));
    ta.join();
    tb.join();

    expectSameStageCounters(serialA, concurrentA);
    expectSameStageCounters(serialB, concurrentB);
    ASSERT_EQ(core::solutionToString(serialA), core::solutionToString(concurrentA));
    ASSERT_EQ(core::solutionToString(serialB), core::solutionToString(concurrentB));
  }
}

TEST(RequestIsolation, ObstacleTemplateMustMatchTheChip) {
  const chip::Chip small = chip::generateChip(chip::s1Params());
  const chip::Chip big = chip::generateChip(chip::s3Params());
  const grid::ObstacleMap wrongTemplate = core::makeRoutingObstacleTemplate(small);
  core::RouteResources resources;
  resources.obstacleTemplate = &wrongTemplate;
  EXPECT_THROW(core::routeChip(big, core::pacorDefaultConfig(), resources),
               std::invalid_argument);
  // Same cell count, other shape: still the wrong grid.
  const grid::ObstacleMap reshaped(
      grid::Grid(big.routingGrid.width() * big.routingGrid.height(), 1));
  resources.obstacleTemplate = &reshaped;
  EXPECT_THROW(core::routeChip(big, core::pacorDefaultConfig(), resources),
               std::invalid_argument);
}

TEST(ServeIdentity, SequentialRequestsMatchOneShot) {
  const chip::Chip chipA = chip::generateChip(chip::s2Params());
  const chip::Chip chipB = chip::generateChip(chip::s3Params());
  const std::string oneShotA =
      core::solutionToString(core::routeChip(chipA, core::pacorDefaultConfig()));
  const std::string oneShotB =
      core::solutionToString(core::routeChip(chipB, core::pacorDefaultConfig()));

  serve::Server server;
  serve::RequestOptions options;
  // Two rounds per design: the second request reuses the cached context
  // (obstacle template and escape session).
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE(round);
    const serve::Response a = server.route("A", chipA, options);
    const serve::Response b = server.route("B", chipB, options);
    ASSERT_TRUE(a.ok) << a.error;
    ASSERT_TRUE(b.ok) << b.error;
    EXPECT_TRUE(a.complete);
    EXPECT_TRUE(b.complete);
    EXPECT_EQ(a.solutionText, oneShotA);
    EXPECT_EQ(b.solutionText, oneShotB);
    EXPECT_EQ(a.solutionHash, util::sha256Hex(oneShotA));
  }
  EXPECT_EQ(server.designCount(), 2u);
}

TEST(ServeIdentity, ConcurrentRequestsMatchOneShot) {
  const std::vector<chip::Chip> chips = {
      chip::generateChip(chip::s2Params()),
      chip::generateChip(chip::s3Params()),
      chip::generateChip(chip::s4Params()),
  };
  std::vector<std::string> oneShot;
  for (const chip::Chip& c : chips)
    oneShot.push_back(core::solutionToString(core::routeChip(c, core::pacorDefaultConfig())));

  serve::Server server;
  constexpr int kThreads = 4;
  constexpr int kRequestsPerThread = 3;
  std::vector<serve::Response> responses(kThreads * kRequestsPerThread);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRequestsPerThread; ++r) {
        const int i = t * kRequestsPerThread + r;
        const std::size_t design = static_cast<std::size_t>(i) % chips.size();
        responses[i] = server.route("design" + std::to_string(design),
                                    chips[design], serve::RequestOptions{});
      }
    });
  for (std::thread& t : threads) t.join();

  for (int i = 0; i < kThreads * kRequestsPerThread; ++i) {
    SCOPED_TRACE(i);
    const std::size_t design = static_cast<std::size_t>(i) % chips.size();
    ASSERT_TRUE(responses[i].ok) << responses[i].error;
    EXPECT_EQ(responses[i].solutionText, oneShot[design]);
  }
  EXPECT_EQ(server.designCount(), chips.size());
}

TEST(ServeTrace, ConcurrentTracedRequestsBothRecord) {
  const chip::Chip chipA = chip::generateChip(chip::s2Params());
  const chip::Chip chipB = chip::generateChip(chip::s3Params());

  serve::Server server;
  serve::RequestOptions optionsA;
  optionsA.tracePath = testing::TempDir() + "serve_trace_a.json";
  serve::RequestOptions optionsB;
  optionsB.tracePath = testing::TempDir() + "serve_trace_b.json";

  serve::Response a;
  serve::Response b;
  std::thread ta([&] { a = server.route("A", chipA, optionsA); });
  std::thread tb([&] { b = server.route("B", chipB, optionsB); });
  ta.join();
  tb.join();

  for (const serve::Response* resp : {&a, &b}) {
    ASSERT_TRUE(resp->ok) << resp->error;
    EXPECT_FALSE(resp->traceDiscarded);
    EXPECT_GT(resp->traceSpans, 0);
  }
  EXPECT_TRUE(std::ifstream(optionsA.tracePath).good());
  EXPECT_TRUE(std::ifstream(optionsB.tracePath).good());
}

/// An interior cell owned by nothing in the routed design: legal to turn
/// into an obstacle without touching any committed channel.
geom::Point freeCellOf(const chip::Chip& c, const core::PacorResult& r) {
  const auto taken = [&](geom::Point p) {
    for (const chip::Valve& v : c.valves)
      if (v.pos == p) return true;
    for (const chip::ControlPin& pin : c.pins)
      if (pin.pos == p) return true;
    for (const geom::Point o : c.obstacles)
      if (o == p) return true;
    for (const core::RoutedCluster& rc : r.clusters) {
      for (const route::Path& path : rc.treePaths)
        for (const geom::Point cell : path)
          if (cell == p) return true;
      for (const geom::Point cell : rc.escapePath)
        if (cell == p) return true;
    }
    return false;
  };
  for (std::int32_t y = 1; y + 1 < c.routingGrid.height(); ++y)
    for (std::int32_t x = 1; x + 1 < c.routingGrid.width(); ++x)
      if (!taken({x, y})) return {x, y};
  ADD_FAILURE() << "no free interior cell";
  return {1, 1};
}

TEST(ServeSession, WarmEscapeSessionIsByteIdenticalToCold) {
  const chip::Chip chip = chip::generateChip(chip::s3Params());
  const std::string oneShot =
      core::solutionToString(core::routeChip(chip, core::pacorDefaultConfig()));

  serve::Server server;
  serve::RequestOptions options;
  options.metricsPath = testing::TempDir() + "serve_warm_metrics.json";
  const serve::Response cold = server.route("W", chip, options);
  ASSERT_TRUE(cold.ok) << cold.error;
  std::stringstream coldJson;
  coldJson << std::ifstream(options.metricsPath).rdbuf();
  EXPECT_EQ(coldJson.str().find("\"escape.flow.cold_builds\": 0"),
            std::string::npos)
      << "first request should cold-build the escape session";

  // Second request reuses the persistent session (warm rebind, zero cold
  // builds) and must still produce byte-identical output.
  const serve::Response warm = server.route("W", chip, options);
  ASSERT_TRUE(warm.ok) << warm.error;
  std::stringstream warmJson;
  warmJson << std::ifstream(options.metricsPath).rdbuf();
  EXPECT_NE(warmJson.str().find("\"escape.flow.cold_builds\": 0"),
            std::string::npos)
      << warmJson.str();
  EXPECT_EQ(cold.solutionText, oneShot);
  EXPECT_EQ(warm.solutionText, oneShot);
}

TEST(ServeEco, EcoRequestAdvancesTheDesign) {
  const chip::Chip base = chip::generateChip(chip::s2Params());
  const core::PacorResult oneShot = core::routeChip(base, core::pacorDefaultConfig());
  ASSERT_TRUE(oneShot.complete);

  serve::Server server;
  const std::shared_ptr<serve::DesignContext> ctx =
      server.context("E", [&] { return base; });
  const serve::Response before = server.route(*ctx, serve::RequestOptions{});
  ASSERT_TRUE(before.ok) << before.error;

  // An obstacle on free ground: identity -- the previous result carries.
  chip::ChipDelta d;
  d.addObstacle(freeCellOf(base, oneShot));
  const serve::Response eco = server.eco(*ctx, d, serve::RequestOptions{});
  ASSERT_TRUE(eco.ok) << eco.error;
  EXPECT_EQ(eco.ecoMode, "identity");
  EXPECT_EQ(eco.solutionHash, before.solutionHash);

  // The context now holds the edited chip: a later plain route must match
  // a one-shot of the edited design, not of the base.
  const chip::Chip edited = chip::apply(base, d);
  const serve::Response after = server.route(*ctx, serve::RequestOptions{});
  ASSERT_TRUE(after.ok) << after.error;
  EXPECT_EQ(after.solutionText,
            core::solutionToString(core::routeChip(edited, core::pacorDefaultConfig())));
}

// A transpose (set-grid 30 20 on a 20 x 30 design) keeps the cell count,
// and with every pin on the x = 0 and y = 0 boundaries it keeps the pins
// too. The escape session the first route left behind was sized for the
// 20-wide grid; the eco must not rebind it onto the 30-wide map (which
// once failed with unordered_map::at) and must answer the one-shot bytes.
TEST(ServeEco, GridTransposeMatchesOneShotReroute) {
  std::istringstream text(R"(pacor-chip 1
name T
grid 20 30
rules 10 10
delta 1
valves 6
0 3 5 0101
1 8 12 0101
2 14 6 1010
3 5 15 1010
4 12 16 0110
5 16 11 1001
pins 8
0 0 3
1 0 7
2 0 11
3 0 15
4 4 0
5 9 0
6 13 0
7 17 0
obstacles 0
clusters 0
)");
  const chip::Chip base = chip::readChip(text);
  chip::Chip transposed = base;
  transposed.routingGrid = grid::Grid(30, 20);
  const chip::ChipDelta d = chip::diff(base, transposed);
  const core::PacorResult prev = core::routeChip(base, core::pacorDefaultConfig());
  const std::string oneShot =
      core::solutionToString(core::rerouteChip(base, prev, d, core::pacorDefaultConfig()));

  serve::Server server;
  const std::shared_ptr<serve::DesignContext> ctx =
      server.context("T", [&] { return base; });
  const serve::Response before = server.route(*ctx, serve::RequestOptions{});
  ASSERT_TRUE(before.ok) << before.error;
  const serve::Response eco = server.eco(*ctx, d, serve::RequestOptions{});
  ASSERT_TRUE(eco.ok) << eco.error;
  EXPECT_EQ(eco.ecoMode, "full");
  EXPECT_EQ(eco.solutionText, oneShot);
}

TEST(ServeEco, ConcurrentRouteAndEcoStayConsistent) {
  const chip::Chip base = chip::generateChip(chip::s2Params());
  const core::PacorResult oneShot = core::routeChip(base, core::pacorDefaultConfig());
  ASSERT_TRUE(oneShot.complete);
  chip::ChipDelta d;
  d.addObstacle(freeCellOf(base, oneShot));
  const chip::Chip edited = chip::apply(base, d);

  serve::Server server;
  const std::shared_ptr<serve::DesignContext> ctx =
      server.context("C", [&] { return base; });

  // Routers race the eco edit: each response must match a one-shot of
  // whichever design state its request observed.
  const std::string baseText = core::solutionToString(oneShot);
  const std::string editedText =
      core::solutionToString(core::routeChip(edited, core::pacorDefaultConfig()));
  constexpr int kRouteThreads = 3;
  std::vector<serve::Response> routed(kRouteThreads * 2);
  serve::Response ecoResp;
  std::vector<std::thread> threads;
  for (int t = 0; t < kRouteThreads; ++t)
    threads.emplace_back([&, t] {
      for (int r = 0; r < 2; ++r)
        routed[t * 2 + r] = server.route(*ctx, serve::RequestOptions{});
    });
  threads.emplace_back(
      [&] { ecoResp = server.eco(*ctx, d, serve::RequestOptions{}); });
  for (std::thread& t : threads) t.join();

  ASSERT_TRUE(ecoResp.ok) << ecoResp.error;
  for (const serve::Response& resp : routed) {
    ASSERT_TRUE(resp.ok) << resp.error;
    EXPECT_TRUE(resp.solutionText == baseText || resp.solutionText == editedText);
  }
  const serve::Response final = server.route(*ctx, serve::RequestOptions{});
  ASSERT_TRUE(final.ok) << final.error;
  EXPECT_EQ(final.solutionText, editedText);
}

TEST(ServeEco, AbandonedEcoDoesNotCommitTheDelta) {
  // The watchdog answers a mid-execution expiry and sets the request's
  // cancel flag; the abandoned eco's response is discarded -- but it must
  // also NOT advance the design, because the caller was told the eco did
  // not happen and may retry the same delta. A committed abandoned eco
  // plus a retry would double-apply the edit.
  const chip::Chip base = chip::generateChip(chip::s2Params());
  const core::PacorResult oneShot = core::routeChip(base, core::pacorDefaultConfig());
  ASSERT_TRUE(oneShot.complete);

  serve::Server server;
  const std::shared_ptr<serve::DesignContext> ctx =
      server.context("A", [&] { return base; });
  const serve::Response before = server.route(*ctx, serve::RequestOptions{});
  ASSERT_TRUE(before.ok) << before.error;

  chip::ChipDelta d;
  d.addObstacle(freeCellOf(base, oneShot));
  serve::RequestOptions abandonedOptions;
  abandonedOptions.cancel = std::make_shared<std::atomic<bool>>(true);
  const serve::Response abandoned = server.eco(*ctx, d, abandonedOptions);
  EXPECT_FALSE(abandoned.ok);
  EXPECT_NE(abandoned.error.find("not committed"), std::string::npos)
      << abandoned.error;

  // The context still routes the base design...
  const serve::Response after = server.route(*ctx, serve::RequestOptions{});
  ASSERT_TRUE(after.ok) << after.error;
  EXPECT_EQ(after.solutionHash, before.solutionHash);

  // ...and a live retry applies the delta exactly once.
  const serve::Response retry = server.eco(*ctx, d, serve::RequestOptions{});
  ASSERT_TRUE(retry.ok) << retry.error;
  const serve::Response edited = server.route(*ctx, serve::RequestOptions{});
  ASSERT_TRUE(edited.ok) << edited.error;
  EXPECT_EQ(edited.solutionText,
            core::solutionToString(
                core::routeChip(chip::apply(base, d), core::pacorDefaultConfig())));
}

TEST(ServeCancel, AbandonedRequestWritesNoSideFiles) {
  // An abandoned request's caller was already answered with a deadline
  // error; its discarded execution must not write sol=/metrics= files
  // that could clobber the output of a retry racing it.
  const chip::Chip base = chip::generateChip(chip::s1Params());
  serve::Server server;
  const std::shared_ptr<serve::DesignContext> ctx =
      server.context("F", [&] { return base; });

  serve::RequestOptions options;
  options.solutionPath = ::testing::TempDir() + "serve_cancel.sol";
  options.metricsPath = ::testing::TempDir() + "serve_cancel.json";
  std::remove(options.solutionPath.c_str());
  std::remove(options.metricsPath.c_str());
  options.cancel = std::make_shared<std::atomic<bool>>(true);
  server.route(*ctx, options);
  EXPECT_FALSE(std::ifstream(options.solutionPath).good());
  EXPECT_FALSE(std::ifstream(options.metricsPath).good());

  // The live retry with the same paths writes both.
  options.cancel = nullptr;
  const serve::Response live = server.route(*ctx, options);
  ASSERT_TRUE(live.ok) << live.error;
  EXPECT_TRUE(std::ifstream(options.solutionPath).good());
  EXPECT_TRUE(std::ifstream(options.metricsPath).good());
}

TEST(ServeBatch, EcoVerbRoutesAndReportsMode) {
  const chip::Chip s1 = chip::generateChip(chip::s1Params());
  const core::PacorResult oneShot = core::routeChip(s1, core::pacorDefaultConfig());
  ASSERT_TRUE(oneShot.complete);
  chip::ChipDelta d;
  d.addObstacle(freeCellOf(s1, oneShot));
  const std::string deltaPath = testing::TempDir() + "serve_eco.delta";
  chip::writeDeltaFile(deltaPath, d);

  std::istringstream manifest("S1\neco S1 delta=" + deltaPath +
                              "\neco S1\n");
  std::ostringstream out;
  const int failed = serve::runBatch(manifest, out, serve::BatchOptions{});
  EXPECT_EQ(failed, 1);  // only the delta-less eco line

  std::istringstream lines(out.str());
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line.rfind("ok S1 sha256=", 0), 0u) << line;
  EXPECT_EQ(line.find(" eco="), std::string::npos) << line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line.rfind("ok S1 sha256=", 0), 0u) << line;
  EXPECT_NE(line.find(" eco=identity dirty=0 reused="), std::string::npos) << line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line.rfind("error S1 ", 0), 0u) << line;
}

TEST(ServeBatch, ManifestRoutesInOrderAndReportsHashes) {
  const chip::Chip s1 = chip::generateChip(chip::s1Params());
  const std::string hash =
      util::sha256Hex(core::solutionToString(core::routeChip(s1, core::pacorDefaultConfig())));

  std::istringstream manifest(
      "# comment and blank lines are skipped\n"
      "\n"
      "S1\n"
      "S1\n"
      "no-such-design\n");
  std::ostringstream out;
  serve::BatchOptions options;
  options.concurrency = 2;
  const int failed = serve::runBatch(manifest, out, options);
  EXPECT_EQ(failed, 1);  // the unknown design, and nothing else

  std::istringstream lines(out.str());
  std::string line;
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(std::getline(lines, line));
    EXPECT_EQ(line.rfind("ok S1 sha256=" + hash + " complete=1", 0), 0u) << line;
  }
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line.rfind("error no-such-design ", 0), 0u) << line;
  EXPECT_FALSE(std::getline(lines, line));
}

}  // namespace
}  // namespace pacor
