// Long-lived serve mode: per-request isolation contracts.
//
//  * Request-scoped search counters: two concurrent in-process routeChip
//    calls must report exactly the per-stage search effort of the same
//    designs run serially (the seed implementation differenced a
//    process-wide tally, so concurrent calls cross-contaminated each
//    other's search.* metrics).
//  * Serve-vs-oneshot byte-identity: requests submitted to one Server --
//    which shares per-design obstacle templates across requests,
//    sequentially and concurrently -- produce canonical solution text
//    identical to a fresh one-shot routeChip.
//  * Trace isolation: a request traces on its own dispatcher thread, so
//    concurrent traced requests each get exactly their own spans, and a
//    traced request does not hold up other designs' requests.
//  * Deadlines: a request stopped by its deadline has no effect -- no eco
//    commit, no side files -- and an `ok` answer always committed.
//  * Route memo: a repeat route of an unedited design and variant answers
//    from the stored response; an eco result, another variant's result and
//    metrics=/trace= requests never do.
//
// A case that needs a specific chip object installs it with
// Server::context(key, load) and then submits `key`.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <future>
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

/// A route (or, with a delta file, eco) request for `design`.
serve::Request requestFor(const std::string& design,
                          const std::string& deltaPath = "") {
  serve::Request req;
  req.design = design;
  if (!deltaPath.empty()) {
    req.verb = serve::Verb::kEco;
    req.deltaPath = deltaPath;
  }
  return req;
}

/// Submits one request and waits for its answer.
serve::Response call(serve::Server& server, serve::Request req) {
  return server.submit(std::move(req)).get();
}

/// Writes a one-op eco script adding an obstacle at `cell`; returns its path.
std::string obstacleDelta(const std::string& name, geom::Point cell) {
  chip::ChipDelta d;
  d.addObstacle(cell);
  const std::string path = testing::TempDir() + name;
  chip::writeDeltaFile(path, d);
  return path;
}

TEST(ServeIdentity, SequentialRequestsMatchOneShot) {
  const chip::Chip chipA = chip::generateChip(chip::s2Params());
  const chip::Chip chipB = chip::generateChip(chip::s3Params());
  const std::string oneShotA =
      core::solutionToString(core::routeChip(chipA, core::pacorDefaultConfig()));
  const std::string oneShotB =
      core::solutionToString(core::routeChip(chipB, core::pacorDefaultConfig()));

  serve::Server server;
  server.context("A", [&] { return chipA; });
  server.context("B", [&] { return chipB; });
  // Two rounds per design: the second request reuses the cached context
  // (obstacle template and escape session).
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE(round);
    const serve::Response a = call(server, requestFor("A"));
    const serve::Response b = call(server, requestFor("B"));
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
  for (std::size_t d = 0; d < chips.size(); ++d)
    server.context("design" + std::to_string(d), [&] { return chips[d]; });
  constexpr int kThreads = 4;
  constexpr int kRequestsPerThread = 3;
  std::vector<serve::Response> responses(kThreads * kRequestsPerThread);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRequestsPerThread; ++r) {
        const int i = t * kRequestsPerThread + r;
        const std::size_t design = static_cast<std::size_t>(i) % chips.size();
        responses[i] = call(server, requestFor("design" + std::to_string(design)));
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

/// Spans named `name` in the Chrome trace file at `path`.
int spanCount(const std::string& path, const std::string& name) {
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string json = buf.str();
  const std::string needle = "\"name\": \"" + name + "\"";
  int count = 0;
  for (auto at = json.find(needle); at != std::string::npos;
       at = json.find(needle, at + needle.size()))
    ++count;
  return count;
}

TEST(ServeTrace, ConcurrentTracedRequestsBothRecord) {
  const chip::Chip chipA = chip::generateChip(chip::s2Params());
  const chip::Chip chipB = chip::generateChip(chip::s3Params());

  serve::Server server;
  server.context("A", [&] { return chipA; });
  server.context("B", [&] { return chipB; });
  serve::Request requestA = requestFor("A");
  requestA.tracePath = testing::TempDir() + "serve_trace_a.json";
  serve::Request requestB = requestFor("B");
  requestB.tracePath = testing::TempDir() + "serve_trace_b.json";

  // Two dispatchers (the default), so both requests are in flight at once.
  auto futA = server.submit(requestA);
  auto futB = server.submit(requestB);
  const serve::Response a = futA.get();
  const serve::Response b = futB.get();

  for (const serve::Response* resp : {&a, &b}) {
    ASSERT_TRUE(resp->ok) << resp->error;
    EXPECT_GT(resp->traceSpans, 0);
  }
  // One root span per file: neither request's spans landed in the other's
  // trace.
  EXPECT_EQ(spanCount(requestA.tracePath, "pacor.route"), 1);
  EXPECT_EQ(spanCount(requestB.tracePath, "pacor.route"), 1);
}

TEST(ServeTrace, TracedRequestDoesNotStallOtherDesigns) {
  // A traced route of a slow design runs on one dispatcher while S1
  // requests run back to back on the other (two dispatchers, the
  // default). The trace records on the slow request's own thread, so no
  // S1 request waits for it: the worst S1 latency stays far below the
  // traced route's. The bound is relative, so a slow host scales both
  // sides; a traced request that ran alone would make them about equal.
  const std::string slowDesign = "fpva:32x32";
  serve::Server server;
  server.context(slowDesign, [&] { return serve::loadDesign(slowDesign); });
  server.context("S1", [] { return chip::generateChip(chip::s1Params()); });
  serve::Request traced = requestFor(slowDesign);
  traced.tracePath = testing::TempDir() + "serve_trace_stall.json";

  using Clock = std::chrono::steady_clock;
  const auto submitted = Clock::now();
  auto slow = server.submit(traced);
  Clock::duration worstS1{0};
  do {
    const auto start = Clock::now();
    const serve::Response s1 = call(server, requestFor("S1"));
    worstS1 = std::max(worstS1, Clock::now() - start);
    ASSERT_TRUE(s1.ok) << s1.error;
  } while (slow.wait_for(std::chrono::seconds(0)) != std::future_status::ready);
  const auto tracedLatency = Clock::now() - submitted;
  const serve::Response resp = slow.get();
  ASSERT_TRUE(resp.ok) << resp.error;
  EXPECT_GT(resp.traceSpans, 0);
  const auto ms = [](Clock::duration d) {
    return std::chrono::duration<double, std::milli>(d).count();
  };
  EXPECT_LT(2 * worstS1, tracedLatency)
      << "worst S1 " << ms(worstS1) << " ms during a " << ms(tracedLatency)
      << " ms traced route";
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
  server.context("W", [&] { return chip; });
  serve::Request request = requestFor("W");
  request.metricsPath = testing::TempDir() + "serve_warm_metrics.json";
  const serve::Response cold = call(server, request);
  ASSERT_TRUE(cold.ok) << cold.error;
  std::stringstream coldJson;
  coldJson << std::ifstream(request.metricsPath).rdbuf();
  EXPECT_EQ(coldJson.str().find("\"escape.flow.cold_builds\": 0"),
            std::string::npos)
      << "first request should cold-build the escape session";

  // Second request reuses the persistent session (warm rebind, zero cold
  // builds) and must still produce byte-identical output.
  const serve::Response warm = call(server, request);
  ASSERT_TRUE(warm.ok) << warm.error;
  std::stringstream warmJson;
  warmJson << std::ifstream(request.metricsPath).rdbuf();
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
  server.context("E", [&] { return base; });
  const serve::Response before = call(server, requestFor("E"));
  ASSERT_TRUE(before.ok) << before.error;

  // An obstacle on free ground: identity -- the previous result carries.
  const geom::Point cell = freeCellOf(base, oneShot);
  const serve::Response eco =
      call(server, requestFor("E", obstacleDelta("serve_eco_advance.delta", cell)));
  ASSERT_TRUE(eco.ok) << eco.error;
  EXPECT_EQ(eco.ecoMode, "identity");
  EXPECT_EQ(eco.solutionHash, before.solutionHash);

  // The context now holds the edited chip: a later plain route must match
  // a one-shot of the edited design, not of the base.
  chip::ChipDelta d;
  d.addObstacle(cell);
  const chip::Chip edited = chip::apply(base, d);
  const serve::Response after = call(server, requestFor("E"));
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

  const std::string deltaPath = testing::TempDir() + "serve_eco_transpose.delta";
  chip::writeDeltaFile(deltaPath, d);

  serve::Server server;
  server.context("T", [&] { return base; });
  const serve::Response before = call(server, requestFor("T"));
  ASSERT_TRUE(before.ok) << before.error;
  const serve::Response eco = call(server, requestFor("T", deltaPath));
  ASSERT_TRUE(eco.ok) << eco.error;
  EXPECT_EQ(eco.ecoMode, "full");
  EXPECT_EQ(eco.solutionText, oneShot);
}

// The cached result is an ECO base only for an eco of the variant that
// produced it. S2 routes differently under wosel and pacor, so a default
// (pacor) eco after a wosel route must route its base under pacor and
// answer the one-shot pacor ECO, not an ECO chained from the wosel result.
TEST(ServeEco, EcoBaseIsReusedOnlyForTheSameVariant) {
  const chip::Chip base = chip::generateChip(chip::s2Params());
  const core::PacorResult pacor = core::routeChip(base, core::pacorDefaultConfig());
  const core::PacorResult wosel = core::routeChip(base, core::withoutSelectionConfig());
  ASSERT_NE(core::solutionToString(pacor), core::solutionToString(wosel));

  ASSERT_EQ(base.valve(7).pos, (geom::Point{19, 13}));
  chip::ChipDelta d;
  d.moveValve(7, {19, 12});
  const std::string deltaPath = testing::TempDir() + "serve_eco_variant.delta";
  chip::writeDeltaFile(deltaPath, d);
  const std::string oneShot = core::solutionToString(
      core::rerouteChip(base, pacor, d, core::pacorDefaultConfig()));
  ASSERT_NE(core::solutionToString(
                core::rerouteChip(base, wosel, d, core::pacorDefaultConfig())),
            oneShot)
      << "the delta must tell the two ECO bases apart";

  serve::Server server;
  server.context("V", [&] { return base; });
  serve::Request route = requestFor("V");
  route.variant = serve::Variant::kWosel;
  const serve::Response before = call(server, route);
  ASSERT_TRUE(before.ok) << before.error;
  EXPECT_EQ(before.solutionText, core::solutionToString(wosel));
  const serve::Response eco = call(server, requestFor("V", deltaPath));
  ASSERT_TRUE(eco.ok) << eco.error;
  EXPECT_EQ(eco.solutionText, oneShot);
}

TEST(ServeEco, ConcurrentRouteAndEcoStayConsistent) {
  const chip::Chip base = chip::generateChip(chip::s2Params());
  const core::PacorResult oneShot = core::routeChip(base, core::pacorDefaultConfig());
  ASSERT_TRUE(oneShot.complete);
  chip::ChipDelta d;
  d.addObstacle(freeCellOf(base, oneShot));
  const chip::Chip edited = chip::apply(base, d);
  const std::string deltaPath = testing::TempDir() + "serve_eco_concurrent.delta";
  chip::writeDeltaFile(deltaPath, d);

  serve::Server server;
  server.context("C", [&] { return base; });
  server.context("D", [&] { return edited; });

  // Routes queue up around the eco edit while earlier ones execute, and a
  // second design runs next to them. One design's requests run in FIFO
  // order, so each route answers for the design state of its position:
  // the base before the eco, the edited design after it.
  const std::string baseText = core::solutionToString(oneShot);
  const std::string editedText =
      core::solutionToString(core::routeChip(edited, core::pacorDefaultConfig()));
  constexpr int kRoutesPerSide = 3;
  std::vector<std::future<serve::Response>> before;
  std::vector<std::future<serve::Response>> after;
  std::vector<std::future<serve::Response>> other;
  for (int i = 0; i < kRoutesPerSide; ++i) {
    before.push_back(server.submit(requestFor("C")));
    other.push_back(server.submit(requestFor("D")));
  }
  auto ecoFut = server.submit(requestFor("C", deltaPath));
  for (int i = 0; i < kRoutesPerSide; ++i) after.push_back(server.submit(requestFor("C")));

  const serve::Response ecoResp = ecoFut.get();
  ASSERT_TRUE(ecoResp.ok) << ecoResp.error;
  for (auto* futures : {&before, &after, &other}) {
    const std::string& expected = futures == &before ? baseText : editedText;
    for (std::future<serve::Response>& fut : *futures) {
      const serve::Response resp = fut.get();
      ASSERT_TRUE(resp.ok) << resp.error;
      EXPECT_EQ(resp.solutionText, expected);
    }
  }
}

/// A cell on a routed escape channel, away from its ends: an obstacle
/// there forces the cluster to be re-routed, so an eco adding it reaches
/// routing poll points.
geom::Point channelCellOf(const core::PacorResult& r) {
  for (const core::RoutedCluster& rc : r.clusters)
    if (rc.escapePath.size() >= 5) return rc.escapePath[rc.escapePath.size() / 2];
  ADD_FAILURE() << "no escape channel of length >= 5";
  return {1, 1};
}

/// Submits make(deadline_ms) with deadline_ms = 1, 2, 4, ... until one is
/// answered `ok`, calling onExpired after every `err ... field=deadline`
/// answer. Any other answer fails the test. Returns the `ok` answer and
/// sets `expiredExecuting` when some err stopped mid-execution.
serve::Response deadlineLadder(
    serve::Server& server, const std::function<serve::Request(std::int64_t)>& make,
    const std::function<void()>& onExpired, bool& expiredExecuting) {
  expiredExecuting = false;
  for (std::int64_t ms = 1;; ms *= 2) {
    SCOPED_TRACE(ms);
    const serve::Response resp = call(server, make(ms));
    if (resp.ok) return resp;
    EXPECT_TRUE(resp.deadlineExpired) << serve::formatResponse(resp);
    if (!resp.deadlineExpired) return resp;
    expiredExecuting |= resp.error.find("(executing)") != std::string::npos;
    onExpired();
  }
}

TEST(ServeEco, ExpiredEcoDoesNotCommitTheDelta) {
  // An `err ... field=deadline` answer means the eco had no effect: the
  // client may retry the same delta, and a committed expired eco plus the
  // retry would apply the edit twice. The eco blocks a routed channel, so
  // it needs a real reroute and is stopped at a routing poll point.
  const chip::Chip base = chip::generateChip(chip::chip1Params());
  const core::PacorResult oneShot = core::routeChip(base, core::pacorDefaultConfig());
  chip::ChipDelta d;
  d.addObstacle(channelCellOf(oneShot));
  const chip::Chip edited = chip::apply(base, d);
  const std::string deltaPath = testing::TempDir() + "serve_eco_expired.delta";
  chip::writeDeltaFile(deltaPath, d);

  serve::Server server;
  server.context("A", [&] { return base; });
  const serve::Response before = call(server, requestFor("A"));
  ASSERT_TRUE(before.ok) << before.error;

  serve::Request gen;
  gen.verb = serve::Verb::kGen;
  gen.design = "A";
  const auto obstacles = [&] { return call(server, gen).genObstacles; };
  const int baseObstacles = obstacles();
  bool expiredExecuting = false;
  const serve::Response committed = deadlineLadder(
      server,
      [&](std::int64_t ms) {
        serve::Request eco = requestFor("A", deltaPath);
        eco.deadlineMs = ms;
        return eco;
      },
      [&] { EXPECT_EQ(obstacles(), baseObstacles); }, expiredExecuting);
  EXPECT_TRUE(expiredExecuting) << "no eco was stopped mid-execution";
  ASSERT_TRUE(committed.ok) << committed.error;
  EXPECT_NE(committed.ecoMode, "identity");
  // The edit applied exactly once.
  EXPECT_EQ(obstacles(), baseObstacles + 1);
  const serve::Response after = call(server, requestFor("A"));
  ASSERT_TRUE(after.ok) << after.error;
  EXPECT_EQ(after.solutionText,
            core::solutionToString(core::routeChip(edited, core::pacorDefaultConfig())));
}

TEST(ServeCancel, ExpiredRequestWritesNoSideFiles) {
  // A request answered `err ... field=deadline` writes no sol=, metrics=
  // or trace= file; the `ok` one writes all three.
  serve::Server server;
  const std::string solPath = testing::TempDir() + "serve_cancel.sol";
  const std::string metricsPath = testing::TempDir() + "serve_cancel.json";
  const std::string tracePath = testing::TempDir() + "serve_cancel_trace.json";
  const auto removeFiles = [&] {
    std::remove(solPath.c_str());
    std::remove(metricsPath.c_str());
    std::remove(tracePath.c_str());
  };
  removeFiles();
  bool expiredExecuting = false;
  const serve::Response live = deadlineLadder(
      server,
      [&](std::int64_t ms) {
        serve::Request req = requestFor("Chip1");
        req.solutionPath = solPath;
        req.metricsPath = metricsPath;
        req.tracePath = tracePath;
        req.deadlineMs = ms;
        return req;
      },
      [&] {
        EXPECT_FALSE(std::ifstream(solPath).good());
        EXPECT_FALSE(std::ifstream(metricsPath).good());
        EXPECT_FALSE(std::ifstream(tracePath).good());
        removeFiles();
      },
      expiredExecuting);
  EXPECT_TRUE(expiredExecuting) << "no route was stopped mid-execution";
  ASSERT_TRUE(live.ok) << live.error;
  EXPECT_TRUE(std::ifstream(solPath).good());
  EXPECT_TRUE(std::ifstream(metricsPath).good());
  EXPECT_GT(live.traceSpans, 0);
  EXPECT_TRUE(std::ifstream(tracePath).good());
}

/// The text of the file at `path`.
std::string fileText(const std::string& path) {
  std::stringstream buf;
  buf << std::ifstream(path).rdbuf();
  return buf.str();
}

TEST(ServeMemo, RepeatRouteAnswersFromTheMemo) {
  const chip::Chip chip = chip::generateChip(chip::s3Params());
  const std::string oneShot =
      core::solutionToString(core::routeChip(chip, core::pacorDefaultConfig()));

  serve::Server server;
  server.context("M", [&] { return chip; });
  const serve::Response first = call(server, requestFor("M"));
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_FALSE(first.memo);
  EXPECT_GT(first.coldBuilds, 0);

  serve::Request repeat = requestFor("M");
  repeat.solutionPath = testing::TempDir() + "serve_memo_repeat.sol";
  std::remove(repeat.solutionPath.c_str());
  const serve::Response second = call(server, repeat);
  ASSERT_TRUE(second.ok) << second.error;
  EXPECT_TRUE(second.memo);
  EXPECT_EQ(second.coldBuilds, 0);
  EXPECT_EQ(second.solutionText, oneShot);
  EXPECT_EQ(second.solutionHash, first.solutionHash);
  EXPECT_EQ(second.complete, first.complete);
  EXPECT_EQ(second.clusterCount, first.clusterCount);
  EXPECT_EQ(second.totalLength, first.totalLength);
  EXPECT_EQ(fileText(repeat.solutionPath), oneShot);
}

// An obstacle on a routed escape channel makes the eco re-route that
// cluster around the frozen rest, which answers differently from a route
// of the edited chip, so a memo that served the eco result to the next
// route would fail here.
TEST(ServeMemo, FirstRouteAfterAnEcoRoutesTheEditedChip) {
  const chip::Chip base = chip::generateChip(chip::s2Params());
  const core::PacorResult oneShot = core::routeChip(base, core::pacorDefaultConfig());
  chip::ChipDelta d;
  d.addObstacle(channelCellOf(oneShot));
  const std::string deltaPath = testing::TempDir() + "serve_memo_eco.delta";
  chip::writeDeltaFile(deltaPath, d);
  const std::string ecoText = core::solutionToString(
      core::rerouteChip(base, oneShot, d, core::pacorDefaultConfig()));
  const std::string editedText = core::solutionToString(
      core::routeChip(chip::apply(base, d), core::pacorDefaultConfig()));
  ASSERT_NE(ecoText, editedText) << "the edit must tell the eco answer from a route";

  serve::Server server;
  server.context("E", [&] { return base; });
  const serve::Response before = call(server, requestFor("E"));
  ASSERT_TRUE(before.ok) << before.error;
  const serve::Response eco = call(server, requestFor("E", deltaPath));
  ASSERT_TRUE(eco.ok) << eco.error;
  EXPECT_FALSE(eco.memo);
  EXPECT_EQ(eco.solutionText, ecoText);
  const serve::Response after = call(server, requestFor("E"));
  ASSERT_TRUE(after.ok) << after.error;
  EXPECT_FALSE(after.memo);
  EXPECT_EQ(after.solutionText, editedText);
  const serve::Response repeat = call(server, requestFor("E"));
  ASSERT_TRUE(repeat.ok) << repeat.error;
  EXPECT_TRUE(repeat.memo);
  EXPECT_EQ(repeat.solutionText, editedText);
}

TEST(ServeMemo, AnotherVariantRoutesAgain) {
  const chip::Chip chip = chip::generateChip(chip::s2Params());
  const std::string pacor =
      core::solutionToString(core::routeChip(chip, core::pacorDefaultConfig()));
  const std::string wosel =
      core::solutionToString(core::routeChip(chip, core::withoutSelectionConfig()));
  ASSERT_NE(pacor, wosel);

  serve::Server server;
  server.context("V", [&] { return chip; });
  serve::Request woselRoute = requestFor("V");
  woselRoute.variant = serve::Variant::kWosel;
  const std::vector<serve::Request> requests = {requestFor("V"), woselRoute,
                                                requestFor("V"), requestFor("V")};
  for (std::size_t i = 0; i < requests.size(); ++i) {
    SCOPED_TRACE(i);
    const serve::Response resp = call(server, requests[i]);
    ASSERT_TRUE(resp.ok) << resp.error;
    EXPECT_EQ(resp.memo, i == 3);
    EXPECT_EQ(resp.solutionText,
              requests[i].variant == serve::Variant::kWosel ? wosel : pacor);
  }
}

TEST(ServeMemo, MetricsAndTraceRequestsAlwaysRoute) {
  const chip::Chip chip = chip::generateChip(chip::s2Params());
  const std::string oneShot =
      core::solutionToString(core::routeChip(chip, core::pacorDefaultConfig()));

  serve::Server server;
  server.context("R", [&] { return chip; });
  ASSERT_TRUE(call(server, requestFor("R")).ok);
  serve::Request metrics = requestFor("R");
  metrics.metricsPath = testing::TempDir() + "serve_memo_metrics.json";
  serve::Request traced = requestFor("R");
  traced.tracePath = testing::TempDir() + "serve_memo_trace.json";
  for (const serve::Request& req : {metrics, traced, metrics}) {
    const serve::Response resp = call(server, req);
    ASSERT_TRUE(resp.ok) << resp.error;
    EXPECT_FALSE(resp.memo) << serve::formatRequestLine(req);
    EXPECT_EQ(resp.solutionText, oneShot);
  }
  EXPECT_NE(fileText(metrics.metricsPath).find("\"escape.flow.cold_builds\": 0"),
            std::string::npos);
  EXPECT_EQ(spanCount(traced.tracePath, "pacor.route"), 1);
  // A plain route after them answers from the memo they refreshed.
  const serve::Response plain = call(server, requestFor("R"));
  ASSERT_TRUE(plain.ok) << plain.error;
  EXPECT_TRUE(plain.memo);
  EXPECT_EQ(plain.solutionText, oneShot);
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
  const int failed =
      serve::runBatch(manifest, out, serve::AdmissionOptions{.maxInflight = 1});
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
  const int failed =
      serve::runBatch(manifest, out, serve::AdmissionOptions{.maxInflight = 2});
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
