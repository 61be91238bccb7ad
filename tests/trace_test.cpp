// Tests for the tracing + metrics subsystem (src/trace): registry
// semantics, zero-emission when disabled, span coverage of the five
// pipeline stages, laminar nesting of search-level traces with unchanged
// routed output, and the Chrome trace_event JSON shape.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "pacor/pipeline.hpp"
#include "pacor/solution_io.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"

namespace pacor {
namespace {

/// Two hand-placed length-matched pairs on a 24x24 die with four edge
/// pins: small enough to route in milliseconds, rich enough to exercise
/// every pipeline stage.
chip::Chip makeChip() {
  chip::Chip c;
  c.name = "trace-fixture";
  c.routingGrid = grid::Grid(24, 24);
  c.delta = 1;
  c.valves = {{0, {6, 6}, chip::ActivationSequence("01")},
              {1, {6, 10}, chip::ActivationSequence("01")},
              {2, {16, 16}, chip::ActivationSequence("10")},
              {3, {16, 12}, chip::ActivationSequence("10")}};
  c.pins = {{0, {0, 8}}, {1, {23, 14}}, {2, {8, 0}}, {3, {23, 0}}};
  c.givenClusters = {{{0, 1}, true}, {{2, 3}, true}};
  return c;
}

std::vector<std::string> names(const std::vector<trace::Event>& events) {
  std::vector<std::string> out;
  out.reserve(events.size());
  for (const trace::Event& e : events) out.emplace_back(e.name);
  return out;
}

bool contains(const std::vector<std::string>& haystack, const std::string& needle) {
  for (const std::string& s : haystack)
    if (s == needle) return true;
  return false;
}

TEST(Metrics, SetAddLookupRoundTrip) {
  trace::MetricsRegistry m;
  EXPECT_TRUE(m.empty());
  m.setInt("a.count", 3);
  m.addInt("a.count", 4);
  m.addInt("b.fresh", 2);
  m.setReal("c.seconds", 1.5);
  EXPECT_EQ(m.size(), 3u);
  EXPECT_EQ(m.getInt("a.count"), 7);
  EXPECT_EQ(m.getInt("b.fresh"), 2);
  EXPECT_DOUBLE_EQ(m.getReal("c.seconds"), 1.5);
  EXPECT_DOUBLE_EQ(m.getReal("a.count"), 7.0);  // int promoted on real read
  EXPECT_EQ(m.getInt("missing", -1), -1);
  EXPECT_EQ(m.find("missing"), nullptr);
  // Overwrite keeps insertion position.
  m.setInt("a.count", 1);
  EXPECT_EQ(m.entries().front().name, "a.count");
  EXPECT_EQ(m.getInt("a.count"), 1);
}

TEST(Metrics, JsonIsDeterministicAndOrdered) {
  trace::MetricsRegistry m;
  m.setInt("x", 1);
  m.setReal("y", 0.25);
  EXPECT_EQ(m.toJson(), "{\"x\": 1, \"y\": 0.25}");
  EXPECT_EQ(m.toJson(/*pretty=*/true), "{\n  \"x\": 1,\n  \"y\": 0.25\n}");
  EXPECT_EQ(trace::MetricsRegistry().toJson(), "{}");
}

TEST(Trace, DisabledEmitsNothingAndCostsNoSession) {
  EXPECT_FALSE(trace::enabled());
  EXPECT_FALSE(trace::sessionActive());
  {
    trace::Span span("should.not.appear", "test");
    span.arg("k", 1);
  }
  EXPECT_TRUE(trace::endSession().empty());

  // A disabled run of the full pipeline emits nothing either.
  const auto result = core::routeChip(makeChip(), core::pacorDefaultConfig());
  EXPECT_TRUE(result.complete);
  EXPECT_TRUE(trace::endSession().empty());
}

TEST(Trace, LevelFiltersSpans) {
  trace::beginSession(trace::Level::kStage);
  {
    trace::Span keep("keep", "test", trace::Level::kStage);
    trace::Span drop("drop", "test", trace::Level::kCluster);
    trace::Span dropDeep("drop.deep", "test", trace::Level::kSearch);
  }
  const auto events = trace::endSession();
  const auto got = names(events);
  EXPECT_TRUE(contains(got, "keep"));
  EXPECT_FALSE(contains(got, "drop"));
  EXPECT_FALSE(contains(got, "drop.deep"));
  EXPECT_FALSE(trace::sessionActive());
}

TEST(Trace, SerialRunCoversAllFiveStages) {
  trace::beginSession(trace::Level::kStage);
  const auto result = core::routeChip(makeChip(), core::pacorDefaultConfig());
  const auto events = trace::endSession();
  EXPECT_TRUE(result.complete);

  const auto got = names(events);
  for (const char* stage :
       {"pacor.route", "stage.clustering", "stage.cluster_routing",
        "stage.mst_routing", "stage.escape", "stage.detour"})
    EXPECT_TRUE(contains(got, stage)) << "missing span " << stage;

  // Everything ran on one thread at kStage, and the root span covers the
  // stage spans.
  std::int64_t rootStart = 0, rootEnd = 0;
  for (const trace::Event& e : events) {
    EXPECT_EQ(e.tid, 0);
    if (std::string(e.name) == "pacor.route") {
      rootStart = e.startNs;
      rootEnd = e.startNs + e.durNs;
    }
  }
  for (const trace::Event& e : events) {
    EXPECT_GE(e.startNs, rootStart) << e.name;
    EXPECT_LE(e.startNs + e.durNs, rootEnd) << e.name;
  }
}

TEST(Trace, SearchTraceIsLaminarAndOutputUnchanged) {
  const chip::Chip chip = makeChip();
  const auto untraced = core::routeChip(chip);

  trace::beginSession(trace::Level::kSearch);
  const auto traced = core::routeChip(chip);
  const auto events = trace::endSession();

  // Tracing at search granularity must not perturb the routed result.
  EXPECT_EQ(core::solutionToString(traced), core::solutionToString(untraced));

  // kSearch adds per-search spans on top of the stage spans.
  EXPECT_GT(events.size(), 6u);
  EXPECT_TRUE(contains(names(events), "route.astar"));

  // A route runs on one thread, so the whole trace carries one tid.
  for (const trace::Event& e : events) EXPECT_EQ(e.tid, 0) << e.name;

  // Spans are laminar: any two either nest or are disjoint.
  for (std::size_t i = 0; i < events.size(); ++i)
    for (std::size_t j = i + 1; j < events.size(); ++j) {
      const auto aS = events[i].startNs, aE = aS + events[i].durNs;
      const auto bS = events[j].startNs, bE = bS + events[j].durNs;
      const bool disjoint = aE <= bS || bE <= aS;
      const bool nested = (aS <= bS && bE <= aE) || (bS <= aS && aE <= bE);
      EXPECT_TRUE(disjoint || nested)
          << events[i].name << " [" << aS << "," << aE << ") overlaps "
          << events[j].name << " [" << bS << "," << bE << ")";
    }

  // The merge is sorted by start time.
  for (std::size_t i = 1; i < events.size(); ++i)
    EXPECT_LE(events[i - 1].startNs, events[i].startNs);
}

TEST(Trace, SessionHandleCollectsItsOwnEvents) {
  // A local Session records a region in isolation; the free-function API
  // (backed by the default instance) sees nothing of it.
  trace::Session local;
  EXPECT_FALSE(local.active());
  local.begin(trace::Level::kStage);
  EXPECT_TRUE(local.active());
  EXPECT_TRUE(trace::sessionActive());
  { trace::Span span("local.work", "test"); }
  EXPECT_TRUE(trace::endSession().empty());  // default instance not active
  EXPECT_TRUE(local.active());               // ... and did not end `local`
  const auto events = local.end();
  EXPECT_FALSE(local.active());
  EXPECT_TRUE(contains(names(events), "local.work"));
  EXPECT_TRUE(local.end().empty());  // ended sessions return nothing
}

TEST(Trace, SessionBeginSupersedesActiveRecorder) {
  trace::Session first;
  trace::Session second;
  first.begin(trace::Level::kStage);
  { trace::Span span("first.work", "test"); }
  second.begin(trace::Level::kStage);  // discards first's events
  EXPECT_FALSE(first.active());
  EXPECT_TRUE(second.active());
  // The loser is told about the discard instead of just returning an
  // empty event list (callers like the serve loop surface this).
  EXPECT_TRUE(first.superseded());
  EXPECT_FALSE(second.superseded());
  { trace::Span span("second.work", "test"); }
  EXPECT_TRUE(first.end().empty());
  const auto events = second.end();
  EXPECT_TRUE(contains(names(events), "second.work"));
  EXPECT_FALSE(contains(names(events), "first.work"));
  EXPECT_FALSE(trace::sessionActive());

  // A fresh begin() clears the stale flag.
  first.begin(trace::Level::kStage);
  EXPECT_FALSE(first.superseded());
  first.end();
}

TEST(Trace, DefaultSessionBacksFreeFunctions) {
  EXPECT_FALSE(trace::defaultSession().active());
  trace::beginSession(trace::Level::kStage);
  EXPECT_TRUE(trace::defaultSession().active());
  { trace::Span span("default.work", "test"); }
  const auto events = trace::defaultSession().end();  // mix-and-match APIs
  EXPECT_TRUE(contains(names(events), "default.work"));
  EXPECT_FALSE(trace::sessionActive());
}

TEST(Trace, ChromeJsonShapeAndFileRoundTrip) {
  trace::beginSession(trace::Level::kCluster);
  {
    trace::Span outer("outer", "test");
    outer.arg("items", 3);
    trace::Span inner("inner", "test", trace::Level::kCluster);
    inner.arg("visits", 42);
    inner.arg("found", 1);
  }
  const auto events = trace::endSession();
  ASSERT_EQ(events.size(), 2u);

  const std::string json = trace::toChromeJson(events);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"outer\""), std::string::npos);
  EXPECT_NE(json.find("\"visits\": 42"), std::string::npos);
  std::int64_t depth = 0;
  bool balanced = true;
  for (const char ch : json) {
    depth += ch == '{' ? 1 : (ch == '}' ? -1 : 0);
    depth += ch == '[' ? 1 : (ch == ']' ? -1 : 0);
    balanced &= depth >= 0;
  }
  EXPECT_TRUE(balanced);
  EXPECT_EQ(depth, 0);

  const std::string path = "trace_test_roundtrip.json";
  ASSERT_TRUE(trace::writeChromeTrace(path, events));
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), json);
  std::remove(path.c_str());
}

TEST(Trace, ResultMetricsCoverThePipeline) {
  const auto result = core::routeChip(makeChip(), core::pacorDefaultConfig());
  const trace::MetricsRegistry& m = result.metrics;
  for (const char* key :
       {"pipeline.complete", "clusters.total", "clusters.matched",
        "length.total", "lm.candidates_built", "escape.rounds", "escape.splits",
        "detour.reroutes", "detour.iterations", "detour.restores",
        "search.cluster_routing.searches", "search.escape.expansions",
        "search.detour.bounded_visits"})
    EXPECT_NE(m.find(key), nullptr) << "missing metric " << key;
  EXPECT_NE(m.find("time.total_s"), nullptr);
  EXPECT_EQ(m.getInt("clusters.total"),
            static_cast<std::int64_t>(result.clusters.size()));
  EXPECT_EQ(m.getInt("pipeline.complete"), result.complete ? 1 : 0);
  EXPECT_EQ(m.getInt("detour.reroutes"), result.detourReroutes);
  EXPECT_GT(m.getReal("time.total_s"), 0.0);
}

}  // namespace
}  // namespace pacor
