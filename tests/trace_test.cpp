// Tests for the tracing + metrics subsystem (src/trace): registry
// semantics, zero-emission when disabled, thread-scoped sessions, span
// coverage of the five pipeline stages, laminar nesting of search-level
// traces with unchanged routed output, and the Chrome trace_event JSON
// shape.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "chip/generator.hpp"
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

  // The root span covers the stage spans.
  std::int64_t rootStart = 0, rootEnd = 0;
  for (const trace::Event& e : events) {
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

  // The trace is sorted by start time.
  for (std::size_t i = 1; i < events.size(); ++i)
    EXPECT_LE(events[i - 1].startNs, events[i].startNs);
}

TEST(Trace, SearchSpansAddUpToTheSearchCounters) {
  // Each search span carries that search's own effort, so the spans add up
  // to the request's search counters. The escape block also holds the flow
  // solver's passes, settles and augmentations, which have no search span.
  // S4 runs several bounded-length searches, so the visits sum is checked
  // across searches too.
  trace::beginSession(trace::Level::kSearch);
  const auto result = core::routeChip(chip::generateChip(chip::s4Params()));
  const auto events = trace::endSession();

  std::int64_t searches = 0, expansions = 0, visits = 0;
  for (const trace::Event& e : events) {
    const std::string name = e.name;
    if (name != "route.astar" && name != "route.bounded_dfs") continue;
    ++searches;
    for (const trace::Arg& a : e.args) {
      if (a.key == nullptr) continue;
      if (std::string(a.key) == "expansions") expansions += a.value;
      if (std::string(a.key) == "visits") visits += a.value;
    }
  }
  const trace::MetricsRegistry& m = result.metrics;
  const auto total = [&m](const std::string& counter) {
    return m.getInt("search.cluster_routing." + counter) +
           m.getInt("search.escape." + counter) +
           m.getInt("search.detour." + counter);
  };
  EXPECT_GT(expansions, 0);
  EXPECT_GT(visits, 0);
  EXPECT_EQ(searches, total("searches") - m.getInt("escape.flow.dijkstra_passes"));
  EXPECT_EQ(expansions, total("expansions") - m.getInt("escape.flow.settles"));
  EXPECT_EQ(visits, total("bounded_visits") - m.getInt("escape.flow.augmentations"));
}

TEST(Trace, SessionsAreThreadScoped) {
  // Threads A and B record at once, each in its own session; C records
  // with no session. Each thread opens its span only after all three have
  // started, and ends its session only after all three spans closed, so
  // a shared recorder would show up as a foreign span.
  std::atomic<int> started{0};
  std::atomic<int> closed{0};
  const auto waitFor = [](const std::atomic<int>& count) {
    while (count.load() < 3) std::this_thread::yield();
  };
  const auto work = [&](const char* name, bool traced,
                        std::vector<trace::Event>& out) {
    if (traced) trace::beginSession(trace::Level::kStage);
    ++started;
    waitFor(started);
    { trace::Span span(name, "test"); }
    ++closed;
    waitFor(closed);
    out = trace::endSession();
  };
  std::vector<trace::Event> a, b, c;
  std::thread ta(work, "thread.a", true, std::ref(a));
  std::thread tb(work, "thread.b", true, std::ref(b));
  std::thread tc(work, "thread.c", false, std::ref(c));
  ta.join();
  tb.join();
  tc.join();
  EXPECT_EQ(names(a), std::vector<std::string>{"thread.a"});
  EXPECT_EQ(names(b), std::vector<std::string>{"thread.b"});
  EXPECT_TRUE(c.empty());
  EXPECT_FALSE(trace::sessionActive());  // nor did this thread record
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
  EXPECT_GT(m.getReal("time.total_s"), 0.0);
}

}  // namespace
}  // namespace pacor
