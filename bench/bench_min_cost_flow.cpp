// Standalone microbenchmark for graph::MinCostFlow, the escape-routing
// kernel: synthetic node-split grids (the escape network shape of Sec. 5)
// at Table-1 scale (n = 120, the Chip1/Chip2 routing-grid magnitude) and
// an FPVA-like scale (n = 300, the 10-100x valve-count workloads of the
// fully-programmable-valve-array papers), solved on a fresh network each
// iteration (construction excluded from the timed region) with the default
// Dial-bucket open list vs. the pure packed heap (bucket span 0, so every
// label overflows into the heap) -- identical results, different queue.
//
// Per-iteration solver-effort counters (Dijkstra passes, settles, queue
// traffic) are exported as benchmark counters, so a solver regression is
// visible here without routing a whole chip.

#include <benchmark/benchmark.h>

#include <cstdint>

#include "graph/min_cost_flow.hpp"

namespace {

using pacor::graph::MinCostFlow;

// k unit source->sink pairs across an n x n unit-capacity node-split grid:
// every cell splits into in/out (cap 1, cost 0), 4-neighbor channel arcs
// cost 1 both ways, k taps on the left edge, k pin arcs on the right.
struct GridSpec {
  std::int32_t n;
  std::size_t nodes() const { return static_cast<std::size_t>(2 * n * n + 2); }
  std::size_t s() const { return static_cast<std::size_t>(2 * n * n); }
  std::size_t t() const { return s() + 1; }
  std::int32_t demand() const { return n / 4; }
};

void buildGrid(MinCostFlow& flow, const GridSpec& g) {
  const std::int32_t n = g.n;
  const auto in = [&](std::int32_t x, std::int32_t y) {
    return static_cast<std::size_t>(2 * (y * n + x));
  };
  const auto out = [&](std::int32_t x, std::int32_t y) {
    return static_cast<std::size_t>(2 * (y * n + x) + 1);
  };
  for (std::int32_t y = 0; y < n; ++y)
    for (std::int32_t x = 0; x < n; ++x) {
      flow.addEdge(in(x, y), out(x, y), 1, 0);
      if (x + 1 < n) {
        flow.addEdge(out(x, y), in(x + 1, y), 1, 1);
        flow.addEdge(out(x + 1, y), in(x, y), 1, 1);
      }
      if (y + 1 < n) {
        flow.addEdge(out(x, y), in(x, y + 1), 1, 1);
        flow.addEdge(out(x, y + 1), in(x, y), 1, 1);
      }
    }
  for (std::int32_t i = 0; i < g.demand(); ++i) {
    const std::int32_t y = 1 + (2 * i) % (n - 1);
    flow.addEdge(g.s(), in(0, y), 1, 0);
    flow.addEdge(out(n - 1, y), g.t(), 1, 0);
  }
}

void reportCounters(benchmark::State& state, const MinCostFlow::Counters& c) {
  const auto perIter = benchmark::Counter::kAvgIterations;
  state.counters["passes"] =
      benchmark::Counter(static_cast<double>(c.dijkstraPasses), perIter);
  state.counters["settles"] =
      benchmark::Counter(static_cast<double>(c.settles), perIter);
  state.counters["pushes"] = benchmark::Counter(
      static_cast<double>(c.bucketPushes + c.heapPushes), perIter);
}

// state.range(0): grid size n. range(1): 1 = Dial buckets at the default
// span, 0 = pure heap (span 0).
void BM_SolveCold(benchmark::State& state) {
  const GridSpec g{static_cast<std::int32_t>(state.range(0))};
  MinCostFlow::Counters total;
  std::int64_t flow = 0, cost = 0;
  for (auto _ : state) {
    state.PauseTiming();  // network construction is not the kernel
    MinCostFlow solver(g.nodes());
    buildGrid(solver, g);
    if (state.range(1) == 0) solver.setBucketSpan(0);
    state.ResumeTiming();
    const auto r = solver.run(g.s(), g.t());
    benchmark::DoNotOptimize(r);
    state.PauseTiming();
    flow = r.flow;
    cost = r.cost;
    const auto& c = solver.counters();
    total.dijkstraPasses += c.dijkstraPasses;
    total.settles += c.settles;
    total.bucketPushes += c.bucketPushes;
    total.heapPushes += c.heapPushes;
    state.ResumeTiming();
  }
  reportCounters(state, total);
  state.counters["flow"] = static_cast<double>(flow);
  state.counters["cost"] = static_cast<double>(cost);
}
BENCHMARK(BM_SolveCold)
    ->ArgsProduct({{120, 300}, {1, 0}})  // bucket vs heap
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
