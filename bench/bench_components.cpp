// Component-level scaling benchmarks: min-cost max-flow (the escape
// solver), the bounded-length A* (the detour primitive), and plain A* on
// growing grids. These back the complexity claims of Secs. 5-6.

#include <benchmark/benchmark.h>

#include "graph/min_cost_flow.hpp"
#include "grid/obstacle_map.hpp"
#include "route/astar.hpp"
#include "route/bounded_astar.hpp"

namespace {

using pacor::geom::Point;

void BM_MinCostFlowGrid(benchmark::State& state) {
  // k source-sink pairs across an n x n node-split grid.
  const auto n = static_cast<std::int32_t>(state.range(0));
  for (auto _ : state) {
    pacor::graph::MinCostFlow flow(static_cast<std::size_t>(2 * n * n + 2));
    const auto in = [&](std::int32_t x, std::int32_t y) {
      return static_cast<std::size_t>(2 * (y * n + x));
    };
    const auto out = [&](std::int32_t x, std::int32_t y) {
      return static_cast<std::size_t>(2 * (y * n + x) + 1);
    };
    const std::size_t s = static_cast<std::size_t>(2 * n * n);
    const std::size_t t = s + 1;
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
    const std::int32_t k = n / 4;
    for (std::int32_t i = 0; i < k; ++i) {
      flow.addEdge(s, in(0, 1 + 2 * i), 1, 0);
      flow.addEdge(out(n - 1, 1 + 2 * i), t, 1, 0);
    }
    const auto r = flow.run(s, t);
    benchmark::DoNotOptimize(r);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_MinCostFlowGrid)->Arg(16)->Arg(32)->Arg(64)->Unit(benchmark::kMillisecond);

void BM_AStarGrid(benchmark::State& state) {
  const auto n = static_cast<std::int32_t>(state.range(0));
  pacor::grid::ObstacleMap obs{pacor::grid::Grid(n, n)};
  for (std::int32_t i = 4; i < n - 4; i += 4)  // picket-fence obstacles
    for (std::int32_t y = (i % 8 == 0) ? 0 : 4; y < n - ((i % 8 == 0) ? 4 : 0); ++y)
      obs.addObstacle({i, y});
  for (auto _ : state) {
    auto r = pacor::route::aStarPointToPoint(obs, {0, 0}, {n - 1, n - 1});
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_AStarGrid)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

void BM_BoundedAStar(benchmark::State& state) {
  // Fixed endpoints, growing required detour slack.
  pacor::grid::ObstacleMap obs{pacor::grid::Grid(64, 64)};
  const std::int64_t extra = state.range(0);
  pacor::route::BoundedAStarRequest req;
  req.source = {10, 32};
  req.target = {50, 32};
  req.minLength = 40 + extra;
  req.maxLength = 40 + extra + 1;
  for (auto _ : state) {
    auto r = pacor::route::boundedLengthRoute(obs, req);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_BoundedAStar)->Arg(0)->Arg(8)->Arg(32)->Arg(128);

}  // namespace

BENCHMARK_MAIN();
