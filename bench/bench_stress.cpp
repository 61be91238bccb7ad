// Quality table and stress reproduction of the Table 2 *ordering*. Every
// design family is routed under the three variants and summed per family
// and variant (completed routes, matched clusters, total channel length):
//   * Table 1, chip::stressParams 1-40 and chip::randomParams 1-120 -- 501
//     routes. The Table 1 designs are routable enough that every variant
//     saturates, so the stress family packs many length-matching clusters
//     into congested dies; the paper's qualitative claims (candidate
//     selection raises the matched count; detour-first can save
//     wirelength but costs matches) must show in its sums.
//   * four obstacle-sprinkled FPVA valve-array families, seeds 1-8 (the
//     FPVA setting of Liu et al., arXiv 1705.04996), where the escape
//     stage's de-clustering rounds decide completion.
// `bench_stress --benchmark_filter=NONE` prints the tables without timing
// anything. Also isolates the Sec. 5 claim that the min-cost-flow escape
// beats greedy sequential escape on routability and length.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <functional>
#include <iterator>
#include <string>
#include <vector>

#include "chip/generator.hpp"
#include "pacor/escape.hpp"
#include "pacor/pipeline.hpp"

namespace {

using pacor::core::PacorResult;

void printStressComparison() {
  using pacor::chip::Chip;
  struct Family {
    std::string name;
    std::uint32_t size;
    std::function<Chip(std::uint32_t)> design;  ///< 1-based index -> chip
  };
  const auto fpva = [](std::string spec) {
    return Family{spec, 8, [spec](std::uint32_t seed) {
                    return pacor::chip::generateFpvaChip(pacor::chip::parseFpvaSpec(
                        spec + ":seed=" + std::to_string(seed)));
                  }};
  };
  const std::vector<pacor::chip::GeneratorParams> table1 = pacor::chip::table1Designs();
  const std::vector<Family> families = {
      {"table1", static_cast<std::uint32_t>(table1.size()),
       [&table1](std::uint32_t i) { return pacor::chip::generateChip(table1[i - 1]); }},
      {"stress", 40,
       [](std::uint32_t seed) {
         return pacor::chip::generateChip(pacor::chip::stressParams(seed));
       }},
      {"random", 120,
       [](std::uint32_t seed) {
         return pacor::chip::generateChip(pacor::chip::randomParams(seed));
       }},
      fpva("fpva:24x24:obs=30"),
      fpva("fpva:16x16:obs=80:lm=80"),
      fpva("fpva:32x32:obs=40"),
      fpva("fpva:24x24:obs=60"),
  };
  const struct {
    const char* name;
    pacor::core::PacorConfig config;
  } variants[] = {{"PACOR", pacor::core::pacorDefaultConfig()},
                  {"w/oSel", pacor::core::withoutSelectionConfig()},
                  {"DetF", pacor::core::detourFirstConfig()}};

  std::printf("\n=== Quality sums per design family and variant ===\n");
  std::printf("%-24s %-7s %9s %8s %10s\n", "family", "variant", "complete", "matched",
              "length");
  for (const Family& family : families) {
    struct Sums {
      int complete = 0;
      int matched = 0;
      long long length = 0;
    } sums[std::size(variants)];
    for (std::uint32_t i = 1; i <= family.size; ++i) {
      const Chip chip = family.design(i);
      for (std::size_t v = 0; v < std::size(variants); ++v) {
        const PacorResult r = routeChip(chip, variants[v].config);
        sums[v].complete += r.complete ? 1 : 0;
        sums[v].matched += r.matchedClusterCount;
        sums[v].length += r.totalChannelLength;
      }
    }
    for (std::size_t v = 0; v < std::size(variants); ++v)
      std::printf("%-24s %-7s %5d/%-3u %8d %10lld\n", family.name.c_str(), variants[v].name,
                  sums[v].complete, family.size, sums[v].matched, sums[v].length);
  }
  std::printf("\n");
}

/// Builds N internally-routed singleton clusters in a row competing for
/// pins on one edge through an obstacle shelf; runs either escape solver.
void escapeScenario(bool useFlow, int& routed, long long& length) {
  using pacor::geom::Point;
  pacor::chip::Chip chip;
  chip.name = "escape-abl";
  chip.routingGrid = pacor::grid::Grid(30, 18);
  int id = 0;
  for (int i = 0; i < 8; ++i) {
    const std::string seq = std::string(1, '0' + (i & 1)) +
                            std::string(1, '0' + ((i >> 1) & 1)) +
                            std::string(1, '0' + ((i >> 2) & 1)) + "1";
    chip.valves.push_back({id++, Point{7 + 2 * i, 12}, pacor::chip::ActivationSequence(seq)});
  }
  for (int i = 0; i < 9; ++i) chip.pins.push_back({i, Point{6 + 2 * i, 0}});
  for (std::int32_t x = 6; x <= 22; ++x)
    if (x != 9 && x != 16) chip.obstacles.push_back({x, 6});

  pacor::grid::ObstacleMap obs = chip.makeObstacleMap();
  std::vector<pacor::core::WorkCluster> clusters(chip.valves.size());
  for (std::size_t i = 0; i < clusters.size(); ++i) {
    auto& wc = clusters[i];
    wc.spec.valves = {static_cast<pacor::chip::ValveId>(i)};
    wc.net = static_cast<pacor::grid::NetId>(i);
    const Point cell = chip.valves[i].pos;
    obs.occupy(std::span<const Point>(&cell, 1), wc.net);
    wc.tap = cell;
    wc.tapCells = {cell};
    wc.internallyRouted = true;
  }
  std::vector<pacor::core::WorkCluster*> ptrs;
  for (auto& wc : clusters) ptrs.push_back(&wc);
  const auto outcome = useFlow ? pacor::core::escapeRoute(chip, obs, ptrs)
                               : pacor::core::escapeRouteSequential(chip, obs, ptrs);
  routed = outcome.routedCount;
  length = 0;
  for (const auto& wc : clusters)
    length += pacor::route::pathLength(wc.escapePath);
}

void printEscapeAblation() {
  std::printf("=== Escape routing: min-cost flow vs greedy sequential ===\n");
  int routed = 0;
  long long length = 0;
  escapeScenario(false, routed, length);
  std::printf("sequential A*:  routed %d/8, total length %lld\n", routed, length);
  escapeScenario(true, routed, length);
  std::printf("min-cost flow:  routed %d/8, total length %lld\n", routed, length);
  std::printf("\n");
}

void BM_EscapeFlow(benchmark::State& state) {
  for (auto _ : state) {
    int routed = 0;
    long long length = 0;
    escapeScenario(state.range(0) != 0, routed, length);
    benchmark::DoNotOptimize(routed);
  }
  state.SetLabel(state.range(0) ? "flow" : "sequential");
}
BENCHMARK(BM_EscapeFlow)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_StressFullFlow(benchmark::State& state) {
  const auto chip = pacor::chip::generateChip(pacor::chip::stressParams(1));
  for (auto _ : state) {
    auto r = pacor::core::routeChip(chip);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_StressFullFlow)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  printStressComparison();
  printEscapeAblation();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
