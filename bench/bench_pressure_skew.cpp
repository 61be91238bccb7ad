// Physical validation of the paper's motivation (Sec. 1): pressure
// propagation through PDMS control channels is slow, so unmatched channel
// lengths desynchronize valves. Routes S3 with and without the final
// detour stage and reports the worst per-cluster actuation skew under the
// RC channel model -- matched clusters must show (near-)zero skew.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <vector>

#include "chip/generator.hpp"
#include "pacor/pipeline.hpp"
#include "sim/analysis.hpp"
#include "sim/pressure.hpp"

namespace {

using pacor::geom::Point;

/// Worst Elmore skew over the clusters that asked for length matching
/// (only the matched ones when `matchedOnly`); unanalyzable clusters
/// report -1 and never raise it.
double worstClusterSkew(const pacor::chip::Chip& chip,
                        const pacor::core::PacorResult& result, bool matchedOnly) {
  double worst = 0.0;
  for (const pacor::sim::ClusterSkew& c : pacor::sim::analyzeSkew(chip, result).clusters) {
    if (!c.lengthMatchRequested) continue;
    if (matchedOnly && !c.lengthMatched) continue;
    worst = std::max(worst, c.elmoreSkew);
  }
  return worst;
}

void printSkewComparison() {
  std::printf("\n=== Pressure-propagation skew: matched vs unmatched routing ===\n");
  for (const auto& params : {pacor::chip::s3Params(), pacor::chip::s4Params()}) {
    const auto chip = pacor::chip::generateChip(params);

    pacor::core::PacorConfig matched;  // full PACOR
    pacor::core::PacorConfig unmatched;
    unmatched.detourIterations = 0;  // skip detouring entirely

    const auto rm = pacor::core::routeChip(chip, matched);
    const auto ru = pacor::core::routeChip(chip, unmatched);
    std::printf("%-4s matched clusters %d/%d, worst Elmore skew %.2f a.u.\n",
                chip.name.c_str(), rm.matchedClusterCount, rm.multiValveClusterCount,
                worstClusterSkew(chip, rm, true));
    std::printf("%-4s without detour:  %d/%d, worst Elmore skew %.2f a.u.\n",
                chip.name.c_str(), ru.matchedClusterCount, ru.multiValveClusterCount,
                worstClusterSkew(chip, ru, false));
  }
  std::printf("\n");
}

void BM_ElmoreAnalysis(benchmark::State& state) {
  const auto chip = pacor::chip::generateChip(pacor::chip::s3Params());
  const auto result = pacor::core::routeChip(chip);
  for (auto _ : state) {
    const double skew = worstClusterSkew(chip, result, false);
    benchmark::DoNotOptimize(skew);
  }
}
BENCHMARK(BM_ElmoreAnalysis);

void BM_TransientSimulation(benchmark::State& state) {
  // One long channel, explicit RC integration.
  pacor::route::Path path;
  for (std::int32_t i = 0; i < static_cast<std::int32_t>(state.range(0)); ++i)
    path.push_back({i, 0});
  const std::vector<pacor::route::Path> paths{path};
  const std::vector<Point> probe{path.back()};
  const auto tree = pacor::sim::ChannelTree::build({0, 0}, paths, probe);
  for (auto _ : state) {
    auto times = tree->actuationTimes(probe, 0.05, 5000.0);
    benchmark::DoNotOptimize(times);
  }
}
BENCHMARK(BM_TransientSimulation)->Arg(16)->Arg(64)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  printSkewComparison();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
