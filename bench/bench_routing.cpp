// Reproducible end-to-end routing benchmark: routes every Table-1 design
// with the full PACOR flow twice (each a best-of-kRepetitions run), checks
// that the two solutions are byte-identical, and writes the timings plus
// the pipeline's per-stage time / search-effort counters to
// BENCH_routing.json in the working directory. Intended for before/after
// comparisons of the routing kernels: routed quality must not move, only
// the seconds.
//
// Each design record also carries an "eco" row: the best-of-kRepetitions
// rerouteChip() latency for the canonical 1-valve-move edit (valve 0 to
// the nearest free cell) and its speedup over the serial from-scratch
// time. compare_baseline.py bands the latency and hard-gates the Chip1
// speedup; bench_eco covers more edit kinds in depth.
//
// Usage: bench_routing [out.json]   (default: BENCH_routing.json)

#include <chrono>
#include <cstdio>
#include <string>
#include <unordered_set>

#include "chip/delta.hpp"
#include "chip/generator.hpp"
#include "pacor/eco.hpp"
#include "pacor/pipeline.hpp"
#include "pacor/solution_io.hpp"
#include "util/rss.hpp"
#include "util/sha256.hpp"

namespace {

using pacor::core::PacorConfig;
using pacor::core::PacorResult;

constexpr int kRepetitions = 3;  ///< per design and run; best time wins

struct TimedRun {
  PacorResult result;
  double seconds = 0.0;
};

TimedRun bestOf(const pacor::chip::Chip& chip, const PacorConfig& cfg) {
  TimedRun best;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    PacorResult r = pacor::core::routeChip(chip, cfg);
    const double s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    if (rep == 0 || s < best.seconds) {
      best.result = std::move(r);
      best.seconds = s;
    }
  }
  return best;
}

/// Free cell closest (Manhattan) to `from`, y-major ties -- deterministic,
/// so the measured ECO edit is identical run to run.
pacor::geom::Point nearestFreeCell(const pacor::chip::Chip& chip,
                                   pacor::geom::Point from) {
  std::unordered_set<pacor::geom::Point> used(chip.obstacles.begin(),
                                              chip.obstacles.end());
  for (const auto& v : chip.valves) used.insert(v.pos);
  for (const auto& p : chip.pins) used.insert(p.pos);
  pacor::geom::Point best{-1, -1};
  std::int64_t bestDist = -1;
  for (std::int32_t y = 0; y < chip.routingGrid.height(); ++y)
    for (std::int32_t x = 0; x < chip.routingGrid.width(); ++x) {
      const pacor::geom::Point p{x, y};
      if (used.count(p)) continue;
      const std::int64_t d = pacor::geom::manhattan(from, p);
      if (bestDist < 0 || d < bestDist) {
        best = p;
        bestDist = d;
      }
    }
  return best;
}

const char* ecoModeName(pacor::core::EcoInfo::Mode mode) {
  switch (mode) {
    case pacor::core::EcoInfo::Mode::kIdentity: return "identity";
    case pacor::core::EcoInfo::Mode::kIncremental: return "incremental";
    case pacor::core::EcoInfo::Mode::kFull: return "full";
  }
  return "?";
}

void jsonCounters(std::FILE* f, const char* key,
                  const pacor::route::SearchCounters& c, const char* tail) {
  std::fprintf(f,
               "        \"%s\": {\"searches\": %llu, \"expansions\": %llu, "
               "\"bounded_visits\": %llu}%s\n",
               key, static_cast<unsigned long long>(c.searches),
               static_cast<unsigned long long>(c.expansions),
               static_cast<unsigned long long>(c.boundedVisits), tail);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string outPath = argc > 1 ? argv[1] : "BENCH_routing.json";
  const PacorConfig cfg = pacor::core::pacorDefaultConfig();

  std::FILE* f = std::fopen(outPath.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", outPath.c_str());
    return 2;
  }
  std::fprintf(f, "{\n  \"benchmark\": \"routing\",\n");
  std::fprintf(f, "  \"repetitions\": %d,\n  \"designs\": [\n", kRepetitions);

  double serialTotal = 0.0;
  bool allIdentical = true;
  bool allComplete = true;

  const auto designs = pacor::chip::table1Designs();
  std::printf("%-8s %10s %10s  %s\n", "Design", "serial(s)", "repeat(s)",
              "identical");
  for (std::size_t d = 0; d < designs.size(); ++d) {
    const auto chip = pacor::chip::generateChip(designs[d]);
    const TimedRun serial = bestOf(chip, cfg);
    const TimedRun repeat = bestOf(chip, cfg);
    // Byte-identity of two runs in one process: routing is deterministic.
    const std::string solution = pacor::core::solutionToString(serial.result);
    const bool identical = solution == pacor::core::solutionToString(repeat.result);
    serialTotal += serial.seconds;
    allIdentical &= identical;
    allComplete &= serial.result.complete && repeat.result.complete;

    std::printf("%-8s %10.3f %10.3f  %s\n", chip.name.c_str(), serial.seconds,
                repeat.seconds, identical ? "yes" : "NO");

    const auto& st = serial.result.times;
    std::fprintf(f, "    {\n      \"design\": \"%s\",\n", chip.name.c_str());
    std::fprintf(f, "      \"serial_seconds\": %.6f,\n", serial.seconds);
    std::fprintf(f, "      \"identical\": %s,\n", identical ? "true" : "false");
    std::fprintf(f, "      \"complete\": %s,\n",
                 serial.result.complete ? "true" : "false");
    std::fprintf(f, "      \"total_channel_length\": %lld,\n",
                 static_cast<long long>(serial.result.totalChannelLength));
    std::fprintf(f, "      \"matched_channel_length\": %lld,\n",
                 static_cast<long long>(serial.result.matchedChannelLength));
    std::fprintf(f, "      \"matched_clusters\": %d,\n",
                 serial.result.matchedClusterCount);
    // Hash of the canonical solution text: lets compare_baseline.py verify
    // that routed quality only moves together with a golden-hash re-pin.
    std::fprintf(f, "      \"solution_sha256\": \"%s\",\n",
                 pacor::util::sha256Hex(solution).c_str());
    std::fprintf(f,
                 "      \"stage_seconds\": {\"clustering\": %.6f, "
                 "\"cluster_routing\": %.6f, \"escape\": %.6f, "
                 "\"detour\": %.6f, \"total\": %.6f},\n",
                 st.clustering, st.clusterRouting, st.escape, st.detour, st.total);
    std::fprintf(f, "      \"search\": {\n");
    jsonCounters(f, "cluster_routing", serial.result.searchClusterRouting, ",");
    jsonCounters(f, "escape", serial.result.searchEscape, ",");
    jsonCounters(f, "detour", serial.result.searchDetour, "");
    std::fprintf(f, "      },\n");

    // ECO row: 1-valve-move rerouteChip latency against the serial
    // from-scratch time (the edited chip's scratch cost is statistically
    // the base chip's -- one valve moved).
    {
      pacor::chip::ChipDelta delta;
      delta.moveValve(0, nearestFreeCell(chip, chip.valves.front().pos));
      pacor::core::EcoInfo info;
      double ecoSeconds = 0.0;
      for (int rep = 0; rep < kRepetitions; ++rep) {
        const auto t0 = std::chrono::steady_clock::now();
        const PacorResult eco = pacor::core::rerouteChip(
            chip, serial.result, delta, cfg, {}, &info);
        const double s = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
        if (rep == 0 || s < ecoSeconds) ecoSeconds = s;
        allComplete &= eco.complete;
      }
      std::fprintf(f,
                   "      \"eco\": {\"edit\": \"valve_move\", \"mode\": \"%s\", "
                   "\"seconds\": %.6f, \"speedup\": %.4f},\n",
                   ecoModeName(info.mode), ecoSeconds,
                   ecoSeconds > 0.0 ? serial.seconds / ecoSeconds : 0.0);
    }

    std::fprintf(f, "      \"metrics\": %s\n",
                 serial.result.metrics.toJson(/*pretty=*/false).c_str());
    std::fprintf(f, "    }%s\n", d + 1 < designs.size() ? "," : "");
  }

  std::fprintf(f, "  ],\n  \"summary\": {\n");
  std::fprintf(f, "    \"serial_seconds_total\": %.6f,\n", serialTotal);
  std::fprintf(f, "    \"peak_rss_kb\": %lld,\n",
               static_cast<long long>(pacor::util::peakRssKb()));
  std::fprintf(f, "    \"all_identical\": %s,\n", allIdentical ? "true" : "false");
  std::fprintf(f, "    \"all_complete\": %s\n  }\n}\n",
               allComplete ? "true" : "false");
  std::fclose(f);

  std::printf("total: serial %.3fs, wrote %s\n", serialTotal, outPath.c_str());
  return allIdentical && allComplete ? 0 : 1;
}
