// FPVA scale-sweep benchmark: generates N x N programmable valve arrays
// with the chip::generateFpvaChip defaults across a ladder of sizes,
// routes each with the full PACOR flow twice (each a best-of-kRepetitions
// run; the two solutions must be byte-identical), and writes per-stage
// wall time, search-effort counters, and the process peak RSS to
// BENCH_fpva.json. The JSON shape matches BENCH_routing.json
// so bench/compare_baseline.py gates it unchanged (run with --golden=none:
// FPVA instances are not part of the Table-1 golden set).
//
// Every routed solution is re-checked by the independent oracle
// (verify::verifySolution); an unclean solution fails the run. Peak RSS
// is a process-global high-water mark, so each row reports the value
// observed after that size finished -- the column is monotone and the
// largest size's row is the sweep's peak.
//
// Usage: bench_fpva [out.json] [--sizes=8,16,32,40,64]
//   out.json  defaults to BENCH_fpva.json
//   --sizes=  comma-separated square array sizes (rows = cols = N)

#include <chrono>
#include <cstdio>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "chip/generator.hpp"
#include "pacor/pipeline.hpp"
#include "pacor/solution_io.hpp"
#include "util/rss.hpp"
#include "util/sha256.hpp"
#include "util/whole_number.hpp"
#include "verify/oracle.hpp"

namespace {

using pacor::core::PacorConfig;
using pacor::core::PacorResult;

constexpr int kRepetitions = 2;  ///< per design and run; best time wins

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

void jsonCounters(std::FILE* f, const char* key,
                  const pacor::route::SearchCounters& c, const char* tail) {
  std::fprintf(f,
               "        \"%s\": {\"searches\": %llu, \"expansions\": %llu, "
               "\"bounded_visits\": %llu}%s\n",
               key, static_cast<unsigned long long>(c.searches),
               static_cast<unsigned long long>(c.expansions),
               static_cast<unsigned long long>(c.boundedVisits), tail);
}

int usage() {
  std::fprintf(stderr, "usage: bench_fpva [out.json] [--sizes=8,16,32,40,64]\n");
  return 2;
}

/// The comma-separated sizes of `arg`; empty when any token is not a whole
/// positive number (`8x`, ``).
std::vector<int> parseSizes(const std::string& arg) {
  std::vector<int> sizes;
  std::size_t pos = 0;
  while (true) {
    const std::size_t comma = arg.find(',', pos);
    const auto size = pacor::util::wholeNumber<int>(
        std::string_view(arg).substr(pos, comma - pos), 1,
        std::numeric_limits<int>::max());
    if (!size) return {};
    sizes.push_back(*size);
    if (comma == std::string::npos) return sizes;
    pos = comma + 1;
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string outPath = "BENCH_fpva.json";
  std::vector<int> sizes = {8, 16, 32, 40, 64};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--sizes=", 0) == 0) {
      sizes = parseSizes(arg.substr(8));
      if (sizes.empty()) return usage();
    } else if (arg.rfind("--", 0) == 0) {
      return usage();
    } else {
      outPath = arg;
    }
  }

  const PacorConfig cfg = pacor::core::pacorDefaultConfig();

  std::FILE* f = std::fopen(outPath.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", outPath.c_str());
    return 2;
  }
  std::fprintf(f, "{\n  \"benchmark\": \"fpva\",\n");
  std::fprintf(f, "  \"repetitions\": %d,\n  \"designs\": [\n", kRepetitions);

  double serialTotal = 0.0;
  bool allIdentical = true;
  bool allComplete = true;
  bool allClean = true;

  std::printf("%-12s %8s %8s %10s %10s %8s  %s %s\n", "Design", "valves",
              "clusters", "serial(s)", "repeat(s)", "rss(MB)", "identical",
              "oracle");
  for (std::size_t d = 0; d < sizes.size(); ++d) {
    pacor::chip::FpvaParams params;
    params.rows = sizes[d];
    params.cols = sizes[d];
    const auto chip = pacor::chip::generateFpvaChip(params);

    const TimedRun serial = bestOf(chip, cfg);
    const TimedRun repeat = bestOf(chip, cfg);
    // Byte-identity of two runs in one process: routing is deterministic.
    const std::string solution = pacor::core::solutionToString(serial.result);
    const bool identical = solution == pacor::core::solutionToString(repeat.result);
    const auto oracle = pacor::verify::verifySolution(chip, serial.result);
    const std::int64_t rssKb = pacor::util::peakRssKb();
    serialTotal += serial.seconds;
    allIdentical &= identical;
    allComplete &= serial.result.complete && repeat.result.complete;
    allClean &= oracle.clean();

    std::printf("%-12s %8zu %8zu %10.3f %10.3f %8.1f  %-9s %s\n",
                chip.name.c_str(), chip.valves.size(),
                serial.result.clusters.size(), serial.seconds, repeat.seconds,
                static_cast<double>(rssKb) / 1024.0, identical ? "yes" : "NO",
                oracle.clean() ? "clean" : "DIRTY");
    if (!oracle.clean())
      std::fprintf(stderr, "%s oracle violations:\n%s\n", chip.name.c_str(),
                   oracle.str().c_str());

    const auto& st = serial.result.times;
    std::fprintf(f, "    {\n      \"design\": \"%s\",\n", chip.name.c_str());
    std::fprintf(f, "      \"valves\": %zu,\n", chip.valves.size());
    std::fprintf(f, "      \"clusters\": %zu,\n", serial.result.clusters.size());
    std::fprintf(f, "      \"grid\": [%d, %d],\n", chip.routingGrid.width(),
                 chip.routingGrid.height());
    std::fprintf(f, "      \"serial_seconds\": %.6f,\n", serial.seconds);
    std::fprintf(f, "      \"identical\": %s,\n", identical ? "true" : "false");
    std::fprintf(f, "      \"complete\": %s,\n",
                 serial.result.complete ? "true" : "false");
    std::fprintf(f, "      \"oracle_clean\": %s,\n",
                 oracle.clean() ? "true" : "false");
    std::fprintf(f, "      \"peak_rss_kb\": %lld,\n",
                 static_cast<long long>(rssKb));
    std::fprintf(f, "      \"total_channel_length\": %lld,\n",
                 static_cast<long long>(serial.result.totalChannelLength));
    std::fprintf(f, "      \"matched_channel_length\": %lld,\n",
                 static_cast<long long>(serial.result.matchedChannelLength));
    std::fprintf(f, "      \"matched_clusters\": %d,\n",
                 serial.result.matchedClusterCount);
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
    std::fprintf(f, "      \"metrics\": %s\n",
                 serial.result.metrics.toJson(/*pretty=*/false).c_str());
    std::fprintf(f, "    }%s\n", d + 1 < sizes.size() ? "," : "");
  }

  std::fprintf(f, "  ],\n  \"summary\": {\n");
  std::fprintf(f, "    \"serial_seconds_total\": %.6f,\n", serialTotal);
  std::fprintf(f, "    \"peak_rss_kb\": %lld,\n",
               static_cast<long long>(pacor::util::peakRssKb()));
  std::fprintf(f, "    \"all_identical\": %s,\n", allIdentical ? "true" : "false");
  std::fprintf(f, "    \"all_complete\": %s,\n", allComplete ? "true" : "false");
  std::fprintf(f, "    \"all_oracle_clean\": %s\n  }\n}\n",
               allClean ? "true" : "false");
  std::fclose(f);

  std::printf("total: serial %.3fs, peak RSS %.1f MB, wrote %s\n", serialTotal,
              static_cast<double>(pacor::util::peakRssKb()) / 1024.0,
              outPath.c_str());
  return allIdentical && allComplete && allClean ? 0 : 1;
}
