// Batch workloads: a closed loop with one caller thread that one-shot
// routes a seed-drawn list of distinct FPVA instances of one family with
// core::routeChip and the default PacorConfig.
//
//   fpva_escape   fpva:40x40 arrays. Escape routing (min-cost flow) is
//                 ~90% of the route; LM cluster routing under 10%.
//   lm_congested  fpva:32x32:lm=100:block=4x6:pitch=7 arrays, where every
//                 instance saturates the negotiation cap, demotes 32 of 40
//                 clusters and matches 8. LM cluster routing is ~75% of
//                 the route, escape ~20%.
//
// The traced run replays each route's first pass through the pipeline's
// public stages with a span around every stage, then routes the same
// chip with routeChip; the replay's escape pass must reproduce
// routeChip's first escape pass or the run fails.

#include <algorithm>
#include <cstdio>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.hpp"
#include "pacor/pipeline.hpp"
#include "serve/serve.hpp"
#include "verify/oracle.hpp"

namespace perfbench {
namespace {

using namespace pacor;

struct BatchWorkload {
  const char* name;
  const char* family;  ///< FPVA spec; each design appends its own :seed=
  /// Distinct instances generated per run, out of the family's 140
  /// (fpva_escape) or 112 (lm_congested) symmetry classes: at least as
  /// many as a run routes on a fast host today, so the list wraps around
  /// only if routing gets faster.
  std::size_t designs;
  /// The Table-2 quality metrics sum over this many leading designs, a
  /// count every run reaches, so they do not depend on routing speed.
  std::size_t qualityDesigns;
  /// Latency tail percentile, fixed so runs compare; a run routes at
  /// least minRoutes() designs, which leaves >= 10 samples beyond it.
  double tailPercentile;

  /// The fewest routes a run makes, however slow the host: enough for
  /// the tail (and for the quality designs).
  std::size_t minRoutes() const {
    const auto tail = static_cast<std::size_t>(10.0 / (1.0 - tailPercentile / 100.0)) + 2;
    return std::max(tail, qualityDesigns);
  }
};

/// A 30 s run routes about 130 (fpva_escape) or 100 (lm_congested)
/// designs on a 4-vCPU Intel Xeon virtual machine; minRoutes() is 52 and 42.
constexpr BatchWorkload kWorkloads[] = {
    {"fpva_escape", "fpva:40x40", 130, 8, 80.0},
    {"lm_congested", "fpva:32x32:lm=100:block=4x6:pitch=7", 105, 8, 75.0},
};

constexpr int kSetupRepeats = 5;
/// Each solution write is timed this often; the median is its sample.
constexpr int kWriteRepeats = 3;

struct Design {
  std::string spec;
  chip::Chip chip;
};

struct Inputs {
  std::vector<Design> designs;
  Design warmup;  ///< routed untimed in set-up, never in the timed loop
};

/// Grid symmetry `t` (the 8 of a square, the first 4 of a rectangle).
geom::Point transform(int t, geom::Point p, std::int32_t w, std::int32_t h) {
  switch (t) {
    case 0: return p;
    case 1: return {w - 1 - p.x, p.y};
    case 2: return {p.x, h - 1 - p.y};
    case 3: return {w - 1 - p.x, h - 1 - p.y};
    case 4: return {p.y, p.x};
    case 5: return {h - 1 - p.y, p.x};
    case 6: return {p.y, w - 1 - p.x};
    default: return {h - 1 - p.y, w - 1 - p.x};
  }
}

std::vector<std::int64_t> sortedCells(std::vector<geom::Point> cells) {
  std::vector<std::int64_t> keys;
  keys.reserve(cells.size());
  for (const geom::Point p : cells)
    keys.push_back(static_cast<std::int64_t>(p.x) << 32 | static_cast<std::uint32_t>(p.y));
  std::sort(keys.begin(), keys.end());
  return keys;
}

/// The valve clusters (with their length-matching flag) under symmetry t.
std::vector<std::vector<std::int64_t>> clusterLayout(const chip::Chip& chip, int t) {
  const std::int32_t w = chip.routingGrid.width(), h = chip.routingGrid.height();
  std::vector<std::vector<std::int64_t>> layout;
  for (const chip::ValveCluster& cluster : chip.givenClusters) {
    std::vector<geom::Point> cells;
    for (const chip::ValveId v : cluster.valves)
      cells.push_back(transform(t, chip.valve(v).pos, w, h));
    layout.push_back(sortedCells(std::move(cells)));
    layout.back().push_back(cluster.lengthMatched ? 1 : 0);
  }
  std::sort(layout.begin(), layout.end());
  return layout;
}

/// Symmetries that map the family's valve and cluster layout onto itself.
/// Within a family the FPVA seed moves only the control pins (and
/// activation sequences, which given clusters make irrelevant), so two
/// seeds whose pin sets match under one of these are the same routing
/// instance, mirrored.
std::vector<int> layoutSymmetries(const chip::Chip& chip) {
  const bool square = chip.routingGrid.width() == chip.routingGrid.height();
  const auto identity = clusterLayout(chip, 0);
  std::vector<int> symmetries{0};
  for (int t = 1; t < (square ? 8 : 4); ++t)
    if (clusterLayout(chip, t) == identity) symmetries.push_back(t);
  return symmetries;
}

std::vector<std::int64_t> instanceKey(const chip::Chip& chip, const std::vector<int>& symmetries) {
  const std::int32_t w = chip.routingGrid.width(), h = chip.routingGrid.height();
  std::vector<std::int64_t> best;
  for (const int t : symmetries) {
    std::vector<geom::Point> pins;
    for (const chip::ControlPin& p : chip.pins) pins.push_back(transform(t, p.pos, w, h));
    std::vector<std::int64_t> key = sortedCells(std::move(pins));
    if (best.empty() || key < best) best = std::move(key);
  }
  return best;
}

/// Draws FPVA seeds from --seed and keeps the first instance of each
/// symmetry class until the list (plus the warm-up design) is full.
Inputs generateInputs(const BatchWorkload& workload, std::uint64_t seed) {
  Inputs inputs;
  std::set<std::vector<std::int64_t>> seen;
  std::vector<int> symmetries;
  for (std::uint64_t stream = 0; inputs.designs.size() <= workload.designs; ++stream) {
    if (stream > 50 * workload.designs + 1000)
      throw std::runtime_error(std::string(workload.name) +
                               ": too few distinct instances in the family");
    const std::string spec =
        std::string(workload.family) + ":seed=" + std::to_string(deriveSeed(seed, stream));
    chip::Chip chip = serve::loadDesign(spec);
    if (symmetries.empty()) symmetries = layoutSymmetries(chip);
    if (!seen.insert(instanceKey(chip, symmetries)).second) continue;
    inputs.designs.push_back({spec, std::move(chip)});
  }
  inputs.warmup = std::move(inputs.designs.back());
  inputs.designs.pop_back();
  return inputs;
}

/// Fails the report when the independent oracle finds a violation.
void checkSolution(const Design& design, const core::PacorResult& result, Report& report) {
  const verify::OracleReport oracle = verify::verifySolution(design.chip, result);
  if (!oracle.clean()) report.miss(design.spec + " oracle: " + oracle.str());
}

void runTraced(const BatchWorkload& workload, const Options& options, const Inputs& inputs,
               Report& report) {
  SpanLog log;
  LayerSamples samples;
  const auto start = Clock::now();
  for (std::size_t i = 0; i == 0 || msBetween(start, Clock::now()) < options.seconds * 1000.0;
       ++i) {
    const Design& design = inputs.designs[i % inputs.designs.size()];
    const TracedDesign traced = traceDesign(design.spec, log, samples, report);
    samples.add("trace.route_p50_ms", traced.routeMs);
    samples.add("pacor.encode_ms", traced.encodeMs);
    ++report.attempted;
    checkSolution(design, traced.result, report);
    report.hashes[design.spec] = traced.hash;
  }
  samples.report(report);
  const std::string path = options.outDir + "/trace-" + workload.name + ".json";
  if (!log.write(path)) report.miss("cannot write " + path);
}

}  // namespace

Report runBatch(const Options& options) {
  const BatchWorkload* workload = nullptr;
  for (const BatchWorkload& w : kWorkloads)
    if (options.workload == w.name) workload = &w;
  if (workload == nullptr) throw std::invalid_argument("unknown batch workload");

  // Set-up: draw and generate the designs, then one untimed warm-up
  // route. It is timed again after the window (so the repeats do not add
  // to peak RSS); every repeat must route the warm-up identically.
  Report report;
  Inputs inputs;
  std::vector<double> setupS;
  std::string warmupHash;
  const auto setUp = [&] {
    const auto t0 = Clock::now();
    inputs = generateInputs(*workload, options.seed);
    const core::PacorResult warm = core::routeChip(inputs.warmup.chip);
    setupS.push_back(msBetween(t0, Clock::now()) / 1000.0);
    const std::string hash = solutionHash(warm);
    if (warmupHash.empty()) {
      warmupHash = hash;
      report.hashes[inputs.warmup.spec] = hash;
      checkSolution(inputs.warmup, warm, report);
    } else if (hash != warmupHash) {
      report.miss(inputs.warmup.spec + ": warm-up route differs between set-ups");
    }
  };
  setUp();

  if (options.trace) {
    runTraced(*workload, options, inputs, report);
    return report;
  }

  // Closed loop: back-to-back routeChip calls, one design each, each
  // followed by writing its solution (the canonical text and its sha256,
  // what `pacor route` writes), both timed. Checks run between the timed
  // calls and do not count towards the window: the oracle, the repeat
  // hash, and the Table-2 quality of the leading designs. No result is
  // kept, so peak RSS does not grow with the number of designs routed.
  std::vector<double> latencies, writeMs;
  double busyMs = 0.0;
  std::int64_t length = 0, matched = 0, routed = 0, clusters = 0;
  for (std::size_t i = 0; busyMs < options.seconds * 1000.0 || i < workload->minRoutes(); ++i) {
    const Design& design = inputs.designs[i % inputs.designs.size()];
    ++report.attempted;
    core::PacorResult result;
    const auto t = Clock::now();
    try {
      result = core::routeChip(design.chip);
    } catch (const std::exception& e) {
      report.miss(design.spec + ": " + e.what());
      busyMs += msBetween(t, Clock::now());
      continue;
    }
    latencies.push_back(msBetween(t, Clock::now()));
    std::string hash;
    std::vector<double> times;
    for (int k = 0; k < kWriteRepeats; ++k) {
      const auto w = Clock::now();
      hash = solutionHash(result);
      times.push_back(msBetween(w, Clock::now()));
    }
    writeMs.push_back(median(times));
    busyMs += latencies.back() + writeMs.back();

    checkSolution(design, result, report);
    const auto [it, fresh] = report.hashes.emplace(design.spec, hash);
    if (!fresh && it->second != hash) report.miss(design.spec + ": route differs on repeat");
    if (i < workload->qualityDesigns) {
      length += result.totalChannelLength;
      matched += result.matchedClusterCount;
      clusters += static_cast<std::int64_t>(result.clusters.size());
      for (const core::RoutedCluster& c : result.clusters) routed += c.routed ? 1 : 0;
    }
  }
  const double peakRss = peakRssMb();
  for (int rep = 1; rep < kSetupRepeats; ++rep) setUp();

  report.add("setup_s", median(setupS), "s");
  report.add("latency_p50_ms", median(latencies), "ms");
  report.add("latency_tail_ms", percentile(latencies, workload->tailPercentile), "ms");
  report.add("throughput_ops", static_cast<double>(latencies.size()) / (busyMs / 1000.0), "1/s");
  report.add("write_latency_p50_ms", median(writeMs), "ms");
  report.add("peak_rss_mb", peakRss, "MB");
  report.addOkRatio();
  report.add("length_total", static_cast<double>(length), "units");
  report.add("matched_clusters", static_cast<double>(matched), "count");
  report.add("routed_ratio",
             static_cast<double>(routed) / static_cast<double>(std::max<std::int64_t>(1, clusters)),
             "ratio");
  std::fprintf(stderr,
               "perfbench: %s seed %llu: %zu routes in %.1f s, p50 %.1f ms, p%.0f %.1f ms "
               "(%zu samples), %zu distinct designs\n",
               workload->name, static_cast<unsigned long long>(options.seed), latencies.size(),
               busyMs / 1000.0, median(latencies), workload->tailPercentile,
               percentile(latencies, workload->tailPercentile), latencies.size(),
               std::min<std::size_t>(report.attempted, inputs.designs.size()));
  return report;
}

}  // namespace perfbench
