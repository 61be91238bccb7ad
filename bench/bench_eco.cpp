// ECO re-route latency benchmark: edit-to-solution time vs from-scratch.
//
// For every Table-1 design this routes the chip once from scratch, then
// measures rerouteChip() against three canonical single edits:
//
//   valve_move     valve 0 moved to the nearest free cell -- dirties
//                  exactly one cluster, the headline incremental case,
//   obstacle_add   an obstacle dropped on a free cell no routed channel
//                  occupies -- the identity-mode floor (no routing work),
//   cluster_touch  an obstacle dropped onto the middle of a routed escape
//                  channel -- forces a dirty cluster through the full
//                  seeded stage 2-5 pipeline.
//
// Each edit is timed best-of-kRepetitions against a best-of-kRepetitions
// from-scratch routeChip() of the same edited chip; the ratio is the
// speedup an ECO user sees over re-running the router. Every eco result
// is cross-checked with the independent oracle on the edited chip.
//
// Writes BENCH_eco.json (consumed by bench/compare_baseline.py --eco
// alongside the BENCH_routing.json eco rows). Exit 0 when every re-route
// completed and was oracle-clean, 1 otherwise.
//
// Usage: bench_eco [out.json]   (default: BENCH_eco.json)

#include <chrono>
#include <cstdio>
#include <string>
#include <unordered_set>
#include <vector>

#include "chip/delta.hpp"
#include "chip/generator.hpp"
#include "pacor/eco.hpp"
#include "pacor/pipeline.hpp"
#include "verify/oracle.hpp"

namespace {

using namespace pacor;

constexpr int kRepetitions = 3;  ///< per edit and mode; best time wins

std::unordered_set<geom::Point> usedCells(const chip::Chip& chip) {
  std::unordered_set<geom::Point> used(chip.obstacles.begin(), chip.obstacles.end());
  for (const chip::Valve& v : chip.valves) used.insert(v.pos);
  for (const chip::ControlPin& p : chip.pins) used.insert(p.pos);
  return used;
}

std::unordered_set<geom::Point> routedCells(const core::PacorResult& result) {
  std::unordered_set<geom::Point> cells;
  for (const core::RoutedCluster& rc : result.clusters) {
    for (const route::Path& path : rc.treePaths)
      cells.insert(path.begin(), path.end());
    cells.insert(rc.escapePath.begin(), rc.escapePath.end());
  }
  return cells;
}

/// Free cell closest (Manhattan) to `from`, y-major ties -- deterministic.
geom::Point nearestFreeCell(const chip::Chip& chip, geom::Point from) {
  const std::unordered_set<geom::Point> used = usedCells(chip);
  geom::Point best{-1, -1};
  std::int64_t bestDist = -1;
  for (std::int32_t y = 0; y < chip.routingGrid.height(); ++y)
    for (std::int32_t x = 0; x < chip.routingGrid.width(); ++x) {
      const geom::Point p{x, y};
      if (used.count(p)) continue;
      const std::int64_t d = geom::manhattan(from, p);
      if (bestDist < 0 || d < bestDist) {
        best = p;
        bestDist = d;
      }
    }
  return best;
}

/// First free cell (y-major) no routed channel occupies: the edit is
/// invisible to every cluster, so rerouteChip must answer in identity mode.
geom::Point freeUnroutedCell(const chip::Chip& chip, const core::PacorResult& prev) {
  const std::unordered_set<geom::Point> used = usedCells(chip);
  const std::unordered_set<geom::Point> routed = routedCells(prev);
  for (std::int32_t y = 0; y < chip.routingGrid.height(); ++y)
    for (std::int32_t x = 0; x < chip.routingGrid.width(); ++x) {
      const geom::Point p{x, y};
      if (!used.count(p) && !routed.count(p)) return p;
    }
  return {-1, -1};
}

/// Middle cell of the longest routed escape channel: blocking it dirties
/// that cluster and forces a real incremental re-route.
geom::Point escapeChannelCell(const core::PacorResult& prev) {
  const route::Path* longest = nullptr;
  for (const core::RoutedCluster& rc : prev.clusters)
    if (rc.escapePath.size() >= 3 &&
        (longest == nullptr || rc.escapePath.size() > longest->size()))
      longest = &rc.escapePath;
  if (longest == nullptr) return {-1, -1};
  return (*longest)[longest->size() / 2];
}

template <typename Fn>
double bestSeconds(Fn&& fn) {
  double best = 0.0;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const double s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    if (rep == 0 || s < best) best = s;
  }
  return best;
}

const char* modeName(core::EcoInfo::Mode mode) {
  switch (mode) {
    case core::EcoInfo::Mode::kIdentity: return "identity";
    case core::EcoInfo::Mode::kIncremental: return "incremental";
    case core::EcoInfo::Mode::kFull: return "full";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  const std::string outPath = argc > 1 ? argv[1] : "BENCH_eco.json";
  const core::PacorConfig cfg = core::pacorDefaultConfig();

  std::FILE* f = std::fopen(outPath.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", outPath.c_str());
    return 2;
  }
  std::fprintf(f, "{\n  \"benchmark\": \"eco\",\n");
  std::fprintf(f, "  \"repetitions\": %d,\n  \"designs\": [\n", kRepetitions);

  bool allClean = true;
  double chip1ValveMoveSpeedup = 0.0;
  std::printf("%-8s %-13s %-12s %12s %12s %8s\n", "Design", "Edit", "Mode",
              "scratch(s)", "eco(s)", "speedup");

  const auto designs = chip::table1Designs();
  for (std::size_t d = 0; d < designs.size(); ++d) {
    const chip::Chip base = chip::generateChip(designs[d]);
    core::PacorResult prev;
    const double baseSeconds = bestSeconds([&] { prev = core::routeChip(base, cfg); });

    struct Edit {
      const char* name;
      chip::ChipDelta delta;
      bool skipped = false;
    };
    std::vector<Edit> edits(3);
    edits[0].name = "valve_move";
    if (const geom::Point to = nearestFreeCell(base, base.valves.front().pos);
        to.x >= 0)
      edits[0].delta.moveValve(0, to);
    else
      edits[0].skipped = true;
    edits[1].name = "obstacle_add";
    if (const geom::Point at = freeUnroutedCell(base, prev); at.x >= 0)
      edits[1].delta.addObstacle(at);
    else
      edits[1].skipped = true;
    edits[2].name = "cluster_touch";
    if (const geom::Point at = escapeChannelCell(prev); at.x >= 0)
      edits[2].delta.addObstacle(at);
    else
      edits[2].skipped = true;

    std::fprintf(f, "    {\n      \"design\": \"%s\",\n", base.name.c_str());
    std::fprintf(f, "      \"scratch_seconds\": %.6f,\n      \"edits\": [\n",
                 baseSeconds);
    bool first = true;
    for (const Edit& edit : edits) {
      if (edit.skipped) continue;
      const chip::Chip edited = chip::apply(base, edit.delta);
      core::PacorResult scratch;
      const double scratchSeconds =
          bestSeconds([&] { scratch = core::routeChip(edited, cfg); });
      core::PacorResult eco;
      core::EcoInfo info;
      const double ecoSeconds = bestSeconds(
          [&] { eco = core::rerouteChip(base, prev, edit.delta, cfg, {}, &info); });
      const double speedup = ecoSeconds > 0.0 ? scratchSeconds / ecoSeconds : 0.0;

      const bool clean =
          eco.complete && verify::verifySolution(edited, eco).clean();
      if (!clean) {
        std::fprintf(stderr, "FAIL %s/%s: eco result %s\n", base.name.c_str(),
                     edit.name,
                     eco.complete ? "is not oracle-clean" : "did not complete");
        allClean = false;
      }
      if (base.name == "Chip1" && std::string(edit.name) == "valve_move")
        chip1ValveMoveSpeedup = speedup;

      std::printf("%-8s %-13s %-12s %12.4f %12.4f %7.1fx\n", base.name.c_str(),
                  edit.name, modeName(info.mode), scratchSeconds, ecoSeconds,
                  speedup);
      std::fprintf(f, "        %s{\"edit\": \"%s\", \"mode\": \"%s\", ",
                   first ? "" : ",", edit.name, modeName(info.mode));
      std::fprintf(f,
                   "\"scratch_seconds\": %.6f, \"eco_seconds\": %.6f, "
                   "\"speedup\": %.4f, \"dirty\": %d, \"reused\": %d, "
                   "\"clean\": %s}\n",
                   scratchSeconds, ecoSeconds, speedup, info.dirtyClusters,
                   info.frozenClusters, clean ? "true" : "false");
      first = false;
    }
    std::fprintf(f, "      ]\n    }%s\n", d + 1 < designs.size() ? "," : "");
  }

  std::fprintf(f, "  ],\n  \"summary\": {\n");
  std::fprintf(f, "    \"chip1_valve_move_speedup\": %.4f,\n",
               chip1ValveMoveSpeedup);
  std::fprintf(f, "    \"all_clean\": %s\n  }\n}\n", allClean ? "true" : "false");
  std::fclose(f);

  std::printf("chip1 valve-move speedup %.1fx, wrote %s\n",
              chip1ValveMoveSpeedup, outPath.c_str());
  return allClean ? 0 : 1;
}
