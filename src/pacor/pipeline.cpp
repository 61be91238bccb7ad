#include "pacor/pipeline.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_set>

#include "pacor/cluster_routing.hpp"
#include "pacor/clustering.hpp"
#include "pacor/detour.hpp"
#include "pacor/escape.hpp"
#include "pacor/mst_routing.hpp"
#include "route/workspace.hpp"
#include "trace/trace.hpp"

namespace pacor::core {
namespace {

using Clock = std::chrono::steady_clock;

double seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Splits a plain multi-valve cluster in half and re-routes the parts
/// (used by the rip-up rounds when a whole routed tree blocks escapes).
std::vector<WorkCluster> forceSplit(const chip::Chip& chip, grid::ObstacleMap& obstacles,
                                    WorkCluster wc,
                                    const std::function<grid::NetId()>& allocateNet,
                                    int* declusterCount) {
  if (wc.spec.valves.size() < 2) return {std::move(wc)};
  obstacles.release(wc.net);
  if (declusterCount != nullptr) ++*declusterCount;

  std::vector<chip::ValveId> sorted = wc.spec.valves;
  geom::Rect box = geom::Rect::fromPoint(chip.valve(sorted[0]).pos);
  for (const chip::ValveId v : sorted)
    box = box.unionWith(geom::Rect::fromPoint(chip.valve(v).pos));
  const bool byX = box.width() >= box.height();
  std::stable_sort(sorted.begin(), sorted.end(), [&](chip::ValveId a, chip::ValveId b) {
    const geom::Point pa = chip.valve(a).pos;
    const geom::Point pb = chip.valve(b).pos;
    return byX ? pa.x < pb.x : pa.y < pb.y;
  });
  const std::size_t half = sorted.size() / 2;

  std::vector<WorkCluster> out;
  for (int part = 0; part < 2; ++part) {
    WorkCluster sub;
    sub.spec.lengthMatched = false;
    sub.wasDemoted = wc.wasDemoted;
    sub.spec.valves.assign(
        sorted.begin() + (part == 0 ? 0 : static_cast<std::ptrdiff_t>(half)),
        part == 0 ? sorted.begin() + static_cast<std::ptrdiff_t>(half) : sorted.end());
    sub.net = allocateNet();
    for (const chip::ValveId v : sub.spec.valves) {
      const geom::Point cell = chip.valve(v).pos;
      obstacles.occupy(std::span<const geom::Point>(&cell, 1), sub.net);
    }
    auto parts = routeWithDeclustering(chip, obstacles, std::move(sub), allocateNet,
                                       declusterCount);
    for (auto& p : parts) out.push_back(std::move(p));
  }
  return out;
}

/// Releases every escape path and pin so the next flow pass re-decides
/// all pin assignments globally. ECO-frozen survivors keep theirs: their
/// escape is part of the carried-over contract, and their pins stay
/// reserved through the takenPins set of the next flow pass.
void ripAllEscapes(grid::ObstacleMap& obstacles, std::vector<WorkCluster>& clusters) {
  for (WorkCluster& wc : clusters) {
    if (wc.pin < 0 || wc.ecoFrozen) continue;
    if (wc.escapePath.size() > 1)
      obstacles.releasePath(
          std::span<const geom::Point>(wc.escapePath.data() + 1, wc.escapePath.size() - 1),
          wc.net);
    wc.escapePath.clear();
    wc.pin = -1;
  }
}

/// Nearest plain (or, failing that, matched) multi-valve cluster to a
/// cell, excluding already-marked ones; clusters.size() when none exists.
std::size_t nearestRelaxable(const chip::Chip& chip,
                             const std::vector<WorkCluster>& clusters,
                             const std::vector<char>& relax, std::size_t self,
                             geom::Point cell, bool plainOnly) {
  const auto nearestWhere = [&](bool wantPlain) {
    std::size_t nearest = clusters.size();
    std::int64_t nearestDist = std::numeric_limits<std::int64_t>::max();
    for (std::size_t j = 0; j < clusters.size(); ++j) {
      if (j == self || relax[j] || clusters[j].spec.valves.size() < 2 ||
          clusters[j].ecoFrozen)
        continue;
      if (clusters[j].lmStructured == wantPlain) continue;
      for (const chip::ValveId v : clusters[j].spec.valves) {
        const std::int64_t d = geom::chebyshev(cell, chip.valve(v).pos);
        if (d < nearestDist) {
          nearestDist = d;
          nearest = j;
        }
      }
    }
    return nearest;
  };
  std::size_t nearest = nearestWhere(/*wantPlain=*/true);
  if (nearest == clusters.size() && !plainOnly)
    nearest = nearestWhere(/*wantPlain=*/false);
  return nearest;
}

}  // namespace

PacorConfig pacorDefaultConfig() { return {}; }

PacorConfig withoutSelectionConfig() {
  PacorConfig cfg;
  cfg.useSelection = false;
  return cfg;
}

PacorConfig detourFirstConfig() {
  PacorConfig cfg;
  cfg.detourStage = DetourStage::kAfterClusterRouting;
  return cfg;
}

grid::ObstacleMap makeRoutingObstacleTemplate(const chip::Chip& chip) {
  grid::ObstacleMap obstacles = chip.makeObstacleMap();
  std::unordered_set<geom::Point> pinCells;
  for (const chip::ControlPin& p : chip.pins) pinCells.insert(p.pos);
  for (const geom::Point b : chip.routingGrid.boundaryCells())
    if (!pinCells.contains(b) && obstacles.isFree(b)) obstacles.addObstacle(b);
  return obstacles;
}

namespace {

PacorResult routeChipImpl(const chip::Chip& chip, const PacorConfig& config,
                          const RouteResources& resources,
                          detail::PipelineSeed* seed) {
  if (const auto err = chip.validate())
    throw std::invalid_argument("routeChip: invalid chip: " + *err);
  if (seed == nullptr && resources.obstacleTemplate != nullptr &&
      (resources.obstacleTemplate->grid().width() != chip.routingGrid.width() ||
       resources.obstacleTemplate->grid().height() != chip.routingGrid.height()))
    throw std::invalid_argument(
        "routeChip: obstacle template does not match the chip's routing grid");

  const auto tStart = Clock::now();
  PacorResult result;
  result.design = chip.name;
  trace::Span rootSpan("pacor.route", "pipeline");

  // Request-scoped search-effort accounting. Per-stage counters are
  // snapshots of this sink, never differences of the process-wide
  // searchTally(): concurrent in-process requests each see only their own
  // searches, because every search of this request runs on this thread.
  route::SharedTally requestTally;
  route::TallyScope tallyScope(&requestTally);
  const route::SearchCounters tally0 = requestTally.snapshot();

  // Routing workspace: static obstacles plus blocked non-pin boundary
  // cells (escape constraint 8 applied globally for consistency); copied
  // from the caller's cached template when one is supplied. An ECO seed
  // brings its own map, pre-loaded with the frozen survivors' occupancy.
  grid::ObstacleMap obstacles =
      seed != nullptr ? std::move(seed->obstacles)
      : resources.obstacleTemplate != nullptr
          ? *resources.obstacleTemplate
          : makeRoutingObstacleTemplate(chip);

  // --- Stage 1: valve clustering (or the ECO seed in its place) ----------
  trace::Span spanClustering("stage.clustering", "pipeline");
  const auto tCluster = Clock::now();
  grid::NetId nextNet = 0;
  const auto allocateNet = [&nextNet] { return nextNet++; };
  std::vector<WorkCluster> clusters;
  if (seed != nullptr) {
    clusters = std::move(seed->clusters);
    nextNet = seed->nextNet;
    result.multiValveClusterCount = seed->multiValveClusterCount;
  } else {
    std::vector<ClusterSpec> specs = clusterValves(chip);
    result.multiValveClusterCount = static_cast<int>(
        std::count_if(specs.begin(), specs.end(),
                      [](const ClusterSpec& s) { return s.valves.size() >= 2; }));
    clusters.reserve(specs.size());
    for (ClusterSpec& spec : specs) {
      WorkCluster wc;
      wc.spec = std::move(spec);
      wc.net = allocateNet();
      for (const chip::ValveId v : wc.spec.valves) {
        const geom::Point cell = chip.valve(v).pos;
        obstacles.occupy(std::span<const geom::Point>(&cell, 1), wc.net);
      }
      clusters.push_back(std::move(wc));
    }
  }
  const auto tClusterEnd = Clock::now();
  result.times.clustering = seconds(tCluster, tClusterEnd);
  spanClustering.arg("clusters", static_cast<std::int64_t>(clusters.size()));
  spanClustering.close();

  // --- Stage 2: length-matching cluster routing --------------------------
  trace::Span spanLm("stage.cluster_routing", "pipeline");
  std::vector<WorkCluster*> lmClusters;
  for (WorkCluster& wc : clusters)
    if (wc.wantsMatching() && wc.spec.valves.size() >= 2 && !wc.internallyRouted)
      lmClusters.push_back(&wc);
  const LmRoutingStats lmStats =
      routeLengthMatchingClusters(chip, config, obstacles, lmClusters);
  result.lmCandidatesBuilt = lmStats.candidatesBuilt;
  result.selectionExact = lmStats.selectionExact;
  result.negotiationIterations = lmStats.negotiationIterations;
  spanLm.arg("lm_clusters", static_cast<std::int64_t>(lmClusters.size()));
  spanLm.arg("candidates", lmStats.candidatesBuilt);
  spanLm.close();

  // --- Stage 3: MST-based routing of everything else ---------------------
  trace::Span spanMst("stage.mst_routing", "pipeline");
  clusters = routeClustersStage(chip, obstacles, std::move(clusters), allocateNet,
                                &result.declusteredCount);
  spanMst.close();
  const auto tRouteEnd = Clock::now();
  result.times.clusterRouting = seconds(tClusterEnd, tRouteEnd);
  const route::SearchCounters tallyRoute = requestTally.snapshot();
  result.searchClusterRouting = tallyRoute - tally0;

  // --- Optional: detour-first baseline (match around the tap) ------------
  if (config.detourStage == DetourStage::kAfterClusterRouting) {
    trace::Span spanFirst("detour.first_pass", "pipeline");
    for (WorkCluster& wc : clusters) {
      if (!wc.lmStructured || !wc.internallyRouted || wc.ecoFrozen) continue;
      DetourStats stats;
      detourClusterForMatching(chip, obstacles, wc, wc.tap, chip.delta,
                               config.detourIterations, &stats,
                               config.useBoundedDetour);
      result.detourReroutes += stats.reroutes;
      result.detourBumpFallbacks += stats.bumpFallbacks;
      result.detourIterations += stats.iterations;
      result.detourRestores += stats.restores;
    }
  }

  // --- Stage 4: escape routing with de-clustering / rip-up rounds --------
  // One escape-flow session serves every round of both the rip-up loop and
  // the matching-retry re-escapes; created lazily at the first flow pass so
  // it snapshots the post-routing obstacle state. A caller-held slot
  // (serve mode) keeps the session alive across requests: the first flow
  // pass warm-rebinds it to this request's obstacle map -- or rebuilds it
  // when pin/grid edits made it incompatible -- and stats are diffed so
  // the metrics stay request-scoped.
  std::unique_ptr<EscapeFlowSession> ownedEscapeSession;
  std::unique_ptr<EscapeFlowSession>& escapeSessionSlot =
      resources.escapeSession != nullptr ? *resources.escapeSession
                                         : ownedEscapeSession;
  EscapeFlowSession* escapeSession = nullptr;  // non-null once prepared
  EscapeFlowSession::Stats escapeStats0;
  double escapeFlowBuildS = 0.0;
  double escapeFlowRunS = 0.0;
  graph::SspCore::Counters escapeCounters;
  std::int64_t escapeFlowCost = 0;
  std::int64_t escapeFirstCost = -1;   // first pass with pending demand
  std::int64_t escapeFirstRouted = -1;
  const auto escapePass = [&](std::span<WorkCluster*> ptrs) {
    EscapeOutcome outcome;
    if (config.escapeMode != EscapeMode::kMinCostFlow) {
      outcome = escapeRouteSequential(chip, obstacles, ptrs);
    } else {
      if (escapeSession == nullptr) {
        if (escapeSessionSlot && !escapeSessionSlot->compatibleWith(chip))
          escapeSessionSlot.reset();
        if (escapeSessionSlot) {
          // Warm reuse: baseline the counters before this request's work.
          escapeStats0 = escapeSessionSlot->stats();
          escapeSessionSlot->rebind(chip, obstacles);
        } else {
          escapeSessionSlot = std::make_unique<EscapeFlowSession>(chip, obstacles);
          // Fresh construction belongs to this request: baseline zero so
          // the cold build shows up in the request's metrics.
          escapeStats0 = EscapeFlowSession::Stats{};
        }
        escapeSession = escapeSessionSlot.get();
      }
      outcome = escapeSession->route(ptrs);
    }
    escapeFlowBuildS += outcome.flowBuildSeconds;
    escapeFlowRunS += outcome.flowRunSeconds;
    const auto& fc = outcome.flowCounters;
    escapeCounters.dijkstraPasses += fc.dijkstraPasses;
    escapeCounters.augmentations += fc.augmentations;
    escapeCounters.bucketPushes += fc.bucketPushes;
    escapeCounters.heapPushes += fc.heapPushes;
    escapeCounters.queuePops += fc.queuePops;
    escapeCounters.settles += fc.settles;
    escapeCounters.earlyExits += fc.earlyExits;
    escapeFlowCost += outcome.flowCost;
    // First pass with actual demand: a caller that replays the stages by
    // hand checks its own first flow pass against this (routed count,
    // cost) pair.
    if (escapeFirstRouted < 0 && outcome.requested > 0) {
      escapeFirstCost = outcome.flowCost;
      escapeFirstRouted = outcome.routedCount;
    }
    return outcome;
  };
  const auto runEscapeLoop = [&] {
    for (int round = 0; round < config.maxEscapeRounds; ++round) {
      trace::Span roundSpan("escape.round", "escape", trace::Level::kCluster);
      roundSpan.arg("round", round);
      ++result.escapeRounds;
      std::vector<WorkCluster*> ptrs;
      ptrs.reserve(clusters.size());
      for (WorkCluster& wc : clusters) ptrs.push_back(&wc);
      const EscapeOutcome outcome = escapePass(ptrs);
      roundSpan.arg("failed", static_cast<std::int64_t>(outcome.failed.size()));
      // The env is read once per process and each round's diagnostics go
      // out as one write: concurrent requests' lines interleave whole, not
      // character-by-character, and the hot loop never calls getenv.
      static const bool kDebug = std::getenv("PACOR_DEBUG") != nullptr;
      if (kDebug) {
        char buf[96];
        std::snprintf(buf, sizeof buf,
                      "[%s] escape round %d: requested %d routed %d failed %zu [",
                      chip.name.c_str(), round, outcome.requested,
                      outcome.routedCount, outcome.failed.size());
        std::string line = buf;
        for (const std::size_t f : outcome.failed) {
          std::snprintf(buf, sizeof buf, " %zu(%zuv,%s)", f,
                        clusters[f].spec.valves.size(),
                        clusters[f].lmStructured ? "lm" : "plain");
          line += buf;
        }
        line += " ]\n";
        std::fwrite(line.data(), 1, line.size(), stderr);
      }
      if (outcome.failed.empty()) break;
      if (round + 1 >= config.maxEscapeRounds) break;

      // Decide the remedies BEFORE touching any routing: a walled-in
      // matched tree first gets a wide tap (matching is restored by the
      // final detour stage), then demotion as a last resort; plain trees
      // are split in half; a stuck singleton causes its nearest
      // multi-valve neighbor -- the likeliest wall around it -- to be
      // relaxed instead, plain neighbors before matched ones (the paper's
      // higher rip-up cost for constrained clusters).
      // relax[] values: 1 = split/demote, 2 = widen the escape tap.
      std::vector<char> relax(clusters.size(), 0);
      for (const std::size_t f : outcome.failed) {
        if (clusters[f].spec.valves.size() >= 2) {
          if (clusters[f].lmStructured && !clusters[f].wideTap)
            relax[f] = 2;
          else
            relax[f] = 1;
          continue;
        }
        const geom::Point cell = chip.valve(clusters[f].spec.valves.front()).pos;
        const std::size_t nearest =
            nearestRelaxable(chip, clusters, relax, f, cell, /*plainOnly=*/false);
        if (nearest < clusters.size()) relax[nearest] = 1;
      }
      if (std::none_of(relax.begin(), relax.end(), [](char c) { return c != 0; }))
        break;  // nothing left to relax: keep the escapes already routed

      ripAllEscapes(obstacles, clusters);

      std::vector<WorkCluster> next;
      next.reserve(clusters.size());
      for (std::size_t i = 0; i < clusters.size(); ++i) {
        WorkCluster& wc = clusters[i];
        if (!relax[i]) {
          next.push_back(std::move(wc));
          continue;
        }
        if (relax[i] == 2) {
          // Widen: every tree cell becomes a legal escape attachment; the
          // root-distance bias in escapeRoute deprioritizes leaf
          // attachments but keeps them available as the last way out of a
          // walled-in region.
          std::unordered_set<geom::Point> cells;
          for (const route::Path& p : wc.treePaths) cells.insert(p.begin(), p.end());
          wc.tapCells.assign(cells.begin(), cells.end());
          std::sort(wc.tapCells.begin(), wc.tapCells.end());
          wc.wideTap = true;
          ++result.escapeWideTapRemedies;
          next.push_back(std::move(wc));
          continue;
        }
        if (wc.lmStructured) {
          // Demote: drop the matching structure, reroute as a plain tree.
          obstacles.release(wc.net);
          for (const chip::ValveId v : wc.spec.valves) {
            const geom::Point cell = chip.valve(v).pos;
            obstacles.occupy(std::span<const geom::Point>(&cell, 1), wc.net);
          }
          wc.lmStructured = false;
          wc.wasDemoted = true;
          wc.internallyRouted = false;
          wc.treePaths.clear();
          wc.sinkSequences.clear();
          ++result.declusteredCount;
          ++result.escapeDemotions;
          auto parts = routeWithDeclustering(chip, obstacles, std::move(wc),
                                             allocateNet, &result.declusteredCount);
          for (auto& p : parts) next.push_back(std::move(p));
        } else {
          ++result.escapeSplits;
          auto parts = forceSplit(chip, obstacles, std::move(wc), allocateNet,
                                  &result.declusteredCount);
          for (auto& p : parts) next.push_back(std::move(p));
        }
      }
      clusters = std::move(next);
    }
  };

  // --- Stage 5: final path detouring for length matching ------------------
  const auto runFinalDetour = [&] {
    for (WorkCluster& wc : clusters) {
      if (!wc.lmStructured || wc.pin < 0 || wc.ecoFrozen) continue;
      // The escape may have attached away from the structure's root (wide
      // taps): re-derive which segments lie on each sink's pin path.
      if (!wc.escapePath.empty() && wc.escapePath.front() != wc.tap)
        rebuildDetourStructure(chip, wc);
      const geom::Point origin = chip.pin(wc.pin).pos;
      if (config.detourStage == DetourStage::kFinal) {
        DetourStats stats;
        detourClusterForMatching(chip, obstacles, wc, origin, chip.delta,
                                 config.detourIterations, &stats,
                                 config.useBoundedDetour);
        result.detourReroutes += stats.reroutes;
        result.detourBumpFallbacks += stats.bumpFallbacks;
        result.detourIterations += stats.iterations;
        result.detourRestores += stats.restores;
      } else {
        // Detour-first: verify that tap-side matching survived escape.
        const auto lengths = measureValveLengths(chip, wc, origin);
        const auto [lo, hi] = std::minmax_element(lengths.begin(), lengths.end());
        wc.lengthMatched = !lengths.empty() && *lo >= 0 && (*hi - *lo) <= chip.delta;
      }
    }
  };

  trace::Span spanEscape("stage.escape", "pipeline");
  runEscapeLoop();
  spanEscape.arg("rounds", result.escapeRounds);
  spanEscape.close();
  const auto tEscapeEnd = Clock::now();
  result.times.escape = seconds(tRouteEnd, tEscapeEnd);
  const route::SearchCounters tallyEscape = requestTally.snapshot();
  result.searchEscape = tallyEscape - tallyRoute;
  // The flow solver has no A* tally of its own; graft its effort counters
  // into the escape search block (searches = label passes, expansions =
  // settled nodes, bounded visits = augmentations applied).
  result.searchEscape.searches += escapeCounters.dijkstraPasses;
  result.searchEscape.expansions += escapeCounters.settles;
  result.searchEscape.boundedVisits += escapeCounters.augmentations;

  trace::Span spanDetour("stage.detour", "pipeline");
  runFinalDetour();

  // --- Matching-driven rip-up: a constrained cluster that routed but could
  // not be equalized (typically a wide tap anchored at a leaf because a
  // plain tree walls it in) gets one more chance: relax the nearest plain
  // blocker, re-run the escape flow from scratch, and detour again.
  for (int retry = 0; retry < config.matchingRetries; ++retry) {
    if (config.detourStage != DetourStage::kFinal) break;
    std::vector<std::size_t> hopeless;
    for (std::size_t i = 0; i < clusters.size(); ++i) {
      const WorkCluster& wc = clusters[i];
      if (wc.lmStructured && wc.pin >= 0 && wc.wantsMatching() &&
          !wc.lengthMatched && !wc.ecoFrozen)
        hopeless.push_back(i);
    }
    if (hopeless.empty()) break;

    std::vector<char> relax(clusters.size(), 0);
    bool anyBlocker = false;
    for (const std::size_t h : hopeless) {
      const std::size_t blocker = nearestRelaxable(chip, clusters, relax, h,
                                                   clusters[h].tap, /*plainOnly=*/true);
      if (blocker < clusters.size()) {
        relax[blocker] = 1;
        anyBlocker = true;
      }
    }
    if (!anyBlocker) break;

    ripAllEscapes(obstacles, clusters);
    std::vector<WorkCluster> next;
    next.reserve(clusters.size());
    for (std::size_t i = 0; i < clusters.size(); ++i) {
      WorkCluster& wc = clusters[i];
      if (relax[i]) {
        ++result.escapeSplits;
        auto parts = forceSplit(chip, obstacles, std::move(wc), allocateNet,
                                &result.declusteredCount);
        for (auto& p : parts) next.push_back(std::move(p));
        continue;
      }
      if (wc.lmStructured && wc.wantsMatching() && !wc.lengthMatched &&
          !wc.ecoFrozen) {
        // Give the original DME root another chance now that space opened.
        wc.wideTap = false;
        wc.tap = wc.rootTap;
        wc.tapCells = {wc.rootTap};
      }
      next.push_back(std::move(wc));
    }
    clusters = std::move(next);

    runEscapeLoop();
    runFinalDetour();
  }
  spanDetour.arg("reroutes", result.detourReroutes);
  spanDetour.arg("restores", result.detourRestores);
  spanDetour.close();
  const auto tDetourEnd = Clock::now();
  result.times.detour = seconds(tEscapeEnd, tDetourEnd);
  result.searchDetour = requestTally.snapshot() - tallyEscape;

  // --- Harvest ------------------------------------------------------------
  result.complete = true;
  for (WorkCluster& wc : clusters) {
    RoutedCluster rc;
    rc.valves = wc.spec.valves;
    rc.lengthMatchRequested = wc.spec.lengthMatched && !wc.wasDemoted;
    rc.lengthMatched = wc.lengthMatched;
    rc.pin = wc.pin;
    rc.treePaths = wc.treePaths;
    rc.escapePath = wc.escapePath;
    rc.tap = wc.tap;
    rc.ecoCarried = wc.ecoFrozen;
    rc.routed = wc.pin >= 0;
    if (rc.routed) {
      rc.valveLengths = measureValveLengths(chip, wc, chip.pin(wc.pin).pos);
      rc.routed = std::all_of(rc.valveLengths.begin(), rc.valveLengths.end(),
                              [](std::int64_t l) { return l >= 0; });
    }
    rc.totalLength = std::max<std::int64_t>(0, obstacles.countOwnedBy(wc.net) - 1);
    if (!rc.routed) result.complete = false;
    result.totalChannelLength += rc.totalLength;
    if (rc.lengthMatchRequested && rc.lengthMatched) {
      ++result.matchedClusterCount;
      result.matchedChannelLength += rc.totalLength;
    }
    result.clusters.push_back(std::move(rc));
  }
  result.times.total = seconds(tStart, Clock::now());

  // --- Metrics registry: every counter of the run in one structure -------
  trace::MetricsRegistry& m = result.metrics;
  m.setInt("pipeline.complete", result.complete ? 1 : 0);
  m.setInt("clusters.total", static_cast<std::int64_t>(result.clusters.size()));
  m.setInt("clusters.multi_valve", result.multiValveClusterCount);
  m.setInt("clusters.matched", result.matchedClusterCount);
  m.setInt("clusters.declustered", result.declusteredCount);
  m.setInt("length.total", result.totalChannelLength);
  m.setInt("length.matched", result.matchedChannelLength);
  m.setInt("lm.dme_clusters", lmStats.dmeClusters);
  m.setInt("lm.pair_clusters", lmStats.pairClusters);
  m.setInt("lm.candidates_built", lmStats.candidatesBuilt);
  m.setInt("lm.demoted", lmStats.demoted);
  m.setInt("lm.selection_exact", lmStats.selectionExact ? 1 : 0);
  m.setReal("lm.selection_objective", lmStats.selectionObjective);
  m.setInt("lm.negotiation_iterations", lmStats.negotiationIterations);
  m.setInt("escape.rounds", result.escapeRounds);
  m.setInt("escape.wide_tap_remedies", result.escapeWideTapRemedies);
  m.setInt("escape.demotions", result.escapeDemotions);
  m.setInt("escape.splits", result.escapeSplits);
  // Escape-session rounds and per-round deltas; zeros when no min-cost-flow
  // pass ran (the sequential ablation) so the schema stays stable.
  // Counters are diffed against the pre-request snapshot so a session
  // shared across serve requests still reports per-request numbers
  // (cold_builds = 0 is the signature of a warm cross-request reuse).
  {
    const EscapeFlowSession::Stats es =
        escapeSession != nullptr ? escapeSession->stats() : EscapeFlowSession::Stats{};
    m.setInt("escape.flow.cold_builds", es.coldBuilds - escapeStats0.coldBuilds);
    m.setInt("escape.flow.warm_rounds", es.warmRounds - escapeStats0.warmRounds);
    m.setInt("escape.flow.warm_delta_cells",
             es.warmDeltaCells - escapeStats0.warmDeltaCells);
    m.setInt("escape.flow.warm_delta_arcs",
             es.warmDeltaArcs - escapeStats0.warmDeltaArcs);
    // Arcs the session stores (the grid arcs are implicit); the key keeps
    // its name for perfbench's graph.persistent_arcs.
    m.setInt("escape.flow.persistent_arcs", es.storedArcs);
  }
  // Solver-effort counters summed over every escape pass.
  m.setInt("escape.flow.dijkstra_passes",
           static_cast<std::int64_t>(escapeCounters.dijkstraPasses));
  m.setInt("escape.flow.augmentations",
           static_cast<std::int64_t>(escapeCounters.augmentations));
  m.setInt("escape.flow.bucket_pushes",
           static_cast<std::int64_t>(escapeCounters.bucketPushes));
  m.setInt("escape.flow.heap_pushes",
           static_cast<std::int64_t>(escapeCounters.heapPushes));
  m.setInt("escape.flow.queue_pops",
           static_cast<std::int64_t>(escapeCounters.queuePops));
  m.setInt("escape.flow.settles",
           static_cast<std::int64_t>(escapeCounters.settles));
  m.setInt("escape.flow.early_exits",
           static_cast<std::int64_t>(escapeCounters.earlyExits));
  m.setInt("escape.flow.cost", escapeFlowCost);
  m.setInt("escape.flow.first_cost", escapeFirstCost);
  m.setInt("escape.flow.first_routed", escapeFirstRouted);
  // Cumulative flow setup (session construction plus each round's
  // occupancy read and tap arcs) and solve time across every escape pass.
  m.setReal("time.escape_flow_build_s", escapeFlowBuildS);
  m.setReal("time.escape_flow_run_s", escapeFlowRunS);
  m.setInt("detour.reroutes", result.detourReroutes);
  m.setInt("detour.bump_fallbacks", result.detourBumpFallbacks);
  m.setInt("detour.iterations", result.detourIterations);
  m.setInt("detour.restores", result.detourRestores);
  const auto fillSearch = [&m](const std::string& prefix,
                               const route::SearchCounters& c) {
    m.setInt(prefix + ".searches", static_cast<std::int64_t>(c.searches));
    m.setInt(prefix + ".expansions", static_cast<std::int64_t>(c.expansions));
    m.setInt(prefix + ".bounded_visits", static_cast<std::int64_t>(c.boundedVisits));
  };
  fillSearch("search.cluster_routing", result.searchClusterRouting);
  fillSearch("search.escape", result.searchEscape);
  fillSearch("search.detour", result.searchDetour);
  m.setReal("time.clustering_s", result.times.clustering);
  m.setReal("time.cluster_routing_s", result.times.clusterRouting);
  m.setReal("time.escape_s", result.times.escape);
  m.setReal("time.detour_s", result.times.detour);
  m.setReal("time.total_s", result.times.total);
  return result;
}

}  // namespace

PacorResult routeChip(const chip::Chip& chip, const PacorConfig& config,
                      const RouteResources& resources) {
  return routeChipImpl(chip, config, resources, nullptr);
}

namespace detail {

PacorResult routeChipSeeded(const chip::Chip& chip, const PacorConfig& config,
                            const RouteResources& resources, PipelineSeed seed) {
  return routeChipImpl(chip, config, resources, &seed);
}

}  // namespace detail

}  // namespace pacor::core
