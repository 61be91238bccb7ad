#include "pacor/eco.hpp"

#include <algorithm>
#include <cstddef>
#include <map>
#include <span>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "pacor/clustering.hpp"
#include "pacor/work.hpp"
#include "util/deadline.hpp"

namespace pacor::core {
namespace {

std::vector<chip::ValveId> sortedIds(std::vector<chip::ValveId> v) {
  std::sort(v.begin(), v.end());
  return v;
}

void fillEcoMetrics(PacorResult& result, const EcoInfo& info,
                    std::size_t deltaOps) {
  trace::MetricsRegistry& m = result.metrics;
  m.setInt("eco.mode", info.mode == EcoInfo::Mode::kIdentity      ? 0
                       : info.mode == EcoInfo::Mode::kIncremental ? 1
                                                                  : 2);
  m.setInt("eco.fallback", info.fellBack ? 1 : 0);
  m.setInt("eco.delta_ops", static_cast<std::int64_t>(deltaOps));
  m.setInt("eco.dirty_clusters", info.dirtyClusters);
  m.setInt("eco.frozen_clusters", info.frozenClusters);
  m.setInt("eco.total_specs", info.totalSpecs);
  m.setReal("eco.reuse_ratio", info.reuseRatio);
}

/// Every cell a routed cluster owns in the obstacle map: valve cells, the
/// intra-cluster tree, and the escape channel (the same union the pipeline
/// committed; occupy() tolerates the overlaps between them).
template <typename CellFn>
void forEachClusterCell(const chip::Chip& chip, const RoutedCluster& rc,
                        std::span<const chip::ValveId> valvesInChip,
                        CellFn&& fn) {
  for (const chip::ValveId v : valvesInChip) fn(chip.valve(v).pos);
  for (const route::Path& p : rc.treePaths)
    for (const geom::Point c : p) fn(c);
  for (const geom::Point c : rc.escapePath) fn(c);
}

}  // namespace

PacorResult rerouteChip(const chip::Chip& base, const PacorResult& prev,
                        const chip::ChipDelta& delta, const PacorConfig& config,
                        const RouteResources& resources, EcoInfo* info) {
  util::checkDeadline();
  chip::AppliedDelta applied = chip::applyWithMap(base, delta);
  const chip::Chip& edited = applied.chip;
  if (const auto err = edited.validate())
    throw std::invalid_argument("rerouteChip: edited chip is invalid: " + *err);

  EcoInfo local;
  EcoInfo& out = info != nullptr ? *info : local;
  out = EcoInfo{};

  const auto fullRoute = [&](std::string reason, bool fellBack) {
    out.mode = EcoInfo::Mode::kFull;
    out.fellBack = fellBack;
    out.fullReason = std::move(reason);
    PacorResult result = routeChip(edited, config, resources);
    fillEcoMetrics(result, out, delta.ops.size());
    return result;
  };

  // Structural edits invalidate every committed escape (the boundary /
  // pin layout or the whole coordinate system changed): route fresh.
  if (edited.routingGrid.width() != base.routingGrid.width() ||
      edited.routingGrid.height() != base.routingGrid.height())
    return fullRoute("routing grid changed", false);
  if (edited.rules.minChannelWidthUm != base.rules.minChannelWidthUm ||
      edited.rules.minChannelSpacingUm != base.rules.minChannelSpacingUm)
    return fullRoute("design rules changed", false);
  if (edited.pins.size() != base.pins.size())
    return fullRoute("pin set changed", false);
  for (std::size_t i = 0; i < base.pins.size(); ++i)
    if (edited.pins[i].pos != base.pins[i].pos)
      return fullRoute("pin set changed", false);

  // --- Map the previous result onto base's clustering --------------------
  const std::vector<ClusterSpec> specsA = clusterValves(base);
  const std::vector<ClusterSpec> specsB = clusterValves(edited);
  out.totalSpecs = static_cast<int>(specsB.size());

  std::vector<int> valveToSpecA(base.valves.size(), -1);
  for (std::size_t s = 0; s < specsA.size(); ++s)
    for (const chip::ValveId v : specsA[s].valves)
      valveToSpecA[static_cast<std::size_t>(v)] = static_cast<int>(s);

  // A previous cluster may be a de-clustered fragment of its spec, so a
  // spec maps to a *group* of routed clusters whose valve union must cover
  // it exactly.
  std::vector<std::vector<std::size_t>> groupRcs(specsA.size());
  std::vector<std::vector<chip::ValveId>> groupUnion(specsA.size());
  for (std::size_t i = 0; i < prev.clusters.size(); ++i) {
    const RoutedCluster& rc = prev.clusters[i];
    if (rc.valves.empty()) return fullRoute("unusable previous result", false);
    int specA = -1;
    for (const chip::ValveId v : rc.valves) {
      if (v < 0 || static_cast<std::size_t>(v) >= base.valves.size())
        return fullRoute("unusable previous result", false);
      const int s = valveToSpecA[static_cast<std::size_t>(v)];
      if (specA == -1) specA = s;
      if (s != specA || s < 0)
        return fullRoute("unusable previous result", false);
    }
    groupRcs[static_cast<std::size_t>(specA)].push_back(i);
    auto& u = groupUnion[static_cast<std::size_t>(specA)];
    u.insert(u.end(), rc.valves.begin(), rc.valves.end());
  }

  // --- The edit's blocker set --------------------------------------------
  // Cells that did not block routing before but do now: obstacles added by
  // the delta plus the sites of new or moved valves. A committed cluster
  // whose geometry touches any of them cannot be carried.
  std::vector<chip::ValveId> invMap(edited.valves.size(), -1);
  for (std::size_t old = 0; old < applied.valveMap.size(); ++old)
    if (applied.valveMap[old] >= 0)
      invMap[static_cast<std::size_t>(applied.valveMap[old])] =
          static_cast<chip::ValveId>(old);

  std::unordered_set<geom::Point> blockers;
  {
    std::unordered_map<geom::Point, int> obsCount;
    for (const geom::Point p : base.obstacles) ++obsCount[p];
    for (const geom::Point p : edited.obstacles) {
      const auto it = obsCount.find(p);
      if (it == obsCount.end() || it->second == 0)
        blockers.insert(p);
      else
        --it->second;
    }
  }
  for (const chip::Valve& v : edited.valves) {
    const chip::ValveId old = invMap[static_cast<std::size_t>(v.id)];
    if (old < 0 || base.valve(old).pos != v.pos) blockers.insert(v.pos);
  }

  const bool deltaChanged = base.delta != edited.delta;

  // --- Per-spec verdict: carry frozen or re-route dirty -------------------
  std::map<std::vector<chip::ValveId>, std::size_t> specAByKey;
  for (std::size_t s = 0; s < specsA.size(); ++s)
    specAByKey[sortedIds(specsA[s].valves)] = s;

  struct Plan {
    int specA = -1;    ///< matching base spec (membership + lm), -1 if none
    bool clean = false;  ///< the previous geometry can be carried verbatim
  };
  std::vector<Plan> plans(specsB.size());
  int frozenSpecs = 0;
  for (std::size_t b = 0; b < specsB.size(); ++b) {
    const ClusterSpec& spec = specsB[b];
    std::vector<chip::ValveId> pre;
    pre.reserve(spec.valves.size());
    bool mapped = true;
    for (const chip::ValveId v : spec.valves) {
      const chip::ValveId old = invMap[static_cast<std::size_t>(v)];
      if (old < 0) {
        mapped = false;
        break;
      }
      pre.push_back(old);
    }
    if (!mapped) continue;
    const auto it = specAByKey.find(sortedIds(std::move(pre)));
    if (it == specAByKey.end()) continue;
    const std::size_t sa = it->second;
    if (specsA[sa].lengthMatched != spec.lengthMatched) continue;
    plans[b].specA = static_cast<int>(sa);

    if (deltaChanged && spec.lengthMatched) continue;
    bool clean = true;
    for (const chip::ValveId v : spec.valves)
      if (base.valve(invMap[static_cast<std::size_t>(v)]).pos !=
          edited.valve(v).pos)
        clean = false;
    const auto& group = groupRcs[sa];
    if (group.empty() ||
        sortedIds(groupUnion[sa]) != sortedIds(specsA[sa].valves))
      clean = false;
    for (const std::size_t rcIdx : group) {
      const RoutedCluster& rc = prev.clusters[rcIdx];
      if (!rc.routed || rc.pin < 0 ||
          static_cast<std::size_t>(rc.pin) >= edited.pins.size()) {
        clean = false;
        break;
      }
      forEachClusterCell(base, rc, rc.valves, [&](geom::Point c) {
        if (blockers.contains(c)) clean = false;
      });
      if (!clean) break;
    }
    if (clean) {
      plans[b].clean = true;
      ++frozenSpecs;
    }
  }
  out.dirtyClusters = static_cast<int>(specsB.size()) - frozenSpecs;

  // --- Identity: nothing the edit touched needs routing -------------------
  if (out.dirtyClusters == 0 && specsA.size() == specsB.size() &&
      frozenSpecs == static_cast<int>(specsB.size())) {
    out.mode = EcoInfo::Mode::kIdentity;
    out.frozenClusters = static_cast<int>(prev.clusters.size());
    out.reuseRatio = 1.0;
    PacorResult result = prev;
    result.design = edited.name;
    for (RoutedCluster& rc : result.clusters) rc.ecoCarried = true;
    fillEcoMetrics(result, out, delta.ops.size());
    return result;
  }

  // --- Incremental: seed stages 2-5 with the survivors frozen -------------
  detail::PipelineSeed seed;
  seed.obstacles = makeRoutingObstacleTemplate(edited);
  seed.multiValveClusterCount = static_cast<int>(
      std::count_if(specsB.begin(), specsB.end(),
                    [](const ClusterSpec& s) { return s.valves.size() >= 2; }));
  grid::NetId nextNet = 0;
  int frozenRcs = 0;
  bool seedConflict = false;
  const auto occupyCell = [&](grid::ObstacleMap& map, geom::Point c,
                              grid::NetId net) {
    if (!map.isFreeFor(c, net)) {
      seedConflict = true;
      return;
    }
    map.occupy(std::span<const geom::Point>(&c, 1), net);
  };
  for (std::size_t b = 0; b < specsB.size(); ++b) {
    const ClusterSpec& spec = specsB[b];
    if (!plans[b].clean) {
      WorkCluster wc;
      wc.spec = spec;
      wc.net = nextNet++;
      for (const chip::ValveId v : spec.valves)
        occupyCell(seed.obstacles, edited.valve(v).pos, wc.net);
      seed.clusters.push_back(std::move(wc));
      continue;
    }
    for (const std::size_t rcIdx : groupRcs[static_cast<std::size_t>(plans[b].specA)]) {
      const RoutedCluster& rc = prev.clusters[rcIdx];
      WorkCluster wc;
      wc.spec.valves.reserve(rc.valves.size());
      for (const chip::ValveId v : rc.valves)
        wc.spec.valves.push_back(applied.valveMap[static_cast<std::size_t>(v)]);
      wc.spec.lengthMatched = rc.lengthMatchRequested;
      wc.net = nextNet++;
      wc.internallyRouted = true;
      wc.treePaths = rc.treePaths;
      wc.escapePath = rc.escapePath;
      wc.pin = rc.pin;
      wc.tap = rc.tap;
      wc.tapCells = {rc.tap};
      wc.lengthMatched = rc.lengthMatched;
      wc.ecoFrozen = true;
      forEachClusterCell(edited, rc, wc.spec.valves, [&](geom::Point c) {
        occupyCell(seed.obstacles, c, wc.net);
      });
      ++frozenRcs;
      seed.clusters.push_back(std::move(wc));
    }
  }
  seed.nextNet = nextNet;
  if (seedConflict)
    return fullRoute("previous geometry conflicts with the edited chip", true);

  out.mode = EcoInfo::Mode::kIncremental;
  out.frozenClusters = frozenRcs;
  out.reuseRatio = prev.clusters.empty()
                       ? 0.0
                       : static_cast<double>(frozenRcs) /
                             static_cast<double>(prev.clusters.size());

  PacorResult result =
      detail::routeChipSeeded(edited, config, resources, std::move(seed));

  // --- Acceptance: never hand back worse than a fresh route would ---------
  if (!result.complete)
    return fullRoute("incremental re-route incomplete", true);
  // A dirty cluster whose previous incarnation was cleanly length-matched
  // must come back matched in one piece; anything less is a quality
  // regression the full flow may well avoid.
  for (std::size_t b = 0; b < specsB.size(); ++b) {
    const ClusterSpec& spec = specsB[b];
    if (plans[b].clean || !spec.lengthMatched || plans[b].specA < 0) continue;
    const auto& group = groupRcs[static_cast<std::size_t>(plans[b].specA)];
    if (group.size() != 1) continue;
    const RoutedCluster& was = prev.clusters[group.front()];
    if (!was.lengthMatchRequested || !was.lengthMatched) continue;
    const std::vector<chip::ValveId> want = sortedIds(spec.valves);
    bool ok = false;
    for (const RoutedCluster& rc : result.clusters) {
      if (rc.ecoCarried || sortedIds(rc.valves) != want) continue;
      ok = rc.lengthMatchRequested && rc.lengthMatched;
      break;
    }
    if (!ok)
      return fullRoute("length matching regressed on a re-routed cluster",
                       true);
  }

  fillEcoMetrics(result, out, delta.ops.size());
  return result;
}

}  // namespace pacor::core
