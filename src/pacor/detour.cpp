#include "pacor/detour.hpp"

#include <algorithm>
#include <cassert>
#include <queue>
#include <unordered_set>

#include "route/bounded_astar.hpp"
#include "route/bump_detour.hpp"
#include "trace/trace.hpp"
#include "util/deadline.hpp"

namespace pacor::core {
namespace {

/// Cells of every path of the cluster except path `skip` (-1 = none),
/// plus the valve cells (terminals stay owned during reroutes).
std::unordered_set<Point> cellsExcept(const chip::Chip& chip, const WorkCluster& wc,
                                      int skip) {
  std::unordered_set<Point> cells;
  for (std::size_t i = 0; i < wc.treePaths.size(); ++i) {
    if (static_cast<int>(i) == skip) continue;
    cells.insert(wc.treePaths[i].begin(), wc.treePaths[i].end());
  }
  cells.insert(wc.escapePath.begin(), wc.escapePath.end());
  for (const chip::ValveId v : wc.spec.valves) cells.insert(chip.valve(v).pos);
  return cells;
}

/// Temporary net id for reroute searches: everything the cluster owns
/// must read as blocked except the cells explicitly released.
constexpr grid::NetId kDetourProbeNet = 2'000'000'000;

/// Attempts to reroute wc.treePaths[pathIdx] so its length grows by a
/// value in [needLo, needHi] (both >= 0). Commits on success.
bool reroutePath(const chip::Chip& chip, grid::ObstacleMap& obstacles, WorkCluster& wc,
                 int pathIdx, std::int64_t needLo, std::int64_t needHi,
                 DetourStats* stats, bool useBoundedRoute) {
  route::Path& path = wc.treePaths[static_cast<std::size_t>(pathIdx)];
  if (path.size() < 2) return false;
  const Point a = path.front();
  const Point b = path.back();
  const std::int64_t oldLen = route::pathLength(path);

  // Release the cells only this path owns, plus its endpoints (which may
  // be shared junctions); everything else of the cluster stays blocking.
  const auto shared = cellsExcept(chip, wc, pathIdx);
  std::vector<Point> released;
  for (const Point c : path)
    if (!shared.contains(c)) released.push_back(c);
  std::vector<std::pair<Point, grid::NetId>> endpointOwners;
  for (const Point c : {a, b}) {
    const grid::NetId owner = obstacles.owner(c);
    if (owner >= 0) {
      endpointOwners.emplace_back(c, owner);
      obstacles.releasePath(std::span<const Point>(&c, 1), owner);
    }
  }
  obstacles.releasePath(released, wc.net);

  const auto restore = [&] {
    obstacles.occupy(released, wc.net);
    for (const auto& [cell, owner] : endpointOwners) {
      if (obstacles.owner(cell) == grid::kFreeCell)
        obstacles.occupy(std::span<const Point>(&cell, 1), owner);
    }
  };

  // When the escape channel attaches mid-path (wide-tap clusters), the
  // anchor cell must survive the detour; only bump insertion (which keeps
  // every original cell) is safe for such paths.
  bool carriesAnchor = false;
  if (path.size() > 2) {
    const std::unordered_set<Point> escapeCells(wc.escapePath.begin(),
                                                wc.escapePath.end());
    for (std::size_t i = 1; i + 1 < path.size(); ++i)
      if (escapeCells.contains(path[i])) {
        carriesAnchor = true;
        break;
      }
  }

  route::BoundedAStarRequest req;
  req.source = a;
  req.target = b;
  req.net = kDetourProbeNet;
  req.minLength = oldLen + needLo;
  req.maxLength = oldLen + needHi;
  route::BoundedAStarResult found;
  if (useBoundedRoute && !carriesAnchor) found = route::boundedLengthRoute(obstacles, req);

  route::Path newPath;
  if (found.success) {
    newPath = std::move(found.path);
  } else {
    // Bump-insertion fallback operates on the original geometry.
    route::BumpDetourRequest bump;
    bump.path = path;
    bump.net = kDetourProbeNet;
    bump.minLength = oldLen + needLo;
    bump.maxLength = oldLen + needHi;
    auto bumped = route::bumpDetour(obstacles, bump);
    if (!bumped.success) {
      restore();
      return false;
    }
    newPath = std::move(bumped.path);
    if (stats != nullptr) ++stats->bumpFallbacks;
  }

  obstacles.occupy(newPath, wc.net);
  // Shared endpoints are covered by the new path (same endpoints), so
  // endpoints owned by wc.net are restored implicitly. An endpoint owned
  // by a *foreign* net should be impossible inside one cluster, but a
  // silently swallowed owner would corrupt the obstacle map for the rest
  // of the run — so re-assert it here and put any foreign owner back.
  for (const auto& [cell, owner] : endpointOwners) {
    assert(owner == wc.net && "detour endpoint owned by a foreign net");
    if (owner != wc.net && obstacles.owner(cell) == wc.net) {
      obstacles.releasePath(std::span<const Point>(&cell, 1), wc.net);
      obstacles.occupy(std::span<const Point>(&cell, 1), owner);
    }
  }
  path = std::move(newPath);
  if (stats != nullptr) ++stats->reroutes;
  return true;
}

}  // namespace

std::vector<std::int64_t> measureValveLengths(const chip::Chip& chip,
                                              const WorkCluster& wc, Point origin) {
  // Channel adjacency comes from the routed paths, NOT from grid
  // adjacency of owned cells: parallel channels of one net one cell apart
  // are separated by PDMS and carry no shortcut.
  std::unordered_map<Point, std::vector<Point>> adj;
  const auto link = [&](Point a, Point b) {
    adj[a].push_back(b);
    adj[b].push_back(a);
  };
  const auto addPath = [&](const route::Path& p) {
    if (p.size() == 1) adj.try_emplace(p[0]);
    for (std::size_t i = 1; i < p.size(); ++i) link(p[i - 1], p[i]);
  };
  for (const route::Path& p : wc.treePaths) addPath(p);
  addPath(wc.escapePath);
  for (const chip::ValveId v : wc.spec.valves) adj.try_emplace(chip.valve(v).pos);

  std::unordered_map<Point, std::int64_t> dist;
  if (adj.contains(origin)) {
    std::queue<Point> frontier;
    frontier.push(origin);
    dist.emplace(origin, 0);
    while (!frontier.empty()) {
      const Point p = frontier.front();
      frontier.pop();
      const std::int64_t d = dist.at(p);
      for (const Point q : adj.at(p)) {
        if (dist.contains(q)) continue;
        dist.emplace(q, d + 1);
        frontier.push(q);
      }
    }
  }
  std::vector<std::int64_t> out;
  out.reserve(wc.spec.valves.size());
  for (const chip::ValveId v : wc.spec.valves) {
    const auto it = dist.find(chip.valve(v).pos);
    out.push_back(it == dist.end() ? -1 : it->second);
  }
  return out;
}

bool rebuildDetourStructure(const chip::Chip& chip, WorkCluster& wc) {
  if (wc.escapePath.empty()) return false;
  const Point anchor = wc.escapePath.front();

  // Channel adjacency from the tree paths only (path edges, not grid
  // adjacency), plus degree information to find junctions.
  std::unordered_map<Point, std::vector<Point>> adj;
  for (const route::Path& p : wc.treePaths)
    for (std::size_t i = 1; i < p.size(); ++i) {
      adj[p[i - 1]].push_back(p[i]);
      adj[p[i]].push_back(p[i - 1]);
    }
  if (!adj.contains(anchor)) return false;

  // BFS tree rooted at the anchor.
  std::unordered_map<Point, Point> parent;
  std::queue<Point> frontier;
  frontier.push(anchor);
  parent.emplace(anchor, anchor);
  while (!frontier.empty()) {
    const Point p = frontier.front();
    frontier.pop();
    for (const Point q : adj.at(p)) {
      if (parent.contains(q)) continue;
      parent.emplace(q, p);
      frontier.push(q);
    }
  }

  std::unordered_set<Point> cut{anchor};  // segment boundaries
  for (const auto& [cell, neighbors] : adj)
    if (neighbors.size() >= 3) cut.insert(cell);
  std::vector<Point> valveCells;
  for (const chip::ValveId v : wc.spec.valves) {
    const Point cell = chip.valve(v).pos;
    if (!parent.contains(cell)) return false;  // valve unreachable
    cut.insert(cell);
    valveCells.push_back(cell);
  }

  // Walk each valve up to the anchor, cutting segments at `cut` cells.
  // Segments shared between sinks are deduplicated on their leaf-side end.
  std::vector<route::Path> segments;
  std::unordered_map<Point, int> segmentByLeafEnd;
  std::vector<std::vector<int>> sequences(wc.spec.valves.size());
  for (std::size_t s = 0; s < valveCells.size(); ++s) {
    Point at = valveCells[s];
    while (at != anchor) {
      route::Path seg{at};
      Point walker = at;
      do {
        walker = parent.at(walker);
        seg.push_back(walker);
      } while (walker != anchor && !cut.contains(walker));
      const auto [it, fresh] =
          segmentByLeafEnd.emplace(at, static_cast<int>(segments.size()));
      if (fresh) segments.push_back(seg);
      sequences[s].push_back(it->second);
      at = walker;
    }
  }

  wc.treePaths = std::move(segments);
  wc.sinkSequences = std::move(sequences);
  wc.tap = anchor;
  wc.lmStructured = true;
  return true;
}

bool detourClusterForMatching(const chip::Chip& chip, grid::ObstacleMap& obstacles,
                              WorkCluster& wc, Point origin, std::int64_t delta,
                              int maxRounds, DetourStats* stats, bool useBoundedRoute) {
  if (!wc.lmStructured) return false;

  trace::Span span("detour.cluster", "detour", trace::Level::kCluster);

  // Snapshot for the Alg. 2 restore-on-failure semantics.
  const std::vector<route::Path> snapshotPaths = wc.treePaths;
  bool anyCommitted = false;  // a reroute changed the obstacle map

  // Alg. 2 steps 22-24: put the original paths back and give up. Used on
  // a failed round AND on budget exhaustion with matching unsatisfied —
  // leaving a half-detoured tree committed would waste channel length
  // without buying the match.
  const auto restoreSnapshot = [&] {
    obstacles.release(wc.net);
    wc.treePaths = snapshotPaths;
    for (const route::Path& p : wc.treePaths) obstacles.occupy(p, wc.net);
    if (!wc.escapePath.empty()) obstacles.occupy(wc.escapePath, wc.net);
    for (const chip::ValveId v : wc.spec.valves) {
      const Point cell = chip.valve(v).pos;
      obstacles.occupy(std::span<const Point>(&cell, 1), wc.net);
    }
    wc.lengthMatched = false;
    if (stats != nullptr) ++stats->restores;
  };

  const auto measure = [&] { return measureValveLengths(chip, wc, origin); };

  for (int round = 0; round < maxRounds; ++round) {
    util::checkDeadline();
    if (stats != nullptr) ++stats->iterations;
    const auto lengths = measure();
    if (std::any_of(lengths.begin(), lengths.end(),
                    [](std::int64_t l) { return l < 0; })) {
      // Cluster not fully connected from origin. Reachable mid-loop only
      // if an earlier round's reroute broke connectivity — undo it.
      if (anyCommitted) restoreSnapshot();
      return false;
    }
    const std::int64_t maxL = *std::max_element(lengths.begin(), lengths.end());

    std::vector<std::size_t> shortSinks;
    for (std::size_t s = 0; s < lengths.size(); ++s)
      if (lengths[s] < maxL - delta) shortSinks.push_back(s);
    if (shortSinks.empty()) {
      wc.lengthMatched = true;
      return true;
    }

    std::vector<bool> detoured(wc.treePaths.size(), false);
    bool roundFailed = false;
    for (const std::size_t s : shortSinks) {
      const std::int64_t needLo = (maxL - delta) - lengths[s];
      const std::int64_t needHi = maxL - lengths[s];
      bool success = false;
      for (const int pathIdx : wc.sinkSequences[s]) {
        if (detoured[static_cast<std::size_t>(pathIdx)]) {
          success = true;  // a shared ancestor was already lengthened;
          break;           // lengths are re-measured next round
        }
        if (reroutePath(chip, obstacles, wc, pathIdx, needLo, needHi, stats,
                        useBoundedRoute)) {
          detoured[static_cast<std::size_t>(pathIdx)] = true;
          anyCommitted = true;
          success = true;
          break;
        }
      }
      if (!success) {
        roundFailed = true;
        break;
      }
    }

    if (roundFailed) {
      restoreSnapshot();
      return false;
    }
  }

  const auto lengths = measure();
  const auto [lo, hi] = std::minmax_element(lengths.begin(), lengths.end());
  wc.lengthMatched = !lengths.empty() && *lo >= 0 && (*hi - *lo) <= delta;
  // Budget exhausted without reaching the match: the same restore applies
  // here, otherwise the partially-detoured paths stay committed.
  if (!wc.lengthMatched && anyCommitted) restoreSnapshot();
  return wc.lengthMatched;
}

}  // namespace pacor::core
