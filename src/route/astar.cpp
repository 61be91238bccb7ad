#include "route/astar.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "geom/rect.hpp"
#include "route/workspace.hpp"
#include "trace/trace.hpp"

namespace pacor::route {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Target-set goal shared by every search variant: the heuristic is the
/// Manhattan distance to the bounding box of the target set (admissible
/// and consistent; exact for a single target).
struct SearchGoal {
  geom::Rect box;

  static SearchGoal of(const std::vector<Point>& targets) {
    geom::Rect box = geom::Rect::fromPoint(targets.front());
    for (const Point t : targets) box = box.unionWith(geom::Rect::fromPoint(t));
    return {box};
  }

  std::int64_t h(Point p) const noexcept { return box.manhattanTo(p); }
};

/// Stamps the in-bounds target cells into the workspace's target array.
void stampTargets(RouterWorkspace& ws, const grid::Grid& g,
                  const std::vector<Point>& targets) {
  for (const Point t : targets)
    if (g.inBounds(t)) ws.targetStamp[static_cast<std::size_t>(g.index(t))] = ws.epoch;
}

/// Labels a cell: marks its dist/parent slots valid for this search.
inline void label(RouterWorkspace& ws, std::size_t idx, double g, std::int32_t par) {
  ws.stamp[idx] = ws.epoch;
  ws.dist[idx] = g;
  ws.parent[idx] = par;
}

AStarResult reconstruct(const grid::Grid& g, const RouterWorkspace& ws,
                        std::int32_t cell, double cost) {
  AStarResult result;
  result.success = true;
  result.cost = cost;
  for (std::int32_t c = cell; c != -1; c = ws.parent[static_cast<std::size_t>(c)])
    result.path.push_back(g.point(c));
  std::reverse(result.path.begin(), result.path.end());
  return result;
}

/// Integer-cost fast path (unit steps, no history): Dial's bucketed open
/// list instead of a binary heap. f = g + h never decreases under the
/// consistent Manhattan heuristic, so a forward cursor over the buckets
/// yields nodes in optimal order with O(1) push/pop.
AStarResult aStarRouteBuckets(const grid::ObstacleMap& obstacles,
                              const AStarRequest& request, RouterWorkspace& ws) {
  const grid::Grid& g = obstacles.grid();
  const SearchGoal goal = SearchGoal::of(request.targets);
  const auto usable = [&](Point p) {
    return obstacles.isFreeFor(p, request.net) &&
           (request.fence == nullptr || !request.fence->blocks(p, request.fenceGroup));
  };

  stampTargets(ws, g, request.targets);

  for (const Point s : request.sources) {
    if (!g.inBounds(s) || !usable(s)) continue;
    const auto idx = static_cast<std::size_t>(g.index(s));
    if (ws.stamp[idx] != ws.epoch || ws.dist[idx] > 0.0) {
      label(ws, idx, 0.0, -1);
      ws.bucketPush(goal.h(s), {g.index(s), 0});
    }
  }

  RouterWorkspace::BucketEntry top{};
  while (ws.bucketPop(top)) {
    const auto cellIdx = static_cast<std::size_t>(top.cell);
    if (static_cast<double>(top.g) > ws.dist[cellIdx]) continue;  // stale entry
    ++ws.expansions;
    if (ws.targetStamp[cellIdx] == ws.epoch)
      return reconstruct(g, ws, top.cell, static_cast<double>(top.g));
    const Point p = g.point(top.cell);
    const std::int32_t ng = top.g + 1;
    g.forNeighbors(p, [&](Point q) {
      if (!usable(q)) return;
      const auto qIdx = static_cast<std::size_t>(g.index(q));
      if (ws.stamp[qIdx] == ws.epoch && static_cast<double>(ng) >= ws.dist[qIdx]) return;
      label(ws, qIdx, static_cast<double>(ng), top.cell);
      ws.bucketPush(ng + goal.h(q), {g.index(q), ng});
    });
  }
  return {};
}

/// General path (per-cell history costs): binary min-heap over double f.
AStarResult aStarRouteHeap(const grid::ObstacleMap& obstacles,
                           const AStarRequest& request, RouterWorkspace& ws) {
  const grid::Grid& g = obstacles.grid();
  const SearchGoal goal = SearchGoal::of(request.targets);
  const auto usable = [&](Point p) {
    return obstacles.isFreeFor(p, request.net) &&
           (request.fence == nullptr || !request.fence->blocks(p, request.fenceGroup));
  };
  const auto stepCost = [&](Point q) {
    return 1.0 + (*request.historyCost)[static_cast<std::size_t>(g.index(q))];
  };

  stampTargets(ws, g, request.targets);
  auto& open = ws.heap;
  const auto push = [&](RouterWorkspace::HeapItem item) {
    open.push_back(item);
    std::push_heap(open.begin(), open.end(), std::greater<>{});
  };

  for (const Point s : request.sources) {
    if (!g.inBounds(s) || !usable(s)) continue;
    const auto idx = static_cast<std::size_t>(g.index(s));
    if (ws.stamp[idx] != ws.epoch || ws.dist[idx] > 0.0) {
      label(ws, idx, 0.0, -1);
      push({static_cast<double>(goal.h(s)), 0.0, g.index(s)});
    }
  }

  while (!open.empty()) {
    std::pop_heap(open.begin(), open.end(), std::greater<>{});
    const RouterWorkspace::HeapItem top = open.back();
    open.pop_back();
    const auto cellIdx = static_cast<std::size_t>(top.cell);
    if (top.g > ws.dist[cellIdx]) continue;  // stale entry
    ++ws.expansions;
    if (ws.targetStamp[cellIdx] == ws.epoch) return reconstruct(g, ws, top.cell, top.g);
    const Point p = g.point(top.cell);
    g.forNeighbors(p, [&](Point q) {
      if (!usable(q)) return;
      const auto qIdx = static_cast<std::size_t>(g.index(q));
      const double ng = top.g + stepCost(q);
      if (ws.stamp[qIdx] == ws.epoch && ng >= ws.dist[qIdx]) return;
      label(ws, qIdx, ng, top.cell);
      push({ng + static_cast<double>(goal.h(q)), ng, g.index(q)});
    });
  }
  return {};
}

}  // namespace

void TerminalFence::add(Point p, std::int32_t group) {
  const std::int32_t cell = grid_.index(p);
  std::int32_t& o = owner_[static_cast<std::size_t>(cell)];
  if (o == kNone || o == group) {
    o = group;
    return;
  }
  const auto share = [&](std::int32_t owner) {
    const std::pair entry{cell, owner};
    const auto at = std::lower_bound(shared_.begin(), shared_.end(), entry);
    if (at == shared_.end() || *at != entry) shared_.insert(at, entry);
  };
  if (o != kShared) share(o);
  share(group);
  o = kShared;
}

AStarResult aStarRoute(const grid::ObstacleMap& obstacles, const AStarRequest& request,
                       RouterWorkspace* workspace) {
  if (request.sources.empty() || request.targets.empty()) return {};
  trace::Span span("route.astar", "search", trace::Level::kSearch);
  RouterWorkspace& ws = workspace != nullptr ? *workspace : localWorkspace();
  ws.bind(obstacles.grid());
  ws.beginSearch();
  const std::uint64_t expansions0 = ws.expansions;
  AStarResult result;
  if (request.historyCost == nullptr)
    result = aStarRouteBuckets(obstacles, request, ws);
  else
    result = aStarRouteHeap(obstacles, request, ws);
  span.arg("expansions", static_cast<std::int64_t>(ws.expansions - expansions0));
  span.arg("found", result.success ? 1 : 0);
  return result;
}

AStarResult aStarPointToPoint(const grid::ObstacleMap& obstacles, Point source,
                              Point target, grid::NetId net,
                              const std::vector<double>* historyCost) {
  AStarRequest req;
  req.sources = {source};
  req.targets = {target};
  req.net = net;
  req.historyCost = historyCost;
  return aStarRoute(obstacles, req);
}

}  // namespace pacor::route
