#include "route/bounded_astar.hpp"

#include <algorithm>
#include <array>

#include "route/workspace.hpp"
#include "trace/trace.hpp"

namespace pacor::route {
namespace {

/// Visit budget: beyond this the geometry is too constrained for the
/// search and the caller should fall back to bump insertion.
constexpr std::size_t kMaxVisits = 400'000;

/// Depth-first search over *simple* paths with window pruning. Simplicity
/// is guaranteed by construction (the current path doubles as the used-
/// cell set, tracked by workspace stamps: stamp == epoch marks a cell on
/// the path). The neighbor order implements the paper's modified-A*
/// intent: while the remaining straight-line completion would undershoot
/// the bound, wander away from the target (consume slack); once
/// g + H >= minLength, head straight home. The first accepted path
/// therefore lands near the window bottom.
struct Dfs {
  const grid::ObstacleMap& obstacles;
  const BoundedAStarRequest& req;
  RouterWorkspace& ws;
  Path path;
  std::size_t visits = 0;

  bool onPath(Point p) const {
    return ws.stamp[static_cast<std::size_t>(obstacles.grid().index(p))] == ws.epoch;
  }
  void mark(Point p) {
    ws.stamp[static_cast<std::size_t>(obstacles.grid().index(p))] = ws.epoch;
  }
  void unmark(Point p) {
    ws.stamp[static_cast<std::size_t>(obstacles.grid().index(p))] = 0;
  }

  bool run() {
    path.push_back(req.source);
    mark(req.source);
    const bool found = extend(req.source, 0);
    ws.boundedVisits += visits;
    return found;
  }

  bool extend(Point cell, std::int64_t g) {
    if (cell == req.target)
      return g >= req.minLength;  // g <= maxLength by pruning
    if (++visits > kMaxVisits) return false;

    std::array<Point, 4> order{};
    std::size_t n = 0;
    obstacles.grid().forNeighbors(cell, [&](Point q) { order[n++] = q; });
    // The paper's penalty priority: F = max(g + H, minLength). Under the
    // bound all F tie at minLength, so prefer the neighbor that consumes
    // the most slack (largest H); above it, smaller F = head straight home.
    const auto key = [&](Point q) {
      const std::int64_t h = geom::manhattan(q, req.target);
      const std::int64_t f = std::max(g + 1 + h, req.minLength);
      const std::int64_t tie = (g + 1 + h < req.minLength) ? -h : h;
      return std::pair(f, tie);
    };
    // Stable insertion sort of (at most) four entries: same order as the
    // library stable_sort without its temporary-buffer allocation.
    std::array<std::pair<std::int64_t, std::int64_t>, 4> keys{};
    for (std::size_t i = 0; i < n; ++i) keys[i] = key(order[i]);
    for (std::size_t i = 1; i < n; ++i)
      for (std::size_t j = i; j > 0 && keys[j] < keys[j - 1]; --j) {
        std::swap(order[j], order[j - 1]);
        std::swap(keys[j], keys[j - 1]);
      }

    for (std::size_t i = 0; i < n; ++i) {
      const Point q = order[i];
      if (!obstacles.isFreeFor(q, req.net) || onPath(q)) continue;
      const std::int64_t ng = g + 1;
      // Window pruning: even the straight completion must fit under the
      // cap. Parity makes minLength implicitly reachable whenever some
      // value of the path's parity class lies in the window.
      const std::int64_t straight = ng + geom::manhattan(q, req.target);
      if (straight > req.maxLength) continue;
      path.push_back(q);
      mark(q);
      if (extend(q, ng)) return true;
      path.pop_back();
      unmark(q);
      if (visits > kMaxVisits) return false;
    }
    return false;
  }
};

}  // namespace

BoundedAStarResult boundedLengthRoute(const grid::ObstacleMap& obstacles,
                                      const BoundedAStarRequest& request,
                                      RouterWorkspace* workspace) {
  BoundedAStarResult result;
  const grid::Grid& g = obstacles.grid();
  if (!g.inBounds(request.source) || !g.inBounds(request.target)) return result;
  if (!obstacles.isFreeFor(request.source, request.net) ||
      !obstacles.isFreeFor(request.target, request.net))
    return result;
  if (request.maxLength < request.minLength) return result;
  const std::int64_t straight = geom::manhattan(request.source, request.target);
  if (request.maxLength < straight) return result;
  // Parity feasibility: reachable lengths are straight + 2k.
  std::int64_t feasible = request.maxLength;
  if (((feasible - straight) & 1) != 0) --feasible;
  if (feasible < request.minLength) return result;
  if (request.source == request.target) {
    if (request.minLength > 0) return result;  // loops are not simple paths
    result.success = true;
    result.path = {request.source};
    return result;
  }

  trace::Span span("route.bounded_dfs", "search", trace::Level::kSearch);
  RouterWorkspace& ws = workspace != nullptr ? *workspace : localWorkspace();
  ws.bind(g);
  ws.beginSearch();
  Dfs dfs{obstacles, request, ws, {}, 0};
  const bool found = dfs.run();
  span.arg("visits", static_cast<std::int64_t>(dfs.visits));
  span.arg("found", found ? 1 : 0);
  if (!found) return result;
  result.success = true;
  result.path = std::move(dfs.path);
  result.length = pathLength(result.path);
  return result;
}

}  // namespace pacor::route
