#include "pacor/mst_routing.hpp"

#include <algorithm>
#include <cstdint>
#include <unordered_set>

#include "route/astar.hpp"
#include "trace/trace.hpp"

namespace pacor::core {
namespace {

/// Result of one spanning-tree growth over a cluster's valve cells.
struct TreeGrowth {
  bool success = false;
  std::vector<route::Path> paths;
  std::unordered_set<Point> treeCells;
};

/// Grows the routed component valve by valve: repeatedly connects the
/// nearest unconnected valve to the current tree (point-to-path A*; the
/// multi-target search picks the cheapest valve, which is exactly Prim's
/// selection rule on routed distances). Every path is occupied as it is
/// found.
TreeGrowth growSpanningTree(grid::ObstacleMap& obstacles,
                            const std::vector<Point>& valveCells, grid::NetId net) {
  TreeGrowth out;
  out.treeCells.insert(valveCells[0]);
  std::vector<Point> pending(valveCells.begin() + 1, valveCells.end());

  while (!pending.empty()) {
    route::AStarRequest req;
    req.sources.assign(out.treeCells.begin(), out.treeCells.end());
    req.targets = pending;
    req.net = net;
    const auto found = route::aStarRoute(obstacles, req);
    if (!found.success) return out;
    const Point reached = found.path.back();
    pending.erase(std::find(pending.begin(), pending.end(), reached));
    obstacles.occupy(found.path, net);
    out.treeCells.insert(found.path.begin(), found.path.end());
    out.paths.push_back(found.path);
  }
  out.success = true;
  return out;
}

}  // namespace

bool routePlainCluster(const chip::Chip& chip, grid::ObstacleMap& obstacles,
                       WorkCluster& wc) {
  trace::Span span("mst.cluster", "mst_routing", trace::Level::kCluster);
  span.arg("valves", static_cast<std::int64_t>(wc.spec.valves.size()));
  wc.treePaths.clear();
  wc.tapCells.clear();

  std::vector<Point> valveCells;
  valveCells.reserve(wc.spec.valves.size());
  for (const chip::ValveId v : wc.spec.valves) valveCells.push_back(chip.valve(v).pos);

  if (valveCells.size() == 1) {
    wc.tap = valveCells[0];
    wc.tapCells = valveCells;
    wc.internallyRouted = true;
    return true;
  }

  TreeGrowth grown = growSpanningTree(obstacles, valveCells, wc.net);
  if (!grown.success) {
    // Roll back: release everything this cluster routed so far (valve
    // cells stay owned -- they were occupied before routing began).
    for (const route::Path& p : grown.paths) obstacles.releasePath(p, wc.net);
    for (const Point v : valveCells)
      obstacles.occupy(std::span<const Point>(&v, 1), wc.net);
    return false;
  }
  wc.treePaths = std::move(grown.paths);
  wc.tapCells.assign(grown.treeCells.begin(), grown.treeCells.end());
  std::sort(wc.tapCells.begin(), wc.tapCells.end());
  wc.tap = valveCells[0];
  wc.internallyRouted = true;
  return true;
}

std::vector<WorkCluster> routeWithDeclustering(const chip::Chip& chip,
                                               grid::ObstacleMap& obstacles,
                                               WorkCluster wc,
                                               const std::function<grid::NetId()>& allocateNet,
                                               int* declusterCount) {
  if (routePlainCluster(chip, obstacles, wc)) return {std::move(wc)};
  if (wc.spec.valves.size() == 1) {
    // A singleton cannot fail internal routing (no edges); defensive.
    wc.internallyRouted = true;
    return {std::move(wc)};
  }
  if (declusterCount != nullptr) ++declusterCount[0];

  // Median split along the axis with the larger spread keeps the halves
  // geometrically coherent (smaller trees route more easily).
  std::vector<chip::ValveId> sorted = wc.spec.valves;
  geom::Rect box = geom::Rect::fromPoint(chip.valve(sorted[0]).pos);
  for (const chip::ValveId v : sorted)
    box = box.unionWith(geom::Rect::fromPoint(chip.valve(v).pos));
  const bool byX = box.width() >= box.height();
  std::stable_sort(sorted.begin(), sorted.end(), [&](chip::ValveId a, chip::ValveId b) {
    const Point pa = chip.valve(a).pos;
    const Point pb = chip.valve(b).pos;
    return byX ? pa.x < pb.x : pa.y < pb.y;
  });
  const std::size_t half = sorted.size() / 2;

  // Release the old net entirely; the halves re-own their valve cells.
  obstacles.release(wc.net);

  std::vector<WorkCluster> out;
  for (int part = 0; part < 2; ++part) {
    WorkCluster sub;
    sub.spec.lengthMatched = false;
    sub.spec.valves.assign(sorted.begin() + (part == 0 ? 0 : static_cast<std::ptrdiff_t>(half)),
                           part == 0 ? sorted.begin() + static_cast<std::ptrdiff_t>(half)
                                     : sorted.end());
    sub.net = allocateNet();
    sub.wasDemoted = wc.wasDemoted;
    for (const chip::ValveId v : sub.spec.valves) {
      const Point cell = chip.valve(v).pos;
      obstacles.occupy(std::span<const Point>(&cell, 1), sub.net);
    }
    auto routedParts = routeWithDeclustering(chip, obstacles, std::move(sub), allocateNet,
                                             declusterCount);
    for (auto& p : routedParts) out.push_back(std::move(p));
  }
  return out;
}

std::vector<WorkCluster> routeClustersStage(const chip::Chip& chip,
                                            grid::ObstacleMap& obstacles,
                                            std::vector<WorkCluster> clusters,
                                            const std::function<grid::NetId()>& allocateNet,
                                            int* declusterCount) {
  std::vector<WorkCluster> next;
  next.reserve(clusters.size());
  for (WorkCluster& wc : clusters) {
    if (wc.internallyRouted) {
      next.push_back(std::move(wc));
      continue;
    }
    auto parts = routeWithDeclustering(chip, obstacles, std::move(wc), allocateNet,
                                       declusterCount);
    for (auto& p : parts) next.push_back(std::move(p));
  }
  return next;
}

}  // namespace pacor::core
