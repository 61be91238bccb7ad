#pragma once

#include <span>
#include <unordered_set>
#include <vector>

#include "grid/obstacle_map.hpp"
#include "route/path.hpp"

namespace pacor::route {

/// Multi-source / multi-target A* request on the routing grid. Covers the
/// paper's point-to-point, point-to-path, and path-to-path search variants
/// uniformly: pass a path's cells as the source and/or target set.
struct AStarRequest {
  std::vector<Point> sources;
  std::vector<Point> targets;
  /// Net being routed: its own occupied cells are passable (tree growth),
  /// everything owned by other nets or obstacles is blocked.
  grid::NetId net = grid::kFreeCell;
  /// Optional per-cell extra cost (negotiation history, Eq. 5); indexed by
  /// Grid::index. Null = plain shortest path.
  const std::vector<double>* historyCost = nullptr;
  /// Optional penalty per direction change. Fabricated PDMS channels
  /// prefer few corners (cleaner molds, lower hydraulic resistance); a
  /// small positive value (< 1) breaks ties among equal-length paths
  /// toward the straightest one, larger values trade length for bends.
  /// 0 keeps the fast direction-agnostic search.
  double bendPenalty = 0.0;
  /// Optional cells this search must not enter even when the map says they
  /// are free. Negotiation uses it to fence off terminals of OTHER edge
  /// groups: those cells are released in its working map so their own
  /// group can connect there, but no foreign path may pass through them.
  const std::unordered_set<Point>* forbidden = nullptr;
};

struct AStarResult {
  bool success = false;
  Path path;          ///< source cell ... target cell (inclusive)
  double cost = 0.0;  ///< accumulated cost (grid steps + history)
};

class RouterWorkspace;

/// Runs A* and returns the cheapest path between the source and target
/// sets. The heuristic is the Manhattan distance to the bounding box of
/// the target set (admissible and consistent; exact for a single target).
///
/// `workspace` is the scratch memory for the search (see workspace.hpp);
/// nullptr uses the calling thread's thread-local instance.
AStarResult aStarRoute(const grid::ObstacleMap& obstacles, const AStarRequest& request,
                       RouterWorkspace* workspace = nullptr);

/// Convenience wrapper for a single source/target pair.
AStarResult aStarPointToPoint(const grid::ObstacleMap& obstacles, Point source,
                              Point target, grid::NetId net = grid::kFreeCell,
                              const std::vector<double>* historyCost = nullptr);

}  // namespace pacor::route
