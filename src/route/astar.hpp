#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "grid/obstacle_map.hpp"
#include "route/path.hpp"

namespace pacor::route {

/// Terminal owners of a negotiation (Alg. 1), one entry per grid cell like
/// its history costs. Negotiation releases every terminal cell in its
/// working map so that the terminal's own group can connect there; the
/// fence keeps every other group out. A cell is blocked for group G
/// exactly when it is a terminal of some group and not of G.
class TerminalFence {
 public:
  explicit TerminalFence(const grid::Grid& grid)
      : grid_(grid), owner_(static_cast<std::size_t>(grid.cellCount()), kNone) {}

  /// Records cell p as a terminal of `group` (a dense id >= 0).
  void add(Point p, std::int32_t group);

  /// True when p is a terminal of some group but not of `group`.
  bool blocks(Point p, std::int32_t group) const noexcept {
    const std::int32_t cell = grid_.index(p);
    const std::int32_t o = owner_[static_cast<std::size_t>(cell)];
    if (o == kNone || o == group) return false;
    return o != kShared ||
           !std::binary_search(shared_.begin(), shared_.end(), std::pair{cell, group});
  }

 private:
  static constexpr std::int32_t kNone = -1;
  static constexpr std::int32_t kShared = -2;  ///< terminal of 2+ groups

  grid::Grid grid_;
  std::vector<std::int32_t> owner_;  ///< group id, kNone or kShared per cell
  /// Sorted (cell, group) pairs: every owner of every kShared cell.
  std::vector<std::pair<std::int32_t, std::int32_t>> shared_;
};

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
  /// Optional terminal fence: cells it blocks for `fenceGroup` are not
  /// entered even when the map says they are free. Negotiation is its only
  /// user. Null = no fence.
  const TerminalFence* fence = nullptr;
  std::int32_t fenceGroup = 0;
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
