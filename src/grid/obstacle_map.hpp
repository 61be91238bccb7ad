#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "grid/grid.hpp"

namespace pacor::grid {

/// Net identifier for occupancy bookkeeping. kFreeCell marks an unoccupied
/// cell; static obstacles use kObstacle.
using NetId = std::int32_t;
inline constexpr NetId kFreeCell = -1;
inline constexpr NetId kObstacle = -2;

/// Obstacle + occupancy map over a routing grid (the paper's ObsMap,
/// Alg. 1 step 2, extended with per-net ownership so rip-up & reroute can
/// release exactly one net's cells).
///
/// Each cell stores the NetId that occupies it: kFreeCell, kObstacle
/// (immovable blockage from the chip netlist), or a routed net's id.
class ObstacleMap {
 public:
  ObstacleMap() = default;
  explicit ObstacleMap(const Grid& grid)
      : grid_(grid),
        owner_(static_cast<std::size_t>(grid.cellCount()), kFreeCell) {}

  const Grid& grid() const noexcept { return grid_; }

  NetId owner(Point p) const noexcept { return owner_[grid_.index(p)]; }
  bool isObstacle(Point p) const noexcept { return owner(p) == kObstacle; }
  bool isFree(Point p) const noexcept { return owner(p) == kFreeCell; }

  /// True when cell p can be used by net `net`: free, or already owned by
  /// the same net (paths of one net may touch, e.g. a Steiner tree).
  bool isFreeFor(Point p, NetId net) const noexcept {
    const NetId o = owner(p);
    return o == kFreeCell || o == net;
  }

  void addObstacle(Point p) { owner_[grid_.index(p)] = kObstacle; }
  void blockRect(const geom::Rect& r);

  /// Marks every cell of `path` as owned by `net`. Cells already owned by
  /// the same net stay owned (tree trunks are shared); claiming a cell
  /// owned by a different net or an obstacle is a programming error.
  void occupy(std::span<const Point> path, NetId net);

  /// Releases every cell currently owned by `net`.
  void release(NetId net);

  /// Releases exactly the cells of `path` owned by `net` (used when only
  /// one path of a multi-path net is ripped up).
  void releasePath(std::span<const Point> path, NetId net);

  std::int64_t countOwnedBy(NetId net) const noexcept;
  std::int64_t obstacleCount() const noexcept { return countOwnedBy(kObstacle); }

 private:
  friend class ObstacleMapTransaction;
  Grid grid_;
  std::vector<NetId> owner_;
};

/// Undo log over an ObstacleMap: every owner mutation applied through the
/// transaction is recorded so the map can be restored to its prior state
/// in O(#mutations) instead of keeping a full O(cells) copy around.
///
/// This is what makes negotiation rip-up cheap (route/negotiation.cpp):
/// each iteration routes all edges through a transaction and, when some
/// edge failed, rolls the occupancy back in time proportional to the
/// routed path lengths.
class ObstacleMapTransaction {
 public:
  explicit ObstacleMapTransaction(ObstacleMap& map) : map_(map) {}

  struct Entry {
    std::int32_t cell;
    NetId previousOwner;
  };

  /// Same contracts as the ObstacleMap methods of the same names.
  void occupy(std::span<const Point> path, NetId net);
  void releasePath(std::span<const Point> path, NetId net);

  /// Undoes every mutation since construction (or the last commit), most
  /// recent first, restoring the exact prior owner of each cell.
  void rollback();

  /// Keeps the mutations and forgets the log.
  void commit() { log_.clear(); }

  /// Mutations recorded so far, in application order. Entries are appended
  /// only for cells whose owner actually changed.
  std::span<const Entry> log() const noexcept { return log_; }

 private:
  ObstacleMap& map_;
  std::vector<Entry> log_;
};

}  // namespace pacor::grid
