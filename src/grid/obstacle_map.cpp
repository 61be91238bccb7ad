#include "grid/obstacle_map.hpp"

#include <algorithm>
#include <cassert>

namespace pacor::grid {

void ObstacleMap::occupy(std::span<const Point> path, NetId net) {
  assert(net >= 0);
  for (const Point p : path) {
    NetId& o = owner_[grid_.index(p)];
    assert(o == kFreeCell || o == net);
    o = net;
  }
}

void ObstacleMap::release(NetId net) {
  assert(net >= 0);
  std::replace(owner_.begin(), owner_.end(), net, kFreeCell);
}

void ObstacleMap::releasePath(std::span<const Point> path, NetId net) {
  assert(net >= 0);
  for (const Point p : path) {
    NetId& o = owner_[grid_.index(p)];
    if (o == net) o = kFreeCell;
  }
}

std::int64_t ObstacleMap::countOwnedBy(NetId net) const noexcept {
  return std::count(owner_.begin(), owner_.end(), net);
}

void ObstacleMapTransaction::occupy(std::span<const Point> path, NetId net) {
  assert(net >= 0);
  for (const Point p : path) {
    const std::int32_t idx = map_.grid_.index(p);
    NetId& o = map_.owner_[static_cast<std::size_t>(idx)];
    assert(o == kFreeCell || o == net);
    if (o == net) continue;
    log_.push_back({idx, o});
    o = net;
  }
}

void ObstacleMapTransaction::releasePath(std::span<const Point> path, NetId net) {
  assert(net >= 0);
  for (const Point p : path) {
    const std::int32_t idx = map_.grid_.index(p);
    NetId& o = map_.owner_[static_cast<std::size_t>(idx)];
    if (o != net) continue;
    log_.push_back({idx, o});
    o = kFreeCell;
  }
}

void ObstacleMapTransaction::rollback() {
  for (auto it = log_.rbegin(); it != log_.rend(); ++it)
    map_.owner_[static_cast<std::size_t>(it->cell)] = it->previousOwner;
  log_.clear();
}

}  // namespace pacor::grid
