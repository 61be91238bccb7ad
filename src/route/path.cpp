#include "route/path.hpp"

#include <unordered_set>

namespace pacor::route {

bool isConnected(std::span<const Point> path) {
  for (std::size_t i = 1; i < path.size(); ++i)
    if (geom::manhattan(path[i - 1], path[i]) != 1) return false;
  return true;
}

bool isSimple(std::span<const Point> path) {
  std::unordered_set<Point> seen;
  seen.reserve(path.size());
  for (const Point p : path)
    if (!seen.insert(p).second) return false;
  return true;
}

}  // namespace pacor::route
