#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "geom/point.hpp"

namespace pacor::route {

using geom::Point;

/// A routed control channel segment: a sequence of 4-adjacent grid cells.
/// Channel *length* is the edge count (grid units), matching the paper's
/// l(p) used in the length-matching constraint.
using Path = std::vector<Point>;

/// Edge count of the path (0 for empty or single-cell paths).
inline std::int64_t pathLength(std::span<const Point> path) {
  return path.empty() ? 0 : static_cast<std::int64_t>(path.size()) - 1;
}

/// True when consecutive cells are 4-adjacent.
bool isConnected(std::span<const Point> path);

/// True when no cell repeats (a physical channel cannot self-intersect).
bool isSimple(std::span<const Point> path);

/// True when connected and simple.
inline bool isValidChannel(std::span<const Point> path) {
  return isConnected(path) && isSimple(path);
}

}  // namespace pacor::route
