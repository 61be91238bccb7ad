#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "geom/point.hpp"
#include "geom/rect.hpp"

namespace pacor::geom {

/// Tilted-space transform used by the DME engine.
///
/// Under u = x + y, v = y - x the Manhattan metric becomes the Chebyshev
/// metric, Manhattan balls become axis-aligned squares, and DME merging
/// segments (Manhattan arcs, slope +-1) become axis-aligned segments.
/// A lattice (x, y) maps to a tilted lattice point with u == v (mod 2);
/// the inverse transform is only integral for such points.
constexpr Point toTilted(Point p) noexcept { return {p.x + p.y, p.y - p.x}; }

/// Inverse of toTilted. Precondition: (t.x + t.y) is even, i.e. the tilted
/// point is the image of a lattice point.
constexpr Point fromTilted(Point t) noexcept {
  return {(t.x - t.y) / 2, (t.x + t.y) / 2};
}

/// True when a tilted point is the image of an integer (x, y) point.
constexpr bool tiltedOnLattice(Point t) noexcept {
  return ((t.x + t.y) % 2 + 2) % 2 == 0;
}

/// Closed axis-aligned rectangle in tilted space. Under Chebyshev metric
/// these are closed under Minkowski inflation and intersection, which is
/// exactly what bottom-up DME merging needs: the merging region of two
/// regions A, B with edge lengths ea, eb is inflate(A, ea) n inflate(B, eb).
struct TiltedRect {
  Point lo;  ///< (u_min, v_min)
  Point hi;  ///< (u_max, v_max)

  static constexpr TiltedRect fromXY(Point p) noexcept {
    const Point t = toTilted(p);
    return {t, t};
  }

  friend constexpr bool operator==(const TiltedRect&, const TiltedRect&) noexcept = default;

  constexpr bool empty() const noexcept { return lo.x > hi.x || lo.y > hi.y; }
  constexpr bool degenerate() const noexcept {
    return !empty() && (lo.x == hi.x || lo.y == hi.y);
  }
  constexpr bool isPoint() const noexcept { return lo == hi; }

  constexpr TiltedRect inflated(std::int64_t r) const noexcept {
    const auto ri = static_cast<std::int32_t>(r);
    return {{lo.x - ri, lo.y - ri}, {hi.x + ri, hi.y + ri}};
  }

  TiltedRect intersectWith(const TiltedRect& o) const noexcept;

  constexpr bool containsTilted(Point t) const noexcept {
    return t.x >= lo.x && t.x <= hi.x && t.y >= lo.y && t.y <= hi.y;
  }
  bool containsXY(Point p) const noexcept { return containsTilted(toTilted(p)); }

  /// Chebyshev distance from a tilted point to this rect (0 inside).
  std::int64_t chebyshevTo(Point t) const noexcept;

  /// Manhattan (original-space) distance from XY point p to the region.
  std::int64_t manhattanToXY(Point p) const noexcept { return chebyshevTo(toTilted(p)); }

  /// Closest tilted point of the rect to tilted point t.
  constexpr Point clampTilted(Point t) const noexcept {
    return {std::clamp(t.x, lo.x, hi.x), std::clamp(t.y, lo.y, hi.y)};
  }

  /// All lattice XY points covered by the region (u == v mod 2 filter),
  /// capped at `maxCount` points sampled with an even stride so the result
  /// spans the whole region. Used to enumerate candidate merging nodes.
  std::vector<Point> latticePointsXY(std::size_t maxCount) const;

  /// A lattice XY point of the region closest (Chebyshev in tilted space)
  /// to tilted point t; by convention returns the clamped point adjusted
  /// for parity. Precondition: region covers at least one lattice point or
  /// is non-empty (a parity-adjusted neighbour just outside may be returned
  /// for zero-thickness off-lattice arcs — callers absorb the 1-unit snap).
  Point snapLatticeXY(Point t) const;
};

/// Chebyshev gap between two tilted rects: the minimum merging cost
/// (Manhattan distance in original space) between the two regions.
std::int64_t chebyshevGap(const TiltedRect& a, const TiltedRect& b) noexcept;

std::ostream& operator<<(std::ostream& os, const TiltedRect& r);

}  // namespace pacor::geom
