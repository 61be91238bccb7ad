#pragma once

#include <algorithm>
#include <cstdint>
#include <iosfwd>

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

  constexpr TiltedRect inflated(std::int64_t r) const noexcept {
    const auto ri = static_cast<std::int32_t>(r);
    return {{lo.x - ri, lo.y - ri}, {hi.x + ri, hi.y + ri}};
  }

  TiltedRect intersectWith(const TiltedRect& o) const noexcept;

  constexpr bool containsTilted(Point t) const noexcept {
    return t.x >= lo.x && t.x <= hi.x && t.y >= lo.y && t.y <= hi.y;
  }

  /// Closest tilted point of the rect to tilted point t.
  constexpr Point clampTilted(Point t) const noexcept {
    return {std::clamp(t.x, lo.x, hi.x), std::clamp(t.y, lo.y, hi.y)};
  }
};

/// Chebyshev gap between two tilted rects: the minimum merging cost
/// (Manhattan distance in original space) between the two regions.
std::int64_t chebyshevGap(const TiltedRect& a, const TiltedRect& b) noexcept;

std::ostream& operator<<(std::ostream& os, const TiltedRect& r);

}  // namespace pacor::geom
