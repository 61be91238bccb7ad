#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <vector>

#include "geom/point.hpp"
#include "geom/rect.hpp"

namespace pacor::grid {

using geom::Point;

/// Uniform routing grid. The chip area is partitioned by the minimum
/// channel width + spacing design rule into W x H unit cells; one routed
/// channel occupies one cell, so design rules reduce to "one path per
/// cell" (paper Sec. 2). Grid cells are addressed by Point in
/// [0, W) x [0, H) or by flat index y * W + x.
class Grid {
 public:
  /// Largest representable cell count: flat indices are int32
  /// (y * W + x), so any W x H beyond this silently corrupts every
  /// index() result. Construction rejects such grids (checked, not
  /// asserted -- the dimensions come straight from chip files and
  /// generator parameters).
  static constexpr std::int64_t kMaxCells =
      std::numeric_limits<std::int32_t>::max();

  Grid() = default;
  Grid(std::int32_t width, std::int32_t height) : w_(width), h_(height) {
    assert(width > 0 && height > 0);
    if (static_cast<std::int64_t>(width) * height > kMaxCells)
      throw std::invalid_argument(
          "grid: width * height overflows the int32 cell-index range");
  }

  std::int32_t width() const noexcept { return w_; }
  std::int32_t height() const noexcept { return h_; }
  std::int64_t cellCount() const noexcept {
    return static_cast<std::int64_t>(w_) * h_;
  }
  geom::Rect bounds() const noexcept { return {{0, 0}, {w_ - 1, h_ - 1}}; }

  bool inBounds(Point p) const noexcept {
    return p.x >= 0 && p.x < w_ && p.y >= 0 && p.y < h_;
  }
  bool onBoundary(Point p) const noexcept {
    return inBounds(p) &&
           (p.x == 0 || p.y == 0 || p.x == w_ - 1 || p.y == h_ - 1);
  }

  [[nodiscard]] std::int32_t index(Point p) const noexcept {
    assert(inBounds(p));
    return p.y * w_ + p.x;
  }
  [[nodiscard]] Point point(std::int32_t idx) const noexcept {
    // One combined div/mod on the cached width: this is the innermost
    // operation of every search kernel.
    const auto dv = std::div(idx, w_);
    return {dv.rem, dv.quot};
  }

  /// 4-connected neighbor offsets in deterministic order (E, W, N, S).
  static constexpr std::array<Point, 4> kNeighborOffsets{
      Point{1, 0}, Point{-1, 0}, Point{0, 1}, Point{0, -1}};

  /// Calls fn(Point) for each in-bounds 4-neighbor; avoids allocation on
  /// hot paths (A*, flow-graph construction).
  template <typename Fn>
  void forNeighbors(Point p, Fn&& fn) const {
    for (const Point d : kNeighborOffsets) {
      const Point q = p + d;
      if (inBounds(q)) fn(q);
    }
  }

  /// All boundary cells in clockwise order starting at (0,0).
  std::vector<Point> boundaryCells() const;

 private:
  std::int32_t w_ = 0;
  std::int32_t h_ = 0;
};

}  // namespace pacor::grid
