#include "geom/tilted.hpp"

#include <algorithm>
#include <ostream>

namespace pacor::geom {

TiltedRect TiltedRect::intersectWith(const TiltedRect& o) const noexcept {
  return {{std::max(lo.x, o.lo.x), std::max(lo.y, o.lo.y)},
          {std::min(hi.x, o.hi.x), std::min(hi.y, o.hi.y)}};
}

std::int64_t chebyshevGap(const TiltedRect& a, const TiltedRect& b) noexcept {
  const auto axisGap = [](std::int32_t alo, std::int32_t ahi, std::int32_t blo,
                          std::int32_t bhi) -> std::int64_t {
    if (blo > ahi) return static_cast<std::int64_t>(blo) - ahi;
    if (alo > bhi) return static_cast<std::int64_t>(alo) - bhi;
    return 0;
  };
  return std::max(axisGap(a.lo.x, a.hi.x, b.lo.x, b.hi.x),
                  axisGap(a.lo.y, a.hi.y, b.lo.y, b.hi.y));
}

std::ostream& operator<<(std::ostream& os, const TiltedRect& r) {
  return os << "T[" << r.lo << ".." << r.hi << ']';
}

}  // namespace pacor::geom
