#include "grid/grid.hpp"

namespace pacor::grid {

std::vector<Point> Grid::boundaryCells() const {
  std::vector<Point> out;
  if (w_ <= 0 || h_ <= 0) return out;
  if (w_ == 1 && h_ == 1) return {{0, 0}};
  out.reserve(2 * (w_ + h_) - 4);
  for (std::int32_t x = 0; x < w_; ++x) out.push_back({x, 0});
  for (std::int32_t y = 1; y < h_; ++y) out.push_back({w_ - 1, y});
  if (h_ > 1)
    for (std::int32_t x = w_ - 2; x >= 0; --x) out.push_back({x, h_ - 1});
  if (w_ > 1)
    for (std::int32_t y = h_ - 2; y >= 1; --y) out.push_back({0, y});
  return out;
}

}  // namespace pacor::grid
