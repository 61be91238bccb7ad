#include <gtest/gtest.h>

#include <vector>

#include "geom/point.hpp"
#include "geom/rect.hpp"
#include "geom/tilted.hpp"

namespace pacor::geom {
namespace {

TEST(Point, ArithmeticAndOrder) {
  const Point a{2, 3};
  const Point b{-1, 5};
  EXPECT_EQ((a + b), (Point{1, 8}));
  EXPECT_EQ((a - b), (Point{3, -2}));
  EXPECT_EQ((a * 3), (Point{6, 9}));
  EXPECT_LT(a, b);  // y-major ordering
  EXPECT_LT((Point{1, 3}), a);
}

TEST(Point, ManhattanAndChebyshev) {
  EXPECT_EQ(manhattan({0, 0}, {3, 4}), 7);
  EXPECT_EQ(manhattan({-2, -2}, {2, 2}), 8);
  EXPECT_EQ(chebyshev({0, 0}, {3, 4}), 4);
  EXPECT_EQ(chebyshev({5, 5}, {5, 5}), 0);
}

TEST(Point, ParityDefinition) {
  EXPECT_EQ(parity({0, 0}), 0);
  EXPECT_EQ(parity({1, 0}), 1);
  EXPECT_EQ(parity({-1, 0}), 1);
  EXPECT_EQ(parity({-3, -5}), 0);
}

TEST(Point, HashDistinguishesNeighbors) {
  const std::hash<Point> h;
  EXPECT_NE(h({0, 0}), h({0, 1}));
  EXPECT_NE(h({0, 0}), h({1, 0}));
  EXPECT_EQ(h({7, 9}), h({7, 9}));
}

TEST(Rect, BasicGeometry) {
  const Rect r = Rect::fromCorners({5, 1}, {2, 4});
  EXPECT_EQ(r.lo, (Point{2, 1}));
  EXPECT_EQ(r.hi, (Point{5, 4}));
  EXPECT_EQ(r.width(), 4);
  EXPECT_EQ(r.height(), 4);
  EXPECT_EQ(r.area(), 16);
  EXPECT_FALSE(r.empty());
  EXPECT_TRUE(r.contains({3, 2}));
  EXPECT_FALSE(r.contains({6, 2}));
}

TEST(Rect, EmptyAndDegenerate) {
  const Rect empty{{2, 2}, {1, 1}};
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.area(), 0);
  const Rect point = Rect::fromPoint({3, 3});
  EXPECT_EQ(point.area(), 1);
  EXPECT_TRUE(point.contains({3, 3}));
}

TEST(Rect, UnionAndIntersection) {
  const Rect a{{0, 0}, {4, 4}};
  const Rect b{{3, 3}, {6, 7}};
  const Rect u = a.unionWith(b);
  EXPECT_EQ(u, (Rect{{0, 0}, {6, 7}}));
  const Rect i = a.intersectWith(b);
  EXPECT_EQ(i, (Rect{{3, 3}, {4, 4}}));
  EXPECT_EQ(i.area(), 4);
  const Rect disjoint = a.intersectWith({{10, 10}, {11, 11}});
  EXPECT_TRUE(disjoint.empty());
}

TEST(Rect, UnionWithEmptyIsIdentity) {
  const Rect a{{1, 1}, {2, 2}};
  const Rect empty{{5, 5}, {4, 4}};
  EXPECT_EQ(a.unionWith(empty), a);
  EXPECT_EQ(empty.unionWith(a), a);
}

TEST(Rect, ClampAndDistance) {
  const Rect r{{2, 2}, {5, 5}};
  EXPECT_EQ(r.clamp({0, 3}), (Point{2, 3}));
  EXPECT_EQ(r.clamp({3, 3}), (Point{3, 3}));
  EXPECT_EQ(r.manhattanTo({0, 0}), 4);
  EXPECT_EQ(r.manhattanTo({3, 4}), 0);
  EXPECT_EQ(r.manhattanTo({7, 5}), 2);
}

TEST(Rect, Inflated) {
  const Rect r = Rect::fromPoint({3, 3}).inflated(2);
  EXPECT_EQ(r, (Rect{{1, 1}, {5, 5}}));
}

TEST(Tilted, RoundTrip) {
  for (std::int32_t x = -5; x <= 5; ++x)
    for (std::int32_t y = -5; y <= 5; ++y) {
      const Point t = toTilted({x, y});
      EXPECT_EQ((t.x + t.y) % 2, 0);
      EXPECT_EQ(fromTilted(t), (Point{x, y}));
    }
}

TEST(Tilted, ManhattanBecomesChebyshev) {
  const Point a{3, -2};
  const Point b{-1, 7};
  EXPECT_EQ(manhattan(a, b), chebyshev(toTilted(a), toTilted(b)));
}

TEST(Tilted, BallMapsToSquare) {
  // All points at Manhattan distance <= 2 from origin lie in the tilted
  // square of Chebyshev radius 2, and vice versa for lattice images.
  const TiltedRect square = TiltedRect::fromXY({0, 0}).inflated(2);
  for (std::int32_t x = -4; x <= 4; ++x)
    for (std::int32_t y = -4; y <= 4; ++y) {
      const bool inBall = manhattan({0, 0}, {x, y}) <= 2;
      EXPECT_EQ(square.containsTilted(toTilted({x, y})), inBall) << x << ',' << y;
    }
}

TEST(TiltedRect, GapMatchesPointDistances) {
  const TiltedRect a = TiltedRect::fromXY({0, 0});
  const TiltedRect b = TiltedRect::fromXY({5, 3});
  EXPECT_EQ(chebyshevGap(a, b), manhattan({0, 0}, {5, 3}));
  EXPECT_EQ(chebyshevGap(a, a), 0);
}

TEST(TiltedRect, InflateIntersectIsMergeRegion) {
  // Two points at Manhattan distance 6; inflating by 3+3 must meet in a
  // non-empty region whose every lattice point is equidistant-feasible.
  const TiltedRect a = TiltedRect::fromXY({0, 0});
  const TiltedRect b = TiltedRect::fromXY({6, 0});
  const TiltedRect m = a.inflated(3).intersectWith(b.inflated(3));
  ASSERT_FALSE(m.empty());
  std::vector<Point> lattice;  // tilted points with u == v (mod 2)
  for (std::int32_t u = m.lo.x; u <= m.hi.x; ++u)
    for (std::int32_t v = m.lo.y; v <= m.hi.y; ++v)
      if ((u + v) % 2 == 0) lattice.push_back(fromTilted({u, v}));
  for (const Point p : lattice) {
    EXPECT_LE(manhattan(p, {0, 0}), 3);
    EXPECT_LE(manhattan(p, {6, 0}), 3);
  }
  EXPECT_EQ(lattice, (std::vector<Point>{{3, 0}}));  // a collinear pair meets once
}

TEST(TiltedRect, Clamp) {
  const TiltedRect r{{0, 0}, {4, 2}};
  EXPECT_EQ(r.clampTilted({2, 1}), (Point{2, 1}));
  EXPECT_EQ(r.clampTilted({8, 1}), (Point{4, 1}));
}

TEST(TiltedRect, DegenerateDetection) {
  EXPECT_TRUE((TiltedRect{{1, 0}, {1, 5}}).degenerate());
  EXPECT_FALSE((TiltedRect{{0, 0}, {2, 2}}).degenerate());
  EXPECT_TRUE((TiltedRect{{3, 0}, {1, 5}}).empty());
}

}  // namespace
}  // namespace pacor::geom
