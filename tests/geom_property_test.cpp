#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "geom/point.hpp"
#include "geom/rect.hpp"
#include "geom/tilted.hpp"

namespace pacor::geom {
namespace {

Point randomPoint(std::mt19937& rng, std::int32_t span = 100) {
  return {static_cast<std::int32_t>(rng() % static_cast<unsigned>(2 * span)) - span,
          static_cast<std::int32_t>(rng() % static_cast<unsigned>(2 * span)) - span};
}

/// Every XY lattice point a tilted region covers: its tilted points with
/// u == v (mod 2), mapped back.
std::vector<Point> latticePoints(const TiltedRect& r) {
  std::vector<Point> out;
  for (std::int32_t u = r.lo.x; u <= r.hi.x; ++u)
    for (std::int32_t v = r.lo.y; v <= r.hi.y; ++v)
      if ((u + v) % 2 == 0) out.push_back(fromTilted({u, v}));
  return out;
}

class MetricProperty : public ::testing::TestWithParam<int> {};

TEST_P(MetricProperty, ManhattanIsAMetric) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()));
  for (int trial = 0; trial < 50; ++trial) {
    const Point a = randomPoint(rng);
    const Point b = randomPoint(rng);
    const Point c = randomPoint(rng);
    EXPECT_EQ(manhattan(a, a), 0);
    EXPECT_EQ(manhattan(a, b), manhattan(b, a));
    EXPECT_LE(manhattan(a, c), manhattan(a, b) + manhattan(b, c));
    EXPECT_GE(manhattan(a, b), chebyshev(a, b));
    EXPECT_LE(manhattan(a, b), 2 * chebyshev(a, b));
  }
}

TEST_P(MetricProperty, TiltedTransformIsIsometric) {
  std::mt19937 rng(static_cast<unsigned>(10 + GetParam()));
  for (int trial = 0; trial < 50; ++trial) {
    const Point a = randomPoint(rng);
    const Point b = randomPoint(rng);
    EXPECT_EQ(manhattan(a, b), chebyshev(toTilted(a), toTilted(b)));
    EXPECT_EQ(fromTilted(toTilted(a)), a);
  }
}

TEST_P(MetricProperty, ParityMatchesManhattanMod2) {
  std::mt19937 rng(static_cast<unsigned>(20 + GetParam()));
  for (int trial = 0; trial < 50; ++trial) {
    const Point a = randomPoint(rng);
    const Point b = randomPoint(rng);
    EXPECT_EQ((parity(a) + parity(b)) % 2, static_cast<int>(manhattan(a, b) % 2));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MetricProperty, ::testing::Range(1, 5));

class RectProperty : public ::testing::TestWithParam<int> {};

TEST_P(RectProperty, IntersectionIsCommutativeAndContained) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()));
  for (int trial = 0; trial < 40; ++trial) {
    const Rect a = Rect::fromCorners(randomPoint(rng, 40), randomPoint(rng, 40));
    const Rect b = Rect::fromCorners(randomPoint(rng, 40), randomPoint(rng, 40));
    const Rect i1 = a.intersectWith(b);
    const Rect i2 = b.intersectWith(a);
    EXPECT_EQ(i1, i2);
    if (!i1.empty()) {
      EXPECT_TRUE(a.containsRect(i1));
      EXPECT_TRUE(b.containsRect(i1));
    }
    const Rect u = a.unionWith(b);
    EXPECT_TRUE(u.containsRect(a));
    EXPECT_TRUE(u.containsRect(b));
    EXPECT_GE(u.area(), std::max(a.area(), b.area()));
  }
}

TEST_P(RectProperty, InflationMonotoneAndExact) {
  std::mt19937 rng(static_cast<unsigned>(30 + GetParam()));
  for (int trial = 0; trial < 40; ++trial) {
    const Rect r = Rect::fromCorners(randomPoint(rng, 30), randomPoint(rng, 30));
    const auto k = static_cast<std::int32_t>(rng() % 5);
    const Rect big = r.inflated(k);
    EXPECT_TRUE(big.containsRect(r));
    EXPECT_EQ(big.width(), r.width() + 2 * k);
    EXPECT_EQ(big.height(), r.height() + 2 * k);
    // Manhattan distance to the inflated rect shrinks by at most k per
    // axis (2k total) and never grows.
    const Point p = randomPoint(rng, 60);
    const auto before = r.manhattanTo(p);
    const auto after = big.manhattanTo(p);
    EXPECT_LE(after, before);
    EXPECT_GE(after, std::max<std::int64_t>(0, before - 2 * k));
  }
}

TEST_P(RectProperty, ClampIsNearestPoint) {
  std::mt19937 rng(static_cast<unsigned>(40 + GetParam()));
  for (int trial = 0; trial < 25; ++trial) {
    const Rect r = Rect::fromCorners(randomPoint(rng, 15), randomPoint(rng, 15));
    const Point p = randomPoint(rng, 30);
    const Point c = r.clamp(p);
    EXPECT_TRUE(r.contains(c));
    // No rect point is closer than the clamp (check a sample).
    for (int k = 0; k < 10; ++k) {
      const Point q = r.clamp(randomPoint(rng, 30));
      EXPECT_LE(manhattan(p, c), manhattan(p, q));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RectProperty, ::testing::Range(1, 5));

class TiltedRectProperty : public ::testing::TestWithParam<int> {};

TEST_P(TiltedRectProperty, MergeRegionPointsAreFeasibleMeetingPoints) {
  // For random point pairs and any split ea + eb >= distance, every
  // lattice point of inflate(A, ea) n inflate(B, eb) is within ea of A
  // and eb of B -- the exact property DME merging relies on.
  std::mt19937 rng(static_cast<unsigned>(GetParam()));
  for (int trial = 0; trial < 30; ++trial) {
    const Point a = randomPoint(rng, 25);
    const Point b = randomPoint(rng, 25);
    const std::int64_t d = manhattan(a, b);
    const std::int64_t ea = static_cast<std::int64_t>(rng() % (d + 3));
    const std::int64_t eb = d - ea + static_cast<std::int64_t>(rng() % 3);
    if (eb < 0) continue;
    const TiltedRect ta = TiltedRect::fromXY(a);
    const TiltedRect tb = TiltedRect::fromXY(b);
    const TiltedRect merge = ta.inflated(ea).intersectWith(tb.inflated(eb));
    if (ea + eb < d) {
      EXPECT_TRUE(merge.empty());
      continue;
    }
    ASSERT_FALSE(merge.empty());
    for (const Point p : latticePoints(merge)) {
      EXPECT_LE(manhattan(p, a), ea) << p.str();
      EXPECT_LE(manhattan(p, b), eb) << p.str();
    }
  }
}

TEST_P(TiltedRectProperty, GapIsTheMinimumPairwiseDistance) {
  std::mt19937 rng(static_cast<unsigned>(50 + GetParam()));
  for (int trial = 0; trial < 20; ++trial) {
    const Point a = randomPoint(rng, 12);
    const Point b = randomPoint(rng, 12);
    const auto ra = static_cast<std::int64_t>(rng() % 4);
    const auto rb = static_cast<std::int64_t>(rng() % 4);
    const TiltedRect ta = TiltedRect::fromXY(a).inflated(ra);
    const TiltedRect tb = TiltedRect::fromXY(b).inflated(rb);
    const std::int64_t gap = chebyshevGap(ta, tb);
    // Brute force: min over lattice points of both regions.
    std::int64_t brute = std::numeric_limits<std::int64_t>::max();
    for (const Point p : latticePoints(ta))
      for (const Point q : latticePoints(tb))
        brute = std::min(brute, manhattan(p, q));
    if (brute != std::numeric_limits<std::int64_t>::max()) {
      EXPECT_LE(gap, brute);
      // The gap is attained by SOME pair of region points (maybe off the
      // lattice when regions have off-lattice corners).
      EXPECT_GE(brute, gap);
      EXPECT_LE(brute - gap, 2);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TiltedRectProperty, ::testing::Range(1, 5));

}  // namespace
}  // namespace pacor::geom
