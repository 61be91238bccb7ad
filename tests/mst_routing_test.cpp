#include <gtest/gtest.h>

#include <unordered_set>

#include "pacor/mst_routing.hpp"

namespace pacor::core {
namespace {

using geom::Point;

struct PlainFixture {
  chip::Chip chip;
  grid::ObstacleMap obs{grid::Grid(1, 1)};
  WorkCluster wc;

  PlainFixture(std::int32_t size, const std::vector<Point>& valves)
      : PlainFixture(size, size, valves) {}

  PlainFixture(std::int32_t width, std::int32_t height, const std::vector<Point>& valves) {
    chip.name = "plain";
    chip.routingGrid = grid::Grid(width, height);
    for (const Point p : valves) {
      const auto id = static_cast<chip::ValveId>(chip.valves.size());
      chip.valves.push_back({id, p, chip::ActivationSequence("0")});
      wc.spec.valves.push_back(id);
    }
    chip.pins = {{0, {0, 0}}};
    obs = chip.makeObstacleMap();
    wc.net = 0;
    for (const Point p : valves) obs.occupy(std::span<const Point>(&p, 1), wc.net);
  }
};

TEST(MstRouting, SingletonNeedsNoChannels) {
  PlainFixture fx(12, {{5, 5}});
  EXPECT_TRUE(routePlainCluster(fx.chip, fx.obs, fx.wc));
  EXPECT_TRUE(fx.wc.internallyRouted);
  EXPECT_TRUE(fx.wc.treePaths.empty());
  EXPECT_EQ(fx.wc.tapCells, (std::vector<Point>{Point{5, 5}}));
}

TEST(MstRouting, ConnectsThreeValvesIntoOneTree) {
  PlainFixture fx(20, {{3, 3}, {15, 4}, {8, 16}});
  ASSERT_TRUE(routePlainCluster(fx.chip, fx.obs, fx.wc));
  EXPECT_EQ(fx.wc.treePaths.size(), 2u);  // n-1 connections
  // All valves lie in one connected component of the committed cells.
  std::unordered_set<Point> cells(fx.wc.tapCells.begin(), fx.wc.tapCells.end());
  for (const auto v : fx.wc.spec.valves)
    EXPECT_TRUE(cells.contains(fx.chip.valve(v).pos));
  // Every committed cell belongs to the net.
  for (const Point c : fx.wc.tapCells) EXPECT_EQ(fx.obs.owner(c), fx.wc.net);
}

TEST(MstRouting, TreeLengthIsReasonable) {
  PlainFixture fx(24, {{2, 2}, {12, 2}, {2, 12}});
  ASSERT_TRUE(routePlainCluster(fx.chip, fx.obs, fx.wc));
  std::int64_t total = 0;
  for (const auto& p : fx.wc.treePaths) total += route::pathLength(p);
  // Lower bound: MST over Manhattan distances / upper: generous slack.
  EXPECT_GE(total, 20);
  EXPECT_LE(total, 30);
}

TEST(MstRouting, FailureRollsBackCleanly) {
  PlainFixture fx(16, {{3, 8}, {12, 8}});
  for (std::int32_t y = 0; y < 16; ++y) fx.obs.addObstacle({7, y});
  EXPECT_FALSE(routePlainCluster(fx.chip, fx.obs, fx.wc));
  EXPECT_FALSE(fx.wc.internallyRouted);
  // Only the valve cells remain owned.
  EXPECT_EQ(fx.obs.countOwnedBy(fx.wc.net), 2);
}

TEST(MstRouting, DeclusteringSplitsAcrossWall) {
  PlainFixture fx(16, {{3, 8}, {4, 10}, {12, 8}, {13, 10}});
  for (std::int32_t y = 0; y < 16; ++y) fx.obs.addObstacle({7, y});
  grid::NetId next = 10;
  const auto allocate = [&next] { return next++; };
  int splits = 0;
  auto parts = routeWithDeclustering(fx.chip, fx.obs, std::move(fx.wc), allocate, &splits);
  EXPECT_GE(splits, 1);
  ASSERT_EQ(parts.size(), 2u);  // the two sides of the wall
  for (const auto& part : parts) {
    EXPECT_TRUE(part.internallyRouted);
    EXPECT_EQ(part.spec.valves.size(), 2u);
    EXPECT_FALSE(part.spec.lengthMatched);
  }
}

TEST(MstRouting, DeclusteringBottomsOutAtSingletons) {
  // Four valves in four sealed quadrants: every split ends as singletons.
  PlainFixture fx(17, {{3, 3}, {13, 3}, {3, 13}, {13, 13}});
  for (std::int32_t i = 0; i < 17; ++i) {
    fx.obs.addObstacle({8, i});
    if (i != 8) fx.obs.addObstacle({i, 8});
  }
  grid::NetId next = 10;
  const auto allocate = [&next] { return next++; };
  auto parts = routeWithDeclustering(fx.chip, fx.obs, std::move(fx.wc), allocate);
  EXPECT_EQ(parts.size(), 4u);
  for (const auto& part : parts) {
    EXPECT_EQ(part.spec.valves.size(), 1u);
    EXPECT_TRUE(part.internallyRouted);
  }
}

TEST(MstRouting, SplitHalvesStayOffEachOthersValves) {
  // A wall on row 4 whose only gaps are the valve cells of C and D: the
  // median split puts {A, B} on one side of it and {C, D} on the other.
  // {A, B} cannot join without running over C, so it must split again
  // instead of routing through a valve that {C, D} owns.
  const Point a{1, 1}, b{2, 7}, c{5, 4}, d{9, 4};
  PlainFixture fx(11, 9, {a, b, c, d});
  for (std::int32_t x = 0; x < 11; ++x)
    if (x != c.x && x != d.x) fx.obs.addObstacle({x, 4});
  grid::NetId next = 10;
  const auto allocate = [&next] { return next++; };
  int splits = 0;
  const auto parts = splitCluster(fx.chip, fx.obs, std::move(fx.wc), allocate, &splits);

  std::vector<std::vector<chip::ValveId>> valveSets;
  for (const WorkCluster& part : parts) valveSets.push_back(part.spec.valves);
  EXPECT_EQ(valveSets, (std::vector<std::vector<chip::ValveId>>{{0}, {1}, {2, 3}}));
  EXPECT_EQ(splits, 2);
  for (const WorkCluster& part : parts) {
    EXPECT_TRUE(part.internallyRouted);
    const std::unordered_set<chip::ValveId> own(part.spec.valves.begin(),
                                                part.spec.valves.end());
    for (const route::Path& path : part.treePaths)
      for (const Point cell : path)
        for (const chip::Valve& v : fx.chip.valves)
          EXPECT_FALSE(v.pos == cell && !own.contains(v.id))
              << "a tree of part " << part.net << " crosses valve " << v.id;
  }
}

TEST(MstRouting, NoSplitWhenRoutable) {
  PlainFixture fx(20, {{3, 3}, {15, 4}, {8, 16}});
  grid::NetId next = 10;
  const auto allocate = [&next] { return next++; };
  int splits = 0;
  auto parts = routeWithDeclustering(fx.chip, fx.obs, std::move(fx.wc), allocate, &splits);
  EXPECT_EQ(parts.size(), 1u);
  EXPECT_EQ(splits, 0);
}

}  // namespace
}  // namespace pacor::core
