#include <gtest/gtest.h>

#include <unordered_set>

#include "grid/obstacle_map.hpp"
#include "route/astar.hpp"
#include "route/bounded_astar.hpp"
#include "route/bump_detour.hpp"
#include "route/negotiation.hpp"
#include "route/path.hpp"
#include "route/workspace.hpp"

namespace pacor::route {
namespace {

using geom::Point;
using grid::Grid;
using grid::ObstacleMap;

TEST(Path, LengthAndValidity) {
  const Path p{{0, 0}, {1, 0}, {1, 1}};
  EXPECT_EQ(pathLength(p), 2);
  EXPECT_TRUE(isConnected(p));
  EXPECT_TRUE(isSimple(p));
  EXPECT_TRUE(isValidChannel(p));
  EXPECT_EQ(pathLength(Path{}), 0);
  EXPECT_EQ(pathLength(Path{{3, 3}}), 0);
}

TEST(Path, DetectsDisconnection) {
  const Path p{{0, 0}, {2, 0}};
  EXPECT_FALSE(isConnected(p));
  EXPECT_FALSE(isValidChannel(p));
}

TEST(Path, DetectsSelfIntersection) {
  const Path p{{0, 0}, {1, 0}, {1, 1}, {0, 1}, {0, 0}};
  EXPECT_TRUE(isConnected(p));
  EXPECT_FALSE(isSimple(p));
}

TEST(AStar, StraightLine) {
  ObstacleMap obs((Grid(10, 10)));
  const auto r = aStarPointToPoint(obs, {1, 1}, {6, 1});
  ASSERT_TRUE(r.success);
  EXPECT_EQ(pathLength(r.path), 5);
  EXPECT_EQ(r.path.front(), (Point{1, 1}));
  EXPECT_EQ(r.path.back(), (Point{6, 1}));
  EXPECT_TRUE(isValidChannel(r.path));
}

TEST(AStar, RoutesAroundObstacleWall) {
  ObstacleMap obs((Grid(10, 10)));
  for (std::int32_t y = 0; y < 9; ++y) obs.addObstacle({5, y});  // wall with gap at top
  const auto r = aStarPointToPoint(obs, {1, 1}, {8, 1});
  ASSERT_TRUE(r.success);
  EXPECT_GT(pathLength(r.path), 7);  // must detour over the wall
  EXPECT_TRUE(isValidChannel(r.path));
  for (const Point p : r.path) EXPECT_FALSE(obs.isObstacle(p));
}

TEST(AStar, FailsWhenSealed) {
  ObstacleMap obs((Grid(10, 10)));
  for (std::int32_t y = 0; y < 10; ++y) obs.addObstacle({5, y});
  const auto r = aStarPointToPoint(obs, {1, 1}, {8, 1});
  EXPECT_FALSE(r.success);
}

TEST(AStar, OwnNetCellsArePassable) {
  ObstacleMap obs((Grid(10, 10)));
  const Path owned{{5, 0}, {5, 1}, {5, 2}, {5, 3}, {5, 4}, {5, 5},
                   {5, 6}, {5, 7}, {5, 8}, {5, 9}};
  obs.occupy(owned, 3);
  EXPECT_FALSE(aStarPointToPoint(obs, {1, 1}, {8, 1}, 7).success);
  EXPECT_TRUE(aStarPointToPoint(obs, {1, 1}, {8, 1}, 3).success);
}

TEST(AStar, MultiSourceMultiTargetPicksNearestPair) {
  ObstacleMap obs((Grid(20, 20)));
  AStarRequest req;
  req.sources = {{0, 0}, {10, 10}};
  req.targets = {{12, 10}, {19, 19}};
  const auto r = aStarRoute(obs, req);
  ASSERT_TRUE(r.success);
  EXPECT_EQ(pathLength(r.path), 2);  // (10,10) -> (12,10)
}

TEST(AStar, HistoryCostSteersAway) {
  ObstacleMap obs((Grid(9, 9)));
  std::vector<double> history(81, 0.0);
  // Poison the straight corridor y=4 so the router prefers a detour row.
  const Grid& g = obs.grid();
  for (std::int32_t x = 0; x < 9; ++x) history[static_cast<std::size_t>(g.index({x, 4}))] = 10.0;
  AStarRequest req;
  req.sources = {{0, 4}};
  req.targets = {{8, 4}};
  req.historyCost = &history;
  const auto r = aStarRoute(obs, req);
  ASSERT_TRUE(r.success);
  // Endpoints are on the poisoned row but the middle must leave it.
  int onRow = 0;
  for (const Point p : r.path) onRow += (p.y == 4);
  EXPECT_LE(onRow, 4);
}

TEST(AStar, EmptyRequestsFail) {
  ObstacleMap obs((Grid(4, 4)));
  AStarRequest req;
  EXPECT_FALSE(aStarRoute(obs, req).success);
  req.sources = {{0, 0}};
  EXPECT_FALSE(aStarRoute(obs, req).success);
}

TEST(AStar, SourceEqualsTarget) {
  ObstacleMap obs((Grid(4, 4)));
  const auto r = aStarPointToPoint(obs, {2, 2}, {2, 2});
  ASSERT_TRUE(r.success);
  EXPECT_EQ(pathLength(r.path), 0);
}

TEST(Negotiation, RoutesConflictFreeEdges) {
  ObstacleMap obs((Grid(12, 12)));
  std::vector<NegotiationEdge> edges(2);
  edges[0].a = {{1, 1}};
  edges[0].b = {{10, 1}};
  edges[0].group = 0;
  edges[1].a = {{1, 5}};
  edges[1].b = {{10, 5}};
  edges[1].group = 1;
  const auto r = negotiatedRoute(obs, edges);
  EXPECT_TRUE(r.success);
  EXPECT_EQ(r.iterations, 1);
  ASSERT_EQ(r.paths.size(), 2u);
  EXPECT_TRUE(isValidChannel(r.paths[0]));
  EXPECT_TRUE(isValidChannel(r.paths[1]));
}

TEST(Negotiation, ResolvesCrossingDemands) {
  // Two edges whose straight routes cross; negotiation must find the
  // planar pair (possible on a grid by routing around).
  ObstacleMap obs((Grid(9, 9)));
  std::vector<NegotiationEdge> edges(2);
  edges[0].a = {{1, 4}};
  edges[0].b = {{7, 4}};
  edges[0].group = 0;
  edges[1].a = {{4, 1}};
  edges[1].b = {{4, 7}};
  edges[1].group = 1;
  const auto r = negotiatedRoute(obs, edges);
  EXPECT_TRUE(r.success);
  // Cell-disjointness between the two paths.
  std::unordered_set<Point> cells(r.paths[0].begin(), r.paths[0].end());
  for (const Point p : r.paths[1]) EXPECT_FALSE(cells.contains(p));
}

TEST(Negotiation, SameGroupSharesTerminalCell) {
  // Two edges of one tree meet at the merge node (4,4).
  ObstacleMap obs((Grid(9, 9)));
  std::vector<NegotiationEdge> edges(2);
  edges[0].a = {{0, 4}};
  edges[0].b = {{4, 4}};
  edges[0].group = 0;
  edges[1].a = {{8, 4}};
  edges[1].b = {{4, 4}};
  edges[1].group = 0;
  const auto r = negotiatedRoute(obs, edges);
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.paths[0].back(), (Point{4, 4}));
  EXPECT_EQ(r.paths[1].back(), (Point{4, 4}));
}

TEST(Negotiation, ForeignGroupTerminalsAreFenced) {
  // Edge 1's terminals arrive pre-owned by their cluster's net (as valve
  // cells do in the pipeline). Negotiation opens them up for edge 1, but
  // edge 0 — whose cheapest route runs straight through (4,4) — must not
  // use another group's terminals as a shortcut: committing such a path
  // would claim a cell the caller's map still assigns to the other net.
  ObstacleMap obs((Grid(9, 9)));
  const std::vector<Point> claimed = {{4, 4}, {4, 6}};
  obs.occupy(claimed, 7);
  std::vector<NegotiationEdge> edges(2);
  edges[0].a = {{0, 4}};
  edges[0].b = {{8, 4}};
  edges[0].group = 0;
  edges[1].a = {{4, 4}};
  edges[1].b = {{4, 6}};
  edges[1].group = 1;
  const auto r = negotiatedRoute(obs, edges);
  ASSERT_TRUE(r.success);
  for (const Point p : r.paths[0]) {
    EXPECT_NE(p, (Point{4, 4}));
    EXPECT_NE(p, (Point{4, 6}));
  }
  EXPECT_EQ(r.paths[1].front(), (Point{4, 4}));
  EXPECT_EQ(r.paths[1].back(), (Point{4, 6}));
}

TEST(Negotiation, ReportsFailureWhenImpossible) {
  ObstacleMap obs((Grid(3, 3)));
  for (std::int32_t y = 0; y < 3; ++y) obs.addObstacle({1, y});
  std::vector<NegotiationEdge> edges(1);
  edges[0].a = {{0, 0}};
  edges[0].b = {{2, 0}};
  NegotiationConfig cfg;
  cfg.maxIterations = 3;
  const auto r = negotiatedRoute(obs, edges, cfg);
  EXPECT_FALSE(r.success);
  EXPECT_EQ(r.iterations, 3);
}

TEST(BoundedAStar, MeetsExactLowerBound) {
  ObstacleMap obs((Grid(12, 12)));
  BoundedAStarRequest req;
  req.source = {1, 1};
  req.target = {5, 1};  // manhattan 4
  req.minLength = 8;
  req.maxLength = 10;
  const auto r = boundedLengthRoute(obs, req);
  ASSERT_TRUE(r.success);
  EXPECT_GE(r.length, 8);
  EXPECT_LE(r.length, 10);
  EXPECT_EQ(pathLength(r.path), r.length);
  EXPECT_TRUE(isValidChannel(r.path));
  EXPECT_EQ(r.path.front(), req.source);
  EXPECT_EQ(r.path.back(), req.target);
}

TEST(BoundedAStar, ShortestWhenBoundBelowManhattan) {
  ObstacleMap obs((Grid(12, 12)));
  BoundedAStarRequest req;
  req.source = {1, 1};
  req.target = {5, 5};
  req.minLength = 0;
  req.maxLength = 30;
  const auto r = boundedLengthRoute(obs, req);
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.length, 8);
}

TEST(BoundedAStar, ParityForcesNextReachableLength) {
  ObstacleMap obs((Grid(12, 12)));
  BoundedAStarRequest req;
  req.source = {1, 1};
  req.target = {4, 1};  // manhattan 3, parity odd
  req.minLength = 4;    // unreachable parity; next valid is 5
  req.maxLength = 7;
  const auto r = boundedLengthRoute(obs, req);
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.length, 5);
}

TEST(BoundedAStar, FailsInTightCorridor) {
  // 1-wide corridor: no simple path longer than the straight one exists.
  ObstacleMap obs((Grid(12, 3)));
  for (std::int32_t x = 0; x < 12; ++x) {
    obs.addObstacle({x, 0});
    obs.addObstacle({x, 2});
  }
  BoundedAStarRequest req;
  req.source = {1, 1};
  req.target = {8, 1};
  req.minLength = 11;
  req.maxLength = 13;
  const auto r = boundedLengthRoute(obs, req);
  EXPECT_FALSE(r.success);
}

TEST(BoundedAStar, RespectsWindowUpperBound) {
  ObstacleMap obs((Grid(12, 12)));
  BoundedAStarRequest req;
  req.source = {1, 1};
  req.target = {5, 1};
  req.minLength = 9;  // parity-unreachable (manhattan 4); only 10 fits
  req.maxLength = 9;  // ...but the cap forbids it
  const auto r = boundedLengthRoute(obs, req);
  EXPECT_FALSE(r.success);
}

TEST(BoundedAStar, AvoidsForeignNets) {
  ObstacleMap obs((Grid(8, 8)));
  const Path foreign{{3, 0}, {3, 1}, {3, 2}, {3, 3}};
  obs.occupy(foreign, 5);
  BoundedAStarRequest req;
  req.source = {1, 1};
  req.target = {6, 1};
  req.net = 9;
  req.minLength = 5;
  req.maxLength = 11;  // the foreign wall forces an 11-cell route
  const auto r = boundedLengthRoute(obs, req);
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.length, 11);
  for (const Point p : r.path) EXPECT_NE(obs.owner(p), 5);
}

TEST(BumpDetour, AddsExactEvenSlack) {
  ObstacleMap obs((Grid(12, 12)));
  BumpDetourRequest req;
  req.path = {{1, 5}, {2, 5}, {3, 5}, {4, 5}, {5, 5}};
  req.minLength = 9;
  req.maxLength = 10;
  const auto r = bumpDetour(obs, req);
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.length, 10);
  EXPECT_TRUE(isValidChannel(r.path));
  EXPECT_EQ(r.path.front(), (Point{1, 5}));
  EXPECT_EQ(r.path.back(), (Point{5, 5}));
}

TEST(BumpDetour, AlreadyInWindowIsNoop) {
  ObstacleMap obs((Grid(12, 12)));
  BumpDetourRequest req;
  req.path = {{1, 5}, {2, 5}, {3, 5}};
  req.minLength = 1;
  req.maxLength = 4;
  const auto r = bumpDetour(obs, req);
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.length, 2);
  EXPECT_EQ(r.path, req.path);
}

TEST(BumpDetour, ParityMismatchFails) {
  ObstacleMap obs((Grid(12, 12)));
  BumpDetourRequest req;
  req.path = {{1, 5}, {2, 5}, {3, 5}};  // length 2 (even)
  req.minLength = 5;
  req.maxLength = 5;  // odd-only window
  EXPECT_FALSE(bumpDetour(obs, req).success);
}

TEST(BumpDetour, FailsWithoutFreeSpace) {
  ObstacleMap obs((Grid(12, 3)));
  for (std::int32_t x = 0; x < 12; ++x) {
    obs.addObstacle({x, 0});
    obs.addObstacle({x, 2});
  }
  BumpDetourRequest req;
  req.path = {{1, 1}, {2, 1}, {3, 1}};
  req.minLength = 4;
  req.maxLength = 6;
  EXPECT_FALSE(bumpDetour(obs, req).success);
}

TEST(BumpDetour, CannotShorten) {
  ObstacleMap obs((Grid(12, 12)));
  BumpDetourRequest req;
  req.path = {{1, 5}, {2, 5}, {3, 5}, {4, 5}, {5, 5}};
  req.minLength = 1;
  req.maxLength = 2;  // below current length: impossible
  EXPECT_FALSE(bumpDetour(obs, req).success);
}

TEST(BumpDetour, LargeExtensionUsesMultipleBumps) {
  ObstacleMap obs((Grid(24, 24)));
  BumpDetourRequest req;
  req.path = {{2, 12}, {3, 12}, {4, 12}, {5, 12}, {6, 12}, {7, 12}};
  req.minLength = 29;
  req.maxLength = 30;
  const auto r = bumpDetour(obs, req);
  ASSERT_TRUE(r.success);
  EXPECT_GE(r.length, 29);
  EXPECT_TRUE(isValidChannel(r.path));
}

TEST(RouterWorkspace, ReusedWorkspaceMatchesFreshSearches) {
  ObstacleMap obs((Grid(32, 32)));
  for (int y = 0; y < 30; ++y) obs.addObstacle({16, y});
  RouterWorkspace reused;
  for (int k = 0; k < 3; ++k) {
    AStarRequest req;
    req.sources = {{2, 5 + k}};
    req.targets = {{29, 20 - k}};
    req.net = 1;
    const auto a = aStarRoute(obs, req, &reused);
    RouterWorkspace fresh;
    const auto b = aStarRoute(obs, req, &fresh);
    ASSERT_TRUE(a.success);
    EXPECT_EQ(a.path, b.path);
    EXPECT_EQ(a.cost, b.cost);
  }
}

}  // namespace
}  // namespace pacor::route
