#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <random>
#include <stdexcept>
#include <unordered_set>

#include "grid/grid.hpp"
#include "grid/obstacle_map.hpp"

namespace pacor::grid {
namespace {

TEST(Grid, BoundsAndIndexing) {
  const Grid g(7, 5);
  EXPECT_EQ(g.width(), 7);
  EXPECT_EQ(g.height(), 5);
  EXPECT_EQ(g.cellCount(), 35);
  EXPECT_TRUE(g.inBounds({0, 0}));
  EXPECT_TRUE(g.inBounds({6, 4}));
  EXPECT_FALSE(g.inBounds({7, 0}));
  EXPECT_FALSE(g.inBounds({0, -1}));
  for (std::int32_t i = 0; i < g.cellCount(); ++i)
    EXPECT_EQ(g.index(g.point(i)), i);
}

TEST(Grid, BoundaryPredicate) {
  const Grid g(4, 4);
  EXPECT_TRUE(g.onBoundary({0, 2}));
  EXPECT_TRUE(g.onBoundary({3, 1}));
  EXPECT_TRUE(g.onBoundary({2, 0}));
  EXPECT_FALSE(g.onBoundary({1, 1}));
  EXPECT_FALSE(g.onBoundary({4, 0}));  // out of bounds is not boundary
}

std::vector<geom::Point> neighborsOf(const Grid& g, geom::Point p) {
  std::vector<geom::Point> out;
  g.forNeighbors(p, [&](geom::Point q) { out.push_back(q); });
  return out;
}

TEST(Grid, NeighborsInterior) {
  const Grid g(5, 5);
  const auto n = neighborsOf(g, {2, 2});
  EXPECT_EQ(n.size(), 4u);
}

TEST(Grid, NeighborsCorner) {
  const Grid g(5, 5);
  const auto n = neighborsOf(g, {0, 0});
  ASSERT_EQ(n.size(), 2u);
  const std::unordered_set<geom::Point> set(n.begin(), n.end());
  EXPECT_TRUE(set.contains({1, 0}));
  EXPECT_TRUE(set.contains({0, 1}));
}

TEST(Grid, BoundaryCellsCountAndUniqueness) {
  const Grid g(6, 9);
  const auto cells = g.boundaryCells();
  EXPECT_EQ(cells.size(), static_cast<std::size_t>(2 * (6 + 9) - 4));
  std::unordered_set<geom::Point> set(cells.begin(), cells.end());
  EXPECT_EQ(set.size(), cells.size());
  for (const auto c : cells) EXPECT_TRUE(g.onBoundary(c));
}

TEST(Grid, BoundaryCellsCoverAllBoundary) {
  const Grid g(5, 4);
  const auto cells = g.boundaryCells();
  const std::unordered_set<geom::Point> set(cells.begin(), cells.end());
  for (std::int32_t x = 0; x < 5; ++x)
    for (std::int32_t y = 0; y < 4; ++y)
      EXPECT_EQ(set.contains({x, y}), g.onBoundary({x, y}));
}

TEST(Grid, SingleRowBoundary) {
  const Grid g(5, 1);
  const auto cells = g.boundaryCells();
  EXPECT_EQ(cells.size(), 5u);
}

// Regression: index() computes y * width + x in int32, so a die whose
// cell count exceeds INT32_MAX used to wrap and alias distinct cells.
// The constructor must reject such dimensions outright.
TEST(Grid, RejectsCellCountPastInt32) {
  EXPECT_THROW(Grid(65536, 65536), std::invalid_argument);
  EXPECT_THROW(Grid(2, std::numeric_limits<std::int32_t>::max() / 2 + 1),
               std::invalid_argument);
  // The largest representable rectangle is fine.
  const std::int32_t big = 46340;  // 46340^2 < 2^31 - 1
  EXPECT_NO_THROW(Grid(big, big));
}

TEST(ObstacleMap, InitiallyFree) {
  ObstacleMap map(Grid(4, 4));
  for (std::int32_t i = 0; i < 16; ++i) {
    EXPECT_TRUE(map.isFree(map.grid().point(i)));
    EXPECT_EQ(map.owner(map.grid().point(i)), kFreeCell);
  }
}

TEST(ObstacleMap, ObstaclesBlock) {
  ObstacleMap map(Grid(4, 4));
  map.addObstacle({1, 1});
  EXPECT_TRUE(map.isObstacle({1, 1}));
  EXPECT_FALSE(map.isFree({1, 1}));
  EXPECT_FALSE(map.isFreeFor({1, 1}, 3));
  EXPECT_EQ(map.obstacleCount(), 1);
}

TEST(ObstacleMap, OccupyAndOwnership) {
  ObstacleMap map(Grid(5, 5));
  const std::vector<geom::Point> path{{0, 0}, {1, 0}, {2, 0}};
  map.occupy(path, 7);
  EXPECT_EQ(map.owner({1, 0}), 7);
  EXPECT_TRUE(map.isFreeFor({1, 0}, 7));
  EXPECT_FALSE(map.isFreeFor({1, 0}, 8));
  EXPECT_EQ(map.countOwnedBy(7), 3);
}

TEST(ObstacleMap, ReleaseWholeNet) {
  ObstacleMap map(Grid(5, 5));
  const std::vector<geom::Point> path{{0, 0}, {1, 0}};
  map.occupy(path, 2);
  map.release(2);
  EXPECT_TRUE(map.isFree({0, 0}));
  EXPECT_TRUE(map.isFree({1, 0}));
  EXPECT_EQ(map.countOwnedBy(2), 0);
}

TEST(ObstacleMap, ReleasePathKeepsOtherCells) {
  ObstacleMap map(Grid(5, 5));
  const std::vector<geom::Point> a{{0, 0}, {1, 0}};
  const std::vector<geom::Point> b{{3, 3}};
  map.occupy(a, 4);
  map.occupy(b, 4);
  map.releasePath(a, 4);
  EXPECT_TRUE(map.isFree({0, 0}));
  EXPECT_EQ(map.owner({3, 3}), 4);
}

TEST(ObstacleMap, ReleasePathIgnoresForeignCells) {
  ObstacleMap map(Grid(5, 5));
  const std::vector<geom::Point> a{{0, 0}};
  map.occupy(a, 1);
  map.releasePath(a, 2);  // wrong net: no-op
  EXPECT_EQ(map.owner({0, 0}), 1);
}

TEST(ObstacleMap, ReoccupySameNetIsIdempotent) {
  ObstacleMap map(Grid(5, 5));
  const std::vector<geom::Point> a{{2, 2}, {2, 3}};
  map.occupy(a, 9);
  map.occupy(a, 9);  // same net may re-claim (shared tree trunks)
  EXPECT_EQ(map.countOwnedBy(9), 2);
}

std::vector<NetId> ownerSnapshot(const ObstacleMap& map) {
  std::vector<NetId> owners;
  owners.reserve(static_cast<std::size_t>(map.grid().cellCount()));
  for (std::int32_t c = 0; c < map.grid().cellCount(); ++c)
    owners.push_back(map.owner(map.grid().point(c)));
  return owners;
}

TEST(ObstacleMapTransaction, RollbackRestoresExactState) {
  ObstacleMap map(Grid(8, 6));
  map.addObstacle({3, 3});
  const std::vector<geom::Point> base{{0, 0}, {1, 0}, {2, 0}};
  map.occupy(base, 7);
  const auto before = ownerSnapshot(map);

  ObstacleMapTransaction txn(map);
  const std::vector<geom::Point> path{{0, 1}, {1, 1}, {2, 1}, {2, 2}};
  txn.occupy(path, 9);
  txn.releasePath(std::span<const geom::Point>(base.data(), 2), 7);
  EXPECT_EQ(map.owner({1, 1}), 9);
  EXPECT_TRUE(map.isFree({0, 0}));
  EXPECT_EQ(txn.log().size(), 6u);  // 4 occupied + 2 released

  txn.rollback();
  EXPECT_EQ(ownerSnapshot(map), before);
  EXPECT_TRUE(txn.log().empty());
}

TEST(ObstacleMapTransaction, RollbackUndoesOverlappingMutationsInOrder) {
  ObstacleMap map(Grid(6, 6));
  const std::vector<geom::Point> cells{{1, 1}, {2, 1}};
  const auto before = ownerSnapshot(map);

  // The same cell changes owner twice: free -> 5 -> free -> 8. The reverse
  // replay must walk back through every intermediate owner.
  ObstacleMapTransaction txn(map);
  txn.occupy(cells, 5);
  txn.releasePath(cells, 5);
  txn.occupy(cells, 8);
  EXPECT_EQ(map.owner({1, 1}), 8);
  txn.rollback();
  EXPECT_EQ(ownerSnapshot(map), before);
}

TEST(ObstacleMapTransaction, LogSkipsCellsAlreadyOwnedBySameNet) {
  ObstacleMap map(Grid(6, 6));
  const std::vector<geom::Point> cells{{4, 4}};
  map.occupy(cells, 3);

  ObstacleMapTransaction txn(map);
  txn.occupy(cells, 3);  // no-op: already owned by net 3
  EXPECT_TRUE(txn.log().empty());
  txn.rollback();
  EXPECT_EQ(map.owner({4, 4}), 3);
}

TEST(ObstacleMapTransaction, CommitKeepsMutations) {
  ObstacleMap map(Grid(6, 6));
  const std::vector<geom::Point> cells{{0, 5}, {1, 5}};

  ObstacleMapTransaction txn(map);
  txn.occupy(cells, 2);
  txn.commit();
  EXPECT_TRUE(txn.log().empty());
  txn.rollback();  // nothing left to undo
  EXPECT_EQ(map.owner({0, 5}), 2);
  EXPECT_EQ(map.owner({1, 5}), 2);
}

TEST(ObstacleMapTransaction, RollbackAfterCommitOnlyUndoesNewerMutations) {
  ObstacleMap map(Grid(6, 6));
  ObstacleMapTransaction txn(map);
  const std::vector<geom::Point> first{{1, 1}, {2, 1}};
  const std::vector<geom::Point> second{{3, 1}, {4, 1}};

  txn.occupy(first, 5);
  txn.commit();  // first is now permanent
  const auto afterCommit = ownerSnapshot(map);

  txn.occupy(second, 6);
  txn.releasePath(std::span<const geom::Point>(first.data(), 1), 5);
  txn.rollback();  // must restore exactly the post-commit state
  EXPECT_EQ(ownerSnapshot(map), afterCommit);
  EXPECT_EQ(map.owner({1, 1}), 5);
  EXPECT_TRUE(map.isFree({3, 1}));
}

TEST(ObstacleMapTransaction, AlternatingCommitRollbackSequences) {
  ObstacleMap map(Grid(8, 8));
  map.addObstacle({4, 4});
  ObstacleMapTransaction txn(map);

  // Round 1: route two nets, keep them.
  txn.occupy(std::vector<geom::Point>{{0, 0}, {1, 0}}, 1);
  txn.occupy(std::vector<geom::Point>{{0, 2}, {1, 2}}, 2);
  txn.commit();
  const auto round1 = ownerSnapshot(map);

  // Round 2: rip net 1 up, try a new net, abandon the whole round.
  txn.releasePath(std::vector<geom::Point>{{0, 0}, {1, 0}}, 1);
  txn.occupy(std::vector<geom::Point>{{2, 2}, {2, 3}, {2, 4}}, 3);
  txn.rollback();
  EXPECT_EQ(ownerSnapshot(map), round1);

  // Round 3: same rip-up succeeds this time and is committed.
  txn.releasePath(std::vector<geom::Point>{{0, 0}, {1, 0}}, 1);
  txn.occupy(std::vector<geom::Point>{{0, 0}, {0, 1}}, 3);
  txn.commit();
  txn.rollback();  // empty log: must not disturb the committed round
  EXPECT_EQ(map.owner({0, 0}), 3);
  EXPECT_EQ(map.owner({0, 1}), 3);
  EXPECT_TRUE(map.isFree({1, 0}));
  EXPECT_EQ(map.owner({0, 2}), 2);
  EXPECT_TRUE(map.isObstacle({4, 4}));
}

TEST(ObstacleMapTransaction, RandomInterleavingsMatchSnapshotModel) {
  // Differential model check: an ObstacleMapTransaction driven by a random
  // occupy/release/commit/rollback schedule must behave exactly like the
  // brute-force model "commit = snapshot, rollback = restore snapshot".
  std::mt19937 rng(20260805);
  for (int round = 0; round < 50; ++round) {
    ObstacleMap map(Grid(7, 7));
    map.addObstacle({3, 3});
    ObstacleMapTransaction txn(map);
    auto checkpoint = ownerSnapshot(map);
    std::vector<std::vector<geom::Point>> routed;  // paths occupied since ever

    for (int step = 0; step < 40; ++step) {
      const auto roll = rng() % 10;
      if (roll < 5) {
        // Occupy a short random free path for a fresh net id.
        std::vector<geom::Point> path;
        geom::Point p{static_cast<std::int32_t>(rng() % 7),
                      static_cast<std::int32_t>(rng() % 7)};
        for (int k = 0; k < 3; ++k) {
          if (!map.grid().inBounds(p) || !map.isFree(p)) break;
          path.push_back(p);
          p = (rng() & 1) ? geom::Point{p.x + 1, p.y} : geom::Point{p.x, p.y + 1};
        }
        if (path.empty()) continue;
        txn.occupy(path, static_cast<NetId>(100 + step));
        routed.push_back(std::move(path));
      } else if (roll < 7 && !routed.empty()) {
        const auto idx = rng() % routed.size();
        const auto path = routed[idx];
        routed.erase(routed.begin() + static_cast<std::ptrdiff_t>(idx));
        txn.releasePath(path, map.owner(path.front()));
      } else if (roll < 8) {
        txn.commit();
        checkpoint = ownerSnapshot(map);
      } else {
        txn.rollback();
        ASSERT_EQ(ownerSnapshot(map), checkpoint) << "round " << round;
        routed.clear();  // ownership below the checkpoint is unknown to us
      }
    }
    txn.rollback();
    EXPECT_EQ(ownerSnapshot(map), checkpoint) << "round " << round;
  }
}

}  // namespace
}  // namespace pacor::grid
