#include <gtest/gtest.h>

#include <unordered_set>

#include "chip/generator.hpp"
#include "pacor/cluster_routing.hpp"
#include "pacor/pipeline.hpp"
#include "pacor/solution_io.hpp"
#include "util/sha256.hpp"

namespace pacor::core {
namespace {

using geom::Point;

/// Builds a chip with the given LM clusters (one compatible group per
/// cluster) and wires up pre-occupied work clusters, mirroring what the
/// pipeline does before stage 2.
struct LmFixture {
  chip::Chip chip;
  grid::ObstacleMap obs{grid::Grid(1, 1)};
  std::vector<WorkCluster> clusters;

  explicit LmFixture(std::int32_t size, const std::vector<std::vector<Point>>& groups) {
    chip.name = "lm-fixture";
    chip.routingGrid = grid::Grid(size, size);
    for (std::size_t g = 0; g < groups.size(); ++g) {
      chip::ValveCluster cluster;
      cluster.lengthMatched = true;
      for (const Point p : groups[g]) {
        const auto id = static_cast<chip::ValveId>(chip.valves.size());
        std::string seq(6, '0');
        for (int b = 0; b < 6; ++b)
          if ((g >> b) & 1u) seq[static_cast<std::size_t>(b)] = '1';
        chip.valves.push_back({id, p, chip::ActivationSequence(seq)});
        cluster.valves.push_back(id);
      }
      chip.givenClusters.push_back(std::move(cluster));
    }
    chip.pins = {{0, {0, 0}}};
    obs = chip.makeObstacleMap();
    clusters.resize(groups.size());
    for (std::size_t g = 0; g < groups.size(); ++g) {
      auto& wc = clusters[g];
      wc.spec.valves = chip.givenClusters[g].valves;
      wc.spec.lengthMatched = true;
      wc.net = static_cast<grid::NetId>(g);
      for (const chip::ValveId v : wc.spec.valves) {
        const Point cell = chip.valve(v).pos;
        obs.occupy(std::span<const Point>(&cell, 1), wc.net);
      }
    }
  }

  std::vector<WorkCluster*> ptrs() {
    std::vector<WorkCluster*> out;
    for (auto& wc : clusters) out.push_back(&wc);
    return out;
  }
};

TEST(LmRouting, RoutesTwoValvePairWithMiddleTap) {
  LmFixture fx(16, {{{3, 8}, {12, 8}}});
  auto ptrs = fx.ptrs();
  const auto stats = routeLengthMatchingClusters(fx.chip, {}, fx.obs,
                                                 std::span<WorkCluster*>(ptrs));
  EXPECT_EQ(stats.pairClusters, 1);
  EXPECT_EQ(stats.demoted, 0);
  const auto& wc = fx.clusters[0];
  ASSERT_TRUE(wc.internallyRouted);
  ASSERT_TRUE(wc.lmStructured);
  ASSERT_EQ(wc.treePaths.size(), 2u);
  // Arms start at the valves and end at the shared tap.
  EXPECT_EQ(wc.treePaths[0].front(), (Point{3, 8}));
  EXPECT_EQ(wc.treePaths[1].front(), (Point{12, 8}));
  EXPECT_EQ(wc.treePaths[0].back(), wc.tap);
  EXPECT_EQ(wc.treePaths[1].back(), wc.tap);
  // Middle tap: arm lengths differ by at most one.
  EXPECT_LE(std::abs(route::pathLength(wc.treePaths[0]) -
                     route::pathLength(wc.treePaths[1])),
            1);
}

TEST(LmRouting, RoutesFourValveTreeViaDme) {
  LmFixture fx(28, {{{5, 5}, {20, 6}, {6, 21}, {21, 22}}});
  auto ptrs = fx.ptrs();
  const auto stats = routeLengthMatchingClusters(fx.chip, {}, fx.obs,
                                                 std::span<WorkCluster*>(ptrs));
  EXPECT_EQ(stats.dmeClusters, 1);
  EXPECT_GE(stats.candidatesBuilt, 1);
  const auto& wc = fx.clusters[0];
  ASSERT_TRUE(wc.internallyRouted);
  ASSERT_TRUE(wc.lmStructured);
  EXPECT_EQ(wc.treePaths.size(), 6u);  // 3 internal nodes x 2 child edges
  ASSERT_EQ(wc.sinkSequences.size(), 4u);
  // Every sink sequence references valid path indices, leaf edge first.
  for (std::size_t s = 0; s < 4; ++s) {
    ASSERT_FALSE(wc.sinkSequences[s].empty());
    for (const int idx : wc.sinkSequences[s]) {
      ASSERT_GE(idx, 0);
      ASSERT_LT(idx, 6);
    }
    const route::Path& leaf =
        wc.treePaths[static_cast<std::size_t>(wc.sinkSequences[s].front())];
    const Point valve = fx.chip.valve(wc.spec.valves[s]).pos;
    EXPECT_TRUE(leaf.front() == valve || leaf.back() == valve);
  }
}

TEST(LmRouting, TreeCellsCommittedToObstacleMap) {
  LmFixture fx(24, {{{4, 12}, {19, 12}}});
  auto ptrs = fx.ptrs();
  routeLengthMatchingClusters(fx.chip, {}, fx.obs, std::span<WorkCluster*>(ptrs));
  const auto& wc = fx.clusters[0];
  for (const auto& p : wc.treePaths)
    for (const Point c : p) EXPECT_EQ(fx.obs.owner(c), wc.net) << c.str();
}

TEST(LmRouting, TwoClustersShareNoCells) {
  LmFixture fx(24, {{{4, 6}, {19, 6}}, {{4, 16}, {19, 16}}});
  auto ptrs = fx.ptrs();
  const auto stats = routeLengthMatchingClusters(fx.chip, {}, fx.obs,
                                                 std::span<WorkCluster*>(ptrs));
  EXPECT_EQ(stats.demoted, 0);
  // Within a cluster the arms share the tap cell; across clusters nothing
  // may be shared.
  std::vector<std::unordered_set<Point>> cellsOf(fx.clusters.size());
  for (std::size_t i = 0; i < fx.clusters.size(); ++i)
    for (const auto& p : fx.clusters[i].treePaths)
      cellsOf[i].insert(p.begin(), p.end());
  for (const Point c : cellsOf[0]) EXPECT_FALSE(cellsOf[1].contains(c)) << c.str();
}

TEST(LmRouting, SelectionAvoidsOverlappingCandidates) {
  // Two interleaved clusters whose bounding boxes overlap heavily: the
  // stage must still route both (selection + negotiation).
  LmFixture fx(26, {{{4, 4}, {21, 21}}, {{21, 4}, {4, 21}}});
  auto ptrs = fx.ptrs();
  const auto stats = routeLengthMatchingClusters(fx.chip, {}, fx.obs,
                                                 std::span<WorkCluster*>(ptrs));
  EXPECT_EQ(stats.demoted, 0);
  EXPECT_TRUE(fx.clusters[0].internallyRouted);
  EXPECT_TRUE(fx.clusters[1].internallyRouted);
}

TEST(LmRouting, DemotesWhenUnroutable) {
  LmFixture fx(16, {{{2, 8}, {13, 8}}});
  // Slice the chip in half with a full wall: no channel can connect.
  for (std::int32_t y = 0; y < 16; ++y) fx.obs.addObstacle({8, y});
  auto ptrs = fx.ptrs();
  const auto stats = routeLengthMatchingClusters(fx.chip, {}, fx.obs,
                                                 std::span<WorkCluster*>(ptrs));
  EXPECT_EQ(stats.demoted, 1);
  EXPECT_TRUE(fx.clusters[0].wasDemoted);
  EXPECT_FALSE(fx.clusters[0].internallyRouted);
}

TEST(LmRouting, WithoutSelectionUsesFirstCandidate) {
  LmFixture fxA(28, {{{5, 5}, {20, 6}, {6, 21}, {21, 22}}});
  LmFixture fxB(28, {{{5, 5}, {20, 6}, {6, 21}, {21, 22}}});
  PacorConfig noSel;
  noSel.useSelection = false;
  auto ptrsA = fxA.ptrs();
  auto ptrsB = fxB.ptrs();
  const auto a = routeLengthMatchingClusters(fxA.chip, {}, fxA.obs,
                                             std::span<WorkCluster*>(ptrsA));
  const auto b = routeLengthMatchingClusters(fxB.chip, noSel, fxB.obs,
                                             std::span<WorkCluster*>(ptrsB));
  // Both succeed; the selection stats reflect the configuration.
  EXPECT_TRUE(fxA.clusters[0].internallyRouted);
  EXPECT_TRUE(fxB.clusters[0].internallyRouted);
  EXPECT_GE(a.candidatesBuilt, b.candidatesBuilt);  // same candidate builder
}

TEST(LmRouting, NegotiationPastFirstIterationIsBitStable) {
  // Every Table-1 design finishes negotiation in iteration 1. This dense,
  // fully length-matched FPVA runs Alg. 1 to gamma: history costs, rip-up
  // and demotion all shape its solution, which is pinned byte for byte.
  const chip::Chip chip =
      chip::generateFpvaChip(chip::parseFpvaSpec("fpva:20x20:lm=100:block=4x6:pitch=7"));
  const PacorResult result = routeChip(chip);
  EXPECT_EQ(util::sha256Hex(solutionToString(result)),
            "35637f21b0b012e8ac4500f675d7c1ebd35af245a351310a3b7dbddc4e67a3c9");
  EXPECT_EQ(result.metrics.getInt("lm.candidates_built"), 45);
  EXPECT_EQ(result.metrics.getInt("lm.negotiation_iterations"), 10);
  EXPECT_EQ(result.metrics.getInt("lm.demoted"), 10);
  EXPECT_EQ(result.metrics.getInt("clusters.matched"), 5);
}

TEST(LmRouting, EmptyInputIsNoop) {
  LmFixture fx(16, {});
  auto ptrs = fx.ptrs();
  const auto stats = routeLengthMatchingClusters(fx.chip, {}, fx.obs,
                                                 std::span<WorkCluster*>(ptrs));
  EXPECT_EQ(stats.dmeClusters + stats.pairClusters, 0);
}

}  // namespace
}  // namespace pacor::core
