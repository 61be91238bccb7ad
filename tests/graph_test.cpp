#include <gtest/gtest.h>

#include <random>
#include <stdexcept>

#include "graph/adjacency.hpp"
#include "graph/clique_partition.hpp"
#include "graph/min_cost_flow.hpp"
#include "graph/selection.hpp"

namespace pacor::graph {
namespace {

TEST(Adjacency, EdgesAndDegree) {
  AdjacencyMatrix g(70);  // spans multiple 64-bit words
  g.addEdge(0, 69);
  g.addEdge(0, 33);
  EXPECT_TRUE(g.hasEdge(69, 0));
  EXPECT_TRUE(g.hasEdge(0, 33));
  EXPECT_FALSE(g.hasEdge(1, 2));
  EXPECT_EQ(g.degree(0), 2u);
  EXPECT_EQ(g.degree(69), 1u);
}

TEST(CliquePartition, CompleteGraphIsOneClique) {
  AdjacencyMatrix g(5);
  for (std::size_t i = 0; i < 5; ++i)
    for (std::size_t j = i + 1; j < 5; ++j) g.addEdge(i, j);
  const auto parts = cliquePartition(g);
  EXPECT_EQ(parts.size(), 1u);
  EXPECT_TRUE(isValidCliquePartition(g, parts));
}

TEST(CliquePartition, EmptyGraphIsAllSingletons) {
  AdjacencyMatrix g(4);
  const auto parts = cliquePartition(g);
  EXPECT_EQ(parts.size(), 4u);
  EXPECT_TRUE(isValidCliquePartition(g, parts));
}

TEST(CliquePartition, RandomGraphsAreValidPartitions) {
  std::mt19937 rng(7);
  for (int trial = 0; trial < 25; ++trial) {
    const std::size_t n = 3 + rng() % 20;
    AdjacencyMatrix g(n);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = i + 1; j < n; ++j)
        if (rng() % 3 != 0) g.addEdge(i, j);
    EXPECT_TRUE(isValidCliquePartition(g, cliquePartition(g)));
  }
}

TEST(CliquePartitionValidate, RejectsNonClique) {
  AdjacencyMatrix g(3);
  g.addEdge(0, 1);
  EXPECT_FALSE(isValidCliquePartition(g, {{0, 1, 2}}));
  EXPECT_FALSE(isValidCliquePartition(g, {{0, 1}}));        // misses vertex 2
  EXPECT_FALSE(isValidCliquePartition(g, {{0, 1}, {1, 2}}));  // 1 twice + non-edge
  EXPECT_TRUE(isValidCliquePartition(g, {{0, 1}, {2}}));
}

TEST(Selection, SingleClusterPicksBestCandidate) {
  SelectionProblem p;
  p.addCandidate(0, -0.5);
  p.addCandidate(0, -0.1);
  p.addCandidate(0, -0.9);
  const auto sol = p.solveExact();
  EXPECT_TRUE(sol.exact);
  EXPECT_EQ(sol.chosen, (std::vector<std::size_t>{1}));
  EXPECT_DOUBLE_EQ(sol.objective, -0.1);
}

TEST(Selection, PairwisePenaltyChangesChoice) {
  SelectionProblem p;
  // Cluster 0: candidates a0 (0), a1 (-0.05). Cluster 1: b0 (0).
  const auto a0 = p.addCandidate(0, 0.0);
  const auto a1 = p.addCandidate(0, -0.05);
  const auto b0 = p.addCandidate(1, 0.0);
  (void)a1;
  p.setPairWeight(a0, b0, -1.0);  // a0 overlaps b0 heavily
  const auto sol = p.solveExact();
  EXPECT_TRUE(sol.exact);
  EXPECT_EQ(sol.chosen[0], 1u);  // prefers the slightly worse, non-overlapping one
  EXPECT_DOUBLE_EQ(sol.objective, -0.05);
}

TEST(Selection, ExactMatchesBruteForceOnRandom) {
  std::mt19937 rng(3);
  for (int trial = 0; trial < 15; ++trial) {
    SelectionProblem p;
    const std::size_t clusters = 2 + rng() % 3;
    std::vector<std::vector<std::size_t>> ids(clusters);
    for (std::size_t c = 0; c < clusters; ++c) {
      const std::size_t k = 1 + rng() % 3;
      for (std::size_t i = 0; i < k; ++i)
        ids[c].push_back(p.addCandidate(c, -static_cast<double>(rng() % 100) / 100.0));
    }
    for (std::size_t c1 = 0; c1 < clusters; ++c1)
      for (std::size_t c2 = c1 + 1; c2 < clusters; ++c2)
        for (const auto x : ids[c1])
          for (const auto y : ids[c2])
            if (rng() % 2) p.setPairWeight(x, y, -static_cast<double>(rng() % 100) / 50.0);

    const auto sol = p.solveExact();
    ASSERT_TRUE(sol.exact);

    // Brute force.
    double best = -1e18;
    std::vector<std::size_t> pick(clusters, 0);
    const std::function<void(std::size_t, std::vector<std::size_t>&)> rec =
        [&](std::size_t c, std::vector<std::size_t>& cur) {
          if (c == clusters) {
            best = std::max(best, p.objective(cur));
            return;
          }
          for (const auto id : ids[c]) {
            cur.push_back(id);
            rec(c + 1, cur);
            cur.pop_back();
          }
        };
    std::vector<std::size_t> cur;
    rec(0, cur);
    EXPECT_NEAR(sol.objective, best, 1e-9) << "trial " << trial;
  }
}

TEST(Selection, GreedyIsValidAssignment) {
  SelectionProblem p;
  p.addCandidate(0, -0.3);
  p.addCandidate(0, -0.4);
  p.addCandidate(1, -0.1);
  p.addCandidate(2, -0.2);
  p.addCandidate(2, -0.25);
  const auto sol = p.solveGreedy();
  ASSERT_EQ(sol.chosen.size(), 3u);
  EXPECT_LE(sol.objective, 0.0);
}

TEST(MinCostFlow, SimplePath) {
  MinCostFlow f(4);
  f.addEdge(0, 1, 2, 1);
  f.addEdge(1, 2, 2, 1);
  f.addEdge(2, 3, 2, 1);
  const auto r = f.run(0, 3);
  EXPECT_EQ(r.flow, 2);
  EXPECT_EQ(r.cost, 6);
}

TEST(MinCostFlow, PrefersCheaperPath) {
  MinCostFlow f(4);
  const auto cheap1 = f.addEdge(0, 1, 1, 1);
  f.addEdge(1, 3, 1, 1);
  const auto dear1 = f.addEdge(0, 2, 1, 5);
  f.addEdge(2, 3, 1, 5);
  const auto r = f.run(0, 3, 1);
  EXPECT_EQ(r.flow, 1);
  EXPECT_EQ(r.cost, 2);
  EXPECT_EQ(f.flowOn(cheap1), 1);
  EXPECT_EQ(f.flowOn(dear1), 0);
}

TEST(MinCostFlow, MaxFlowThenMinCost) {
  // Two units must flow; the optimum uses both paths even though one is
  // expensive (lexicographic max-flow before min-cost).
  MinCostFlow f(4);
  f.addEdge(0, 1, 1, 1);
  f.addEdge(1, 3, 1, 1);
  f.addEdge(0, 2, 1, 10);
  f.addEdge(2, 3, 1, 10);
  const auto r = f.run(0, 3);
  EXPECT_EQ(r.flow, 2);
  EXPECT_EQ(r.cost, 22);
}

TEST(MinCostFlow, ReroutesThroughResidualEdges) {
  // Classic residual test: greedy shortest path would block the second
  // unit; successive shortest paths must undo it via the reverse arc.
  MinCostFlow f(6);
  // s=0, t=5. Direct middle edge is tempting but must be shared.
  f.addEdge(0, 1, 1, 1);
  f.addEdge(0, 2, 1, 2);
  f.addEdge(1, 3, 1, 1);
  f.addEdge(1, 4, 1, 3);
  f.addEdge(2, 3, 1, 1);
  f.addEdge(3, 5, 1, 1);
  f.addEdge(4, 5, 1, 1);
  const auto r = f.run(0, 5);
  EXPECT_EQ(r.flow, 2);
  EXPECT_EQ(r.cost, 3 + 6);  // 0-1-3-5 (3) and 0-2-3... rerouted: total 9
}

TEST(MinCostFlow, RespectsMaxFlowCap) {
  MinCostFlow f(2);
  f.addEdge(0, 1, 10, 1);
  const auto r = f.run(0, 1, 3);
  EXPECT_EQ(r.flow, 3);
  EXPECT_EQ(r.cost, 3);
}

TEST(MinCostFlow, DisconnectedGivesZero) {
  MinCostFlow f(3);
  f.addEdge(0, 1, 1, 1);
  const auto r = f.run(0, 2);
  EXPECT_EQ(r.flow, 0);
  EXPECT_EQ(r.cost, 0);
}

TEST(MinCostFlow, AccumulatesAcrossRuns) {
  MinCostFlow f(2);
  f.addEdge(0, 1, 5, 2);
  const auto r1 = f.run(0, 1, 2);
  const auto r2 = f.run(0, 1, 2);
  EXPECT_EQ(r1.flow + r2.flow, 4);
  EXPECT_EQ(f.flowOn(0), 4);
  EXPECT_EQ(f.residual(0), 1);
}


TEST(CliquePartitionExact, OptimalOnKnownGraphs) {
  // 5-cycle: needs 3 cliques (edges can only pair adjacent vertices).
  AdjacencyMatrix c5(5);
  for (std::size_t i = 0; i < 5; ++i) c5.addEdge(i, (i + 1) % 5);
  const auto parts = cliquePartitionExact(c5);
  EXPECT_TRUE(isValidCliquePartition(c5, parts));
  EXPECT_EQ(parts.size(), 3u);

  // Complete graph: one clique; empty graph: n cliques.
  AdjacencyMatrix k4(4);
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t j = i + 1; j < 4; ++j) k4.addEdge(i, j);
  EXPECT_EQ(cliquePartitionExact(k4).size(), 1u);
  AdjacencyMatrix e3(3);
  EXPECT_EQ(cliquePartitionExact(e3).size(), 3u);
}

TEST(CliquePartitionExact, NeverWorseThanGreedyOnRandom) {
  std::mt19937 rng(23);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t n = 2 + rng() % 11;
    AdjacencyMatrix g(n);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = i + 1; j < n; ++j)
        if (rng() % 2) g.addEdge(i, j);
    const auto exact = cliquePartitionExact(g);
    const auto greedy = cliquePartition(g);
    EXPECT_TRUE(isValidCliquePartition(g, exact));
    EXPECT_LE(exact.size(), greedy.size()) << "trial " << trial;
  }
}

TEST(CliquePartitionExact, AutoSwitchesToGreedyAboveLimit) {
  AdjacencyMatrix g(24);
  for (std::size_t i = 0; i + 1 < 24; i += 2) g.addEdge(i, i + 1);
  const auto parts = cliquePartitionAuto(g, 16);
  EXPECT_TRUE(isValidCliquePartition(g, parts));
}

// Regression: cliquePartitionExact used to silently fall back to the
// greedy heuristic past the subset-DP capacity, so a caller asking for
// the exact optimum could get a non-optimal partition with no warning.
// It must refuse instead.
TEST(CliquePartitionExact, ThrowsPastDpCapacity) {
  AdjacencyMatrix g(kMaxExactCliqueVertices + 1);
  for (std::size_t i = 0; i + 1 < g.size(); i += 2) g.addEdge(i, i + 1);
  EXPECT_THROW(cliquePartitionExact(g), std::invalid_argument);

  // At the capacity boundary the exact DP still runs and is optimal:
  // a perfect matching on 20 vertices needs exactly 10 cliques.
  AdjacencyMatrix boundary(kMaxExactCliqueVertices);
  for (std::size_t i = 0; i + 1 < boundary.size(); i += 2)
    boundary.addEdge(i, i + 1);
  const auto parts = cliquePartitionExact(boundary);
  EXPECT_TRUE(isValidCliquePartition(boundary, parts));
  EXPECT_EQ(parts.size(), kMaxExactCliqueVertices / 2);
}

// Auto clamps the caller's exact limit to the DP capacity instead of
// forwarding an oversized graph into the throwing exact path.
TEST(CliquePartitionExact, AutoClampsOversizedExactLimit) {
  AdjacencyMatrix g(kMaxExactCliqueVertices + 4);
  for (std::size_t i = 0; i + 1 < g.size(); i += 2) g.addEdge(i, i + 1);
  const auto parts = cliquePartitionAuto(g, /*exactLimit=*/100);
  EXPECT_TRUE(isValidCliquePartition(g, parts));
}

}  // namespace
}  // namespace pacor::graph
