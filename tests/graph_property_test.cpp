#include <gtest/gtest.h>

#include <limits>
#include <random>

#include "graph/clique_partition.hpp"
#include "graph/min_cost_flow.hpp"
#include "graph/selection.hpp"

namespace pacor::graph {
namespace {

// --- Min-cost flow optimality via the residual-graph certificate -----------
//
// A feasible flow is minimum-cost for its value iff the residual graph has
// no negative-cost cycle. We rebuild the residual graph from the solver's
// public introspection (flowOn / residual) and run Bellman-Ford.

struct RandomFlowInstance {
  std::size_t nodes;
  struct E {
    std::size_t u, v;
    std::int64_t cap, cost;
  };
  std::vector<E> edges;
};

RandomFlowInstance makeInstance(std::mt19937& rng) {
  RandomFlowInstance inst;
  inst.nodes = 5 + rng() % 6;
  const std::size_t m = 8 + rng() % 15;
  for (std::size_t i = 0; i < m; ++i) {
    const std::size_t u = rng() % inst.nodes;
    std::size_t v = rng() % inst.nodes;
    if (u == v) v = (v + 1) % inst.nodes;
    inst.edges.push_back({u, v, static_cast<std::int64_t>(1 + rng() % 4),
                          static_cast<std::int64_t>(rng() % 10)});
  }
  return inst;
}

bool hasNegativeCycle(const std::vector<std::tuple<std::size_t, std::size_t, std::int64_t>>&
                          residualArcs,
                      std::size_t n) {
  std::vector<std::int64_t> dist(n, 0);  // virtual super-source trick
  for (std::size_t iter = 0; iter < n; ++iter) {
    bool relaxed = false;
    for (const auto& [u, v, w] : residualArcs) {
      if (dist[u] + w < dist[v]) {
        dist[v] = dist[u] + w;
        relaxed = true;
      }
    }
    if (!relaxed) return false;
  }
  return true;  // still relaxing after n rounds => negative cycle
}

class McmfOptimality : public ::testing::TestWithParam<int> {};

TEST_P(McmfOptimality, ResidualGraphHasNoNegativeCycle) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()));
  for (int trial = 0; trial < 20; ++trial) {
    const auto inst = makeInstance(rng);
    MinCostFlow flow(inst.nodes);
    std::vector<std::size_t> ids;
    for (const auto& e : inst.edges) ids.push_back(flow.addEdge(e.u, e.v, e.cap, e.cost));
    const auto result = flow.run(0, inst.nodes - 1);

    // Conservation + capacity sanity.
    std::vector<std::int64_t> balance(inst.nodes, 0);
    for (std::size_t i = 0; i < inst.edges.size(); ++i) {
      const auto f = flow.flowOn(ids[i]);
      EXPECT_GE(f, 0);
      EXPECT_LE(f, inst.edges[i].cap);
      balance[inst.edges[i].u] -= f;
      balance[inst.edges[i].v] += f;
    }
    EXPECT_EQ(balance[0], -result.flow);
    EXPECT_EQ(balance[inst.nodes - 1], result.flow);
    for (std::size_t v = 1; v + 1 < inst.nodes; ++v) EXPECT_EQ(balance[v], 0);

    // Optimality certificate.
    std::vector<std::tuple<std::size_t, std::size_t, std::int64_t>> residual;
    for (std::size_t i = 0; i < inst.edges.size(); ++i) {
      if (flow.residual(ids[i]) > 0)
        residual.emplace_back(inst.edges[i].u, inst.edges[i].v, inst.edges[i].cost);
      if (flow.flowOn(ids[i]) > 0)
        residual.emplace_back(inst.edges[i].v, inst.edges[i].u, -inst.edges[i].cost);
    }
    EXPECT_FALSE(hasNegativeCycle(residual, inst.nodes)) << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, McmfOptimality, ::testing::Range(1, 11));

// --- MCMF vs exhaustive optimum on tiny instances ---------------------------

TEST(McmfExact, MatchesBruteForceAssignment) {
  // 3x3 assignment as a flow problem: compare against explicit min-cost
  // perfect matching by permutation enumeration.
  std::mt19937 rng(99);
  for (int trial = 0; trial < 30; ++trial) {
    std::int64_t cost[3][3];
    for (auto& row : cost)
      for (auto& c : row) c = static_cast<std::int64_t>(rng() % 50);

    MinCostFlow flow(8);  // s=0, L=1..3, R=4..6, t=7
    for (std::size_t i = 0; i < 3; ++i) flow.addEdge(0, 1 + i, 1, 0);
    for (std::size_t i = 0; i < 3; ++i)
      for (std::size_t j = 0; j < 3; ++j) flow.addEdge(1 + i, 4 + j, 1, cost[i][j]);
    for (std::size_t j = 0; j < 3; ++j) flow.addEdge(4 + j, 7, 1, 0);
    const auto r = flow.run(0, 7);
    ASSERT_EQ(r.flow, 3);

    std::int64_t best = std::numeric_limits<std::int64_t>::max();
    int perm[3] = {0, 1, 2};
    std::sort(perm, perm + 3);
    do {
      best = std::min(best, cost[0][perm[0]] + cost[1][perm[1]] + cost[2][perm[2]]);
    } while (std::next_permutation(perm, perm + 3));
    EXPECT_EQ(r.cost, best) << "trial " << trial;
  }
}

// --- Selection exact dominates greedy across sizes ---------------------------

struct SelectionSize {
  std::size_t clusters;
  std::size_t candidates;
};

class SelectionScaling : public ::testing::TestWithParam<SelectionSize> {};

TEST_P(SelectionScaling, ExactNeverWorseThanGreedy) {
  const auto [k, c] = GetParam();
  std::mt19937 rng(static_cast<unsigned>(7 * k + c));
  for (int trial = 0; trial < 5; ++trial) {
    SelectionProblem p;
    std::vector<std::size_t> all;
    for (std::size_t i = 0; i < k; ++i)
      for (std::size_t j = 0; j < c; ++j)
        all.push_back(p.addCandidate(i, -static_cast<double>(rng() % 100) / 100.0));
    for (std::size_t a = 0; a < all.size(); ++a)
      for (std::size_t b = a + 1; b < all.size(); ++b) {
        if (a / c == b / c) continue;  // same cluster
        if (rng() % 3 == 0)
          p.setPairWeight(all[a], all[b], -static_cast<double>(rng() % 100) / 50.0);
      }
    const auto greedy = p.solveGreedy();
    const auto exact = p.solveExact();
    EXPECT_GE(exact.objective, greedy.objective - 1e-9);
    EXPECT_EQ(exact.chosen.size(), k);
    // Every chosen candidate belongs to its cluster slot.
    for (std::size_t i = 0; i < k; ++i) {
      EXPECT_GE(exact.chosen[i], i * c);
      EXPECT_LT(exact.chosen[i], (i + 1) * c);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, SelectionScaling,
                         ::testing::Values(SelectionSize{2, 2}, SelectionSize{3, 3},
                                           SelectionSize{4, 2}, SelectionSize{4, 4},
                                           SelectionSize{6, 3}, SelectionSize{8, 2}));

// --- Clique partition invariants over density sweep --------------------------

class CliqueDensity : public ::testing::TestWithParam<int> {};

TEST_P(CliqueDensity, PartitionValidAtAllDensities) {
  const int densityPct = GetParam();
  std::mt19937 rng(static_cast<unsigned>(densityPct + 1));
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n = 4 + rng() % 24;
    AdjacencyMatrix g(n);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = i + 1; j < n; ++j)
        if (static_cast<int>(rng() % 100) < densityPct) g.addEdge(i, j);
    const auto parts = cliquePartition(g);
    EXPECT_TRUE(isValidCliquePartition(g, parts));
    EXPECT_LE(parts.size(), n);
    EXPECT_GE(parts.size(), 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(Density, CliqueDensity,
                         ::testing::Values(0, 10, 30, 50, 70, 90, 100));

}  // namespace
}  // namespace pacor::graph
