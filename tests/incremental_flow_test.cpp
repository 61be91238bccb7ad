// Tests for the mutable MinCostFlow API (setCapacity / disableNode /
// enableNode / cancelFlowThrough / rerun / truncateEdges) and the
// EscapeFlowSession built on it. The core property throughout: after any
// edit sequence, a warm rerun() must produce exactly the same Result and
// the same per-edge flows as a *fresh* solver constructed with the same
// effective capacities — bit-identity is what lets the pipeline serve
// every rip-up round from one persistent session without moving the
// golden solution hashes.

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "chip/generator.hpp"
#include "graph/min_cost_flow.hpp"
#include "grid/obstacle_map.hpp"
#include "pacor/cluster_routing.hpp"
#include "pacor/clustering.hpp"
#include "pacor/escape.hpp"
#include "pacor/mst_routing.hpp"
#include "pacor/pipeline.hpp"

namespace pacor::graph {
namespace {

struct Edge {
  std::size_t u, v;
  std::int64_t cap, cost;
};

/// Random sparse instance with node 0 as source and n-1 as sink.
std::vector<Edge> makeEdges(std::mt19937& rng, std::size_t nodes) {
  std::vector<Edge> edges;
  const std::size_t m = 10 + rng() % 20;
  for (std::size_t i = 0; i < m; ++i) {
    const std::size_t u = rng() % nodes;
    std::size_t v = rng() % nodes;
    if (u == v) v = (v + 1) % nodes;
    edges.push_back({u, v, static_cast<std::int64_t>(1 + rng() % 4),
                     static_cast<std::int64_t>(rng() % 10)});
  }
  // Guarantee some source/sink adjacency so instances are non-trivial.
  edges.push_back({0, 1 + rng() % (nodes - 1), 2, 1});
  edges.push_back({rng() % (nodes - 1), nodes - 1, 2, 1});
  return edges;
}

/// Fresh solver over the *effective* state of `mutated`: same edges in the
/// same insertion order, capacity 0 where an endpoint is disabled.
MinCostFlow freshEquivalent(const MinCostFlow& mutated,
                            const std::vector<Edge>& edges) {
  MinCostFlow fresh(mutated.nodeCount());
  for (std::size_t e = 0; e < edges.size(); ++e) {
    const std::int64_t cap = mutated.nodeDisabled(edges[e].u) ||
                                     mutated.nodeDisabled(edges[e].v)
                                 ? 0
                                 : mutated.capacityOf(e);
    fresh.addEdge(edges[e].u, edges[e].v, cap, edges[e].cost);
  }
  return fresh;
}

void expectSameSolve(MinCostFlow& mutated, MinCostFlow& fresh,
                     std::size_t edgeCount, std::size_t s, std::size_t t,
                     const char* context) {
  const MinCostFlow::Result warm = mutated.rerun(s, t);
  const MinCostFlow::Result cold = fresh.run(s, t);
  EXPECT_EQ(warm.flow, cold.flow) << context;
  EXPECT_EQ(warm.cost, cold.cost) << context;
  for (std::size_t e = 0; e < edgeCount; ++e)
    EXPECT_EQ(mutated.flowOn(e), fresh.flowOn(e)) << context << " edge " << e;
}

class IncrementalEdits : public ::testing::TestWithParam<int> {};

TEST_P(IncrementalEdits, RandomEditSequenceMatchesFreshSolver) {
  std::mt19937 rng(static_cast<std::uint32_t>(GetParam()) * 7919u + 13u);
  const std::size_t nodes = 6 + rng() % 6;
  const std::vector<Edge> edges = makeEdges(rng, nodes);
  const std::size_t s = 0, t = nodes - 1;

  MinCostFlow solver(nodes);
  for (const Edge& e : edges) solver.addEdge(e.u, e.v, e.cap, e.cost);
  solver.run(s, t);  // leave flow in the network before the first edit

  for (int step = 0; step < 12; ++step) {
    switch (rng() % 4) {
      case 0: {  // capacity change (grow or shrink, possibly to zero)
        const std::size_t e = rng() % edges.size();
        solver.setCapacity(e, static_cast<std::int64_t>(rng() % 5));
        break;
      }
      case 1: {  // disable an interior node
        const std::size_t n = 1 + rng() % (nodes - 2);
        solver.disableNode(n);
        break;
      }
      case 2: {  // re-enable an interior node
        const std::size_t n = 1 + rng() % (nodes - 2);
        solver.enableNode(n);
        break;
      }
      default: {  // cancel flow crossing a random edge
        const std::size_t e = rng() % edges.size();
        solver.cancelFlowThrough(e);
        break;
      }
    }
    MinCostFlow fresh = freshEquivalent(solver, edges);
    expectSameSolve(solver, fresh, edges.size(), s, t,
                    ("step " + std::to_string(step)).c_str());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalEdits, ::testing::Range(0, 25));

TEST(IncrementalFlow, CancelRestoresConservationAndFlowValue) {
  // Diamond: s -> a -> t and s -> b -> t, both unit paths.
  MinCostFlow f(4);
  const std::size_t sa = f.addEdge(0, 1, 1, 1);
  const std::size_t at = f.addEdge(1, 3, 1, 1);
  const std::size_t sb = f.addEdge(0, 2, 1, 2);
  const std::size_t bt = f.addEdge(2, 3, 1, 2);
  const auto r = f.run(0, 3);
  EXPECT_EQ(r.flow, 2);
  EXPECT_EQ(f.totalFlowUnits(), 2);

  // Cancelling through a->t removes exactly the s->a->t unit.
  EXPECT_EQ(f.cancelFlowThrough(at), 1);
  EXPECT_EQ(f.totalFlowUnits(), 1);
  EXPECT_EQ(f.flowOn(sa), 0);
  EXPECT_EQ(f.flowOn(at), 0);
  EXPECT_EQ(f.flowOn(sb), 1);
  EXPECT_EQ(f.flowOn(bt), 1);

  // Cancelling through node b removes the other unit.
  EXPECT_EQ(f.cancelFlowThroughNode(2), 1);
  EXPECT_EQ(f.totalFlowUnits(), 0);
  for (const std::size_t e : {sa, at, sb, bt}) EXPECT_EQ(f.flowOn(e), 0);
}

TEST(IncrementalFlow, DisabledNodeCarriesNoFlowUntilReenabled) {
  MinCostFlow f(4);
  f.addEdge(0, 1, 1, 1);
  f.addEdge(1, 3, 1, 1);
  f.addEdge(0, 2, 1, 5);
  f.addEdge(2, 3, 1, 5);
  EXPECT_EQ(f.run(0, 3).flow, 2);

  f.disableNode(1);
  EXPECT_EQ(f.totalFlowUnits(), 1);  // the unit through node 1 is cancelled
  EXPECT_TRUE(f.nodeDisabled(1));
  EXPECT_EQ(f.flowOn(0), 0);
  EXPECT_EQ(f.rerun(0, 3).flow, 1);  // only the expensive path remains

  f.enableNode(1);
  EXPECT_FALSE(f.nodeDisabled(1));
  const auto r = f.rerun(0, 3);
  EXPECT_EQ(r.flow, 2);
  EXPECT_EQ(r.cost, 12);
}

TEST(IncrementalFlow, OverlayEdgesBehaveLikePreBuildEdges) {
  // Build a frozen base, add per-round edges post-freeze, and compare
  // against a fresh solver that received every edge before its build.
  std::mt19937 rng(42);
  for (int round = 0; round < 10; ++round) {
    const std::size_t nodes = 6 + rng() % 4;
    const std::vector<Edge> base = makeEdges(rng, nodes);
    MinCostFlow warm(nodes);
    for (const Edge& e : base) warm.addEdge(e.u, e.v, e.cap, e.cost);
    warm.freeze();

    std::vector<Edge> all = base;
    for (int extra = 0; extra < 4; ++extra) {
      const std::size_t u = rng() % nodes;
      const std::size_t v = u == nodes - 1 ? 0 : u + 1;
      const Edge e{u, v, static_cast<std::int64_t>(1 + rng() % 3),
                   static_cast<std::int64_t>(rng() % 6)};
      warm.addEdge(e.u, e.v, e.cap, e.cost);
      all.push_back(e);
    }

    MinCostFlow cold(nodes);
    for (const Edge& e : all) cold.addEdge(e.u, e.v, e.cap, e.cost);
    expectSameSolve(warm, cold, all.size(), 0, nodes - 1, "overlay round");
  }
}

TEST(IncrementalFlow, TruncateEdgesDropsPerRoundSuffix) {
  MinCostFlow f(4);
  f.addEdge(0, 1, 1, 1);
  f.addEdge(1, 3, 1, 1);
  const std::size_t persistent = f.edgeCount();
  f.freeze();

  for (int round = 0; round < 5; ++round) {
    // Per-round edges: a second parallel path through node 2.
    f.addEdge(0, 2, 1, 0);
    f.addEdge(2, 3, 1, 0);
    EXPECT_EQ(f.rerun(0, 3).flow, 2);
    f.resetFlow();
    f.truncateEdges(persistent);
    EXPECT_EQ(f.edgeCount(), persistent);
    // Without the per-round edges only the persistent path remains.
    EXPECT_EQ(f.rerun(0, 3).flow, 1);
  }
}

}  // namespace
}  // namespace pacor::graph

namespace pacor {
namespace {

/// Stages 1-3 of routeChip (clustering, LM cluster routing, MST routing)
/// on a fresh obstacle map, ready for the escape stage.
std::vector<core::WorkCluster> routeToEscape(const chip::Chip& chip,
                                             grid::ObstacleMap& obstacles) {
  grid::NetId nextNet = 0;
  std::vector<core::WorkCluster> clusters;
  for (core::ClusterSpec& spec : core::clusterValves(chip)) {
    core::WorkCluster wc;
    wc.spec = std::move(spec);
    wc.net = nextNet++;
    for (const chip::ValveId v : wc.spec.valves) {
      const geom::Point cell = chip.valve(v).pos;
      obstacles.occupy(std::span<const geom::Point>(&cell, 1), wc.net);
    }
    clusters.push_back(std::move(wc));
  }
  std::vector<core::WorkCluster*> lm;
  for (core::WorkCluster& wc : clusters)
    if (wc.wantsMatching() && wc.spec.valves.size() >= 2 && !wc.internallyRouted)
      lm.push_back(&wc);
  core::routeLengthMatchingClusters(chip, core::pacorDefaultConfig(), obstacles, lm);
  return core::routeClustersStage(chip, obstacles, std::move(clusters),
                                  [&nextNet] { return nextNet++; });
}

/// Releases every escape path and pin, plus the tree of cluster `victim`
/// (which leaves that cluster unrouted and out of the next escape round).
void ripUp(grid::ObstacleMap& obstacles, std::vector<core::WorkCluster>& clusters,
           const chip::Chip& chip, std::size_t victim) {
  for (core::WorkCluster& wc : clusters) {
    if (wc.escapePath.size() > 1)
      obstacles.releasePath(std::span<const geom::Point>(wc.escapePath.data() + 1,
                                                         wc.escapePath.size() - 1),
                            wc.net);
    wc.escapePath.clear();
    wc.pin = -1;
  }
  core::WorkCluster& wc = clusters[victim];
  obstacles.release(wc.net);
  for (const chip::ValveId v : wc.spec.valves) {
    const geom::Point cell = chip.valve(v).pos;
    obstacles.occupy(std::span<const geom::Point>(&cell, 1), wc.net);
  }
  wc.internallyRouted = false;
  wc.treePaths.clear();
  wc.tapCells.clear();
}

std::vector<core::WorkCluster*> pointersTo(std::vector<core::WorkCluster>& clusters) {
  std::vector<core::WorkCluster*> ptrs;
  for (core::WorkCluster& wc : clusters) ptrs.push_back(&wc);
  return ptrs;
}

/// The pipeline's only escape path is the persistent EscapeFlowSession;
/// escapeRoute() builds the same network from scratch and is the
/// reference. Replayed on one post-routing state, both must escape every
/// cluster identically -- on the cold first round and on a warm second
/// round after the same rip-up, which frees one tree's cells, drops that
/// cluster from the round, and re-opens every released pin.
TEST(IncrementalEscape, StagedReplayMatchesEscapeRoute) {
  for (const std::uint32_t seed : {2u, 5u}) {
    SCOPED_TRACE("stress seed " + std::to_string(seed));
    const chip::Chip chip = chip::generateChip(chip::stressParams(seed));
    grid::ObstacleMap sessionMap = core::makeRoutingObstacleTemplate(chip);
    std::vector<core::WorkCluster> sessionClusters = routeToEscape(chip, sessionMap);
    grid::ObstacleMap scratchMap = sessionMap;
    std::vector<core::WorkCluster> scratchClusters = sessionClusters;

    std::size_t victim = 0;
    while (victim < sessionClusters.size() &&
           !(sessionClusters[victim].spec.valves.size() >= 2 &&
             sessionClusters[victim].internallyRouted))
      ++victim;
    ASSERT_LT(victim, sessionClusters.size()) << "no routed multi-valve cluster";

    core::EscapeFlowSession session(chip, sessionMap);
    for (int round = 1; round <= 2; ++round) {
      SCOPED_TRACE("round " + std::to_string(round));
      if (round == 2) {
        ripUp(sessionMap, sessionClusters, chip, victim);
        ripUp(scratchMap, scratchClusters, chip, victim);
      }
      std::vector<core::WorkCluster*> sessionPtrs = pointersTo(sessionClusters);
      std::vector<core::WorkCluster*> scratchPtrs = pointersTo(scratchClusters);
      const core::EscapeOutcome warm = session.route(sessionPtrs);
      const core::EscapeOutcome cold = core::escapeRoute(chip, scratchMap, scratchPtrs);
      EXPECT_GT(warm.requested, 0);
      EXPECT_EQ(warm.requested, cold.requested);
      EXPECT_EQ(warm.routedCount, cold.routedCount);
      EXPECT_EQ(warm.flowCost, cold.flowCost);
      for (std::size_t i = 0; i < sessionClusters.size(); ++i) {
        EXPECT_EQ(sessionClusters[i].pin, scratchClusters[i].pin) << "cluster " << i;
        EXPECT_EQ(sessionClusters[i].escapePath, scratchClusters[i].escapePath)
            << "cluster " << i;
      }
    }
    EXPECT_GT(session.stats().warmRounds, 0);
    EXPECT_GT(session.stats().warmDeltaCells, 0);
  }
}

}  // namespace
}  // namespace pacor
