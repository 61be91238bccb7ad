#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "graph/min_cost_flow.hpp"

// Differential and optimality suite for the min-cost-flow solver:
//
//  * Dial buckets (default) vs. the pure packed heap must be BIT-IDENTICAL:
//    same (flow, cost) and the same flow on every edge, because the bucket
//    pop sequence reproduces the heap's (distance, node) comparator order
//    exactly, stale entries included.
//  * The default solver's flow must be min-cost for its value, at full and
//    at bounded demand, which a residual-graph optimality certificate
//    (no negative residual cycle) checks independently of the solver.
//
// Instances are seeded layered DAG-ish networks plus fully random digraphs,
// including seeds whose costs exceed the Dial span so the heap-overflow
// path of the bucket queue is exercised.

namespace pacor::graph {
namespace {

struct Instance {
  std::size_t nodes = 0;
  std::size_t s = 0;
  std::size_t t = 0;
  struct E {
    std::size_t u, v;
    std::int64_t cap, cost;
  };
  std::vector<E> edges;
};

Instance makeInstance(std::uint32_t seed) {
  std::mt19937 rng(seed);
  Instance inst;
  inst.nodes = 6 + rng() % 20;
  inst.s = 0;
  inst.t = inst.nodes - 1;
  const std::size_t m = inst.nodes + rng() % (3 * inst.nodes);
  // Every third seed uses costs far beyond the Dial bucket span (1 << 14)
  // so labels overflow into the packed heap.
  const std::int64_t costRange = seed % 3 == 2 ? 100000 : 9;
  for (std::size_t i = 0; i < m; ++i) {
    const std::size_t u = rng() % inst.nodes;
    std::size_t v = rng() % inst.nodes;
    if (u == v) v = (v + 1) % inst.nodes;
    inst.edges.push_back({u, v, static_cast<std::int64_t>(1 + rng() % 5),
                          static_cast<std::int64_t>(rng() % (costRange + 1))});
  }
  // Guarantee some s-adjacent and t-adjacent arcs so most instances have
  // nonzero max flow.
  inst.edges.push_back({inst.s, 1 + rng() % (inst.nodes - 1),
                        static_cast<std::int64_t>(1 + rng() % 5),
                        static_cast<std::int64_t>(rng() % (costRange + 1))});
  inst.edges.push_back({rng() % (inst.nodes - 1), inst.t,
                        static_cast<std::int64_t>(1 + rng() % 5),
                        static_cast<std::int64_t>(rng() % (costRange + 1))});
  return inst;
}

MinCostFlow buildSolver(const Instance& inst) {
  MinCostFlow flow(inst.nodes);
  for (const auto& e : inst.edges) flow.addEdge(e.u, e.v, e.cap, e.cost);
  return flow;
}

// Bellman-Ford negative-cycle check over the residual graph: a feasible
// flow is min-cost for its value iff no residual negative cycle exists.
bool residualOptimal(const Instance& inst, const MinCostFlow& flow) {
  std::vector<std::tuple<std::size_t, std::size_t, std::int64_t>> arcs;
  for (std::size_t e = 0; e < inst.edges.size(); ++e) {
    if (flow.residual(e) > 0)
      arcs.emplace_back(inst.edges[e].u, inst.edges[e].v, inst.edges[e].cost);
    if (flow.flowOn(e) > 0)
      arcs.emplace_back(inst.edges[e].v, inst.edges[e].u, -inst.edges[e].cost);
  }
  std::vector<std::int64_t> dist(inst.nodes, 0);
  for (std::size_t iter = 0; iter < inst.nodes; ++iter) {
    bool relaxed = false;
    for (const auto& [u, v, w] : arcs) {
      if (dist[u] + w < dist[v]) {
        dist[v] = dist[u] + w;
        relaxed = true;
      }
    }
    if (!relaxed) return true;
  }
  return false;
}

class SolverEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(SolverEquivalence, BucketMatchesHeapBitForBit) {
  bool heapOverflowSeen = false;
  for (int rep = 0; rep < 25; ++rep) {
    const auto seed = static_cast<std::uint32_t>(GetParam() * 1000 + rep);
    const Instance inst = makeInstance(seed);

    MinCostFlow bucket = buildSolver(inst);
    MinCostFlow heap = buildSolver(inst);
    heap.setBucketSpan(0);  // pure heap: every label overflows

    const auto rb = bucket.run(inst.s, inst.t);
    const auto rh = heap.run(inst.s, inst.t);
    ASSERT_EQ(rb.flow, rh.flow) << "seed " << seed;
    ASSERT_EQ(rb.cost, rh.cost) << "seed " << seed;
    for (std::size_t e = 0; e < inst.edges.size(); ++e)
      ASSERT_EQ(bucket.flowOn(e), heap.flowOn(e))
          << "seed " << seed << " edge " << e;
    ASSERT_EQ(heap.counters().bucketPushes, 0u) << "seed " << seed;
    heapOverflowSeen = heapOverflowSeen || bucket.counters().heapPushes > 0;
  }
  // The large-cost seeds (every third) must exercise the bucket queue's
  // heap-overflow path somewhere in the group; an individual seed may
  // happen to keep every reachable label under the span.
  EXPECT_TRUE(heapOverflowSeen);
}

// Regression: the Dial bucket span was a fixed compile-time 1 << 14, so
// grids whose distance labels exceeded it pushed every long label through
// the overflow heap (correct but slow) with no way to widen the window,
// and small instances paid the full 16K-bucket allocation. The span is
// now configurable; because the overflow heap drains strictly after the
// buckets in comparator order, the settle order -- and therefore the
// routed flow on every edge -- must be bit-identical at ANY span.
TEST_P(SolverEquivalence, BucketSpanDoesNotChangeTheSolution) {
  bool overflowSeen = false;
  bool allInBucketsSeen = false;
  for (int rep = 0; rep < 25; ++rep) {
    const auto seed = static_cast<std::uint32_t>(GetParam() * 1000 + rep);
    const Instance inst = makeInstance(seed);

    MinCostFlow narrow = buildSolver(inst);
    narrow.setBucketSpan(1);  // only distance 0 is bucketed
    ASSERT_EQ(narrow.bucketSpan(), 1);
    MinCostFlow wide = buildSolver(inst);
    wide.setBucketSpan(MinCostFlow::kMaxBucketSpan + 1);  // clamps to the ceiling
    ASSERT_EQ(wide.bucketSpan(), MinCostFlow::kMaxBucketSpan);
    MinCostFlow heap = buildSolver(inst);
    heap.setBucketSpan(0);

    const auto rn = narrow.run(inst.s, inst.t);
    const auto rw = wide.run(inst.s, inst.t);
    const auto rh = heap.run(inst.s, inst.t);
    ASSERT_EQ(rn.flow, rh.flow) << "seed " << seed;
    ASSERT_EQ(rn.cost, rh.cost) << "seed " << seed;
    ASSERT_EQ(rw.flow, rh.flow) << "seed " << seed;
    ASSERT_EQ(rw.cost, rh.cost) << "seed " << seed;
    for (std::size_t e = 0; e < inst.edges.size(); ++e) {
      ASSERT_EQ(narrow.flowOn(e), heap.flowOn(e))
          << "seed " << seed << " edge " << e;
      ASSERT_EQ(wide.flowOn(e), heap.flowOn(e))
          << "seed " << seed << " edge " << e;
    }
    overflowSeen = overflowSeen || narrow.counters().heapPushes > 0;
    // The large-cost seeds overflow even the max span; the small-cost
    // ones must fit entirely inside it.
    if (seed % 3 != 2 && rw.flow > 0)
      allInBucketsSeen = allInBucketsSeen || wide.counters().heapPushes == 0;
  }
  EXPECT_TRUE(overflowSeen);
  EXPECT_TRUE(allInBucketsSeen);
}

TEST(MinCostFlowBucketSpan, RecommendedSpanCoversTheDistanceAndClamps) {
  // Smallest power of two strictly above the expected distance bound.
  EXPECT_EQ(MinCostFlow::recommendedBucketSpan(0), MinCostFlow::kMinBucketSpan);
  EXPECT_EQ(MinCostFlow::recommendedBucketSpan(100), 128);
  EXPECT_EQ(MinCostFlow::recommendedBucketSpan(128), 256);
  EXPECT_EQ(MinCostFlow::recommendedBucketSpan(1 << 25),
            MinCostFlow::kMaxBucketSpan);
}

TEST_P(SolverEquivalence, DefaultSolverIsResidualOptimal) {
  for (int rep = 0; rep < 25; ++rep) {
    const auto seed = static_cast<std::uint32_t>(GetParam() * 1000 + rep);
    const Instance inst = makeInstance(seed);

    MinCostFlow full = buildSolver(inst);
    const auto rc = full.run(inst.s, inst.t);
    ASSERT_TRUE(residualOptimal(inst, full)) << "seed " << seed;

    // Bounded demand: successive shortest paths keep every intermediate
    // flow min-cost for its value, so a capped solve is optimal too.
    if (rc.flow > 1) {
      MinCostFlow part = buildSolver(inst);
      const auto pc = part.run(inst.s, inst.t, rc.flow - 1);
      ASSERT_EQ(pc.flow, rc.flow - 1) << "seed " << seed;
      ASSERT_TRUE(residualOptimal(inst, part)) << "seed " << seed;
    }
  }
}

// 10 groups x 25 reps = 250 seeded networks per differential property.
INSTANTIATE_TEST_SUITE_P(Seeds, SolverEquivalence, ::testing::Range(0, 10));

}  // namespace
}  // namespace pacor::graph
