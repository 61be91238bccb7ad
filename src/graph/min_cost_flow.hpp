#pragma once

#include <cstdint>
#include <vector>

#include "graph/ssp_core.hpp"

namespace pacor::graph {

/// Min-cost max-flow over an explicit edge list: SspCore's successive
/// shortest paths on a CSR network that is built once, at the first
/// run(), from the edges added before it.
///
/// This replaces the paper's Gurobi LP for the escape-routing formulation
/// (Sec. 5): the constraint matrix there is a network-flow matrix, hence
/// totally unimodular, so the LP optimum is attained at an integral
/// vertex -- which is exactly what this solver computes. Maximizing the
/// routed-path count with the beta-dominant reward term is equivalent to
/// the lexicographic (max flow, then min cost) objective realized by
/// min-cost *max*-flow.
///
/// Arcs live in CSR order: node u's arcs are in edge-insertion order
/// (each edge contributes a forward arc at its tail and a reverse arc at
/// its head), and the Dijkstra-hot fields of an arc share one 16-byte
/// record so scanning a node is a single stream. escapeRoute() builds its
/// network here from scratch every call; it is the reference the escape
/// session's implicit grid network is tested against.
class MinCostFlow : public SspCore {
 public:
  explicit MinCostFlow(std::size_t nodeCount) : SspCore(nodeCount) {}

  /// Adds a directed edge u -> v with a non-negative cost of at most
  /// INT32_MAX. Returns an edge id (dense, in insertion order) usable with
  /// flowOn()/residual(). All edges must be added before the first run().
  std::size_t addEdge(std::size_t u, std::size_t v, std::int64_t capacity,
                      std::int64_t cost);

  /// Sends up to `maxFlow` units from s to t along successively cheapest
  /// augmenting paths. May be called repeatedly; flow accumulates.
  Result run(std::size_t s, std::size_t t,
             std::int64_t maxFlow = std::int64_t{1} << 60);

  /// Flow currently on edge `edgeId` (as returned by addEdge).
  std::int64_t flowOn(std::size_t edgeId) const;

  /// Residual capacity of edge `edgeId`.
  std::int64_t residual(std::size_t edgeId) const;

 private:
  struct Edge {
    std::int32_t from;
    std::int32_t to;
    std::int64_t capacity;
    std::int32_t cost;
  };
  std::vector<Edge> edges_;
  std::vector<std::int32_t> arcPos_;  ///< arc 2e / 2e+1 (edge e fwd / rev) -> CSR position

  /// The network SspCore::solve() runs on; arc handles are CSR positions.
  struct Csr {
    struct Arc {
      std::int64_t cap;  ///< residual capacity
      std::int32_t to;
      std::int32_t cost;
    };
    static_assert(sizeof(Arc) == 16);
    std::vector<std::size_t> start;  ///< node u's arcs: [start[u], start[u+1])
    std::vector<Arc> arc;
    std::vector<std::int32_t> rev;   ///< CSR position of the reverse arc

    template <class Prefetch, class Relax>
    void scan(std::size_t u, Prefetch&& prefetch, Relax&& relax) const {
      const std::size_t end = start[u + 1];
      for (std::size_t k = start[u]; k < end; ++k) {
        // The relax loop is bound by the random node-state load; hide it
        // behind the current iteration by prefetching the next arc's head.
        // Zero-cap arcs (unused reverse residuals, about half the CSR) are
        // skipped below and not worth the prefetch bandwidth.
        if (k + 1 < end && arc[k + 1].cap > 0)
          prefetch(static_cast<std::size_t>(arc[k + 1].to));
        if (arc[k].cap > 0)
          relax(static_cast<std::size_t>(arc[k].to), std::int64_t{arc[k].cost},
                static_cast<std::int64_t>(k));
      }
    }
    std::size_t tail(std::int64_t k) const {
      return static_cast<std::size_t>(arc[static_cast<std::size_t>(rev[k])].to);
    }
    std::int64_t residual(std::int64_t k) const { return arc[k].cap; }
    std::int64_t augment(std::int64_t k, std::int64_t units) {
      arc[k].cap -= units;
      arc[static_cast<std::size_t>(rev[k])].cap += units;
      return arc[k].cost;
    }
    /// Residual capacity into t: the reverses of t's own arcs.
    std::int64_t sinkCapacity(std::size_t t) const {
      std::int64_t cap = 0;
      for (std::size_t k = start[t]; k < start[t + 1]; ++k)
        cap += arc[static_cast<std::size_t>(rev[k])].cap;
      return cap;
    }
  };
  Csr csr_;
  bool built_ = false;
};

}  // namespace pacor::graph
