#include "graph/min_cost_flow.hpp"

#include <cassert>
#include <limits>

namespace pacor::graph {

std::size_t MinCostFlow::addEdge(std::size_t u, std::size_t v, std::int64_t capacity,
                                 std::int64_t cost) {
  assert(!built_ && "edges must be added before the first run()");
  assert(u < nodeCount() && v < nodeCount());
  assert(capacity >= 0 && cost >= 0);
  assert(cost <= std::numeric_limits<std::int32_t>::max());
  edges_.push_back({static_cast<std::int32_t>(u), static_cast<std::int32_t>(v), capacity,
                    static_cast<std::int32_t>(cost)});
  return edges_.size() - 1;
}

MinCostFlow::Result MinCostFlow::run(std::size_t s, std::size_t t, std::int64_t maxFlow) {
  if (!built_) {
    built_ = true;
    // Counting sort of arc ids by tail node: per-node arcs end up in
    // increasing arc id = edge insertion order.
    const std::size_t arcs = 2 * edges_.size();
    const auto tailOf = [&](std::size_t a) {
      const Edge& e = edges_[a >> 1];
      return static_cast<std::size_t>((a & 1) != 0 ? e.to : e.from);
    };
    csr_.start.assign(nodeCount() + 1, 0);
    for (std::size_t a = 0; a < arcs; ++a) ++csr_.start[tailOf(a) + 1];
    for (std::size_t u = 0; u < nodeCount(); ++u) csr_.start[u + 1] += csr_.start[u];
    std::vector<std::size_t> fill(csr_.start.begin(), csr_.start.end() - 1);
    arcPos_.resize(arcs);
    for (std::size_t a = 0; a < arcs; ++a)
      arcPos_[a] = static_cast<std::int32_t>(fill[tailOf(a)]++);
    csr_.arc.resize(arcs);
    csr_.rev.resize(arcs);
    for (std::size_t a = 0; a < arcs; ++a) {
      const Edge& e = edges_[a >> 1];
      const auto k = static_cast<std::size_t>(arcPos_[a]);
      csr_.arc[k] = (a & 1) != 0 ? Csr::Arc{0, e.from, -e.cost}
                                 : Csr::Arc{e.capacity, e.to, e.cost};
      csr_.rev[k] = arcPos_[a ^ 1];
    }
  }
  return solve(csr_, s, t, maxFlow);
}

std::int64_t MinCostFlow::flowOn(std::size_t edgeId) const {
  return built_ ? csr_.arc[static_cast<std::size_t>(arcPos_[2 * edgeId + 1])].cap : 0;
}

std::int64_t MinCostFlow::residual(std::size_t edgeId) const {
  return built_ ? csr_.arc[static_cast<std::size_t>(arcPos_[2 * edgeId])].cap
                : edges_[edgeId].capacity;
}

}  // namespace pacor::graph
