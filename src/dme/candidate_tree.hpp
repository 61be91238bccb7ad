#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dme/merging.hpp"
#include "dme/topology.hpp"
#include "grid/obstacle_map.hpp"

namespace pacor::dme {

/// One embedded candidate Steiner tree for a cluster (paper Fig. 3): the
/// shared topology plus a concrete merging-node placement per internal
/// node. Different candidates come from different merging-node choices on
/// the merging segments; each satisfies the length-matching target up to
/// grid rounding and obstacle-avoidance displacement, which the final
/// detour stage equalizes.
struct DmeCandidate {
  Topology topo;
  std::vector<Point> embed;                ///< per topology node, grid coords
  std::vector<std::int64_t> targetHalfLen; ///< per node: target wire to parent
                                           ///< (doubled units; root = 0)
  std::int64_t mismatchEstimate = 0;       ///< Delta-L over full paths (Eq. 1),
                                           ///< embedded Manhattan estimate
  std::int64_t totalEstimatedLength = 0;   ///< sum of embedded edge lengths

  /// (parent, child) topology-node index pairs of all tree edges.
  std::vector<std::pair<int, int>> edges() const;
  /// Per sink: node indices from the leaf up to the root (full path).
  std::vector<std::vector<int>> sinkToRootPaths() const;
};

struct CandidateOptions {
  int count = 5;  ///< candidate trees per cluster
};

/// Builds up to `options.count` candidate trees for the sinks of one
/// cluster: balanced-bipartition topology, one shared bottom-up merge
/// plan, then diversified top-down embeddings (varying root placement and
/// corner preferences) with obstacle-avoiding merging-node search on
/// `obstacles` (cells owned by `net` count as usable). Candidates are
/// deduplicated on their embeddings. Returns an empty vector only when no
/// valid embedding exists inside the grid.
std::vector<DmeCandidate> buildCandidateTrees(const grid::ObstacleMap& obstacles,
                                              grid::NetId net,
                                              std::span<const Point> sinks,
                                              const CandidateOptions& options = {});

}  // namespace pacor::dme
