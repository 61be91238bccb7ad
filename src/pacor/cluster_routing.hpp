#pragma once

#include <span>
#include <vector>

#include "grid/obstacle_map.hpp"
#include "pacor/config.hpp"
#include "pacor/work.hpp"

namespace pacor::core {

/// Outcome counters of the length-matching cluster routing stage.
struct LmRoutingStats {
  int dmeClusters = 0;        ///< clusters routed through DME (>= 3 valves)
  int pairClusters = 0;       ///< two-valve direct-edge clusters
  int candidatesBuilt = 0;    ///< total candidate Steiner trees
  int demoted = 0;            ///< clusters that lost the constraint here
  bool selectionExact = true; ///< exact MWCP optimum (vs heuristic)
  double selectionObjective = 0.0;
  int negotiationIterations = 0;
};

/// Length-matching aware cluster routing (paper Sec. 4): builds candidate
/// Steiner trees per constraint cluster (DME for >= 3 valves, the direct
/// edge for pairs), selects one candidate per cluster by the MWCP
/// formulation (Eqs. 2-4), and routes all selected tree edges with
/// negotiation-based routing (Alg. 1). Successful clusters are committed
/// into `obstacles` (net = cluster net) with their detour structure
/// (sink sequences, tap) filled in; clusters whose edges could not be
/// routed are demoted (wasDemoted = true) for MST-based routing.
LmRoutingStats routeLengthMatchingClusters(const chip::Chip& chip,
                                           const PacorConfig& config,
                                           grid::ObstacleMap& obstacles,
                                           std::span<WorkCluster*> clusters);

}  // namespace pacor::core
