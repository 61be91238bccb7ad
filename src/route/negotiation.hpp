#pragma once

#include <span>
#include <vector>

#include "grid/obstacle_map.hpp"
#include "route/path.hpp"

namespace pacor::route {

/// One tree edge to route: connect terminal set `a` to terminal set `b`.
/// Edges of the same `group` (one Steiner tree / cluster) may share
/// terminal cells (merging nodes); everything else must be cell-disjoint.
struct NegotiationEdge {
  std::vector<Point> a;
  std::vector<Point> b;
  int group = 0;
};

/// Parameters of Algorithm 1 (paper defaults: bg = 1.0, alpha = 0.1,
/// gamma = 10). Each failed iteration updates the history cost of every
/// cell on a routed path as Ch_{r+1} = bg + alpha * Ch_r (Eq. 5), rips all
/// paths up, and retries; cells with high history are avoided unless no
/// alternative exists — the PathFinder negotiation idea applied to
/// detailed routing.
struct NegotiationConfig {
  double baseHistoryCost = 1.0;  ///< bg in Eq. 5
  double alpha = 0.1;            ///< history carry-over in Eq. 5
  int maxIterations = 10;        ///< gamma
};

struct NegotiationResult {
  bool success = false;          ///< all edges routed in the final iteration
  std::vector<Path> paths;       ///< per input edge; empty when that edge failed
  std::vector<bool> routed;      ///< per input edge
  int iterations = 0;            ///< iterations consumed
};

/// Iterative negotiation-based detailed routing (Algorithm 1) of a set of
/// tree edges on top of `obstacles` (static blockages + already-routed
/// nets; not modified — the caller commits successful paths itself).
NegotiationResult negotiatedRoute(const grid::ObstacleMap& obstacles,
                                  std::span<const NegotiationEdge> edges,
                                  const NegotiationConfig& config = {});

}  // namespace pacor::route
