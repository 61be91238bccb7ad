#pragma once

#include <functional>
#include <vector>

#include "grid/obstacle_map.hpp"
#include "pacor/work.hpp"

namespace pacor::core {

/// Routes one plain (no length-matching) cluster as a routed spanning
/// tree: iterated multi-source / multi-target A* grows the connected
/// component valve by valve, the detailed-routing analogue of sequential
/// MST edge routing with point-to-path search (paper Sec. 3, "MST-based
/// cluster routing"). On success the channels are committed to
/// `obstacles` under wc.net, tapCells covers the whole tree, and
/// wc.internallyRouted is set. On failure every cell of the cluster
/// (including partial paths) is released and false is returned.
bool routePlainCluster(const chip::Chip& chip, grid::ObstacleMap& obstacles,
                       WorkCluster& wc);

/// De-clustering (paper Fig. 2): releases a multi-valve cluster's net,
/// median-splits its valves along the axis of larger spread into two
/// plain halves with fresh nets from `allocateNet`, occupies both halves'
/// valve cells, and only then routes each half with
/// routeWithDeclustering, so no half's tree crosses the other's valves.
/// A cluster of fewer than two valves is returned unchanged and not
/// counted. The escape rip-up rounds call it directly to break up a
/// routed tree that walls in other escapes.
std::vector<WorkCluster> splitCluster(const chip::Chip& chip, grid::ObstacleMap& obstacles,
                                      WorkCluster wc,
                                      const std::function<grid::NetId()>& allocateNet,
                                      int* declusterCount);

/// Routes a plain cluster with de-clustering on failure: when the tree
/// cannot be completed, splitCluster halves it and each half is retried
/// recursively, bottoming out at singletons (which need no internal
/// routing). The input cluster is replaced by the returned parts (1 part
/// = no split happened).
std::vector<WorkCluster> routeWithDeclustering(const chip::Chip& chip,
                                               grid::ObstacleMap& obstacles,
                                               WorkCluster wc,
                                               const std::function<grid::NetId()>& allocateNet,
                                               int* declusterCount = nullptr);

/// Stage-3 driver: routes every not-yet-routed cluster of `clusters`
/// (internally routed ones pass through untouched) and returns the final
/// cluster list, with declustered parts expanded in place. Clusters are
/// routed in order, each against the occupancy its predecessors left.
std::vector<WorkCluster> routeClustersStage(const chip::Chip& chip,
                                            grid::ObstacleMap& obstacles,
                                            std::vector<WorkCluster> clusters,
                                            const std::function<grid::NetId()>& allocateNet,
                                            int* declusterCount = nullptr);

}  // namespace pacor::core
