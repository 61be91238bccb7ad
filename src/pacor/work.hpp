#pragma once

#include <vector>

#include "chip/chip.hpp"
#include "grid/obstacle_map.hpp"
#include "pacor/clustering.hpp"
#include "route/path.hpp"

namespace pacor::core {

using geom::Point;

/// Mutable routing state of one cluster as it moves through the stages.
/// Cell ownership in the shared ObstacleMap uses `net` as the id.
struct WorkCluster {
  ClusterSpec spec;
  grid::NetId net = grid::kFreeCell;

  bool internallyRouted = false;
  std::vector<route::Path> treePaths;  ///< intra-cluster channels

  /// Escape tap: DME root for length-matching trees, middle point for
  /// two-valve matched pairs, the valve itself for singletons. Plain
  /// multi-valve clusters may escape from any tree cell (tapCells).
  /// `tap` tracks the current structure root (rebuilt after wide-tap
  /// escapes).
  Point tap;
  std::vector<Point> tapCells;

  /// Length-matching structure: per valve (same order as spec.valves) the
  /// tree-path indices from its leaf edge up to the root — the paper's
  /// path sequence (Def. 6), consumed by the detour stage.
  std::vector<std::vector<int>> sinkSequences;
  bool lmStructured = false;

  route::Path escapePath;  ///< tap ... pin (set by the escape stage)
  chip::PinId pin = -1;

  /// Escape-stage fallback for matched trees whose root is walled in:
  /// allow the escape to attach anywhere on the tree (the final detour
  /// stage re-equalizes pin-to-valve lengths, so matching is preserved).
  bool wideTap = false;

  bool lengthMatched = false;  ///< set by the detour stage
  bool wasDemoted = false;     ///< LM constraint dropped during the flow

  /// ECO re-routing: this cluster is a survivor carried verbatim from a
  /// previous result. Its geometry, pin, and matching verdict are frozen
  /// -- every rip-up, relax, and detour pass skips it (eco.cpp seeds
  /// these; the fresh pipeline never sets the flag).
  bool ecoFrozen = false;

  bool wantsMatching() const noexcept { return spec.lengthMatched && !wasDemoted; }
};

}  // namespace pacor::core
