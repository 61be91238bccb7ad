#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "chip/activation.hpp"
#include "chip/design_rules.hpp"
#include "geom/point.hpp"
#include "geom/rect.hpp"
#include "grid/grid.hpp"
#include "grid/obstacle_map.hpp"

namespace pacor::chip {

using geom::Point;

using ValveId = std::int32_t;
using PinId = std::int32_t;

/// A control-layer valve: grid position plus its scheduled activation
/// sequence. Valves driven by one control pin must be pairwise compatible
/// (paper Def. 4 and constraint (ii)).
struct Valve {
  ValveId id = 0;
  Point pos;
  ActivationSequence sequence;
};

/// Candidate control pin position on the chip boundary; a pressure source
/// is attached to each *used* pin.
struct ControlPin {
  PinId id = 0;
  Point pos;
};

/// A set of valves that must share one control pin. When lengthMatched is
/// set, the routed channel lengths from the shared pin to every member
/// must differ by at most the chip's delta (constraint (iii)).
struct ValveCluster {
  std::vector<ValveId> valves;
  bool lengthMatched = false;
};

/// Full control-layer routing instance (paper Sec. 2 "Given").
struct Chip {
  std::string name;
  grid::Grid routingGrid;
  DesignRules rules;
  std::vector<Valve> valves;
  std::vector<ControlPin> pins;
  std::vector<Point> obstacles;             ///< blocked routing cells
  std::vector<ValveCluster> givenClusters;  ///< length-matching clusters M(V)
  std::int64_t delta = 1;                   ///< length-matching threshold (grid units)

  const Valve& valve(ValveId id) const { return valves.at(static_cast<std::size_t>(id)); }
  const ControlPin& pin(PinId id) const { return pins.at(static_cast<std::size_t>(id)); }

  /// Obstacle map seeded with the chip's blocked cells.
  grid::ObstacleMap makeObstacleMap() const;

  /// Structural validation; returns a description of the first problem
  /// found, or nullopt when the instance is well-formed:
  /// ids dense, valves/pins/obstacles in bounds and disjoint, pins on the
  /// boundary, given clusters pairwise compatible with >= 2 members.
  std::optional<std::string> validate() const;
};

}  // namespace pacor::chip
