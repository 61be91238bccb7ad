#include "chip/chip.hpp"

#include <sstream>
#include <unordered_set>

namespace pacor::chip {

grid::ObstacleMap Chip::makeObstacleMap() const {
  grid::ObstacleMap map(routingGrid);
  for (const Point p : obstacles) map.addObstacle(p);
  return map;
}

std::optional<std::string> Chip::validate() const {
  std::ostringstream err;
  if (routingGrid.width() <= 0 || routingGrid.height() <= 0)
    return "routing grid has non-positive dimensions";
  if (!rules.valid()) return "design rules invalid";
  if (delta < 0) return "delta must be non-negative";

  std::unordered_set<Point> usedCells;
  for (std::size_t i = 0; i < valves.size(); ++i) {
    const Valve& v = valves[i];
    if (v.id != static_cast<ValveId>(i)) {
      err << "valve ids must be dense 0..n-1; slot " << i << " has id " << v.id;
      return err.str();
    }
    if (!routingGrid.inBounds(v.pos)) {
      err << "valve " << v.id << " at " << v.pos.str() << " out of bounds";
      return err.str();
    }
    if (!usedCells.insert(v.pos).second) {
      err << "valve " << v.id << " overlaps another valve at " << v.pos.str();
      return err.str();
    }
    if (!valves.empty() && v.sequence.length() != valves.front().sequence.length()) {
      err << "valve " << v.id << " has sequence length " << v.sequence.length()
          << " != " << valves.front().sequence.length();
      return err.str();
    }
  }
  for (std::size_t i = 0; i < pins.size(); ++i) {
    const ControlPin& p = pins[i];
    if (p.id != static_cast<PinId>(i)) {
      err << "pin ids must be dense 0..n-1; slot " << i << " has id " << p.id;
      return err.str();
    }
    if (!routingGrid.onBoundary(p.pos)) {
      err << "pin " << p.id << " at " << p.pos.str() << " is not on the chip boundary";
      return err.str();
    }
    if (!usedCells.insert(p.pos).second) {
      err << "pin " << p.id << " overlaps a valve or pin at " << p.pos.str();
      return err.str();
    }
  }
  for (const Point o : obstacles) {
    if (!routingGrid.inBounds(o)) {
      err << "obstacle at " << o.str() << " out of bounds";
      return err.str();
    }
    if (usedCells.count(o)) {
      err << "obstacle at " << o.str() << " overlaps a valve or pin";
      return err.str();
    }
  }

  std::vector<int> clusterOf(valves.size(), -1);
  for (std::size_t c = 0; c < givenClusters.size(); ++c) {
    const ValveCluster& cluster = givenClusters[c];
    if (cluster.valves.size() < 2) {
      err << "given cluster " << c << " has fewer than 2 valves";
      return err.str();
    }
    for (const ValveId v : cluster.valves) {
      if (v < 0 || static_cast<std::size_t>(v) >= valves.size()) {
        err << "given cluster " << c << " references unknown valve " << v;
        return err.str();
      }
      if (clusterOf[static_cast<std::size_t>(v)] != -1) {
        err << "valve " << v << " appears in two given clusters";
        return err.str();
      }
      clusterOf[static_cast<std::size_t>(v)] = static_cast<int>(c);
    }
    // Length-matching must conform with compatibility (paper Sec. 2 note).
    for (std::size_t i = 0; i < cluster.valves.size(); ++i)
      for (std::size_t j = i + 1; j < cluster.valves.size(); ++j) {
        const Valve& a = valve(cluster.valves[i]);
        const Valve& b = valve(cluster.valves[j]);
        if (!a.sequence.compatibleWith(b.sequence)) {
          err << "given cluster " << c << " contains incompatible valves " << a.id
              << " and " << b.id;
          return err.str();
        }
      }
  }
  return std::nullopt;
}

}  // namespace pacor::chip
