#pragma once

#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "graph/ssp_core.hpp"
#include "grid/obstacle_map.hpp"
#include "pacor/work.hpp"

namespace pacor::core {

/// Outcome of one simultaneous escape-routing pass.
struct EscapeOutcome {
  int requested = 0;
  int routedCount = 0;
  std::vector<std::size_t> failed;  ///< indices into the cluster span
  std::int64_t flowCost = 0;        ///< total channel length of escape paths
  /// Seconds spent building the flow network (for a session round, its
  /// per-round setup) and solving it. Measured unconditionally so the
  /// pipeline can report cumulative flow time as
  /// time.escape_flow_{build,run}_s metrics without a trace session.
  double flowBuildSeconds = 0.0;
  double flowRunSeconds = 0.0;
  /// Solver-effort counters for this pass (Dijkstra passes, augmentations,
  /// queue traffic, ...), surfaced as `escape.flow.*` metrics and the
  /// `search.escape` block of bench_routing.
  graph::SspCore::Counters flowCounters;
};

/// Simultaneous escape routing of all internally-routed clusters to the
/// control pins via the paper's min-cost flow formulation (Sec. 5):
/// routing cells are node-split with unit capacity (constraint 12 -- no
/// crossings), each cluster feeds flow out of its tap cells (constraints
/// 6/10: the Steiner root for matched trees, the middle point for matched
/// pairs, any tree cell for plain clusters), non-pin boundary cells are
/// blocked (constraint 8), and every control pin accepts at most one path.
/// Min-cost max-flow realizes the beta-dominant objective exactly:
/// maximize the routed count, then minimize total channel length.
///
/// Successful clusters get escapePath (tap ... pin) committed into
/// `obstacles` and their pin assigned. Already-escaped clusters (pin >= 0)
/// are left untouched and their pins stay reserved.
///
/// This builds the network from scratch on every call. The pipeline
/// routes through EscapeFlowSession instead; this function is the
/// reference the session is tested against.
EscapeOutcome escapeRoute(const chip::Chip& chip, grid::ObstacleMap& obstacles,
                          std::span<WorkCluster*> clusters);

/// Persistent escape-flow solver that survives across pipeline rip-up
/// rounds and, through RouteResources::escapeSession, across serve
/// requests. It solves the same network as escapeRoute() -- same node
/// ids, arc costs and per-node arc order, hence the same augmenting paths
/// and bit-identical escapes -- but never stores it: every arc between
/// cell nodes (the split arc, four unit steps, the pin arc) is a function
/// of the cell index, so the residual network is a few bits per cell plus
/// each round's supply and tap arcs (see GridNetwork in escape.cpp).
///
/// A round re-reads every cell's occupancy, re-opens the pins no escaped
/// cluster holds, lays down the pending clusters' supply and tap arcs,
/// and solves from zero flow with zeroed potentials on the solver state
/// (labels, open list) kept from earlier rounds.
class EscapeFlowSession {
 public:
  /// Sizes the network for `chip`'s grid and valve count; later rounds
  /// count the cells whose occupancy changed since the previous one.
  EscapeFlowSession(const chip::Chip& chip, grid::ObstacleMap& obstacles);
  ~EscapeFlowSession();

  /// True when this session can serve `chip`: same grid width and
  /// height, identical control pins, and no more valves than the network
  /// was sized for. Callers holding a session across requests
  /// (serve::DesignContext, RouteResources::escapeSession) reset the
  /// session when this turns false -- valve moves and obstacle edits keep
  /// it true, pin or grid edits (a transpose included) do not.
  bool compatibleWith(const chip::Chip& chip) const noexcept;

  /// Re-targets the session at another request's chip + obstacle map
  /// (compatibleWith must hold). The next route() re-reads the new map's
  /// occupancy, exactly as every round does.
  void rebind(const chip::Chip& chip, grid::ObstacleMap& obstacles);

  /// Drop-in replacement for escapeRoute(): one escape pass over the
  /// given clusters against the session's obstacle map.
  EscapeOutcome route(std::span<WorkCluster*> clusters);

  /// Session counters for the `escape.flow.*` metrics.
  struct Stats {
    int coldBuilds = 0;       ///< session constructions (1 per session)
    int rounds = 0;           ///< route() calls served
    int warmRounds = 0;       ///< rounds after the first
    std::int64_t warmDeltaCells = 0;  ///< cells whose occupancy changed, warm rounds
    std::int64_t warmDeltaArcs = 0;   ///< supply and tap arcs laid down, warm rounds
    /// Arcs the session stores: the latest round's supply and tap arcs,
    /// both directions. The grid arcs are implicit.
    std::int64_t storedArcs = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  class GridNetwork;
  const chip::Chip* chip_;
  grid::ObstacleMap* obstacles_;
  std::size_t valveCapacity_;  ///< cluster-node slots in the network
  std::unique_ptr<GridNetwork> net_;
  graph::SspCore solver_;
  std::unordered_map<Point, chip::PinId> pinAt_;
  Stats stats_;
  double ctorSeconds_ = 0.0;  ///< charged to the first round's build time
  bool firstRound_ = true;
};

/// Sequential greedy baseline for the same problem: clusters escape one at
/// a time via multi-target A* to the nearest free pin, each committed path
/// becoming an obstacle for the rest. This is what the paper's min-cost
/// flow formulation replaces -- the greedy order can block later clusters
/// and pick globally suboptimal pins; used by the escape ablation bench.
EscapeOutcome escapeRouteSequential(const chip::Chip& chip,
                                    grid::ObstacleMap& obstacles,
                                    std::span<WorkCluster*> clusters);

}  // namespace pacor::core
