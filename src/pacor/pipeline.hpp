#pragma once

#include <memory>
#include <vector>

#include "chip/chip.hpp"
#include "grid/obstacle_map.hpp"
#include "pacor/config.hpp"
#include "pacor/result.hpp"
#include "pacor/work.hpp"

namespace pacor::core {

class EscapeFlowSession;

/// Long-lived resources an embedding caller (the serve loop) can supply
/// to routeChip so repeated in-process requests stop re-doing per-call
/// setup. Every field is optional; a default-constructed RouteResources
/// reproduces the self-contained one-shot behavior.
///
/// The routed output is byte-identical (canonical solutionToString text)
/// with or without shared resources -- reusing them only removes setup
/// work, never changes results.
struct RouteResources {
  /// Prebuilt routing obstacle template for this chip, exactly as
  /// makeRoutingObstacleTemplate() returns it. routeChip copies it
  /// instead of re-deriving static obstacles + blocked boundary cells on
  /// every request. Must match the chip's routing grid.
  const grid::ObstacleMap* obstacleTemplate = nullptr;

  /// Slot for a persistent EscapeFlowSession that survives across
  /// requests of one design (the serve loop owns the unique_ptr). When
  /// set, routeChip constructs the session into the slot on first use and
  /// warm-rebinds it afterwards -- resetting it first whenever
  /// EscapeFlowSession::compatibleWith rejects the request's chip (pin or
  /// grid edits). The slot must not be used by two in-flight requests at
  /// once; Server::route arbitrates with a try-lock and falls back to a
  /// request-local session, which is byte-identical either way.
  std::unique_ptr<EscapeFlowSession>* escapeSession = nullptr;
};

/// The initial routing workspace of a chip: static obstacles plus blocked
/// non-pin boundary cells (escape constraint 8 applied globally). This is
/// what routeChip derives on every call when no template is supplied; a
/// long-lived server builds it once per design and passes it through
/// RouteResources.
grid::ObstacleMap makeRoutingObstacleTemplate(const chip::Chip& chip);

/// Runs the full PACOR control-layer routing flow (paper Fig. 2) on a
/// chip instance: valve clustering, length-matching cluster routing (DME
/// candidates, MWCP selection, negotiation), MST-based routing of plain
/// clusters, min-cost-flow escape routing with de-clustering / rip-up
/// rounds, and path detouring for length matching. Throws
/// std::invalid_argument when the chip fails validation.
///
/// Runs entirely on the calling thread. Safe to call from several threads
/// at once: each call owns its routing state, search-effort counters are
/// scoped to the request (not diffed from the process-wide tally), and
/// a shared obstacle template is only read (an escape-session slot is not
/// shareable; see RouteResources::escapeSession).
///
/// `resources` supplies optional long-lived state (see RouteResources for
/// the ownership contract); the default-constructed value reproduces the
/// self-contained one-shot behavior, so `routeChip(chip)` and
/// `routeChip(chip, config)` keep working unchanged.
PacorResult routeChip(const chip::Chip& chip, const PacorConfig& config = {},
                      const RouteResources& resources = {});

/// Convenience configurations for the paper's Table 2 self-comparison.
PacorConfig pacorDefaultConfig();   ///< the full flow
PacorConfig withoutSelectionConfig();  ///< "w/o Sel"
PacorConfig detourFirstConfig();    ///< "Detour First"

namespace detail {

/// Pre-seeded pipeline state for ECO re-routing (eco.cpp): the clustering
/// stage is replaced by a caller-supplied work-cluster set -- frozen
/// survivors carrying their committed geometry plus dirty clusters ready
/// for routing -- over an obstacle map already loaded with the frozen
/// occupancy. Stages 2-5 then run exactly as in routeChip, with every
/// rip-up / relax / detour pass skipping ecoFrozen clusters.
struct PipelineSeed {
  std::vector<WorkCluster> clusters;
  grid::ObstacleMap obstacles;
  grid::NetId nextNet = 0;
  int multiValveClusterCount = 0;
};

/// routeChip with stage 1 replaced by the seed. Internal to the ECO entry
/// point; validation and equivalence guarantees live on core::rerouteChip.
PacorResult routeChipSeeded(const chip::Chip& chip, const PacorConfig& config,
                            const RouteResources& resources, PipelineSeed seed);

}  // namespace detail

}  // namespace pacor::core
