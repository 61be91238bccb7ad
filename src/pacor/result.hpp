#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "chip/chip.hpp"
#include "route/path.hpp"
#include "route/workspace.hpp"
#include "trace/metrics.hpp"

namespace pacor::core {

/// Final routing state of one cluster (a pin-sharing valve group).
struct RoutedCluster {
  std::vector<chip::ValveId> valves;
  bool lengthMatchRequested = false;  ///< carried the constraint on input
  bool lengthMatched = false;         ///< final lengths within delta
  bool routed = false;                ///< every valve connected to the pin
  chip::PinId pin = -1;

  std::vector<route::Path> treePaths;  ///< intra-cluster channels
  route::Path escapePath;              ///< tap ... pin channel
  geom::Point tap;                     ///< Steiner root / middle point / valve

  /// Channel length from the pin to each valve (same order as `valves`),
  /// measured through the routed cells; -1 when unrouted.
  std::vector<std::int64_t> valveLengths;

  /// Edge count of all channels of this cluster (cells - 1 of the union).
  std::int64_t totalLength = 0;

  /// ECO re-routing provenance: true when this cluster was carried
  /// verbatim from the previous result by rerouteChip (its geometry is
  /// guaranteed byte-equal to the prior run's). Not serialized -- the
  /// canonical solution text is unchanged by ECO bookkeeping.
  bool ecoCarried = false;

  std::int64_t lengthSpread() const;  ///< max - min of valveLengths (0 if unrouted)
};

/// Per-stage wall-clock breakdown (seconds).
struct StageTimes {
  double clustering = 0.0;
  double clusterRouting = 0.0;
  double escape = 0.0;
  double detour = 0.0;
  double total = 0.0;
};

/// Complete result of one PACOR run — everything Table 2 reports, plus
/// the routed geometry for visualization and simulation.
struct PacorResult {
  std::string design;
  std::vector<RoutedCluster> clusters;

  bool complete = false;             ///< 100% routing completion
  int multiValveClusterCount = 0;    ///< Table 2 "#Clusters" (>= 2 valves)
  int matchedClusterCount = 0;       ///< Table 2 "#Matched Clusters"
  std::int64_t matchedChannelLength = 0;  ///< total length of matched clusters
  std::int64_t totalChannelLength = 0;
  StageTimes times;

  int escapeRounds = 0;     ///< de-clustering / rip-up rounds used
  int declusteredCount = 0; ///< clusters split or demoted during rip-up

  // Stage diagnostics (filled by the pipeline).
  int lmCandidatesBuilt = 0;      ///< candidate Steiner trees constructed
  bool selectionExact = true;     ///< MWCP solved to optimality (vs heuristic)
  int negotiationIterations = 0;  ///< Alg. 1 iterations consumed
  int detourReroutes = 0;         ///< successful bounded-length reroutes
  int detourBumpFallbacks = 0;    ///< of which via bump insertion
  int detourIterations = 0;       ///< Alg. 2 outer rounds, summed over clusters
  int detourRestores = 0;         ///< clusters rolled back to their snapshot

  // Escape rip-up remedy decisions across all rounds (incl. retries).
  int escapeWideTapRemedies = 0;  ///< matched trees given a wide tap
  int escapeDemotions = 0;        ///< matched trees demoted to plain
  int escapeSplits = 0;           ///< plain trees force-split in half

  /// Search-kernel effort per stage (A* invocations / settled expansions /
  /// bounded-DFS visits), measured as global-tally deltas around each
  /// stage. The escape figure covers the rip-up rounds' re-routing; the
  /// detour figure includes the matching-driven retry passes.
  route::SearchCounters searchClusterRouting;
  route::SearchCounters searchEscape;
  route::SearchCounters searchDetour;

  /// Every counter above (plus the LM-routing and remedy breakdowns) in
  /// one queryable, deterministically-dumpable registry. Filled by the
  /// pipeline at harvest time; `pacor route --metrics=out.json` and
  /// bench_routing serialize it verbatim.
  trace::MetricsRegistry metrics;
};

}  // namespace pacor::core
