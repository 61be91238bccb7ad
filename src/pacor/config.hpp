#pragma once

namespace pacor::core {

/// When the length-matching detour stage runs (paper Table 2 variants):
/// kFinal is the full PACOR flow (detour after escape routing); kAfter-
/// ClusterRouting is the "Detour First" self-comparison baseline.
enum class DetourStage {
  kFinal,
  kAfterClusterRouting,
};

/// The settings of the PACOR flow that callers vary, with the paper's
/// defaults. Every other parameter of the flow is fixed by the paper and
/// lives as a constant in the stage that uses it: the candidate count and
/// legalization radius (dme::buildCandidateTrees), the exact-selection
/// limit (cluster_routing.cpp), Alg. 1's bg/alpha/gamma
/// (route::NegotiationConfig's defaults), and the escape-round count of
/// the Fig. 2 loop (pipeline.cpp).
struct PacorConfig {
  /// Weight of the length-mismatch cost versus the overlap cost in the
  /// selection objective (Eqs. 2-3); the paper uses 0.1, prioritizing
  /// routability over pre-routing mismatch.
  double lambda = 0.1;

  /// Enables the MWCP-based candidate tree selection (Sec. 4.2). Disabled
  /// = the "w/o Sel" baseline (first candidate per cluster).
  bool useSelection = true;

  /// Detour iteration threshold theta of Alg. 2.
  int detourIterations = 10;

  /// Use the minimum-length bounded A* for detouring (Sec. 6); disabled,
  /// the detour stage falls back to serpentine bump insertion only (the
  /// ablation in bench_delta_sweep quantifies the difference).
  bool useBoundedDetour = true;

  DetourStage detourStage = DetourStage::kFinal;
};

}  // namespace pacor::core
