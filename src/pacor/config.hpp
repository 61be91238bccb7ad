#pragma once

#include <cstdint>

#include "dme/candidate_tree.hpp"
#include "route/negotiation.hpp"

namespace pacor::core {

/// When the length-matching detour stage runs (paper Table 2 variants):
/// kFinal is the full PACOR flow (detour after escape routing); kAfter-
/// ClusterRouting is the "Detour First" self-comparison baseline.
enum class DetourStage {
  kFinal,
  kAfterClusterRouting,
};

/// Escape-routing solver choice: the paper's simultaneous min-cost flow,
/// or the greedy sequential baseline it replaces (ablation only).
enum class EscapeMode {
  kMinCostFlow,
  kSequential,
};

/// Full configuration of the PACOR flow with the paper's defaults.
struct PacorConfig {
  /// Candidate Steiner trees per length-matching cluster (Sec. 4.1).
  dme::CandidateOptions candidates;

  /// Weight of the length-mismatch cost versus the overlap cost in the
  /// selection objective (Eqs. 2-3); the paper uses 0.1, prioritizing
  /// routability over pre-routing mismatch.
  double lambda = 0.1;

  /// Enables the MWCP-based candidate tree selection (Sec. 4.2). Disabled
  /// = the "w/o Sel" baseline (first candidate per cluster).
  bool useSelection = true;

  /// Exact selection is used up to this candidate count; larger instances
  /// fall back to greedy + local search (the ILP-scale escape hatch).
  std::size_t exactSelectionLimit = 400;

  /// Negotiation-based routing parameters (Alg. 1; bg = 1, alpha = 0.1,
  /// gamma = 10).
  route::NegotiationConfig negotiation;

  /// Detour iteration threshold theta of Alg. 2.
  int detourIterations = 10;

  /// Use the minimum-length bounded A* for detouring (Sec. 6); disabled,
  /// the detour stage falls back to serpentine bump insertion only (the
  /// ablation in bench_delta_sweep quantifies the difference).
  bool useBoundedDetour = true;

  DetourStage detourStage = DetourStage::kFinal;

  /// De-clustering / rip-up rounds of the escape stage (Fig. 2 loop).
  int maxEscapeRounds = 5;

  /// Escape solver (kSequential is the ablation baseline of Sec. 5).
  EscapeMode escapeMode = EscapeMode::kMinCostFlow;

  /// Matching-driven rip-up passes: when a constrained cluster routes but
  /// cannot be equalized (its escape anchored at a leaf because a plain
  /// tree walls it in), relax the nearest plain blocker and redo the
  /// escape + detour stages. 0 disables the feedback.
  int matchingRetries = 1;

  /// Ring-search cap when legalizing DME merging nodes.
  int legalizeRadius = 64;
};

}  // namespace pacor::core
