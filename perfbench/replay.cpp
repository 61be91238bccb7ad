// Per-design tracing shared by every workload's traced run: the staged
// replay of the pipeline's first pass and the per-layer metric table.

#include <span>
#include <string>
#include <vector>

#include "common.hpp"
#include "pacor/cluster_routing.hpp"
#include "pacor/clustering.hpp"
#include "pacor/detour.hpp"
#include "pacor/escape.hpp"
#include "pacor/mst_routing.hpp"
#include "pacor/pipeline.hpp"
#include "serve/serve.hpp"

namespace perfbench {
namespace {

using namespace pacor;

/// The per-layer metrics, each with its unit. Every traced run reports
/// all of them.
const std::vector<std::pair<const char*, const char*>> kLayerMetrics = {
    {"graph.flow_solve_ms", "ms"},
    {"graph.settles", "count"},
    {"graph.dijkstra_passes", "count"},
    {"graph.settles_per_s", "1/s"},
    {"graph.flow_build_ms", "ms"},
    {"graph.persistent_arcs", "count"},
    {"pacor.clustering_ms", "ms"},
    {"pacor.lm_routing_ms", "ms"},
    {"dme.candidates", "count"},
    {"route.negotiation_iterations", "count"},
    {"route.lm_expansions", "count"},
    {"pacor.demoted", "count"},
    {"pacor.mst_routing_ms", "ms"},
    {"pacor.detour_ms", "ms"},
    {"pacor.unattributed_ms", "ms"},
    {"pacor.escape_rounds", "count"},
    {"chip.generate_ms", "ms"},
    {"pacor.template_ms", "ms"},
    {"pacor.route_warm_ms", "ms"},
    {"pacor.encode_ms", "ms"},
    {"pacor.eco_ms", "ms"},
    {"serve.net_ms", "ms"},
    {"serve.queue_wait_p50_ms", "ms"},
    {"serve.queue_wait_tail_ms", "ms"},
    {"serve.protocol_us", "us"},
    {"serve.eco_identity", "count"},
    {"serve.eco_incremental", "count"},
    {"serve.eco_full", "count"},
    {"serve.warm_hit_ratio", "ratio"},
    {"serve.repeat_share", "ratio"},
    {"serve.busy", "count"},
    {"serve.deadline_expired", "count"},
    {"serve.evictions", "count"},
    {"serve.generator_late_ms", "ms"},
    {"trace.route_p50_ms", "ms"},
};

struct Replay {
  int firstRouted = -1;
  std::int64_t firstCost = -1;
  double flowSolveMs = 0.0;
};

/// The pipeline's first pass through its public stages, one span per
/// stage: clustering, LM cluster routing, MST routing, escape-flow network
/// build and solve, then length-matching detours of the escaped clusters.
Replay replayFirstPass(const chip::Chip& chip, grid::ObstacleMap obstacles, SpanLog& log,
                       const std::string& id, int parent, LayerSamples& samples) {
  const core::PacorConfig config;
  std::vector<core::WorkCluster> clusters;
  grid::NetId nextNet = 0;
  Scoped clustering(log, "pacor.clustering", id, parent);
  for (core::ClusterSpec& spec : core::clusterValves(chip)) {
    core::WorkCluster wc;
    wc.spec = std::move(spec);
    wc.net = nextNet++;
    for (const chip::ValveId v : wc.spec.valves) {
      const geom::Point cell = chip.valve(v).pos;
      obstacles.occupy(std::span<const geom::Point>(&cell, 1), wc.net);
    }
    clusters.push_back(std::move(wc));
  }
  samples.add("pacor.clustering_ms", clustering.close());

  Scoped lmRouting(log, "pacor.lm_routing", id, parent);
  std::vector<core::WorkCluster*> lmClusters;
  for (core::WorkCluster& wc : clusters)
    if (wc.wantsMatching() && wc.spec.valves.size() >= 2 && !wc.internallyRouted)
      lmClusters.push_back(&wc);
  core::routeLengthMatchingClusters(chip, config, obstacles, lmClusters);
  samples.add("pacor.lm_routing_ms", lmRouting.close());

  Scoped mstRouting(log, "pacor.mst_routing", id, parent);
  clusters = core::routeClustersStage(chip, obstacles, std::move(clusters),
                                      [&nextNet] { return nextNet++; });
  samples.add("pacor.mst_routing_ms", mstRouting.close());

  std::vector<core::WorkCluster*> all;
  for (core::WorkCluster& wc : clusters) all.push_back(&wc);
  Scoped flowBuild(log, "graph.flow_build", id, parent);
  core::EscapeFlowSession session(chip, obstacles);
  samples.add("graph.flow_build_ms", flowBuild.close());
  Scoped flowSolve(log, "graph.flow_solve", id, parent);
  const core::EscapeOutcome outcome = session.route(all);
  const double flowSolveMs = flowSolve.close();
  samples.add("graph.flow_solve_ms", flowSolveMs);

  Scoped detour(log, "pacor.detour", id, parent);
  for (core::WorkCluster& wc : clusters) {
    if (!wc.lmStructured || wc.pin < 0) continue;
    if (!wc.escapePath.empty() && wc.escapePath.front() != wc.tap)
      core::rebuildDetourStructure(chip, wc);
    core::detourClusterForMatching(chip, obstacles, wc, chip.pin(wc.pin).pos, chip.delta,
                                   config.detourIterations);
  }
  samples.add("pacor.detour_ms", detour.close());
  return {outcome.routedCount, outcome.flowCost, flowSolveMs};
}

}  // namespace

void LayerSamples::report(Report& report) const {
  for (const auto& [name, unit] : kLayerMetrics) {
    const auto it = values_.find(name);
    report.add(name, it == values_.end() ? 0.0 : median(it->second), unit);
  }
}

TracedDesign traceDesign(const std::string& spec, SpanLog& log, LayerSamples& samples,
                         Report& report) {
  Scoped root(log, "design", spec);
  Scoped generate(log, "chip.generate", spec, root.id());
  const chip::Chip chip = serve::loadDesign(spec);
  samples.add("chip.generate_ms", generate.close());
  Scoped makeTemplate(log, "pacor.template", spec, root.id());
  grid::ObstacleMap obstacles = core::makeRoutingObstacleTemplate(chip);
  const double templateMs = makeTemplate.close();
  samples.add("pacor.template_ms", templateMs);

  Scoped replaySpan(log, "replay", spec, root.id());
  const Replay replay =
      replayFirstPass(chip, std::move(obstacles), log, spec, replaySpan.id(), samples);
  const double replayMs = replaySpan.close();

  TracedDesign traced;
  Scoped route(log, "pacor.route", spec, root.id());
  traced.result = core::routeChip(chip);
  traced.routeMs = route.close();
  Scoped encode(log, "pacor.encode", spec, root.id());
  traced.hash = solutionHash(traced.result);
  traced.encodeMs = encode.close();

  const trace::MetricsRegistry& m = traced.result.metrics;
  if (replay.firstRouted != m.getInt("escape.flow.first_routed", -1) ||
      replay.firstCost != m.getInt("escape.flow.first_cost", -1))
    report.miss(spec + ": the staged replay's escape pass (routed " +
                std::to_string(replay.firstRouted) + ", cost " +
                std::to_string(replay.firstCost) + ") differs from routeChip's first pass");

  // routeChip's own counters, read by name so a renamed or removed
  // counter reads 0 instead of breaking the build.
  const auto counter = [&](const char* name, const char* metric) {
    samples.add(name, static_cast<double>(m.getInt(metric, 0)));
  };
  counter("graph.settles", "escape.flow.settles");
  counter("graph.dijkstra_passes", "escape.flow.dijkstra_passes");
  counter("graph.persistent_arcs", "escape.flow.persistent_arcs");
  counter("dme.candidates", "lm.candidates_built");
  counter("route.negotiation_iterations", "lm.negotiation_iterations");
  counter("route.lm_expansions", "search.cluster_routing.expansions");
  counter("pacor.demoted", "lm.demoted");
  counter("pacor.escape_rounds", "escape.rounds");
  // The flow solve of the replay is routeChip's first escape pass; on a
  // one-round route its settles are all of routeChip's.
  samples.add("graph.settles_per_s", static_cast<double>(m.getInt("escape.flow.settles", 0)) /
                                         (replay.flowSolveMs / 1000.0));
  // routeChip time the replayed first pass does not account for: later
  // escape rounds, matching retries, result harvest.
  samples.add("pacor.unattributed_ms", traced.routeMs - templateMs - replayMs);
  return traced;
}

}  // namespace perfbench
