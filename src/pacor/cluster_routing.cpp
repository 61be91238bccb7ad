#include "pacor/cluster_routing.hpp"

#include <algorithm>
#include <optional>

#include "dme/candidate_tree.hpp"
#include "geom/rect.hpp"
#include "graph/selection.hpp"
#include "route/negotiation.hpp"
#include "trace/trace.hpp"

namespace pacor::core {
namespace {

/// One candidate plan for a cluster: either a DME candidate tree or the
/// fixed direct edge of a two-valve cluster.
struct CandidatePlan {
  std::optional<dme::DmeCandidate> tree;  ///< nullopt = two-valve direct edge
  std::vector<std::pair<Point, Point>> edgeSpans;  ///< for the overlap cost
  std::int64_t mismatchEstimate = 0;
};

/// Eq. 4: overlap between the bounding boxes of two tree edges, as a
/// fraction of the smaller box (inclusive lattice areas).
double overlapCost(const std::pair<Point, Point>& e1, const std::pair<Point, Point>& e2) {
  const geom::Rect b1 = geom::boundingBox(e1.first, e1.second);
  const geom::Rect b2 = geom::boundingBox(e2.first, e2.second);
  const std::int64_t inter = b1.intersectWith(b2).area();
  if (inter <= 0) return 0.0;
  const std::int64_t denom = std::min(b1.area(), b2.area());
  return denom > 0 ? static_cast<double>(inter) / static_cast<double>(denom) : 0.0;
}

/// Eq. 3 summed over all edge pairs of two candidate plans.
double pairOverlap(const CandidatePlan& a, const CandidatePlan& b) {
  double total = 0.0;
  for (const auto& ea : a.edgeSpans)
    for (const auto& eb : b.edgeSpans) total += overlapCost(ea, eb);
  return total;
}

CandidatePlan directEdgePlan(const chip::Chip& chip, const WorkCluster& wc) {
  CandidatePlan plan;
  const Point a = chip.valve(wc.spec.valves[0]).pos;
  const Point b = chip.valve(wc.spec.valves[1]).pos;
  plan.edgeSpans = {{a, b}};
  plan.mismatchEstimate = 0;  // a middle tap splits the edge evenly
  return plan;
}

std::vector<CandidatePlan> dmePlans(const chip::Chip& chip, const PacorConfig& config,
                                    const grid::ObstacleMap& obstacles,
                                    const WorkCluster& wc) {
  std::vector<Point> sinks;
  sinks.reserve(wc.spec.valves.size());
  for (const chip::ValveId v : wc.spec.valves) sinks.push_back(chip.valve(v).pos);

  dme::CandidateOptions opt = config.candidates;
  opt.ringSearchRadius = config.legalizeRadius;
  std::vector<CandidatePlan> plans;
  for (auto& cand : dme::buildCandidateTrees(obstacles, wc.net, sinks, opt)) {
    CandidatePlan plan;
    plan.mismatchEstimate = cand.mismatchEstimate;
    for (const auto& [p, c] : cand.edges())
      plan.edgeSpans.emplace_back(cand.embed[static_cast<std::size_t>(p)],
                                  cand.embed[static_cast<std::size_t>(c)]);
    plan.tree = std::move(cand);
    plans.push_back(std::move(plan));
  }
  return plans;
}

/// Negotiation edges + detour bookkeeping for a chosen plan.
struct EdgeBundle {
  std::vector<route::NegotiationEdge> edges;
  /// Per edge: the (parent, child) topology nodes (DME) or {-1, -1}.
  std::vector<std::pair<int, int>> topoEdges;
};

EdgeBundle bundleFor(const chip::Chip& chip, const WorkCluster& wc,
                     const CandidatePlan& plan, int group) {
  EdgeBundle bundle;
  if (!plan.tree) {
    route::NegotiationEdge e;
    e.a = {chip.valve(wc.spec.valves[0]).pos};
    e.b = {chip.valve(wc.spec.valves[1]).pos};
    e.group = group;
    bundle.edges.push_back(std::move(e));
    bundle.topoEdges.push_back({-1, -1});
    return bundle;
  }
  const dme::DmeCandidate& tree = *plan.tree;
  for (const auto& [p, c] : tree.edges()) {
    route::NegotiationEdge e;
    e.a = {tree.embed[static_cast<std::size_t>(c)]};   // child first: route
    e.b = {tree.embed[static_cast<std::size_t>(p)]};   // toward the parent
    e.group = group;
    bundle.edges.push_back(std::move(e));
    bundle.topoEdges.push_back({p, c});
  }
  return bundle;
}

/// Fills the cluster's tree paths, tap, and per-sink path sequences from
/// the routed bundle. Paths arrive aligned with bundle.edges.
void commitStructure(const chip::Chip& chip, WorkCluster& wc, const CandidatePlan& plan,
                     std::vector<route::Path> paths) {
  wc.treePaths.clear();
  wc.sinkSequences.assign(wc.spec.valves.size(), {});

  if (!plan.tree) {
    // Two-valve cluster: split the single path at its middle cell so each
    // arm is an independently detourable path (v0..tap, tap..v1).
    route::Path& whole = paths[0];
    const std::size_t mid = (whole.size() - 1) / 2;
    wc.tap = whole[mid];
    wc.rootTap = wc.tap;
    route::Path arm0(whole.begin(), whole.begin() + static_cast<std::ptrdiff_t>(mid) + 1);
    route::Path arm1(whole.begin() + static_cast<std::ptrdiff_t>(mid), whole.end());
    // Arms are stored leaf-to-tap so front() is the valve.
    std::reverse(arm1.begin(), arm1.end());
    // arm0 runs v0 -> tap already if the path was routed a->b.
    if (arm0.front() != chip.valve(wc.spec.valves[0]).pos)
      std::reverse(arm0.begin(), arm0.end());
    if (arm1.front() != chip.valve(wc.spec.valves[1]).pos)
      std::reverse(arm1.begin(), arm1.end());
    wc.treePaths = {std::move(arm0), std::move(arm1)};
    wc.sinkSequences = {{0}, {1}};
    wc.tapCells = {wc.tap};
    wc.lmStructured = true;
    return;
  }

  const dme::DmeCandidate& tree = *plan.tree;
  wc.treePaths = std::move(paths);
  wc.tap = tree.embed[static_cast<std::size_t>(tree.topo.root)];
  wc.rootTap = wc.tap;
  wc.tapCells = {wc.tap};

  // Map child topology node -> tree path index (each non-root node has
  // exactly one parent edge).
  std::vector<int> pathOfChild(tree.topo.nodes.size(), -1);
  {
    int idx = 0;
    for (const auto& [p, c] : tree.edges()) {
      (void)p;
      pathOfChild[static_cast<std::size_t>(c)] = idx++;
    }
  }
  const auto sinkPaths = tree.sinkToRootPaths();
  for (std::size_t s = 0; s < wc.spec.valves.size(); ++s) {
    // sinkToRootPaths is indexed by the candidate's sink order, which is
    // the order sinks were passed in == spec.valves order.
    const std::vector<int>& nodes = sinkPaths[s];
    std::vector<int>& seq = wc.sinkSequences[s];
    for (std::size_t k = 0; k + 1 < nodes.size(); ++k)
      seq.push_back(pathOfChild[static_cast<std::size_t>(nodes[k])]);
  }
  wc.lmStructured = true;
}

}  // namespace

LmRoutingStats routeLengthMatchingClusters(const chip::Chip& chip,
                                           const PacorConfig& config,
                                           grid::ObstacleMap& obstacles,
                                           std::span<WorkCluster*> clusters) {
  LmRoutingStats stats;
  if (clusters.empty()) return stats;

  // 1. Candidate construction (Sec. 4.1).
  trace::Span spanCandidates("lm.candidates", "cluster_routing");
  std::vector<std::vector<CandidatePlan>> plans(clusters.size());
  for (std::size_t i = 0; i < clusters.size(); ++i) {
    WorkCluster& wc = *clusters[i];
    if (wc.spec.valves.size() == 2) {
      plans[i].push_back(directEdgePlan(chip, wc));
      ++stats.pairClusters;
    } else {
      plans[i] = dmePlans(chip, config, obstacles, wc);
      ++stats.dmeClusters;
    }
    stats.candidatesBuilt += static_cast<int>(plans[i].size());
    if (plans[i].empty()) {
      // No embeddable tree at all (pathological blockage): demote now.
      wc.wasDemoted = true;
      ++stats.demoted;
    }
  }

  spanCandidates.arg("candidates", stats.candidatesBuilt);
  spanCandidates.close();

  // 2. Candidate selection (Sec. 4.2). Clusters without plans are skipped.
  trace::Span spanSelection("lm.selection", "cluster_routing");
  std::vector<std::size_t> active;
  for (std::size_t i = 0; i < clusters.size(); ++i)
    if (!plans[i].empty()) active.push_back(i);
  std::vector<std::size_t> chosen(clusters.size(), 0);

  if (config.useSelection && !active.empty()) {
    std::int64_t maxMismatch = 0;
    for (const std::size_t i : active)
      for (const CandidatePlan& p : plans[i])
        maxMismatch = std::max(maxMismatch, p.mismatchEstimate);

    graph::SelectionProblem problem;
    std::vector<std::pair<std::size_t, std::size_t>> flat;  // (cluster slot, plan idx)
    for (std::size_t a = 0; a < active.size(); ++a) {
      const std::size_t i = active[a];
      for (std::size_t k = 0; k < plans[i].size(); ++k) {
        const double mismatchCost =
            maxMismatch > 0 ? static_cast<double>(plans[i][k].mismatchEstimate) /
                                  static_cast<double>(maxMismatch)
                            : 0.0;
        problem.addCandidate(a, -config.lambda * mismatchCost);  // Eq. 2
        flat.emplace_back(a, k);
      }
    }
    for (std::size_t x = 0; x < flat.size(); ++x)
      for (std::size_t y = x + 1; y < flat.size(); ++y) {
        if (flat[x].first == flat[y].first) continue;
        const double ol = pairOverlap(plans[active[flat[x].first]][flat[x].second],
                                      plans[active[flat[y].first]][flat[y].second]);
        if (ol > 0.0)
          problem.setPairWeight(x, y, -(1.0 - config.lambda) * ol);  // Eq. 3
      }

    const auto solution = problem.candidateCount() <= config.exactSelectionLimit
                              ? problem.solveExact()
                              : problem.solveGreedy();
    stats.selectionExact = solution.exact;
    stats.selectionObjective = solution.objective;
    for (std::size_t a = 0; a < active.size(); ++a)
      chosen[active[a]] = flat[solution.chosen[a]].second;
  }

  spanSelection.arg("exact", stats.selectionExact ? 1 : 0);
  spanSelection.close();

  // 3. Negotiation-based routing of every selected tree edge (Sec. 4.3).
  trace::Span spanNegotiation("lm.negotiation", "cluster_routing");
  std::vector<route::NegotiationEdge> allEdges;
  struct EdgeOrigin {
    std::size_t cluster;
    std::size_t localIdx;
  };
  std::vector<EdgeOrigin> origins;
  std::vector<EdgeBundle> bundles(clusters.size());
  for (const std::size_t i : active) {
    bundles[i] = bundleFor(chip, *clusters[i], plans[i][chosen[i]], static_cast<int>(i));
    for (std::size_t e = 0; e < bundles[i].edges.size(); ++e) {
      allEdges.push_back(bundles[i].edges[e]);
      origins.push_back({i, e});
    }
  }

  const auto negotiated =
      route::negotiatedRoute(obstacles, allEdges, config.negotiation);
  stats.negotiationIterations = negotiated.iterations;
  spanNegotiation.arg("edges", static_cast<std::int64_t>(allEdges.size()));
  spanNegotiation.arg("iterations", negotiated.iterations);
  spanNegotiation.close();

  // 4. Commit fully-routed clusters; demote the rest.
  trace::Span spanCommit("lm.commit", "cluster_routing");
  std::vector<std::vector<route::Path>> clusterPaths(clusters.size());
  std::vector<bool> clusterOk(clusters.size(), true);
  for (const std::size_t i : active)
    clusterPaths[i].resize(bundles[i].edges.size());
  for (std::size_t e = 0; e < allEdges.size(); ++e) {
    const EdgeOrigin& o = origins[e];
    if (negotiated.routed[e])
      clusterPaths[o.cluster][o.localIdx] = negotiated.paths[e];
    else
      clusterOk[o.cluster] = false;
  }

  for (const std::size_t i : active) {
    WorkCluster& wc = *clusters[i];
    if (!clusterOk[i]) {
      wc.wasDemoted = true;
      ++stats.demoted;
      continue;
    }
    commitStructure(chip, wc, plans[i][chosen[i]], std::move(clusterPaths[i]));
    for (const route::Path& p : wc.treePaths) obstacles.occupy(p, wc.net);
    wc.internallyRouted = true;
  }
  return stats;
}

}  // namespace pacor::core
