#include "dme/candidate_tree.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <optional>
#include <unordered_set>

#include "geom/tilted.hpp"
#include "trace/trace.hpp"

namespace pacor::dme {

using geom::TiltedRect;

std::vector<std::pair<int, int>> DmeCandidate::edges() const {
  std::vector<std::pair<int, int>> out;
  for (std::size_t i = 0; i < topo.nodes.size(); ++i) {
    const TopologyNode& n = topo.nodes[i];
    if (n.isLeaf()) continue;
    out.emplace_back(static_cast<int>(i), n.left);
    out.emplace_back(static_cast<int>(i), n.right);
  }
  return out;
}

std::vector<std::vector<int>> DmeCandidate::sinkToRootPaths() const {
  std::vector<int> parent(topo.nodes.size(), -1);
  std::vector<int> leafOf;
  for (std::size_t i = 0; i < topo.nodes.size(); ++i) {
    const TopologyNode& n = topo.nodes[i];
    if (!n.isLeaf()) {
      parent[static_cast<std::size_t>(n.left)] = static_cast<int>(i);
      parent[static_cast<std::size_t>(n.right)] = static_cast<int>(i);
    }
  }
  std::size_t sinkCount = 0;
  for (const TopologyNode& n : topo.nodes)
    if (n.isLeaf()) sinkCount = std::max(sinkCount, static_cast<std::size_t>(n.sink) + 1);

  std::vector<std::vector<int>> paths(sinkCount);
  for (std::size_t i = 0; i < topo.nodes.size(); ++i) {
    const TopologyNode& n = topo.nodes[i];
    if (!n.isLeaf()) continue;
    std::vector<int>& path = paths[static_cast<std::size_t>(n.sink)];
    for (int v = static_cast<int>(i); v != -1; v = parent[static_cast<std::size_t>(v)])
      path.push_back(v);
  }
  return paths;
}

namespace {

/// Real-lattice XY points (doubled coords both even) covered by a doubled
/// tilted region, sampled with an even stride up to maxCount.
std::vector<Point> realPointsInRegion(const TiltedRect& region, std::size_t maxCount) {
  std::vector<Point> out;
  if (region.empty() || maxCount == 0) return out;
  std::vector<Point> all;
  for (std::int32_t u = region.lo.x; u <= region.hi.x; ++u) {
    for (std::int32_t v = region.lo.y; v <= region.hi.y; ++v) {
      if (((u + v) % 2 + 2) % 2 != 0) continue;
      const Point doubled = geom::fromTilted({u, v});
      if (doubled.x % 2 != 0 || doubled.y % 2 != 0) continue;
      all.push_back({doubled.x / 2, doubled.y / 2});
      if (all.size() > 4096) break;  // plenty for sampling
    }
    if (all.size() > 4096) break;
  }
  if (all.empty()) return out;
  if (all.size() <= maxCount) return all;
  for (std::size_t k = 0; k < maxCount; ++k)
    out.push_back(all[k * (all.size() - 1) / (maxCount - 1)]);
  out.erase(std::unique(out.begin(), out.end(),
                        [](Point a, Point b) { return a == b; }),
            out.end());
  return out;
}

/// Nearest real-lattice cell to a desired tilted (doubled) point,
/// preferring points inside the region; falls back to plain rounding
/// (the half-unit snap of Lemma 1).
Point snapToRealLattice(const TiltedRect& region, Point desiredTilted) {
  const Point clamped = region.clampTilted(desiredTilted);
  for (std::int32_t r = 0; r <= 3; ++r) {
    for (std::int32_t du = -r; du <= r; ++du) {
      for (std::int32_t dv = -r; dv <= r; ++dv) {
        if (std::max(std::abs(du), std::abs(dv)) != r) continue;
        const Point t{clamped.x + du, clamped.y + dv};
        if (!region.containsTilted(t)) continue;
        if (((t.x + t.y) % 2 + 2) % 2 != 0) continue;
        const Point doubled = geom::fromTilted(t);
        if (doubled.x % 2 == 0 && doubled.y % 2 == 0)
          return {doubled.x / 2, doubled.y / 2};
      }
    }
  }
  // Off-grid merging segment: round the doubled midpoint outward.
  const Point t = clamped;
  const std::int32_t x2 = t.x - t.y;  // 2 * doubled x
  const std::int32_t y2 = t.x + t.y;
  const auto roundTo4 = [](std::int32_t v) {
    return static_cast<std::int32_t>(std::lround(static_cast<double>(v) / 4.0));
  };
  return {roundTo4(x2), roundTo4(y2)};
}

/// Ring-search cap (cells) of merging-node legalization.
constexpr int kRingSearchRadius = 64;

/// Expanding-loop merging-node legalization (paper Sec. 4.1): scan
/// Chebyshev rings of increasing radius (up to kRingSearchRadius) around
/// the desired cell for a routing-usable cell outside `forbidden`; the
/// scan start rotates with `rotation` to diversify candidates.
std::optional<Point> ringSearch(const grid::ObstacleMap& obstacles, grid::NetId net,
                                Point desired, int rotation,
                                const std::unordered_set<Point>& forbidden) {
  const grid::Grid& g = obstacles.grid();
  const auto usable = [&](Point c) {
    return g.inBounds(c) && obstacles.isFreeFor(c, net) && !forbidden.contains(c);
  };
  if (usable(desired)) return desired;
  for (int r = 1; r <= kRingSearchRadius; ++r) {
    std::vector<Point> ring;
    ring.reserve(static_cast<std::size_t>(8 * r));
    for (std::int32_t dx = -r; dx <= r; ++dx) {
      ring.push_back({desired.x + dx, desired.y - r});
      ring.push_back({desired.x + dx, desired.y + r});
    }
    for (std::int32_t dy = -r + 1; dy <= r - 1; ++dy) {
      ring.push_back({desired.x - r, desired.y + dy});
      ring.push_back({desired.x + r, desired.y + dy});
    }
    const std::size_t start =
        static_cast<std::size_t>(rotation) % std::max<std::size_t>(1, ring.size());
    for (std::size_t k = 0; k < ring.size(); ++k) {
      const Point c = ring[(start + k) % ring.size()];
      if (usable(c)) return c;
    }
  }
  return std::nullopt;
}

struct Embedder {
  const grid::ObstacleMap& obstacles;
  grid::NetId net;
  std::span<const Point> sinks;
  const Topology& topo;
  const MergePlan& plan;
  std::unordered_set<Point> sinkCells;

  /// Builds one candidate for a given root placement and variation index.
  std::optional<DmeCandidate> embed(Point rootCell, int variant) const {
    DmeCandidate cand;
    cand.topo = topo;
    cand.embed.assign(topo.nodes.size(), Point{});
    cand.targetHalfLen.assign(topo.nodes.size(), 0);

    const auto rootIdx = static_cast<std::size_t>(topo.root);
    const auto legalRoot =
        ringSearch(obstacles, net, rootCell, variant, sinkCells);
    if (!legalRoot) return std::nullopt;
    cand.embed[rootIdx] = *legalRoot;

    // Parents precede children in descending index order (children-first
    // node layout), so one reverse sweep embeds top-down.
    for (std::size_t i = topo.nodes.size(); i-- > 0;) {
      const TopologyNode& n = topo.nodes[i];
      if (n.isLeaf()) {
        cand.embed[i] = sinks[static_cast<std::size_t>(n.sink)];
        continue;
      }
      const Point parentEmbed = cand.embed[i];
      for (const auto& [childIdx, target] :
           {std::pair{n.left, plan.nodes[i].edgeLeft},
            std::pair{n.right, plan.nodes[i].edgeRight}}) {
        const auto c = static_cast<std::size_t>(childIdx);
        cand.targetHalfLen[c] = target;
        if (topo.nodes[c].isLeaf()) {
          cand.embed[c] = sinks[static_cast<std::size_t>(topo.nodes[c].sink)];
          continue;
        }
        cand.embed[c] = placeChild(plan.nodes[c].region, parentEmbed, target,
                                   variant + static_cast<int>(c));
      }
    }

    // Legalize internal nodes against obstacles (leaves are the sinks).
    for (std::size_t i = 0; i < topo.nodes.size(); ++i) {
      if (topo.nodes[i].isLeaf()) continue;
      const auto legal = ringSearch(obstacles, net, cand.embed[i],
                                    variant + static_cast<int>(i), sinkCells);
      if (!legal) return std::nullopt;
      cand.embed[i] = *legal;
    }

    finishEstimates(cand);
    return cand;
  }

  /// Chooses a child's merging node: the point of its merging region at
  /// distance as close to `target` (doubled) from the parent as possible,
  /// corner-diversified by `variant`.
  Point placeChild(const TiltedRect& region, Point parentEmbed, std::int64_t target,
                   int variant) const {
    const Point pt = geom::toTilted(parentEmbed * 2);
    const TiltedRect ball{{pt.x - static_cast<std::int32_t>(target),
                           pt.y - static_cast<std::int32_t>(target)},
                          {pt.x + static_cast<std::int32_t>(target),
                           pt.y + static_cast<std::int32_t>(target)}};
    const TiltedRect feasible = region.intersectWith(ball);
    const TiltedRect& pickFrom = feasible.empty() ? region : feasible;

    // Corners by distance from the parent, farthest first (uses up the
    // target length in straight wire instead of later detour).
    std::array<Point, 4> corners{Point{pickFrom.lo.x, pickFrom.lo.y},
                                 Point{pickFrom.lo.x, pickFrom.hi.y},
                                 Point{pickFrom.hi.x, pickFrom.lo.y},
                                 Point{pickFrom.hi.x, pickFrom.hi.y}};
    std::sort(corners.begin(), corners.end(), [&](Point a, Point b) {
      return geom::chebyshev(a, pt) > geom::chebyshev(b, pt);
    });
    const std::int64_t bestDist = geom::chebyshev(corners[0], pt);
    std::size_t ties = 1;
    while (ties < corners.size() && geom::chebyshev(corners[ties], pt) == bestDist) ++ties;
    const Point chosen = corners[static_cast<std::size_t>(variant) % ties];
    return snapToRealLattice(pickFrom, chosen);
  }

  void finishEstimates(DmeCandidate& cand) const {
    cand.totalEstimatedLength = 0;
    for (const auto& [p, c] : cand.edges())
      cand.totalEstimatedLength +=
          geom::manhattan(cand.embed[static_cast<std::size_t>(p)],
                          cand.embed[static_cast<std::size_t>(c)]);
    std::int64_t lo = std::numeric_limits<std::int64_t>::max();
    std::int64_t hi = 0;
    for (const auto& path : cand.sinkToRootPaths()) {
      std::int64_t len = 0;
      for (std::size_t k = 0; k + 1 < path.size(); ++k)
        len += geom::manhattan(cand.embed[static_cast<std::size_t>(path[k])],
                               cand.embed[static_cast<std::size_t>(path[k + 1])]);
      lo = std::min(lo, len);
      hi = std::max(hi, len);
    }
    cand.mismatchEstimate = (lo > hi) ? 0 : hi - lo;
  }
};

}  // namespace

std::vector<DmeCandidate> buildCandidateTrees(const grid::ObstacleMap& obstacles,
                                              grid::NetId net,
                                              std::span<const Point> sinks,
                                              const CandidateOptions& options) {
  trace::Span span("dme.build_candidates", "dme", trace::Level::kCluster);
  span.arg("sinks", static_cast<std::int64_t>(sinks.size()));
  std::vector<DmeCandidate> out;
  if (sinks.empty() || options.count <= 0) return out;

  const Topology topo = balancedBipartition(sinks);
  if (sinks.size() == 1) {
    DmeCandidate cand;
    cand.topo = topo;
    cand.embed = {sinks[0]};
    cand.targetHalfLen = {0};
    out.push_back(std::move(cand));
    span.arg("candidates", 1);
    return out;
  }
  const MergePlan plan = computeMergePlan(topo, sinks);

  Embedder embedder{obstacles, net, sinks, topo, plan, {}};
  embedder.sinkCells.insert(sinks.begin(), sinks.end());

  const TiltedRect& rootRegion = plan.nodes[static_cast<std::size_t>(topo.root)].region;
  std::vector<Point> rootCells =
      realPointsInRegion(rootRegion, static_cast<std::size_t>(options.count));
  // Root diversity: snap the region's extremes and center too (they may be
  // off the real lattice and thus missed by the exact sampler); distinct
  // roots are the main source of distinct candidate trees (Fig. 3).
  for (const Point t : {rootRegion.lo, rootRegion.hi,
                        Point{rootRegion.lo.x, rootRegion.hi.y},
                        Point{rootRegion.hi.x, rootRegion.lo.y},
                        Point{(rootRegion.lo.x + rootRegion.hi.x) / 2,
                              (rootRegion.lo.y + rootRegion.hi.y) / 2}}) {
    const Point snapped = snapToRealLattice(rootRegion, t);
    if (std::find(rootCells.begin(), rootCells.end(), snapped) == rootCells.end())
      rootCells.push_back(snapped);
  }

  int variant = 0;
  for (const Point rootCell : rootCells) {
    if (static_cast<int>(out.size()) >= options.count) break;
    auto cand = embedder.embed(rootCell, variant++);
    if (!cand) continue;
    const bool duplicate = std::any_of(out.begin(), out.end(), [&](const DmeCandidate& c) {
      return c.embed == cand->embed;
    });
    if (!duplicate) out.push_back(std::move(*cand));
  }
  // If diversity fell short (duplicates/obstacles), try extra variants on
  // the same root cells with rotated preferences.
  for (int extra = 1; extra <= 3 && static_cast<int>(out.size()) < options.count; ++extra) {
    for (const Point rootCell : rootCells) {
      if (static_cast<int>(out.size()) >= options.count) break;
      auto cand = embedder.embed(rootCell, variant++);
      if (!cand) continue;
      const bool duplicate =
          std::any_of(out.begin(), out.end(), [&](const DmeCandidate& c) {
            return c.embed == cand->embed;
          });
      if (!duplicate) out.push_back(std::move(*cand));
    }
  }
  span.arg("candidates", static_cast<std::int64_t>(out.size()));
  return out;
}

}  // namespace pacor::dme
