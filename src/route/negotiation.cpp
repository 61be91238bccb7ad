#include "route/negotiation.hpp"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "route/astar.hpp"
#include "trace/trace.hpp"
#include "util/deadline.hpp"

namespace pacor::route {
namespace {

/// Local net ids for the per-edge occupancy inside the negotiation map.
grid::NetId edgeNet(std::size_t edgeIndex) {
  return static_cast<grid::NetId>(edgeIndex) + 1'000'000;
}

AStarRequest requestFor(const NegotiationEdge& edge, std::size_t edgeIndex,
                        const std::vector<double>& history,
                        const TerminalFence& fence, std::int32_t fenceGroup) {
  AStarRequest req;
  req.sources = edge.a;
  req.targets = edge.b;
  req.net = edgeNet(edgeIndex);
  req.historyCost = &history;
  req.fence = &fence;
  req.fenceGroup = fenceGroup;
  return req;
}

}  // namespace

NegotiationResult negotiatedRoute(const grid::ObstacleMap& obstacles,
                                  std::span<const NegotiationEdge> edges,
                                  const NegotiationConfig& config) {
  NegotiationResult result;
  result.paths.assign(edges.size(), {});
  result.routed.assign(edges.size(), false);
  if (edges.empty()) {
    result.success = true;
    return result;
  }

  const grid::Grid& g = obstacles.grid();
  std::vector<double> history(static_cast<std::size_t>(g.cellCount()), 0.0);

  // Terminal cells per edge (merging nodes may be shared within a group).
  // A cell listed twice is harmless: the loops below release it once and
  // find it free the second time, and the fence records it once.
  std::vector<std::vector<Point>> terminals(edges.size());
  for (std::size_t i = 0; i < edges.size(); ++i) {
    terminals[i] = edges[i].a;
    terminals[i].insert(terminals[i].end(), edges[i].b.begin(), edges[i].b.end());
  }

  // One private copy for the whole negotiation. Terminal cells may arrive
  // owned by the caller (e.g. valve cells pre-claimed by their cluster's
  // net); they belong to the edges being routed here, so open them up
  // once. Per-iteration rip-up is an undo-log rollback, not a fresh copy.
  grid::ObstacleMap local = obstacles;
  for (const auto& terms : terminals)
    for (const Point t : terms) {
      const grid::NetId owner = local.owner(t);
      if (owner >= 0 && owner < edgeNet(0))
        local.releasePath(std::span<const Point>(&t, 1), owner);
    }

  // Releasing a terminal must only open it to its OWN group: without a
  // fence, an unrelated edge could route straight through another
  // cluster's valve or merging node (free here, but owned in the caller's
  // map — committing such a path silently corrupts cross-cluster
  // ownership). The fence blocks, for each group, every terminal of every
  // other group. Groups enter it as dense ids 0, 1, ..., clear of its
  // negative markers.
  TerminalFence fence(g);
  std::unordered_map<int, std::int32_t> fenceIds;
  std::vector<std::int32_t> fenceGroup(edges.size());
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const auto next = static_cast<std::int32_t>(fenceIds.size());
    fenceGroup[i] = fenceIds.try_emplace(edges[i].group, next).first->second;
    for (const Point t : terminals[i]) fence.add(t, fenceGroup[i]);
  }

  for (int r = 0; r < config.maxIterations; ++r) {
    util::checkDeadline();
    trace::Span iterSpan("negotiation.iteration", "route", trace::Level::kCluster);
    iterSpan.arg("iteration", r);
    result.iterations = r + 1;
    grid::ObstacleMapTransaction txn(local);

    bool done = true;
    for (std::size_t i = 0; i < edges.size(); ++i) {
      result.routed[i] = false;
      result.paths[i].clear();

      // Terminal cells occupied by sibling edges of the same group are
      // legal connection points: temporarily release them for this search.
      std::vector<std::pair<Point, grid::NetId>> restored;
      for (const Point t : terminals[i]) {
        const grid::NetId owner = local.owner(t);
        if (owner >= edgeNet(0)) {
          const auto ownerIdx = static_cast<std::size_t>(owner - edgeNet(0));
          if (ownerIdx < edges.size() && edges[ownerIdx].group == edges[i].group) {
            restored.emplace_back(t, owner);
            txn.releasePath(std::span<const Point>(&t, 1), owner);
          }
        }
      }

      AStarResult found =
          aStarRoute(local, requestFor(edges[i], i, history, fence, fenceGroup[i]));

      if (found.success) {
        // Released terminal cells that the path did not use go back to
        // their sibling owner; used ones transfer to this edge.
        for (const auto& [cell, owner] : restored)
          if (std::find(found.path.begin(), found.path.end(), cell) == found.path.end())
            txn.occupy(std::span<const Point>(&cell, 1), owner);
        txn.occupy(found.path, edgeNet(i));
        result.paths[i] = std::move(found.path);
        result.routed[i] = true;
      } else {
        for (const auto& [cell, owner] : restored)
          txn.occupy(std::span<const Point>(&cell, 1), owner);
        done = false;
      }
    }

    if (done) {
      result.success = true;
      return result;
    }

    // Eq. 5: bump history on every cell of every routed path, then rip all
    // paths up (O(path cells) rollback instead of a fresh map copy).
    for (std::size_t i = 0; i < edges.size(); ++i) {
      if (!result.routed[i]) continue;
      for (const Point p : result.paths[i]) {
        double& h = history[static_cast<std::size_t>(g.index(p))];
        h = config.baseHistoryCost + config.alpha * h;
      }
    }
    txn.rollback();
  }

  result.success = false;
  return result;
}

}  // namespace pacor::route
