#include "pacor/escape.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <chrono>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "graph/min_cost_flow.hpp"
#include "route/astar.hpp"
#include "trace/trace.hpp"

namespace pacor::core {
namespace {

double secondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Indices of the clusters an escape pass routes: internally routed and
/// not escaped yet.
std::vector<std::size_t> pendingClusters(std::span<WorkCluster*> clusters) {
  std::vector<std::size_t> pending;
  for (std::size_t i = 0; i < clusters.size(); ++i)
    if (clusters[i]->internallyRouted && clusters[i]->pin < 0) pending.push_back(i);
  return pending;
}

/// Pins consumed by previously escaped clusters; they stay reserved.
std::unordered_set<Point> takenPins(const chip::Chip& chip,
                                    std::span<WorkCluster*> clusters) {
  std::unordered_set<Point> taken;
  for (const WorkCluster* wc : clusters)
    if (wc->pin >= 0) taken.insert(chip.pin(wc->pin).pos);
  return taken;
}

std::unordered_map<Point, chip::PinId> pinsByCell(const chip::Chip& chip) {
  std::unordered_map<Point, chip::PinId> pinAt;
  for (const chip::ControlPin& pin : chip.pins) pinAt.emplace(pin.pos, pin.id);
  return pinAt;
}

/// Dial bucket span from the grid diameter: step costs are unit and tap
/// biases at most two Manhattan diameters, so a few diameters cover every
/// label an escape network produces. Small dies get a small bucket array;
/// FPVA-scale dies keep O(1) pushes instead of degrading to the overflow
/// heap. Longer labels would still solve correctly, in the same order.
std::int64_t escapeBucketSpan(const grid::Grid& g) {
  return graph::SspCore::recommendedBucketSpan(
      4 * (static_cast<std::int64_t>(g.width()) + g.height()));
}

/// A tap arc cluster -> in(cell) and its cost.
struct TapArc {
  std::int32_t cell;
  std::int64_t cost;
};

/// Cluster wc's tap arcs: one per free neighbour f of a tap cell, cost 1
/// (the step off the tree). Wide-tap clusters (matched trees whose root
/// was walled in) may attach anywhere, but every cell of asymmetry must
/// later be paid in detour length -- bias the flow toward near-root
/// attachments by pricing the attach arc with the distance from the root.
/// The arcs come in the iteration order of the per-cluster fanout map,
/// which is their insertion order in both escape networks.
std::vector<TapArc> tapArcs(const grid::ObstacleMap& obstacles, const WorkCluster& wc) {
  const grid::Grid& g = obstacles.grid();
  std::unordered_map<Point, std::int64_t> fanout;
  for (const Point tap : wc.tapCells) {
    const std::int64_t bias = wc.wideTap ? 2 * geom::manhattan(tap, wc.tap) : 0;
    g.forNeighbors(tap, [&](Point q) {
      if (!obstacles.isFree(q)) return;
      const auto [it, fresh] = fanout.emplace(q, bias);
      if (!fresh) it->second = std::min(it->second, bias);
    });
  }
  std::vector<TapArc> arcs;
  arcs.reserve(fanout.size());
  for (const auto& [f, bias] : fanout) arcs.push_back({g.index(f), 1 + bias});
  return arcs;
}

/// Commits wc's escape path: a tap cell adjacent to `first`, then the
/// cells from `first` along next(c) until it returns -1 (the pin cell).
template <class Next>
void commitEscape(grid::ObstacleMap& obstacles,
                  const std::unordered_map<Point, chip::PinId>& pinAt, WorkCluster& wc,
                  std::int32_t first, Next&& next) {
  const grid::Grid& g = obstacles.grid();
  route::Path path;
  const Point firstPoint = g.point(first);
  Point anchor = wc.tapCells.front();
  for (const Point tap : wc.tapCells)
    if (geom::manhattan(tap, firstPoint) == 1) {
      anchor = tap;
      break;
    }
  path.push_back(anchor);
  for (std::int32_t c = first; c >= 0; c = next(c)) path.push_back(g.point(c));
  wc.escapePath = path;
  wc.pin = pinAt.at(path.back());
  // The anchor cell already belongs to the cluster; occupy the rest.
  obstacles.occupy(std::span<const Point>(path.data() + 1, path.size() - 1), wc.net);
}

}  // namespace

EscapeOutcome escapeRoute(const chip::Chip& chip, grid::ObstacleMap& obstacles,
                          std::span<WorkCluster*> clusters) {
  EscapeOutcome outcome;
  const grid::Grid& g = obstacles.grid();

  const std::vector<std::size_t> pendingIdx = pendingClusters(clusters);
  outcome.requested = static_cast<int>(pendingIdx.size());
  if (pendingIdx.empty()) return outcome;

  trace::Span spanBuild("escape.flow_build", "escape", trace::Level::kCluster);
  const auto buildT0 = std::chrono::steady_clock::now();
  const std::unordered_set<Point> taken = takenPins(chip, clusters);

  // Flow-node numbering: cell c gets nodes 2c (in) and 2c+1 (out); the
  // cluster nodes, the super source and the super sink follow.
  const auto in = [](std::int32_t c) { return static_cast<std::size_t>(2 * c); };
  const auto out = [](std::int32_t c) { return static_cast<std::size_t>(2 * c + 1); };
  const auto clusterBase = static_cast<std::size_t>(2 * g.cellCount());
  const std::size_t source = clusterBase + pendingIdx.size();
  const std::size_t sink = source + 1;
  graph::MinCostFlow flow(sink + 1);
  flow.setBucketSpan(escapeBucketSpan(g));

  // Usable transit cells: free cells only (routed nets and obstacles
  // block; constraint 8 additionally blocks non-pin boundary cells, which
  // the pipeline already turned into obstacles).
  const auto transit = [&](Point p) { return obstacles.isFree(p); };

  // Node split: in -> out, capacity 1 (constraint 12), cost 0.
  for (std::int32_t c = 0; c < g.cellCount(); ++c)
    if (transit(g.point(c))) flow.addEdge(in(c), out(c), 1, 0);

  // Adjacency arcs out(a) -> in(b), cost 1 per grid step. Edge ids are
  // dense, so a flat (from, to) table beats hashing on the big dies.
  std::vector<std::pair<std::int32_t, std::int32_t>> stepArc;  // by edge id
  for (std::int32_t c = 0; c < g.cellCount(); ++c) {
    const Point p = g.point(c);
    if (!transit(p)) continue;
    g.forNeighbors(p, [&](Point q) {
      if (!transit(q)) return;
      const std::size_t e = flow.addEdge(out(c), in(g.index(q)), 1, 1);
      stepArc.resize(e + 1, {-1, -1});
      stepArc[e] = {c, g.index(q)};
    });
  }

  // Cluster supplies source -> cluster (cap 1) and each cluster's tap arcs.
  std::vector<std::size_t> supplyEdge(pendingIdx.size());
  std::vector<std::vector<std::pair<std::size_t, std::int32_t>>> tapEdges(
      pendingIdx.size());  // (edge id, cell)
  for (std::size_t k = 0; k < pendingIdx.size(); ++k) {
    supplyEdge[k] = flow.addEdge(source, clusterBase + k, 1, 0);
    for (const TapArc& tap : tapArcs(obstacles, *clusters[pendingIdx[k]]))
      tapEdges[k].emplace_back(flow.addEdge(clusterBase + k, in(tap.cell), 1, tap.cost),
                               tap.cell);
  }

  // Pins: out(pin) -> sink, capacity 1 each (one cluster per pin).
  for (const chip::ControlPin& pin : chip.pins) {
    if (taken.contains(pin.pos) || !transit(pin.pos)) continue;
    flow.addEdge(out(g.index(pin.pos)), sink, 1, 0);
  }

  spanBuild.arg("pending", static_cast<std::int64_t>(pendingIdx.size()));
  spanBuild.close();
  outcome.flowBuildSeconds = secondsSince(buildT0);

  trace::Span spanRun("escape.flow_run", "escape", trace::Level::kCluster);
  const auto runT0 = std::chrono::steady_clock::now();
  const auto result = flow.run(source, sink, static_cast<std::int64_t>(pendingIdx.size()));
  outcome.routedCount = static_cast<int>(result.flow);
  outcome.flowCost = result.cost;
  outcome.flowRunSeconds = secondsSince(runT0);
  outcome.flowCounters = flow.counters();
  spanRun.arg("routed", result.flow);
  spanRun.close();

  trace::Span spanDecompose("escape.decompose", "escape", trace::Level::kCluster);
  // Decompose per-cluster unit flows into escape paths.
  std::vector<std::int32_t> nextCell(static_cast<std::size_t>(g.cellCount()), -1);
  for (std::size_t e = 0; e < stepArc.size(); ++e)
    if (stepArc[e].first >= 0 && flow.flowOn(e) > 0)
      nextCell[static_cast<std::size_t>(stepArc[e].first)] = stepArc[e].second;
  const std::unordered_map<Point, chip::PinId> pinAt = pinsByCell(chip);
  for (std::size_t k = 0; k < pendingIdx.size(); ++k) {
    if (flow.flowOn(supplyEdge[k]) == 0) {
      outcome.failed.push_back(pendingIdx[k]);
      continue;
    }
    std::int32_t first = -1;
    for (const auto& [e, cell] : tapEdges[k])
      if (flow.flowOn(e) > 0) {
        first = cell;
        break;
      }
    commitEscape(obstacles, pinAt, *clusters[pendingIdx[k]], first,
                 [&](std::int32_t c) { return nextCell[static_cast<std::size_t>(c)]; });
  }
  return outcome;
}

/// The session's flow network, generated from the grid instead of stored.
/// Node ids are escapeRoute()'s: in(c) = 2c, out(c) = 2c + 1, then one
/// node per cluster slot, the source and the sink. Every arc between cell
/// nodes is a function of the cell index -- the split in(c) -> out(c),
/// four unit steps out(c) -> in(q) and the pin arc out(c) -> sink -- so
/// the residual state of the grid is one 16-bit word per cell; only the
/// round's supply and tap arcs are stored.
///
/// scan() reproduces the per-node arc order of escapeRoute()'s CSR (see
/// graph::SspCore for what that order decides):
///   in(c):     split; reverse steps by neighbour index (c-W, c-1, c+1,
///              c+W); the reverse tap that carries flow into c, if any
///              (split capacity 1 lets at most one);
///   out(c):    reverse split; steps in Grid::kNeighborOffsets order
///              (E, W, N, S); the pin arc;
///   cluster k: reverse supply; its taps in insertion order;
///   source:    the supplies in pending order.
/// The sink is never expanded: SspCore's sink cut fires when it pops.
/// A blocked cell's split arc and the steps into it have no residual
/// capacity, so its nodes are unreachable -- the reachable arc set of
/// escapeRoute(), which omits blocked cells altogether.
class EscapeFlowSession::GridNetwork {
 public:
  GridNetwork(const grid::Grid& g, std::size_t clusterSlots)
      : grid_(g),
        clusterBase_(static_cast<std::size_t>(2 * g.cellCount())),
        source_(clusterBase_ + clusterSlots),
        cell_(static_cast<std::size_t>(g.cellCount()), 0) {
    for (std::size_t d = 0; d < 4; ++d) {
      const Point o = grid::Grid::kNeighborOffsets[d];
      offset_[d] = o.y * g.width() + o.x;
    }
    std::sort(byNeighborIndex_.begin(), byNeighborIndex_.end(),
              [&](std::size_t a, std::size_t b) { return offset_[a] < offset_[b]; });
    for (std::int32_t c = 0; c < g.cellCount(); ++c) {
      const Point p = g.point(c);
      for (std::size_t d = 0; d < 4; ++d)
        if (g.inBounds(p + grid::Grid::kNeighborOffsets[d])) cell_[c] |= kHasNeighbor << d;
    }
  }

  const grid::Grid& grid() const { return grid_; }
  std::size_t nodeCount() const { return source_ + 2; }
  std::size_t source() const { return source_; }
  std::size_t sink() const { return source_ + 1; }

  /// Starts a round at zero flow with no clusters and every pin closed,
  /// re-reading each cell's occupancy. Returns the number of cells whose
  /// occupancy changed since the previous read.
  std::int64_t beginRound(const grid::ObstacleMap& obstacles) {
    std::int64_t changed = 0;
    std::size_t c = 0;
    for (std::int32_t y = 0; y < grid_.height(); ++y)
      for (std::int32_t x = 0; x < grid_.width(); ++x, ++c) {
        const std::uint16_t free = obstacles.isFree({x, y}) ? kFree : 0;
        changed += (cell_[c] & kFree) != free;
        cell_[c] = static_cast<std::uint16_t>((cell_[c] & kHasAll) | free);
      }
    taps_.clear();
    tapBegin_.assign(1, 0);
    supplied_.clear();
    flowTapInto_.clear();
    openPins_ = 0;
    return changed;
  }

  void openPin(std::int32_t cell) {
    assert((cell_[cell] & kPinOpen) == 0 && "one pin per cell");
    cell_[cell] |= kPinOpen;
    ++openPins_;
  }

  /// Adds the next cluster slot's supply and tap arcs (pending order).
  void addCluster(const std::vector<TapArc>& taps) {
    for (const TapArc& t : taps) taps_.push_back({t.cell, supplied_.size(), t.cost, false});
    tapBegin_.push_back(taps_.size());
    supplied_.push_back(0);
  }

  /// Supply and tap arcs stored this round, both directions.
  std::int64_t storedArcs() const {
    return static_cast<std::int64_t>(2 * (supplied_.size() + taps_.size()));
  }

  // --- flow decomposition --------------------------------------------------
  bool supplied(std::size_t k) const { return supplied_[k] != 0; }
  /// Cell of cluster k's first tap arc that carries flow.
  std::int32_t firstTapCell(std::size_t k) const {
    for (std::size_t i = tapBegin_[k]; i < tapBegin_[k + 1]; ++i)
      if (taps_[i].flow) return taps_[i].cell;
    return -1;
  }
  /// The cell c's flow steps into; -1 when it leaves c by the pin arc.
  std::int32_t nextCell(std::int32_t c) const {
    for (std::size_t d = 0; d < 4; ++d)
      if ((cell_[c] & (kStepFlow << d)) != 0) return c + offset_[d];
    return -1;
  }

  // --- graph::SspCore network interface ------------------------------------
  template <class Prefetch, class Relax>
  void scan(std::size_t u, Prefetch&&, Relax&& relax) const {
    if (u < clusterBase_) {
      const auto c = static_cast<std::int32_t>(u >> 1);
      const std::uint16_t b = cell_[c];
      if ((u & 1) == 0) {
        if ((b & (kFree | kSplitFlow)) == kFree) relax(u + 1, 0, arc(c, kSplit));
        for (const std::size_t d : byNeighborIndex_) {
          if ((b & (kHasNeighbor << d)) == 0) continue;
          const std::int32_t q = c + offset_[d];
          if ((cell_[q] & (kStepFlow << (d ^ 1))) != 0)
            relax(2 * static_cast<std::size_t>(q) + 1, -1, arc(c, kStepBack + d));
        }
        if ((b & kTapFlowIn) != 0) {
          const std::size_t i = flowTapInto_.at(c);
          relax(clusterBase_ + taps_[i].cluster, -taps_[i].cost, arc(i, kTapBack));
        }
      } else {
        if ((b & kSplitFlow) != 0) relax(u - 1, 0, arc(c, kSplitBack));
        for (std::size_t d = 0; d < 4; ++d) {
          if ((b & (kHasNeighbor << d)) == 0 || (b & (kStepFlow << d)) != 0) continue;
          const std::int32_t q = c + offset_[d];
          if ((cell_[q] & kFree) != 0)
            relax(2 * static_cast<std::size_t>(q), 1, arc(c, kStep + d));
        }
        if ((b & kPinOpen) != 0) relax(sink(), 0, arc(c, kPin));
      }
    } else if (u < source_) {
      const std::size_t k = u - clusterBase_;
      if (supplied_[k] != 0) relax(source_, 0, arc(k, kSupplyBack));
      for (std::size_t i = tapBegin_[k]; i < tapBegin_[k + 1]; ++i)
        if (!taps_[i].flow)
          relax(2 * static_cast<std::size_t>(taps_[i].cell), taps_[i].cost, arc(i, kTap));
    } else if (u == source_) {
      for (std::size_t k = 0; k < supplied_.size(); ++k)
        if (supplied_[k] == 0) relax(clusterBase_ + k, 0, arc(k, kSupply));
    }
  }

  std::size_t tail(std::int64_t a) const {
    const auto i = static_cast<std::size_t>(a >> 4);
    switch (a & 15) {
      case kSplit:
      case kStepBack + 0:
      case kStepBack + 1:
      case kStepBack + 2:
      case kStepBack + 3:
        return 2 * i;
      case kTap:
        return clusterBase_ + taps_[i].cluster;
      case kTapBack:
        return 2 * static_cast<std::size_t>(taps_[i].cell);
      case kSupply:
        return source_;
      case kSupplyBack:
        return clusterBase_ + i;
      default:  // kSplitBack, kStep + d, kPin
        return 2 * i + 1;
    }
  }

  /// Every arc has capacity 1, and a path only uses arcs relaxed with
  /// positive residual in the same pass.
  std::int64_t residual(std::int64_t) const { return 1; }

  std::int64_t augment(std::int64_t a, [[maybe_unused]] std::int64_t units) {
    assert(units == 1);
    const auto i = static_cast<std::size_t>(a >> 4);
    const auto kind = static_cast<std::size_t>(a & 15);
    switch (kind) {
      case kSplit:
        cell_[i] |= kSplitFlow;
        return 0;
      case kSplitBack:
        cell_[i] &= ~kSplitFlow;
        return 0;
      case kPin:
        cell_[i] &= ~kPinOpen;
        return 0;
      case kTap:
        taps_[i].flow = true;
        cell_[taps_[i].cell] |= kTapFlowIn;
        flowTapInto_[taps_[i].cell] = i;
        return taps_[i].cost;
      case kTapBack: {
        taps_[i].flow = false;
        // A path may move c's inflow from this tap to another cluster's
        // tap into c; only clear the marker if it still names this one.
        const auto it = flowTapInto_.find(taps_[i].cell);
        if (it != flowTapInto_.end() && it->second == i) {
          flowTapInto_.erase(it);
          cell_[taps_[i].cell] &= ~kTapFlowIn;
        }
        return -taps_[i].cost;
      }
      case kSupply:
        supplied_[i] = 1;
        return 0;
      case kSupplyBack:
        supplied_[i] = 0;
        return 0;
      default:
        if (kind < kStepBack) {
          cell_[i] |= kStepFlow << (kind - kStep);
          return 1;
        }
        // Cancels the flow on out(q) -> in(i): q's step toward cell i.
        const std::size_t d = kind - kStepBack;
        const auto q = static_cast<std::int64_t>(i) + offset_[d];
        cell_[static_cast<std::size_t>(q)] &= ~(kStepFlow << (d ^ 1));
        return -1;
    }
  }

  std::int64_t sinkCapacity(std::size_t) const { return openPins_; }

 private:
  // Per-cell word. Step bits are indexed by direction d, the position in
  // Grid::kNeighborOffsets (E, W, N, S); d ^ 1 is the opposite direction.
  static constexpr std::uint16_t kFree = 1 << 0;        ///< transit cell this round
  static constexpr std::uint16_t kSplitFlow = 1 << 1;   ///< in(c) -> out(c) carries flow
  static constexpr std::uint16_t kStepFlow = 1 << 2;    ///< << d: out(c) -> in(c + offset[d])
  static constexpr std::uint16_t kPinOpen = 1 << 6;     ///< pin arc out(c) -> sink is residual
  static constexpr std::uint16_t kTapFlowIn = 1 << 7;   ///< a tap arc into in(c) carries flow
  static constexpr std::uint16_t kHasNeighbor = 1 << 8; ///< << d: neighbour d is in bounds
  static constexpr std::uint16_t kHasAll = 0xF << 8;

  // Arc handles: (index << 4) | kind, the index being the cell for grid
  // arcs, the tap for tap arcs and the cluster slot for supplies.
  static constexpr std::size_t kSplit = 0;      ///< in(c) -> out(c)
  static constexpr std::size_t kSplitBack = 1;  ///< out(c) -> in(c)
  static constexpr std::size_t kStep = 2;       ///< + d: out(c) -> in(c + offset[d])
  static constexpr std::size_t kStepBack = 6;   ///< + d: in(c) -> out(c + offset[d])
  static constexpr std::size_t kPin = 10;       ///< out(c) -> sink
  static constexpr std::size_t kTap = 11;       ///< cluster -> in(tap cell)
  static constexpr std::size_t kTapBack = 12;   ///< in(tap cell) -> cluster
  static constexpr std::size_t kSupply = 13;    ///< source -> cluster
  static constexpr std::size_t kSupplyBack = 14;  ///< cluster -> source
  static std::int64_t arc(std::size_t index, std::size_t kind) {
    return static_cast<std::int64_t>(index << 4 | kind);
  }

  struct Tap {
    std::int32_t cell;
    std::size_t cluster;
    std::int64_t cost;
    bool flow;
  };

  grid::Grid grid_;
  std::size_t clusterBase_;
  std::size_t source_;
  std::array<std::int32_t, 4> offset_{};  ///< cell-index step per direction
  /// Directions by increasing offset: S (c-W), W, E, N (c+W).
  std::array<std::size_t, 4> byNeighborIndex_{0, 1, 2, 3};
  std::vector<std::uint16_t> cell_;
  std::vector<Tap> taps_;                 ///< this round's tap arcs, cluster-major
  std::vector<std::size_t> tapBegin_;     ///< cluster k's taps: [tapBegin_[k], tapBegin_[k+1])
  std::vector<std::uint8_t> supplied_;    ///< supply arc of cluster k carries flow
  std::unordered_map<std::int32_t, std::size_t> flowTapInto_;  ///< cell -> tap carrying flow in
  std::int64_t openPins_ = 0;
};

EscapeFlowSession::EscapeFlowSession(const chip::Chip& chip,
                                     grid::ObstacleMap& obstacles)
    : chip_(&chip),
      obstacles_(&obstacles),
      // One cluster node per pending cluster, renumbered every round in
      // pending order; clusters never outnumber valves, so valves.size()
      // slots always suffice and source/sink ids stay fixed across rounds.
      valveCapacity_(chip.valves.size()),
      net_(std::make_unique<GridNetwork>(obstacles.grid(), valveCapacity_)),
      solver_(net_->nodeCount()),
      pinAt_(pinsByCell(chip)) {
  trace::Span spanBuild("escape.flow_build", "escape", trace::Level::kCluster);
  const auto buildT0 = std::chrono::steady_clock::now();
  // Same span as escapeRoute(); any span settles in the same order anyway.
  solver_.setBucketSpan(escapeBucketSpan(obstacles.grid()));
  net_->beginRound(obstacles);  // the occupancy later rounds diff against
  ++stats_.coldBuilds;
  spanBuild.arg("cells", obstacles.grid().cellCount());
  ctorSeconds_ = secondsSince(buildT0);
}

EscapeFlowSession::~EscapeFlowSession() = default;

bool EscapeFlowSession::compatibleWith(const chip::Chip& chip) const noexcept {
  if (chip.valves.size() > valveCapacity_) return false;
  if (chip.routingGrid.width() != net_->grid().width() ||
      chip.routingGrid.height() != net_->grid().height())
    return false;
  if (chip.pins.size() != pinAt_.size()) return false;
  for (const chip::ControlPin& pin : chip.pins) {
    const auto it = pinAt_.find(pin.pos);
    if (it == pinAt_.end() || it->second != pin.id) return false;
  }
  return true;
}

void EscapeFlowSession::rebind(const chip::Chip& chip, grid::ObstacleMap& obstacles) {
  chip_ = &chip;
  obstacles_ = &obstacles;
}

EscapeOutcome EscapeFlowSession::route(std::span<WorkCluster*> clusters) {
  EscapeOutcome outcome;
  const std::vector<std::size_t> pendingIdx = pendingClusters(clusters);
  outcome.requested = static_cast<int>(pendingIdx.size());
  if (pendingIdx.empty()) return outcome;

  ++stats_.rounds;
  const bool warm = !firstRound_;
  firstRound_ = false;
  if (warm) ++stats_.warmRounds;

  trace::Span spanDelta("escape.flow_delta", "escape", trace::Level::kCluster);
  const auto deltaT0 = std::chrono::steady_clock::now();
  const std::int64_t deltaCells = net_->beginRound(*obstacles_);
  // Pin arcs: open iff the pin is unconsumed and its cell is free.
  const std::unordered_set<Point> taken = takenPins(*chip_, clusters);
  for (const chip::ControlPin& pin : chip_->pins)
    if (!taken.contains(pin.pos) && obstacles_->isFree(pin.pos))
      net_->openPin(obstacles_->grid().index(pin.pos));
  for (const std::size_t i : pendingIdx) net_->addCluster(tapArcs(*obstacles_, *clusters[i]));
  // Zero flow, zero potentials: the solve repeats escapeRoute()'s
  // augmentations exactly.
  solver_.clearPotentials();
  solver_.resetCounters();
  stats_.storedArcs = net_->storedArcs();
  if (warm) {
    stats_.warmDeltaCells += deltaCells;
    stats_.warmDeltaArcs += stats_.storedArcs;
  }
  spanDelta.arg("pending", static_cast<std::int64_t>(pendingIdx.size()));
  spanDelta.arg("delta_cells", deltaCells);
  spanDelta.arg("delta_arcs", stats_.storedArcs);
  spanDelta.close();
  // The session's construction is charged to the first round.
  outcome.flowBuildSeconds = secondsSince(deltaT0) + (warm ? 0.0 : ctorSeconds_);

  trace::Span spanRun("escape.flow_run", "escape", trace::Level::kCluster);
  const auto runT0 = std::chrono::steady_clock::now();
  const auto result = solver_.solve(*net_, net_->source(), net_->sink(),
                                    static_cast<std::int64_t>(pendingIdx.size()));
  outcome.routedCount = static_cast<int>(result.flow);
  outcome.flowCost = result.cost;
  outcome.flowRunSeconds = secondsSince(runT0);
  outcome.flowCounters = solver_.counters();
  spanRun.arg("routed", result.flow);
  spanRun.close();

  trace::Span spanDecompose("escape.decompose", "escape", trace::Level::kCluster);
  for (std::size_t k = 0; k < pendingIdx.size(); ++k) {
    if (!net_->supplied(k)) {
      outcome.failed.push_back(pendingIdx[k]);
      continue;
    }
    commitEscape(*obstacles_, pinAt_, *clusters[pendingIdx[k]], net_->firstTapCell(k),
                 [&](std::int32_t c) { return net_->nextCell(c); });
  }
  return outcome;
}

EscapeOutcome escapeRouteSequential(const chip::Chip& chip,
                                    grid::ObstacleMap& obstacles,
                                    std::span<WorkCluster*> clusters) {
  trace::Span span("escape.sequential", "escape", trace::Level::kCluster);
  EscapeOutcome outcome;

  std::unordered_set<Point> taken = takenPins(chip, clusters);
  const std::unordered_map<Point, chip::PinId> pinAt = pinsByCell(chip);

  for (std::size_t i = 0; i < clusters.size(); ++i) {
    WorkCluster& wc = *clusters[i];
    if (!wc.internallyRouted || wc.pin >= 0) continue;
    ++outcome.requested;

    route::AStarRequest req;
    req.sources = wc.tapCells;
    for (const chip::ControlPin& pin : chip.pins)
      if (!taken.contains(pin.pos) && obstacles.isFree(pin.pos))
        req.targets.push_back(pin.pos);
    req.net = wc.net;
    const auto found = route::aStarRoute(obstacles, req);
    if (!found.success) {
      outcome.failed.push_back(i);
      continue;
    }
    wc.escapePath = found.path;
    wc.pin = pinAt.at(found.path.back());
    taken.insert(found.path.back());
    obstacles.occupy(found.path, wc.net);
    ++outcome.routedCount;
    outcome.flowCost += route::pathLength(found.path);
  }
  return outcome;
}

}  // namespace pacor::core
