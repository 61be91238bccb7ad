#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/deadline.hpp"

namespace pacor::graph {

/// Successive-shortest-path (SSP) min-cost max-flow: Dijkstra on Johnson-
/// reduced costs, one cheapest augmenting path per pass, for integral
/// capacities and non-negative arc costs.
///
/// The core owns every piece of solver state except the arcs -- per-node
/// labels and potentials, the open list, the effort counters -- and is
/// templated on the network it solves. MinCostFlow's build-once CSR and
/// the escape session's implicit grid network (pacor/escape.cpp) are the
/// two networks, and both run this one loop.
///
/// ## Network interface
///
/// Arc handles are int64 values the network chooses. A network provides
///
///     template <class Prefetch, class Relax>
///     void scan(std::size_t u, Prefetch&& prefetch, Relax&& relax);
///     std::size_t tail(std::int64_t arc) const;
///     std::int64_t residual(std::int64_t arc) const;
///     std::int64_t augment(std::int64_t arc, std::int64_t units);
///     std::int64_t sinkCapacity(std::size_t t) const;
///
/// scan() calls relax(v, cost, arc) for every arc u -> v with positive
/// residual capacity, in a fixed per-node order, and may call prefetch(v)
/// for an arc it is about to relax. The order can matter in two ways: of
/// two parallel arcs u -> v of equal reduced cost the first labels v, and
/// an arc into t relaxed early prunes the pushes after it (the sink bound
/// below), which the push counters see. Two networks with the same
/// positive-residual arcs in the same per-node order therefore settle the
/// same nodes, route the same flow and count the same effort.
///
/// augment() moves `units` from the arc's residual capacity to its
/// reverse arc's and returns the arc's cost per unit (the negated cost on
/// a reverse arc). sinkCapacity() is the residual capacity of every arc
/// into t.
///
/// ## Open list: Dial buckets with a heap fallback
///
/// Reduced costs under Johnson potentials are small non-negative integers
/// on the escape networks (unit grid steps plus bounded tap biases), so
/// the default open list is a Dial/bucket queue: labels below the bucket
/// span (setBucketSpan; callers size it from the grid diameter) go to
/// per-distance buckets, and the *active* bucket is drained through a
/// three-level bitmap over node ids, so the frequent case -- a zero-
/// reduced-cost plateau flooding one bucket -- pops in O(1) word scans
/// instead of heap sifts. Labels at or beyond the span overflow into a
/// packed 4-ary heap and drain strictly after every bucket (all bucket
/// distances are smaller), so the settle sequence is *exactly* the
/// lexicographic (distance, node) order of the pure-heap implementation,
/// stale entries included: results stay bit-identical at any span, and a
/// span of 0 sends every label to the heap (the pure heap, for A/B tests
/// and benchmarks).
///
/// Per-node search state is generation-stamped instead of refilled, so a
/// pass costs O(queue work + path length), not O(nodes).
class SspCore {
 public:
  explicit SspCore(std::size_t nodeCount)
      : nodes_(nodeCount, Node{0, 0, -1, 0}),
        nodeBits_(std::max<unsigned>(1, std::bit_width(nodeCount))) {}

  std::size_t nodeCount() const noexcept { return nodes_.size(); }

  struct Result {
    std::int64_t flow = 0;
    std::int64_t cost = 0;
  };

  /// Cumulative solver-effort counters across solves; the escape metrics
  /// (`escape.flow.*`) and bench_min_cost_flow read these.
  struct Counters {
    std::uint64_t dijkstraPasses = 0;  ///< label passes started
    std::uint64_t augmentations = 0;   ///< augmenting paths applied
    std::uint64_t bucketPushes = 0;    ///< open-list inserts into Dial buckets
    std::uint64_t heapPushes = 0;      ///< open-list inserts into the 4-ary heap
    std::uint64_t queuePops = 0;       ///< open-list pops, stale entries included
    std::uint64_t settles = 0;         ///< nodes settled across all passes
    std::uint64_t earlyExits = 0;      ///< passes skipped by the sink-capacity cut
    bool operator==(const Counters&) const = default;
  };
  const Counters& counters() const noexcept { return counters_; }
  void resetCounters() noexcept { counters_ = {}; }

  /// Dial bucket span bounds (distance labels below the span go to
  /// buckets; at or above it, to the overflow heap). The ceiling bounds
  /// the bucket array itself; the floor is recommendedBucketSpan's
  /// smallest answer.
  static constexpr std::int64_t kMinBucketSpan = std::int64_t{1} << 6;
  static constexpr std::int64_t kMaxBucketSpan = std::int64_t{1} << 20;
  static constexpr std::int64_t kDefaultBucketSpan = std::int64_t{1} << 14;

  /// Sets the Dial bucket span, clamped to [0, kMaxBucketSpan]. Any span
  /// yields the identical settle order (labels past the span overflow
  /// into the heap, which drains strictly after every bucket); the knob
  /// trades bucket-array memory against how much of the distance range
  /// enjoys O(1) pushes. Span 0 is the pure packed heap: every label
  /// overflows, so the buckets and the bitmap stay empty, for
  /// differential tests and the solver microbenchmark. Call between
  /// solves.
  void setBucketSpan(std::int64_t span) noexcept {
    bucketSpan_ = std::clamp(span, std::int64_t{0}, kMaxBucketSpan);
  }
  std::int64_t bucketSpan() const noexcept { return bucketSpan_; }

  /// Span recommendation covering distance labels up to
  /// `maxExpectedDistance` (e.g. a few grid diameters for an escape
  /// network): the next power of two above it, clamped to the span
  /// bounds. Labels beyond the estimate still solve correctly via the
  /// overflow heap.
  static std::int64_t recommendedBucketSpan(std::int64_t maxExpectedDistance) noexcept {
    std::int64_t span = kMinBucketSpan;
    while (span <= maxExpectedDistance && span < kMaxBucketSpan) span <<= 1;
    return span;
  }

  /// Zeroes the Johnson potentials. Zero potentials are valid for any
  /// network at zero flow (all arc costs are non-negative), so a caller
  /// that returns its network to zero flow between solves calls this too;
  /// the solve then repeats a fresh solver's augmentations exactly.
  void clearPotentials() noexcept {
    for (Node& node : nodes_) node.potential = 0;
  }

  /// Sends up to `maxFlow` units from s to t along successively cheapest
  /// augmenting paths of `net`, starting from the flow the network holds
  /// and the current potentials.
  template <class Network>
  Result solve(Network& net, std::size_t s, std::size_t t, std::int64_t maxFlow);

 private:
  // Per-node search state; dist/prevArc valid when distStamp == epoch_.
  struct alignas(32) Node {
    std::int64_t dist;
    std::int64_t potential;
    std::int64_t prevArc;  ///< arc handle that labeled the node
    std::uint32_t distStamp;
  };
  static_assert(sizeof(Node) == 32);  // over-aligned: never straddles cache lines
  std::vector<Node> nodes_;
  std::uint32_t epoch_ = 0;

  // Open list, heap part: a 4-ary heap of keys packed as
  // (distance << nodeBits_) | node. Packed comparison is exactly the
  // lexicographic (distance, node) order of a pair heap -- distance ties
  // break toward the smaller node id -- and any correct priority queue
  // pops the comparator minimum, so the settle sequence is independent of
  // heap arity and layout. The heap holds only the overflow (distance >=
  // bucketSpan_; every label at span 0), which drains after every bucket.
  unsigned nodeBits_ = 1;
  std::vector<std::uint64_t> heap_;
  std::vector<std::int32_t> settled_;  ///< pop order, for the potential update
  /// Per-pass settled set, one bit per node. The relax loop checks this
  /// L1/L2-resident bitset before touching the 32-byte Node record, so
  /// arcs into already-settled nodes -- roughly half of a grid pass's
  /// relaxations -- skip the random Node load entirely. Cleared at the
  /// start of every pass.
  std::vector<std::uint64_t> doneBits_;

  // Open list, Dial part: per-distance buckets of node ids below
  // bucketSpan_. The bucket being drained ("active") lives in a
  // three-level bitmap over node ids, so pop-min is a handful of word
  // scans and inserting into the active distance (zero-reduced-cost
  // relaxations) is three bit-sets. Future distances append to plain
  // vectors; usedBuckets_ lets a pass that ends on the sink cut clear
  // only what it touched.
  std::int64_t bucketSpan_ = kDefaultBucketSpan;
  std::vector<std::vector<std::int32_t>> buckets_;
  std::vector<std::int32_t> usedBuckets_;
  std::int64_t activeDist_ = 0;  ///< distance held by the bitmap
  std::int64_t bucketHi_ = -1;   ///< highest non-empty future bucket
  std::vector<std::uint64_t> bmL0_, bmL1_, bmL2_;
  std::size_t bmCount_ = 0;

  Counters counters_;

  static void heapPush(std::vector<std::uint64_t>& heap, std::uint64_t key) {
    std::size_t i = heap.size();
    heap.push_back(key);
    while (i > 0) {
      const std::size_t p = (i - 1) >> 2;
      if (heap[p] <= key) break;
      heap[i] = heap[p];
      i = p;
    }
    heap[i] = key;
  }

  static std::uint64_t heapPop(std::vector<std::uint64_t>& heap) {
    const std::uint64_t top = heap.front();
    const std::uint64_t last = heap.back();
    heap.pop_back();
    const std::size_t n = heap.size();
    if (n > 0) {
      std::size_t i = 0;
      for (;;) {
        const std::size_t c = 4 * i + 1;
        if (c >= n) break;
        std::size_t m = c;
        const std::size_t hi = std::min(c + 4, n);
        for (std::size_t j = c + 1; j < hi; ++j)
          if (heap[j] < heap[m]) m = j;
        if (last <= heap[m]) break;
        heap[i] = heap[m];
        i = m;
      }
      heap[i] = last;
    }
    return top;
  }

  void bmInsert(std::size_t v) {
    const std::size_t w0 = v >> 6;
    const std::uint64_t bit = std::uint64_t{1} << (v & 63);
    if ((bmL0_[w0] & bit) != 0) return;  // idempotent: dedups same-distance pushes
    bmL0_[w0] |= bit;
    bmL1_[w0 >> 6] |= std::uint64_t{1} << (w0 & 63);
    bmL2_[w0 >> 12] |= std::uint64_t{1} << ((w0 >> 6) & 63);
    ++bmCount_;
  }

  std::size_t bmPopMin() {
    std::size_t w2 = 0;
    while (bmL2_[w2] == 0) ++w2;
    const std::size_t w1 = (w2 << 6) + static_cast<std::size_t>(std::countr_zero(bmL2_[w2]));
    const std::size_t w0 = (w1 << 6) + static_cast<std::size_t>(std::countr_zero(bmL1_[w1]));
    const std::size_t v = (w0 << 6) + static_cast<std::size_t>(std::countr_zero(bmL0_[w0]));
    bmL0_[w0] &= bmL0_[w0] - 1;
    if (bmL0_[w0] == 0) {
      bmL1_[w1] &= ~(std::uint64_t{1} << (w0 & 63));
      if (bmL1_[w1] == 0) bmL2_[w2] &= ~(std::uint64_t{1} << (w1 & 63));
    }
    --bmCount_;
    return v;
  }

  void bmClearAll() {
    for (std::size_t w2 = 0; w2 < bmL2_.size(); ++w2) {
      std::uint64_t m2 = bmL2_[w2];
      while (m2 != 0) {
        const std::size_t w1 = (w2 << 6) + static_cast<std::size_t>(std::countr_zero(m2));
        std::uint64_t m1 = bmL1_[w1];
        while (m1 != 0) {
          bmL0_[(w1 << 6) + static_cast<std::size_t>(std::countr_zero(m1))] = 0;
          m1 &= m1 - 1;
        }
        bmL1_[w1] = 0;
        m2 &= m2 - 1;
      }
      bmL2_[w2] = 0;
    }
    bmCount_ = 0;
  }
};

template <class Network>
SspCore::Result SspCore::solve(Network& net, std::size_t s, std::size_t t,
                               std::int64_t maxFlow) {
  Result result;

  // Lazy queue storage. Bucket array is distance-indexed (bucketSpan_
  // slots); the bitmap covers node ids and represents the ACTIVE bucket.
  if (buckets_.size() < static_cast<std::size_t>(bucketSpan_))
    buckets_.resize(static_cast<std::size_t>(bucketSpan_));
  const std::size_t words = (nodes_.size() + 63) / 64;
  if (bmL0_.size() < words) {
    bmL0_.assign(words, 0);
    bmL1_.assign((words + 63) / 64, 0);
    bmL2_.assign((bmL1_.size() + 63) / 64, 0);
    bmCount_ = 0;
  }
  const std::uint64_t nodeMask = (std::uint64_t{1} << nodeBits_) - 1;

  // Effort tallies live in registers inside the hot loop and flush to
  // counters_ once per solve().
  std::uint64_t nBucketPushes = 0, nHeapPushes = 0, nQueuePops = 0, nSettles = 0;

  // Push/pop over the combined Dial-bucket + overflow-heap queue. The
  // pop sequence reproduces the packed-heap comparator order exactly:
  //   - every bucketed dist is < bucketSpan_ <= every heap dist, so the
  //     heap drains strictly after the buckets;
  //   - buckets drain in increasing dist (activeDist_ is monotone within
  //     a pass) and the active bucket's bitmap pops in node-id order,
  //     matching the (dist << nodeBits_) | node key order;
  //   - stale queue entries (node improved after an earlier push) pop at
  //     their original dist and are skipped by doneBits_, as in the heap.
  // Same-dist pushes during settling (the zero-reduced-cost plateau the
  // sink cut exists for) are O(1) bit-sets instead of heap sift-ups.
  const auto queuePush = [&](std::int64_t nd, std::size_t v) {
    if (nd < bucketSpan_) {
      ++nBucketPushes;
      if (nd == activeDist_) {
        bmInsert(v);
      } else {
        auto& bucket = buckets_[static_cast<std::size_t>(nd)];
        if (bucket.empty()) usedBuckets_.push_back(static_cast<std::int32_t>(nd));
        bucket.push_back(static_cast<std::int32_t>(v));
        if (nd > bucketHi_) bucketHi_ = nd;
      }
    } else {
      ++nHeapPushes;
      heapPush(heap_, (static_cast<std::uint64_t>(nd) << nodeBits_) |
                          static_cast<std::uint64_t>(v));
    }
  };
  const auto queuePop = [&](std::size_t& u, std::int64_t& d) -> bool {
    if (bmCount_ != 0) {
      u = bmPopMin();
      d = activeDist_;
      ++nQueuePops;
      return true;
    }
    // Advance the cursor to the next non-empty bucket and promote it to
    // the bitmap. The scan segments are disjoint across a pass
    // (activeDist_ only grows), so the total scan cost is O(bucketSpan_)
    // per pass, dominated by the relaxation work.
    while (activeDist_ < bucketHi_) {
      ++activeDist_;
      auto& bucket = buckets_[static_cast<std::size_t>(activeDist_)];
      if (bucket.empty()) continue;
      for (const std::int32_t x : bucket) bmInsert(static_cast<std::size_t>(x));
      bucket.clear();
      u = bmPopMin();
      d = activeDist_;
      ++nQueuePops;
      return true;
    }
    if (heap_.empty()) return false;
    const std::uint64_t top = heapPop(heap_);
    u = static_cast<std::size_t>(top & nodeMask);
    d = static_cast<std::int64_t>(top >> nodeBits_);
    ++nQueuePops;
    return true;
  };

  // Remaining residual capacity into the sink bounds every future
  // augmentation one-for-one (every augmenting path is simple and ends on
  // an arc into t), so hitting zero proves the next Dijkstra pass would
  // fail -- skip it. The skipped pass has no observable effect (a failing
  // pass never updates potentials), so the output is unchanged.
  std::int64_t sinkCap = s != t ? net.sinkCapacity(t)
                                : std::numeric_limits<std::int64_t>::max();

  while (result.flow < maxFlow) {
    util::checkDeadline();
    if (sinkCap <= 0) {
      ++counters_.earlyExits;
      break;
    }
    // Dijkstra on reduced costs. "Clearing" the labels is an epoch bump;
    // unlabeled == stamp mismatch.
    if (epoch_ == std::numeric_limits<std::uint32_t>::max()) {
      for (Node& node : nodes_) node.distStamp = 0;
      epoch_ = 0;
    }
    ++epoch_;
    ++counters_.dijkstraPasses;
    heap_.clear();
    settled_.clear();
    const std::size_t dbWords = (nodes_.size() + 63) / 64;
    if (doneBits_.size() < dbWords) doneBits_.resize(dbWords);
    std::fill_n(doneBits_.begin(), dbWords, 0);
    // A sink cut can abandon queued entries; clearing touches only the
    // buckets and bitmap words actually used last pass.
    if (bmCount_ != 0) bmClearAll();
    for (const std::int32_t b : usedBuckets_) buckets_[static_cast<std::size_t>(b)].clear();
    usedBuckets_.clear();
    activeDist_ = 0;
    bucketHi_ = -1;
    nodes_[s].dist = 0;
    nodes_[s].prevArc = -1;
    nodes_[s].distStamp = epoch_;
    queuePush(0, s);
    // Once the sink is labeled at B, an entry pushed with key > B can
    // never settle: pops are monotone and the sink cut fires at the first
    // pop with d >= sink.dist <= B. Skipping those pushes (the label
    // write still happens, so later comparisons are unchanged) prunes the
    // plateau boundary without touching the settle sequence. Strictly
    // greater only -- entries AT the bound (the sink's own included) must
    // stay queued so the cut always fires.
    std::int64_t sinkBound = std::numeric_limits<std::int64_t>::max();
    bool reachedSink = false;
    std::int64_t sinkDist = 0;
    std::size_t u = 0;
    std::int64_t d = 0;
    std::int64_t potU = 0;
    const auto prefetch = [&](std::size_t v) { __builtin_prefetch(&nodes_[v]); };
    const auto relax = [&](std::size_t v, std::int64_t cost, std::int64_t arc) {
      if ((doneBits_[v >> 6] >> (v & 63)) & 1) return;
      Node& node = nodes_[v];
      const std::int64_t nd = d + cost + potU - node.potential;
      assert(nd >= d && "reduced cost must be non-negative");
      if (node.distStamp != epoch_ || nd < node.dist) {
        node.dist = nd;
        node.prevArc = arc;
        node.distStamp = epoch_;
        if (v == t) sinkBound = nd;
        if (nd <= sinkBound) queuePush(nd, v);
      }
    };
    while (queuePop(u, d)) {
      // Sink cut: once the sink's label equals the queue minimum, no
      // strict improvement at or below that key is possible (reduced
      // costs are non-negative), so the sink's predecessor chain is
      // already final -- settling the remaining equal-key nodes first, as
      // a (distance, node-id) queue would, cannot change the augmenting
      // path or any label below the sink distance. Stopping here skips
      // the zero-reduced-cost plateau that Johnson potentials create
      // around the previous shortest-path tree. Checking after the pop is
      // equivalent to checking against the queue front: the popped key IS
      // the front, and the consumed entry would be discarded at the next
      // pass reset anyway. It also means the sink is never expanded.
      if (nodes_[t].distStamp == epoch_ && nodes_[t].dist <= d) {
        reachedSink = true;
        sinkDist = nodes_[t].dist;
        break;
      }
      if ((doneBits_[u >> 6] >> (u & 63)) & 1) continue;
      doneBits_[u >> 6] |= std::uint64_t{1} << (u & 63);
      settled_.push_back(static_cast<std::int32_t>(u));
      ++nSettles;
      potU = nodes_[u].potential;
      net.scan(u, prefetch, relax);
    }
    if (!reachedSink) break;  // no augmenting path

    // Potential update with early termination: every node whose true
    // distance is below dist[t] is settled (pops are monotone), so
    // clamping all other labels -- including unlabeled nodes -- to
    // dist[t] keeps every residual reduced cost non-negative. The clamped
    // update adds dist[t] uniformly to every node; a uniform shift cancels
    // out of every reduced cost (only potential differences are ever
    // read), so it can be dropped entirely. What remains is the relative
    // correction dist[v] - dist[t] on settled nodes -- any labeled-but-
    // unsettled node has dist >= dist[t] once the sink cut fires, hence
    // zero correction.
    // sinkDist == 0 means every settled label is 0 too (pops are
    // monotone), making the correction below a no-op -- skip the sweep.
    // Otherwise settled_ is in pop order, so labels are non-decreasing:
    // stop at the first dist >= sinkDist instead of scanning the rest.
    if (sinkDist > 0) {
      for (const std::int32_t v : settled_) {
        Node& node = nodes_[static_cast<std::size_t>(v)];
        if (node.dist >= sinkDist) break;
        node.potential += node.dist - sinkDist;
      }
    }
    settled_.clear();

    std::int64_t push = maxFlow - result.flow;
    for (std::size_t v = t; v != s;) {
      const std::int64_t arc = nodes_[v].prevArc;
      push = std::min(push, net.residual(arc));
      v = net.tail(arc);
    }
    for (std::size_t v = t; v != s;) {
      const std::int64_t arc = nodes_[v].prevArc;
      result.cost += push * net.augment(arc, push);
      v = net.tail(arc);
    }
    ++counters_.augmentations;
    result.flow += push;
    sinkCap -= push;
  }
  counters_.bucketPushes += nBucketPushes;
  counters_.heapPushes += nHeapPushes;
  counters_.queuePops += nQueuePops;
  counters_.settles += nSettles;
  return result;
}

}  // namespace pacor::graph
