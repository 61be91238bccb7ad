#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "grid/grid.hpp"

namespace pacor::route {

/// Aggregate search-effort counters, flushed from the workspaces into the
/// thread's active SharedTally (and the process-wide tally) so the
/// pipeline can report per-stage A* work in machine-readable form.
struct SearchCounters {
  std::uint64_t searches = 0;       ///< A* invocations (all variants)
  std::uint64_t expansions = 0;     ///< settled open-list pops
  std::uint64_t boundedVisits = 0;  ///< bounded-length DFS cell visits

  SearchCounters operator-(const SearchCounters& o) const noexcept {
    return {searches - o.searches, expansions - o.expansions,
            boundedVisits - o.boundedVisits};
  }
  SearchCounters& operator+=(const SearchCounters& o) noexcept {
    searches += o.searches;
    expansions += o.expansions;
    boundedVisits += o.boundedVisits;
    return *this;
  }
};

/// Reads the process-wide search tally (thread-safe). This aggregates
/// every search of the process lifetime across all concurrent callers;
/// per-request accounting must use a SharedTally scope instead --
/// differencing the process tally around a stage cross-contaminates
/// concurrent in-process routeChip calls.
SearchCounters searchTally() noexcept;

/// A caller-owned counter sink multiple threads can flush into
/// concurrently. One instance per routing request gives contamination-free
/// per-request (and, via snapshots, per-stage) search effort even when
/// several requests run in the same process at once.
class SharedTally {
 public:
  void add(const SearchCounters& c) noexcept {
    searches_.fetch_add(c.searches, std::memory_order_relaxed);
    expansions_.fetch_add(c.expansions, std::memory_order_relaxed);
    boundedVisits_.fetch_add(c.boundedVisits, std::memory_order_relaxed);
  }
  SearchCounters snapshot() const noexcept {
    return {searches_.load(std::memory_order_relaxed),
            expansions_.load(std::memory_order_relaxed),
            boundedVisits_.load(std::memory_order_relaxed)};
  }

 private:
  std::atomic<std::uint64_t> searches_{0};
  std::atomic<std::uint64_t> expansions_{0};
  std::atomic<std::uint64_t> boundedVisits_{0};
};

/// RAII scope routing this thread's flushed workspace counters into
/// `sink` (in addition to the process tally) until destruction; the
/// previous sink is restored on exit, so scopes nest. Construction and
/// destruction flush the thread's workspace so counts settle into the
/// sink that was active while they accrued.
///
/// The scope is per-thread, and a routing request runs entirely on the
/// thread that installed it, so every search of the request lands here.
class TallyScope {
 public:
  explicit TallyScope(SharedTally* sink) noexcept;
  ~TallyScope() noexcept;

  TallyScope(const TallyScope&) = delete;
  TallyScope& operator=(const TallyScope&) = delete;

 private:
  SharedTally* prev_;
};

/// Reusable scratch memory for the grid-search kernels (A*, the bend-aware
/// variant, and the bounded-length DFS).
///
/// The seed implementation constructed and infinity-filled O(grid cells)
/// vectors on every call; at routing-iteration counts that is the dominant
/// memory traffic. The workspace sizes the arrays once per grid and
/// invalidates them with a generation stamp: a cell's dist/parent entry is
/// meaningful only when stamp[cell] == epoch, so "clearing" a search is a
/// single epoch increment. Each thread owns its own workspace
/// (localWorkspace() hands out a thread_local instance), so concurrent
/// requests on different threads search allocation- and lock-free.
///
/// The members are deliberately public: this is shared scratch for the
/// kernels in astar.cpp / bounded_astar.cpp, not an abstraction boundary.
class RouterWorkspace {
 public:
  /// Ensures every per-cell array covers `g`; resets epochs when the grid
  /// size changes.
  void bind(const grid::Grid& g);

  /// Starts a new search: bumps the epoch (handling wrap-around) and
  /// clears the per-search buffers. Returns the fresh epoch.
  std::uint32_t beginSearch();

  /// Number of cells the workspace is currently sized for.
  std::size_t cellCount() const noexcept { return cells_; }

  // --- per-cell state, valid when stamp[c] == epoch -----------------------
  std::uint32_t epoch = 0;
  std::vector<std::uint32_t> stamp;        ///< dist/parent label stamp
  std::vector<std::uint32_t> targetStamp;  ///< target-set membership stamp
  std::vector<double> dist;
  std::vector<std::int32_t> parent;

  // --- direction-aware overlay (5 states per cell), sized on demand -------
  std::vector<std::uint32_t> stampDir;
  std::vector<double> distDir;
  std::vector<std::int64_t> parentDir;
  void bindDirectional();

  // --- reusable open lists ------------------------------------------------
  /// Binary-heap storage for the double-cost search (history costs).
  struct HeapItem {
    double f;
    double g;
    std::int32_t cell;
    bool operator>(const HeapItem& o) const noexcept { return f > o.f; }
  };
  std::vector<HeapItem> heap;

  /// Binary-heap storage for the direction-aware search.
  struct DirHeapItem {
    double f;
    double g;
    std::int64_t state;
    bool operator>(const DirHeapItem& o) const noexcept { return f > o.f; }
  };
  std::vector<DirHeapItem> dirHeap;

  /// Bucketed open list for the integer-cost (no-history) fast path:
  /// entries keyed by f = g + h, popped in non-decreasing f order (the
  /// Manhattan heuristic is consistent, so f never decreases and a single
  /// forward cursor suffices — Dial's algorithm).
  struct BucketEntry {
    std::int32_t cell;
    std::int32_t g;  ///< g at push time; stale when != dist[cell]
  };
  std::vector<std::vector<BucketEntry>> buckets;
  std::int64_t bucketCursor = 0;  ///< lowest possibly non-empty bucket
  std::int64_t bucketHi = -1;     ///< highest bucket used this search
  void bucketPush(std::int64_t f, BucketEntry e);
  /// Pops the next entry in f order; returns false when the list is empty.
  bool bucketPop(BucketEntry& out);

  // --- counters (flushed to the global tally by flushCounters) ------------
  std::uint64_t searches = 0;
  std::uint64_t expansions = 0;
  std::uint64_t boundedVisits = 0;
  void flushCounters() noexcept;
  ~RouterWorkspace() { flushCounters(); }

 private:
  std::size_t cells_ = 0;
};

/// Thread-local workspace: the default scratch for every search kernel, so
/// call sites that do not care about workspaces stay allocation-free and
/// each thread automatically owns a private instance.
RouterWorkspace& localWorkspace();

}  // namespace pacor::route
