#include "route/workspace.hpp"

#include <algorithm>
#include <atomic>
#include <limits>

namespace pacor::route {

namespace {

std::atomic<std::uint64_t> gSearches{0};
std::atomic<std::uint64_t> gExpansions{0};
std::atomic<std::uint64_t> gBoundedVisits{0};

thread_local SharedTally* tlTally = nullptr;

}  // namespace

SearchCounters searchTally() noexcept {
  return {gSearches.load(std::memory_order_relaxed),
          gExpansions.load(std::memory_order_relaxed),
          gBoundedVisits.load(std::memory_order_relaxed)};
}

TallyScope::TallyScope(SharedTally* sink) noexcept : prev_(tlTally) {
  // Counts accrued before this scope belong to the previous sink.
  localWorkspace().flushCounters();
  tlTally = sink;
}

TallyScope::~TallyScope() noexcept {
  localWorkspace().flushCounters();
  tlTally = prev_;
}

void RouterWorkspace::flushCounters() noexcept {
  if (searches == 0 && expansions == 0 && boundedVisits == 0) return;
  gSearches.fetch_add(searches, std::memory_order_relaxed);
  gExpansions.fetch_add(expansions, std::memory_order_relaxed);
  gBoundedVisits.fetch_add(boundedVisits, std::memory_order_relaxed);
  if (tlTally != nullptr) tlTally->add({searches, expansions, boundedVisits});
  searches = expansions = boundedVisits = 0;
}

void RouterWorkspace::bind(const grid::Grid& g) {
  const auto cells = static_cast<std::size_t>(g.cellCount());
  if (cells == cells_) return;
  cells_ = cells;
  epoch = 0;
  stamp.assign(cells, 0);
  targetStamp.assign(cells, 0);
  dist.resize(cells);
  parent.resize(cells);
}

std::uint32_t RouterWorkspace::beginSearch() {
  if (epoch == std::numeric_limits<std::uint32_t>::max()) {
    std::fill(stamp.begin(), stamp.end(), 0);
    std::fill(targetStamp.begin(), targetStamp.end(), 0);
    epoch = 0;
  }
  ++epoch;
  heap.clear();
  // Unconsumed entries of the previous search live in [cursor, hi]; empty
  // those buckets (keeping their capacity) before the range resets.
  for (std::int64_t f = bucketCursor; f <= bucketHi; ++f)
    buckets[static_cast<std::size_t>(f)].clear();
  bucketCursor = 0;
  bucketHi = -1;
  ++searches;
  // Keep the global tally fresh enough for per-stage deltas without an
  // atomic RMW per expansion.
  flushCounters();
  return epoch;
}

void RouterWorkspace::bucketPush(std::int64_t f, BucketEntry e) {
  if (static_cast<std::size_t>(f) >= buckets.size())
    buckets.resize(static_cast<std::size_t>(f) + 1);
  buckets[static_cast<std::size_t>(f)].push_back(e);
  bucketHi = std::max(bucketHi, f);
}

bool RouterWorkspace::bucketPop(BucketEntry& out) {
  while (bucketCursor <= bucketHi) {
    auto& b = buckets[static_cast<std::size_t>(bucketCursor)];
    if (b.empty()) {
      ++bucketCursor;
      continue;
    }
    out = b.back();
    b.pop_back();
    return true;
  }
  return false;
}

RouterWorkspace& localWorkspace() {
  thread_local RouterWorkspace ws;
  return ws;
}

}  // namespace pacor::route
