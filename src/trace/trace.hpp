#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace pacor::trace {

/// Span granularity. A session enabled at level L records every span whose
/// level is <= L: kStage keeps only the five pipeline stages (plus their
/// sub-phases), kCluster adds per-cluster and per-iteration work, kSearch
/// adds one span per search-kernel invocation (large traces).
enum class Level : int {
  kOff = 0,
  kStage = 1,
  kCluster = 2,
  kSearch = 3,
};

/// Parses "off" / "stage" / "cluster" / "search"; nullopt otherwise.
std::optional<Level> parseLevel(std::string_view name) noexcept;

namespace detail {
/// The calling thread's session level, read on every Span construction.
/// Only beginSession/endSession on the same thread write it.
inline thread_local int tlLevel = static_cast<int>(Level::kOff);
}  // namespace detail

/// True when the calling thread records spans of `need`. With tracing off
/// this is one thread-local load and a compare -- the entire disabled-path
/// cost of the subsystem.
inline bool enabled(Level need = Level::kStage) noexcept {
  return detail::tlLevel >= static_cast<int>(need);
}

/// One key/value annotation on a span. Keys must be string literals (or
/// otherwise outlive the session): events store the pointer only.
struct Arg {
  const char* key = nullptr;
  std::int64_t value = 0;
};

/// One completed span, Chrome trace_event "X" (complete) phase. Name and
/// category are static strings; times are nanoseconds relative to the
/// session start.
struct Event {
  const char* name = nullptr;
  const char* cat = nullptr;
  std::int64_t startNs = 0;
  std::int64_t durNs = 0;
  Arg args[2];
};

/// Starts recording on the calling thread at `level` (kOff just ends the
/// session). A session is per thread, one event vector and one time
/// origin, and a span records into the session of the thread that opens
/// it: threads trace side by side and each session holds only its own
/// thread's spans. A routing request runs on one thread, so its session
/// is its whole trace. Events of an earlier session on this thread are
/// discarded. Call strictly before the traced region.
void beginSession(Level level);

/// Stops recording on the calling thread and returns its events sorted by
/// start time, the enclosing span first. Empty when no session was active.
std::vector<Event> endSession();

/// True while the calling thread records.
inline bool sessionActive() noexcept { return enabled(Level::kStage); }

/// RAII scoped span. Construction is inert (no clock read, no event
/// touch) unless the thread's session level admits `level`; destruction
/// records one Event into the thread's session. Spans on one thread must
/// nest (natural for scoped lifetimes), which is what makes a trace
/// laminar.
class Span {
 public:
  Span(const char* name, const char* cat, Level level = Level::kStage) noexcept;
  ~Span() noexcept { close(); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attaches up to two integer annotations; no-op when inert or full.
  void arg(const char* key, std::int64_t value) noexcept;

  /// Records the span now (instead of at destruction) and inerts it.
  void close() noexcept;

 private:
  const char* name_ = nullptr;
  const char* cat_ = nullptr;
  std::int64_t startNs_ = -1;  ///< -1 = inert (tracing disabled at ctor)
  Arg args_[2];
};

/// Serializes events as Chrome trace_event JSON ({"traceEvents": [...]}),
/// loadable in chrome://tracing and Perfetto. Timestamps become
/// microseconds (the trace_event unit).
std::string toChromeJson(const std::vector<Event>& events);

/// Writes toChromeJson(events) to `path`; false on I/O failure.
bool writeChromeTrace(const std::string& path, const std::vector<Event>& events);

}  // namespace pacor::trace
