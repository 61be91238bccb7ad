#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <iosfwd>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "chip/chip.hpp"
#include "chip/delta.hpp"
#include "grid/obstacle_map.hpp"
#include "pacor/config.hpp"
#include "pacor/pipeline.hpp"
#include "pacor/result.hpp"
#include "serve/protocol.hpp"
#include "trace/trace.hpp"

namespace pacor::serve {

/// A structured design-load failure (ParseError-style): `field` names the
/// offending request field (always "design" today), `reason` says why.
/// The serve tiers render it as `err <design> field=<field> <reason>`
/// instead of a bare `error` response -- the client can tell a malformed
/// design token from a routing failure.
class LoadError : public std::runtime_error {
 public:
  LoadError(std::string field, std::string reason)
      : std::runtime_error(reason), field(std::move(field)),
        reason(std::move(reason)) {}
  std::string field;
  std::string reason;
};

/// Knobs of the cancellable design-load path.
struct LoadOptions {
  /// Per-request cancel flag: checked between read chunks (and while
  /// parked on a FIFO), so a request whose deadline expired stops
  /// occupying its dispatcher in bounded time. Null = never cancelled.
  std::shared_ptr<std::atomic<bool>> cancel;

  /// TEST-ONLY escape hatch: allow a named pipe (FIFO) as a .chip path.
  /// The read parks until a writer supplies the bytes -- exactly what the
  /// drain/deadline tests need to hold a dispatcher at a known point.
  /// Off by default: loadDesign rejects every non-regular file with a
  /// structured LoadError instead of blocking or reading garbage.
  bool allowFifoDesigns = false;
};

/// Resolves a request's design token into a chip: a Table-1 name (Chip1,
/// Chip2, S1..S5) generates the paper instance, an FPVA spec
/// (fpva:NxM[:key=val...]) synthesizes a valve array, anything else is
/// read as a .chip file path. The token doubles as the server's context
/// (and queue-affinity) key.
///
/// File paths are stat-gated: only regular files are read (in chunks,
/// checking `options.cancel` between chunks); FIFOs, directories, and
/// device nodes throw a structured LoadError -- unless
/// `options.allowFifoDesigns` admits FIFOs through the cancellable
/// parked-read path. Unknown/unreadable designs throw.
chip::Chip loadDesign(const std::string& token, const LoadOptions& options);
chip::Chip loadDesign(const std::string& token);

/// Per-design state the server keeps alive across requests: the parsed
/// chip (mutated only by ECO edits), the routing obstacle template (static
/// obstacles + blocked boundary cells, derived once instead of per
/// request), the design's persistent EscapeFlowSession (warm-rebound into
/// each request that wins the try-lock; see Server::route), the previous
/// routed result for ECO chains, and this design's trace session handle.
/// A request routes entirely on the thread that executes it (a dispatcher,
/// or the caller of route()/eco()), whose thread-local RouterWorkspace
/// survives across requests without being owned here.
class DesignContext {
 public:
  explicit DesignContext(chip::Chip chip);
  ~DesignContext();

  const chip::Chip& chip() const noexcept { return chip_; }
  const grid::ObstacleMap& obstacleTemplate() const noexcept {
    return obstacleTemplate_;
  }
  trace::Session& traceSession() noexcept { return traceSession_; }

 private:
  friend class Server;

  chip::Chip chip_;
  grid::ObstacleMap obstacleTemplate_;
  trace::Session traceSession_;

  /// ECO fence: route() holds it shared (the chip and template must stay
  /// put while a request routes), eco() exclusively (it swaps both for the
  /// edited design). Acquired after the server's trace fence, always.
  mutable std::shared_mutex stateMutex_;

  /// Persistent escape-flow session of this design. One request at a time
  /// may drive it: route() try-locks escapeMutex_ and the winner passes
  /// the slot into routeChip (which warm-rebinds or lazily builds it);
  /// losers route with a request-local session, byte-identical either
  /// way. The submit() queue tier serializes same-design requests, so
  /// queued traffic normally wins this lock and lands warm. The exception
  /// is a watchdog recycle: routing does not poll the cancel flag, so the
  /// abandoned execution keeps routing and keeps this lock until its route
  /// finishes, and the design's next request loses the try-lock. That is
  /// why this is a try-lock: the next request routes cold at once instead
  /// of waiting behind a route nobody can cancel.
  std::mutex escapeMutex_;
  std::unique_ptr<core::EscapeFlowSession> escapeSession_;

  /// Most recent routed result + the config that produced it: the `prev`
  /// an ECO request chains from when the configs are output-equivalent
  /// (otherwise eco() re-routes the base once before applying the edit).
  std::mutex cacheMutex_;
  bool hasLast_ = false;
  core::PacorConfig lastConfig_;
  core::PacorResult lastResult_;
};

/// Admission-control knobs of the Server::submit queue tier.
struct AdmissionOptions {
  /// Dispatcher threads = requests executing at once (distinct designs;
  /// same-design requests are always serialized FIFO for warm affinity).
  int maxInflight = 2;

  /// High-water mark on requests WAITING in the per-design queues (the
  /// executing ones are bounded by maxInflight separately). Submissions
  /// past it get an immediate `busy` response instead of queueing.
  /// 0 = unbounded (batch mode: every manifest line is admitted).
  std::size_t maxQueue = 0;

  /// Server-side deadline (ms from admission) applied to requests that
  /// carry no deadline_ms= of their own. 0 = no default deadline.
  std::int64_t defaultDeadlineMs = 0;

  /// LRU bound on cached DesignContexts (parsed chip + obstacle template
  /// + warm escape session + ECO result cache). Past it, the
  /// least-recently-used context with no in-flight pin is evicted; a
  /// later request for that design rebuilds it cold, byte-identically.
  /// Generous by default so steady traffic never rebuilds; 0 = unlimited.
  /// Pinned (executing) contexts are never evicted, so the resident count
  /// can transiently exceed the bound by the number of in-flight designs.
  std::size_t maxDesigns = 256;

  /// TEST-ONLY: forwarded to LoadOptions::allowFifoDesigns for every
  /// design load this server performs.
  bool allowFifoDesigns = false;
};

/// Long-lived request loop state: one DesignContext per distinct design.
/// Each request runs on one thread from start to finish. Requests may be
/// submitted from any number of threads concurrently; each gets an
/// isolated result (own MetricsRegistry, request-scoped search counters)
/// that is byte-identical to a fresh one-shot routeChip of the same chip
/// and config.
///
/// Two tiers share the same execution core:
///  * route()/eco() -- direct, caller-threaded execution against a held
///    context (concurrent same-design callers race the escape-session
///    try-lock; losers run a request-local session, byte-identical).
///  * submit() -- the queued front-end tier: each request joins its
///    design's FIFO queue, design queues run one request at a time (so
///    repeat traffic lands on the warm EscapeFlowSession and obstacle
///    template; see DesignContext::escapeMutex_ for the one exception),
///    distinct designs run concurrently on up to
///    AdmissionOptions::maxInflight dispatcher threads, and a bounded
///    waiting queue sheds load with `busy` responses past the high-water
///    mark. Both the batch manifest loop and the socket front end are
///    thin adapters over submit().
///
/// Liveness (submit tier only): every request may carry a deadline
/// (deadline_ms= or AdmissionOptions::defaultDeadlineMs). It is enforced
/// at three points -- a request already past its deadline when a
/// dispatcher pops it is answered `err ... field=deadline` without
/// dispatch; design loads run on a cancellable chunked-read path so a
/// parked file can be abandoned; and a watchdog thread sweeps both the
/// waiting queues and the in-flight set, answering expired requests and
/// recycling a stuck dispatcher's slot (see dispatchLoop) so the
/// per-design FIFO keeps draining. Cached DesignContexts are LRU-bounded
/// by AdmissionOptions::maxDesigns with pinned-while-in-use shared_ptr
/// refcounts, so eviction never races an executing route.
class Server {
 public:
  Server() = default;
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The context for `key`, constructing it via `load` on first use and
  /// marking it most-recently-used. The returned shared_ptr is the pin:
  /// the context outlives any LRU eviction while the caller holds it, and
  /// a context with an outstanding pin is never chosen for eviction.
  /// Loads run without the cache lock, so a slow (or parked) load of one
  /// design never blocks lookups of another; two concurrent first-touch
  /// loads of the same key race benignly (first insert wins, the loser's
  /// copy is dropped).
  std::shared_ptr<DesignContext> context(
      const std::string& key, const std::function<chip::Chip()>& load);

  /// True while `key` has a live cached context (i.e. not yet evicted).
  bool hasContext(const std::string& key) const;

  /// Routes one request against a held context.
  Response route(DesignContext& ctx, const RequestOptions& options);

  /// Convenience: get-or-create the context for `key` from `chip`, then
  /// route. Later calls with the same key reuse the cached context (the
  /// chip argument is ignored then).
  Response route(const std::string& key, const chip::Chip& chip,
                 const RequestOptions& options);

  /// Applies an ECO edit script to a held context and re-routes
  /// incrementally (core::rerouteChip) against the context's cached
  /// previous result -- routing the pre-edit chip first when no previous
  /// result exists or it came from an output-inequivalent config. On
  /// success the context's chip, obstacle template, and result cache are
  /// advanced to the edited design, so eco requests chain. Runs
  /// exclusively against concurrent route() calls on the same context.
  Response eco(DesignContext& ctx, const chip::ChipDelta& delta,
               const RequestOptions& options);

  /// Starts the dispatcher threads with the given limits. Idempotent
  /// (later calls are ignored); submit() starts it with defaults when the
  /// caller did not.
  void startDispatch(const AdmissionOptions& admission);

  /// Queues one typed request on its design's FIFO and returns the future
  /// response. Never blocks on routing work: past the waiting-queue
  /// high-water mark (or while draining) the returned future is already
  /// resolved to a `busy` response. Design resolution (generate or .chip
  /// read) happens on the dispatcher thread; its failure resolves the
  /// future to an `error` response.
  std::future<Response> submit(Request req);

  /// Stops admitting: every later submit() resolves to `busy draining`.
  /// Already-admitted requests keep executing. Non-blocking.
  void beginDrain();

  /// beginDrain() + waits until every admitted request has resolved, then
  /// joins the dispatcher threads. Safe to call more than once; the
  /// destructor calls it. After it returns, submit() still answers (busy).
  void drainAndStop();

  /// Requests waiting in design queues (excludes the executing ones).
  std::size_t queuedRequests() const;
  bool draining() const;

  std::size_t designCount() const;

  /// Monotonic liveness counters, surfaced by the front ends and
  /// BENCH_serve.json.
  struct Stats {
    std::uint64_t deadlineExpired = 0;  ///< requests answered `err deadline`
    std::uint64_t evictions = 0;        ///< DesignContexts LRU-evicted
    std::uint64_t dispatcherRecycles = 0;  ///< stuck slots the watchdog recycled
  };
  Stats stats() const;

 private:
  using Clock = std::chrono::steady_clock;

  struct Pending {
    Request req;
    std::promise<Response> promise;
    bool hasDeadline = false;
    std::int64_t deadlineMs = 0;  ///< the effective value, for the err text
    Clock::time_point deadline{};
  };
  /// One design's FIFO. `running` marks a dispatcher executing its head;
  /// at most one dispatcher per design at a time -- that is the affinity
  /// guarantee that keeps the warm escape session uncontended. (The
  /// watchdog may clear `running` for a stuck execution; the abandoned
  /// thread's result is discarded, so the guarantee holds for results.)
  struct DesignQueue {
    std::deque<Pending> fifo;
    bool running = false;
  };
  /// One executing request, visible to the watchdog. `abandoned` is the
  /// ownership handshake: whoever flips state under queueMutex_ first --
  /// the dispatcher finishing or the watchdog expiring it -- answers the
  /// promise; the other side discards.
  struct Inflight {
    std::string design;
    bool hasDeadline = false;
    std::int64_t deadlineMs = 0;
    Clock::time_point deadline{};
    std::shared_ptr<std::atomic<bool>> cancel =
        std::make_shared<std::atomic<bool>>(false);
    std::promise<Response> promise;
    bool abandoned = false;
  };

  Response execute(const Request& req,
                   const std::shared_ptr<std::atomic<bool>>& cancel);
  void dispatchLoop();
  void watchdogLoop();
  void maybeEvictLocked();
  void reapDispatchersLocked();

  mutable std::mutex contextsMutex_;
  /// LRU-bounded context cache. The shared_ptr refcount doubles as the
  /// pin: evictable entries are exactly those with use_count()==1 (the
  /// map's own reference). lru_ is most-recent-first; entries hold their
  /// own list iterator for O(1) touch.
  struct ContextEntry {
    std::shared_ptr<DesignContext> ctx;
    std::list<std::string>::iterator lruIt;
  };
  std::map<std::string, ContextEntry> contexts_;
  std::list<std::string> lru_;
  std::uint64_t evictions_ = 0;
  /// Effective cap, mirrored out of AdmissionOptions at startDispatch so
  /// direct route()/context() callers (no dispatch tier) share it.
  std::atomic<std::size_t> maxDesigns_{AdmissionOptions{}.maxDesigns};

  /// Trace ownership fence: tracing has one process-wide recorder, so a
  /// traced request takes this exclusively (draining in-flight requests
  /// and blocking new ones until its session ended), while untraced
  /// requests run concurrently under shared locks. This is what keeps one
  /// request's begin() from discarding another's events -- and keeps
  /// concurrent requests' spans out of the active trace.
  mutable std::shared_mutex traceFence_;

  /// Queue tier state, all under queueMutex_.
  mutable std::mutex queueMutex_;
  std::condition_variable workCv_;  ///< dispatchers: runnable work exists
  std::condition_variable idleCv_;  ///< drainAndStop: everything resolved
  std::condition_variable watchdogCv_;  ///< watchdog: new deadline or stop
  /// Per-design FIFOs, keyed by design token. Nodes are created on
  /// submit and erased as soon as a design's fifo is empty with no
  /// dispatcher running it (cheap to recreate), so the map -- and the
  /// watchdog's per-wake scan of it -- stays bounded by live designs, not
  /// by every token (including garbage paths) ever submitted.
  std::map<std::string, DesignQueue> queues_;
  std::deque<std::string> runnable_;  ///< designs with work, none executing
  std::list<std::shared_ptr<Inflight>> inflight_;  ///< executing requests
  std::size_t waiting_ = 0;           ///< requests in fifos (not executing)
  int executing_ = 0;
  std::uint64_t deadlineExpired_ = 0;
  std::uint64_t dispatcherRecycles_ = 0;
  bool draining_ = false;
  bool stopping_ = false;
  bool dispatchStarted_ = false;
  AdmissionOptions admission_;
  std::vector<std::thread> dispatchers_;
  /// Ids of decommissioned dispatcher threads that have exited (each
  /// recorded by the exiting thread under queueMutex_); the watchdog
  /// joins and erases the matching dispatchers_ handles on its next pass,
  /// so recycles do not accumulate dead thread handles without bound.
  std::vector<std::thread::id> finishedDispatchers_;
  std::thread watchdog_;
};

/// Batch/stdin line protocol: one request per non-blank, non-'#' manifest
/// line, in the shared grammar of serve::parseRequestLine (see
/// protocol.hpp). A thin adapter over Server::submit: lines are parsed,
/// queued with per-design FIFO affinity and `concurrency` dispatcher
/// threads (the waiting queue is unbounded -- batch mode never sheds
/// load), and the responses printed to `out` in request order, one
/// serve::formatResponse line each. Malformed lines report
/// `line N: <reason> (field '<field>')` without aborting the batch.
/// Timing and throughput go to stderr so stdout stays byte-stable for a
/// given manifest. Returns the number of failed requests (error responses
/// plus incomplete routings).
struct BatchOptions {
  int concurrency = 1;  ///< requests in flight at once

  /// Forwarded into the server's AdmissionOptions (the waiting queue
  /// itself stays unbounded in batch mode).
  std::int64_t defaultDeadlineMs = 0;
  std::size_t maxDesigns = AdmissionOptions{}.maxDesigns;
  bool allowFifoDesigns = false;  ///< test-only, see LoadOptions
};
int runBatch(std::istream& manifest, std::ostream& out, const BatchOptions& options);

}  // namespace pacor::serve
