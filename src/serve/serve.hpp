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
#include "grid/obstacle_map.hpp"
#include "pacor/pipeline.hpp"
#include "pacor/result.hpp"
#include "serve/protocol.hpp"
#include "util/deadline.hpp"

namespace pacor::serve {

/// A structured request-file failure (ParseError-style): `field` names the
/// offending request field -- "design" for a design that cannot be loaded,
/// or "delta", "sol", "metrics" or "trace" for a client-named path that is
/// not a regular file -- and `reason` says why. The serve tiers render it
/// as `err <design> field=<field> <reason>` instead of a bare `error`
/// response -- the client can tell a malformed design token from a
/// routing failure.
class LoadError : public std::runtime_error {
 public:
  LoadError(std::string field, std::string reason)
      : std::runtime_error(reason), field(std::move(field)),
        reason(std::move(reason)) {}
  std::string field;
  std::string reason;
};

/// Knobs of the design-load path.
struct LoadOptions {
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
/// File paths are opened without blocking and checked with fstat: only
/// regular files are read; FIFOs, directories, and device nodes throw a
/// structured LoadError -- unless `options.allowFifoDesigns` admits FIFOs
/// through a parked read. The load polls the calling thread's deadline
/// (util::DeadlineScope) between read chunks, while parked, and per row
/// of a generated FPVA, throwing util::DeadlineExceeded once it has
/// passed. Unknown/unreadable designs throw.
chip::Chip loadDesign(const std::string& token, const LoadOptions& options);
chip::Chip loadDesign(const std::string& token);

/// Per-design state the server keeps alive across requests: the parsed
/// chip (mutated only by ECO edits), the routing obstacle template (static
/// obstacles + blocked boundary cells, derived once instead of per
/// request), the design's persistent EscapeFlowSession (warm-rebound into
/// every request of the design), the previous routed result for ECO
/// chains and the route memo. The design's FIFO in Server::submit runs
/// its requests one at a time, and a request routes entirely on the
/// dispatcher thread that popped it. That thread's RouterWorkspace and
/// trace session are thread-local, so they survive across requests
/// without being owned here.
class DesignContext {
 public:
  explicit DesignContext(chip::Chip chip);
  ~DesignContext();

  const chip::Chip& chip() const noexcept { return chip_; }
  const grid::ObstacleMap& obstacleTemplate() const noexcept {
    return obstacleTemplate_;
  }

 private:
  friend class Server;

  chip::Chip chip_;
  grid::ObstacleMap obstacleTemplate_;

  /// ECO fence: a route or gen holds it shared (the chip and template
  /// must stay put while a request reads them), an eco exclusively (it
  /// swaps both for the edited design). Every use is inside
  /// Server::execute, under the design's FIFO, so it is uncontended; a
  /// caller holding a context pin (Server::context) reads chip() and
  /// obstacleTemplate() without it and gets no consistency guarantee
  /// against a concurrent eco request.
  mutable std::shared_mutex stateMutex_;

  /// Persistent escape-flow session of this design, passed into every
  /// routeChip/rerouteChip of the design (which warm-rebinds or lazily
  /// builds it). The design's FIFO is its only lock: it runs one request
  /// at a time, and no execution outlives its turn, because a request
  /// past its deadline stops routing instead of being abandoned.
  std::unique_ptr<core::EscapeFlowSession> escapeSession_;

  /// Most recent routed result + the variant that produced it: the `prev`
  /// an ECO request of the same variant chains from (an eco request of
  /// another variant re-routes the base once before applying the edit).
  /// Like stateMutex_, every use is inside Server::execute.
  std::mutex cacheMutex_;
  bool hasLast_ = false;
  Variant lastVariant_ = Variant::kPacor;
  core::PacorResult lastResult_;

  /// The route memo: set when a route (not an eco) produced lastResult_,
  /// with that route's answer in memo_ (solution text and hash,
  /// completion, cluster count, length). Routing is byte-deterministic
  /// for a chip and variant, and only an eco changes the chip, so a route
  /// of lastVariant_ while this is set has exactly memo_ as its answer.
  /// An eco clears it before it swaps in the edited chip.
  bool lastFromRoute_ = false;
  Response memo_;
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
/// submit() is the one entry point: each request joins its design's FIFO
/// queue, design queues run one request at a time (so repeat traffic lands
/// on the warm EscapeFlowSession and obstacle template), distinct designs
/// run concurrently on up to AdmissionOptions::maxInflight dispatcher
/// threads, and a bounded waiting queue sheds load with `busy` responses
/// past the high-water mark. Both the batch manifest loop and the socket
/// front end are thin adapters over submit(). Requests may be submitted
/// from any number of threads concurrently; each runs on one dispatcher
/// from start to finish and gets an isolated result (own MetricsRegistry,
/// request-scoped search counters) that is byte-identical to a fresh
/// one-shot routeChip of the same chip and config.
///
/// Liveness: every request may carry a deadline (deadline_ms= or
/// AdmissionOptions::defaultDeadlineMs). The dispatcher that pops a
/// request is the only code that answers it. A request already past its
/// deadline when popped is answered `err ... field=deadline ... (queued)`
/// without a load or a route. Otherwise the dispatcher installs the
/// deadline as its thread's util::DeadlineScope for the design load and
/// the route: the load polls it between read chunks and routing polls it
/// at unit boundaries (see core::routeChip), so an expired execution stops
/// by itself and is answered `(executing)`. Such an `err` means the
/// request had no effect; `ok` means it committed, even if it finished
/// after its deadline. No client-named path can park a dispatcher where
/// nothing polls: designs and deltas are opened without blocking and must
/// be regular files, and `sol=`/`metrics=`/`trace=` paths must be regular
/// files or absent. A watchdog thread answers requests that expire while
/// still waiting in a design queue, so a request queued behind
/// deadline-less work is answered on time. Cached DesignContexts are
/// LRU-bounded by AdmissionOptions::maxDesigns with pinned-while-in-use
/// shared_ptr refcounts, so eviction never races an executing route.
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
  /// copy is dropped). A context installed before submit() is what the
  /// server routes for that key, so a caller can serve a chip object that
  /// no design token names.
  std::shared_ptr<DesignContext> context(
      const std::string& key, const std::function<chip::Chip()>& load);

  /// True while `key` has a live cached context (i.e. not yet evicted).
  bool hasContext(const std::string& key) const;

  /// Starts the dispatcher threads with the given limits. Idempotent
  /// (later calls are ignored); submit() starts it with defaults when the
  /// caller did not.
  void startDispatch(const AdmissionOptions& admission);

  /// Queues one typed request on its design's FIFO and returns the future
  /// response. Never blocks on routing work: past the waiting-queue
  /// high-water mark (or while draining) the returned future is already
  /// resolved to a `busy` response. Design resolution (the cached context,
  /// else generate or .chip read) happens on the dispatcher thread; its
  /// failure resolves the future to an `error` response.
  ///
  /// A route re-routes the design's current state, or answers from the
  /// design's route memo (Response::memo) when the design's last result
  /// came from a route of the same variant and the request asks for no
  /// metrics= or trace= output. An eco applies its edit script and
  /// re-routes incrementally (core::rerouteChip) against the design's
  /// cached previous result -- routing the pre-edit chip first when no
  /// previous result exists or another variant produced it -- then
  /// advances the design's chip, obstacle template and result cache, so
  /// eco requests chain. An eco result never answers a route: the first
  /// route after an eco routes the edited chip. A gen only loads the
  /// design into its context.
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

  std::size_t designCount() const;

  /// Monotonic liveness counters, surfaced by the front ends and
  /// BENCH_serve.json.
  struct Stats {
    std::uint64_t deadlineExpired = 0;  ///< requests answered `err deadline`
    std::uint64_t evictions = 0;        ///< DesignContexts LRU-evicted
  };
  Stats stats() const;

 private:
  using Clock = std::chrono::steady_clock;

  struct Pending {
    Request req;
    std::promise<Response> promise;
    std::int64_t deadlineMs = 0;  ///< the effective value, for the err text
    util::Deadline deadline = util::kNoDeadline;
  };
  /// One design's FIFO. `running` marks a dispatcher executing its head;
  /// at most one dispatcher per design at a time -- that is the affinity
  /// guarantee that keeps the warm escape session uncontended.
  struct DesignQueue {
    std::deque<Pending> fifo;
    bool running = false;
  };

  Response execute(const Pending& pending);
  void dispatchLoop();
  void watchdogLoop();
  void maybeEvictLocked();

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
  /// context() callers before it share it.
  std::atomic<std::size_t> maxDesigns_{AdmissionOptions{}.maxDesigns};

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
  std::size_t waiting_ = 0;           ///< requests in fifos (not executing)
  int executing_ = 0;
  std::uint64_t deadlineExpired_ = 0;
  bool draining_ = false;
  bool stopping_ = false;
  bool dispatchStarted_ = false;
  AdmissionOptions admission_;
  std::vector<std::thread> dispatchers_;
  std::thread watchdog_;
};

/// Batch/stdin line protocol: one request per non-blank, non-'#' manifest
/// line, in the shared grammar of serve::parseRequestLine (see
/// protocol.hpp). A thin adapter over Server::submit: lines are parsed,
/// queued with per-design FIFO affinity on a server started with
/// `admission` (its maxQueue is ignored: the waiting queue is unbounded,
/// batch mode never sheds load), and the responses printed to `out` in
/// request order, one serve::formatResponse line each. Malformed lines report
/// `line N: <reason> (field '<field>')` without aborting the batch.
/// Timing and throughput go to stderr so stdout stays byte-stable for a
/// given manifest. Returns the number of failed requests (error responses
/// plus incomplete routings).
int runBatch(std::istream& manifest, std::ostream& out, AdmissionOptions admission);

}  // namespace pacor::serve
