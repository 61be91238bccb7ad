#include "serve/serve.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <istream>
#include <optional>
#include <ostream>
#include <sstream>
#include <vector>

#include "chip/delta.hpp"
#include "chip/generator.hpp"
#include "chip/io.hpp"
#include "pacor/eco.hpp"
#include "pacor/escape.hpp"
#include "pacor/solution_io.hpp"
#include "trace/trace.hpp"
#include "util/sha256.hpp"
#include "util/text_records.hpp"

namespace pacor::serve {

namespace {

/// Close-on-scope-exit for raw fds (the read paths below throw).
struct FdGuard {
  int fd;
  ~FdGuard() {
    if (fd >= 0) ::close(fd);
  }
};

/// The refusal of a client-named path that exists but is not a regular
/// file: renders as `err <design> field=<field> <field> path <path> is a
/// fifo, not a regular file`.
LoadError notRegularFile(const std::string& field, const std::string& path,
                         mode_t mode) {
  const char* kind = S_ISFIFO(mode)                     ? "a fifo"
                     : S_ISDIR(mode)                    ? "a directory"
                     : S_ISCHR(mode) || S_ISBLK(mode)   ? "a device node"
                                                        : "not a regular file";
  return LoadError(field, field + " path " + path + " is " + kind +
                              ", not a regular file");
}

/// Reads a client-named input file (a design or a delta) under the
/// thread's deadline. The open never blocks (O_NONBLOCK) and the opened
/// file is checked with fstat, so a FIFO, directory or device node is
/// refused with a LoadError on `field` even if the path changed after an
/// earlier look. A regular file is read in chunks, polling the deadline
/// between them. `allowFifo` (test-only) instead parks on a FIFO until a
/// writer supplies the bytes, polling the deadline: a read of 0 before
/// any byte means "no writer yet" (FIFO semantics), not EOF -- EOF is a 0
/// read after at least one byte.
std::string readInputFile(const std::string& path, const std::string& field,
                          bool allowFifo) {
  const auto fail = [&] {
    return std::runtime_error("cannot read " + field + " file " + path + ": " +
                              std::strerror(errno));
  };
  const int fd = ::open(path.c_str(), O_RDONLY | O_NONBLOCK | O_CLOEXEC | O_NOCTTY);
  if (fd < 0) throw fail();
  FdGuard guard{fd};
  struct stat st {};
  if (::fstat(fd, &st) != 0) throw fail();
  const bool fifo = allowFifo && S_ISFIFO(st.st_mode);
  if (!fifo && !S_ISREG(st.st_mode)) throw notRegularFile(field, path, st.st_mode);
  std::string bytes;
  char buf[1 << 16];
  for (;;) {
    util::checkDeadline();
    const ssize_t r = ::read(fd, buf, sizeof buf);
    if (r > 0) {
      bytes.append(buf, static_cast<std::size_t>(r));
      continue;
    }
    if (r == 0 && (!fifo || !bytes.empty())) return bytes;
    if (r < 0 && errno != EINTR && !(fifo && (errno == EAGAIN || errno == EWOULDBLOCK)))
      throw fail();
    // A FIFO with no writer yet (r==0 with nothing read) or momentarily
    // empty: park.
    if (fifo) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

/// Refuses a side-file path that exists and is not a regular file. Run
/// before the request has any effect, so the refusal commits nothing.
void requireRegularOrAbsent(const std::string& field, const std::string& path) {
  struct stat st {};
  if (!path.empty() && ::stat(path.c_str(), &st) == 0 && !S_ISREG(st.st_mode))
    throw notRegularFile(field, path, st.st_mode);
}

/// Writes a side file named by a request. Like readInputFile, the open
/// never blocks and the opened file must be regular, so a path turned
/// into a FIFO after requireRegularOrAbsent fails instead of holding the
/// dispatcher. False on any failure.
bool writeOutputFile(const std::string& path, const std::string& bytes) {
  const int fd = ::open(path.c_str(),
                        O_WRONLY | O_CREAT | O_TRUNC | O_NONBLOCK | O_CLOEXEC | O_NOCTTY,
                        0666);
  if (fd < 0) return false;
  FdGuard guard{fd};
  struct stat st {};
  if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode)) return false;
  for (std::size_t done = 0; done < bytes.size();) {
    const ssize_t w = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (w < 0 && errno == EINTR) continue;
    if (w < 0) return false;
    done += static_cast<std::size_t>(w);
  }
  return true;
}

/// Appends one failure to a response that may already carry one.
void addError(Response& resp, const std::string& error) {
  resp.ok = false;
  if (!resp.error.empty()) resp.error += "; ";
  resp.error += error;
}

/// Writes an answer's solution text to the request's sol= path, if any.
void writeSolution(Response& resp, const Request& req) {
  if (!req.solutionPath.empty() &&
      !writeOutputFile(req.solutionPath, resp.solutionText))
    addError(resp, "cannot write solution file " + req.solutionPath);
}

/// Response fields + side files every successful routing request shares.
void fillRouteResponse(Response& resp, const core::PacorResult& result,
                       const Request& req) {
  resp.complete = result.complete;
  resp.solutionText = core::solutionToString(result);
  resp.solutionHash = util::sha256Hex(resp.solutionText);
  resp.clusterCount = result.clusters.size();
  resp.totalLength = result.totalChannelLength;
  resp.coldBuilds =
      static_cast<int>(result.metrics.getInt("escape.flow.cold_builds", -1));
  resp.ok = true;
  writeSolution(resp, req);
  if (!req.metricsPath.empty() &&
      !writeOutputFile(req.metricsPath, core::metricsFileText(result)))
    addError(resp, "cannot write metrics file " + req.metricsPath);
}

/// The fields of a route answer that the route memo keeps: all that
/// depend on the routed result alone, not on the request's side files.
void copyRouteAnswer(Response& to, const Response& from) {
  to.complete = from.complete;
  to.solutionText = from.solutionText;
  to.solutionHash = from.solutionHash;
  to.clusterCount = from.clusterCount;
  to.totalLength = from.totalLength;
}

}  // namespace

chip::Chip loadDesign(const std::string& token, const LoadOptions& options) {
  // FPVA spec tokens (fpva:NxM[:key=val...]) synthesize valve arrays on
  // demand; the spec string is the cache key, so repeat requests for the
  // same array hit the warm DesignContext.
  if (chip::isFpvaSpec(token))
    return chip::generateFpvaChip(chip::parseFpvaSpec(token));
  for (const auto& params : chip::table1Designs())
    if (params.name == token) return chip::generateChip(params);
  std::istringstream is(readInputFile(token, "design", options.allowFifoDesigns));
  return chip::readChip(is);
}

chip::Chip loadDesign(const std::string& token) {
  return loadDesign(token, LoadOptions{});
}

DesignContext::DesignContext(chip::Chip chip)
    : chip_(std::move(chip)),
      obstacleTemplate_(core::makeRoutingObstacleTemplate(chip_)) {}

DesignContext::~DesignContext() = default;

Server::~Server() { drainAndStop(); }

std::shared_ptr<DesignContext> Server::context(
    const std::string& key, const std::function<chip::Chip()>& load) {
  {
    std::lock_guard<std::mutex> lock(contextsMutex_);
    auto it = contexts_.find(key);
    if (it != contexts_.end()) {
      // O(1) LRU touch: splice the key to the most-recent end.
      lru_.splice(lru_.begin(), lru_, it->second.lruIt);
      return it->second.ctx;
    }
  }
  // Load WITHOUT the cache lock: a slow or parked load of one design must
  // never block lookups (or loads) of another. Two first-touch loads of
  // the same key can race; the first insert wins and the loser's copy is
  // dropped -- both are built from the same token, so either is correct.
  auto fresh = std::make_shared<DesignContext>(load());
  std::lock_guard<std::mutex> lock(contextsMutex_);
  auto it = contexts_.find(key);
  if (it != contexts_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second.lruIt);
    return it->second.ctx;
  }
  lru_.push_front(key);
  contexts_.emplace(key, ContextEntry{fresh, lru_.begin()});
  maybeEvictLocked();
  return fresh;
}

/// Evicts least-recently-used, unpinned contexts until the cache fits
/// AdmissionOptions::maxDesigns. Pinned entries (use_count > 1: some
/// request is executing against them, or a caller holds the shared_ptr)
/// are skipped, so the resident count can transiently exceed the bound by
/// the number of in-flight designs -- eviction never races a route.
/// Caller holds contextsMutex_.
void Server::maybeEvictLocked() {
  const std::size_t cap = maxDesigns_.load(std::memory_order_relaxed);
  if (cap == 0) return;  // unlimited
  auto it = lru_.end();
  while (contexts_.size() > cap && it != lru_.begin()) {
    --it;
    auto entry = contexts_.find(*it);
    if (entry == contexts_.end()) {  // should not happen; keep lru_ sane
      it = lru_.erase(it);
      continue;
    }
    // use_count()==1 means the map holds the only reference: no request
    // is pinned on it. New pins are minted only under contextsMutex_
    // (this lock), so the check cannot race a fresh pin.
    if (entry->second.ctx.use_count() > 1) continue;
    contexts_.erase(entry);
    it = lru_.erase(it);
    ++evictions_;
  }
}

bool Server::hasContext(const std::string& key) const {
  std::lock_guard<std::mutex> lock(contextsMutex_);
  return contexts_.count(key) != 0;
}

std::size_t Server::designCount() const {
  std::lock_guard<std::mutex> lock(contextsMutex_);
  return contexts_.size();
}

Server::Stats Server::stats() const {
  Stats s;
  {
    std::lock_guard<std::mutex> lock(queueMutex_);
    s.deadlineExpired = deadlineExpired_;
  }
  {
    std::lock_guard<std::mutex> lock(contextsMutex_);
    s.evictions = evictions_;
  }
  return s;
}

// --- submit() queue tier -------------------------------------------------

namespace {

/// The structured answer for a request whose deadline passed: renders as
/// `err <design> field=deadline deadline expired after <D> ms (<phase>)`.
Response deadlineResponse(const std::string& design, std::int64_t deadlineMs,
                          const char* phase) {
  Response resp;
  resp.design = design;
  resp.ok = false;
  resp.deadlineExpired = true;
  resp.errorField = "deadline";
  resp.error = "deadline expired after " + std::to_string(deadlineMs) +
               " ms (" + phase + ")";
  return resp;
}

}  // namespace

Response Server::execute(const Pending& pending) {
  const Request& req = pending.req;
  Response resp;
  resp.design = req.design;
  core::RouteResources resources;
  // The load and the route run under the request's deadline: every poll
  // on this thread (read chunks, generator rows, routing unit boundaries)
  // throws util::DeadlineExceeded once it has passed.
  const util::DeadlineScope deadlineScope(pending.deadline);
  try {
    LoadOptions loadOptions;
    // admission_ is written once in startDispatch, before any dispatcher
    // (the only execute() caller) exists.
    loadOptions.allowFifoDesigns = admission_.allowFifoDesigns;
    const std::shared_ptr<DesignContext> pinned = context(
        req.design, [&req, &loadOptions] { return loadDesign(req.design, loadOptions); });
    DesignContext& ctx = *pinned;
    if (req.verb == Verb::kGen) {
      // Warm-up only: the context (chip + obstacle template) now exists,
      // so the first routing request of this design skips the load.
      std::shared_lock<std::shared_mutex> state(ctx.stateMutex_);
      resp.ok = true;
      resp.genValves = static_cast<int>(ctx.chip().valves.size());
      resp.genPins = static_cast<int>(ctx.chip().pins.size());
      resp.genObstacles = static_cast<int>(ctx.chip().obstacles.size());
      return resp;
    }
    const core::PacorConfig config = configFor(req.variant);
    // Every client-named file is checked before the request has an
    // effect: side files must be regular or absent, and the delta is read
    // like a design file, so no path can park this dispatcher in an open.
    requireRegularOrAbsent("sol", req.solutionPath);
    requireRegularOrAbsent("metrics", req.metricsPath);
    requireRegularOrAbsent("trace", req.tracePath);
    std::optional<chip::ChipDelta> delta;
    if (req.verb == Verb::kEco) {
      std::istringstream is(readInputFile(req.deltaPath, "delta", false));
      delta = chip::readDelta(is);
    }

    // The trace session is this dispatcher thread's, and the request runs
    // on this thread alone, so the trace holds exactly this request's spans
    // while other requests run (traced or not) on other dispatchers.
    const bool traced = !req.tracePath.empty();
    if (traced) trace::beginSession(req.traceLevel);
    resources.escapeSession = &ctx.escapeSession_;
    try {
      if (delta) {
        // An eco edit replaces the chip and the obstacle template, so no
        // request may read the design concurrently.
        std::unique_lock<std::shared_mutex> state(ctx.stateMutex_);
        std::lock_guard<std::mutex> cache(ctx.cacheMutex_);
        // The ECO base: the cached previous result when the same variant
        // produced it, else a fresh route of the pre-edit chip (paid once;
        // subsequent eco requests of the variant chain). No two variants
        // route alike, so another variant's result is never the base.
        std::optional<core::PacorResult> fresh;
        if (!ctx.hasLast_ || ctx.lastVariant_ != req.variant) {
          core::RouteResources baseResources = resources;
          baseResources.obstacleTemplate = &ctx.obstacleTemplate_;
          fresh = core::routeChip(ctx.chip_, config, baseResources);
        }
        core::EcoInfo info;
        core::PacorResult result = core::rerouteChip(
            ctx.chip_, fresh ? *fresh : ctx.lastResult_, *delta, config, resources, &info);
        // Routing is done, so the deadline no longer applies: from here on
        // the edit commits and the request is answered `ok`. The edited
        // chip and template are built aside, so a throw leaves the context
        // as it was. The memo goes before they are swapped in: an eco
        // answer may differ from a route of the edited chip, so it never
        // answers a route.
        chip::Chip edited = chip::apply(ctx.chip_, *delta);
        grid::ObstacleMap editedTemplate = core::makeRoutingObstacleTemplate(edited);
        ctx.hasLast_ = false;
        ctx.lastFromRoute_ = false;
        ctx.chip_ = std::move(edited);
        ctx.obstacleTemplate_ = std::move(editedTemplate);
        fillRouteResponse(resp, result, req);
        resp.ecoMode = info.mode == core::EcoInfo::Mode::kIdentity ? "identity"
                       : info.mode == core::EcoInfo::Mode::kIncremental
                           ? "incremental"
                           : "full";
        resp.ecoDirty = info.dirtyClusters;
        resp.ecoFrozen = info.frozenClusters;
        ctx.lastResult_ = std::move(result);
        ctx.lastVariant_ = req.variant;
        ctx.hasLast_ = true;
      } else {
        // The chip and template must stay put while this request routes.
        std::shared_lock<std::shared_mutex> state(ctx.stateMutex_);
        {
          // The memo answers a route of an unedited design and variant. A
          // metrics= or trace= request asks for this route's own metrics
          // and spans, so it routes and refreshes the memo.
          std::lock_guard<std::mutex> cache(ctx.cacheMutex_);
          if (ctx.lastFromRoute_ && ctx.lastVariant_ == req.variant &&
              req.metricsPath.empty() && !traced) {
            copyRouteAnswer(resp, ctx.memo_);
            resp.memo = true;
          }
        }
        if (resp.memo) {
          resp.ok = true;
          resp.coldBuilds = 0;  // no session was built
          writeSolution(resp, req);
        } else {
          resources.obstacleTemplate = &ctx.obstacleTemplate_;
          core::PacorResult result = core::routeChip(ctx.chip_, config, resources);
          fillRouteResponse(resp, result, req);
          std::lock_guard<std::mutex> cache(ctx.cacheMutex_);
          copyRouteAnswer(ctx.memo_, resp);
          ctx.lastResult_ = std::move(result);
          ctx.lastVariant_ = req.variant;
          ctx.hasLast_ = true;
          ctx.lastFromRoute_ = true;
        }
      }
    } catch (const util::DeadlineExceeded&) {
      // Left active, the session would record every later request of this
      // dispatcher.
      if (traced) trace::endSession();
      throw;
    } catch (const std::exception& e) {
      resp.ok = false;
      resp.error = e.what();
    }

    if (traced) {
      const std::vector<trace::Event> events = trace::endSession();
      resp.traceSpans = static_cast<int>(events.size());
      if (!writeOutputFile(req.tracePath, trace::toChromeJson(events)))
        addError(resp, "cannot write trace file " + req.tracePath);
    }
  } catch (const util::DeadlineExceeded&) {
    // The load or the route stopped at its deadline before any effect.
    return deadlineResponse(req.design, pending.deadlineMs, "executing");
  } catch (const LoadError& e) {
    // Structured: the client can tell a bad design token from a routing
    // failure. Renders as `err <design> field=<field> <reason>`.
    resp.ok = false;
    resp.errorField = e.field;
    resp.error = e.reason;
  } catch (const std::exception& e) {
    resp.ok = false;
    resp.error = e.what();
  }
  return resp;
}

void Server::startDispatch(const AdmissionOptions& admission) {
  std::lock_guard<std::mutex> lock(queueMutex_);
  if (dispatchStarted_) return;
  dispatchStarted_ = true;
  admission_ = admission;
  admission_.maxInflight = std::max(1, admission_.maxInflight);
  maxDesigns_.store(admission_.maxDesigns, std::memory_order_relaxed);
  dispatchers_.reserve(static_cast<std::size_t>(admission_.maxInflight));
  for (int i = 0; i < admission_.maxInflight; ++i)
    dispatchers_.emplace_back([this] { dispatchLoop(); });
  watchdog_ = std::thread([this] { watchdogLoop(); });
}

std::future<Response> Server::submit(Request req) {
  startDispatch(AdmissionOptions{});  // no-op when already configured
  std::unique_lock<std::mutex> lock(queueMutex_);
  if (draining_ ||
      (admission_.maxQueue != 0 && waiting_ >= admission_.maxQueue)) {
    Response busy;
    busy.design = req.design;
    busy.busy = true;
    busy.error = draining_
                     ? "draining: server is shutting down"
                     : "queue full (" + std::to_string(waiting_) +
                           " waiting, max " +
                           std::to_string(admission_.maxQueue) + ")";
    lock.unlock();
    std::promise<Response> ready;
    std::future<Response> fut = ready.get_future();
    ready.set_value(std::move(busy));
    return fut;
  }
  const std::string key = req.design;
  Pending pending{std::move(req), {}};
  // The deadline clock starts at admission: deadline_ms= on the request,
  // else the server-wide default. gen requests carry no options by
  // grammar, so they inherit the default like any other.
  const std::int64_t effectiveMs = pending.req.deadlineMs > 0
                                       ? pending.req.deadlineMs
                                       : admission_.defaultDeadlineMs;
  if (effectiveMs > 0) {
    pending.deadlineMs = effectiveMs;
    pending.deadline = Clock::now() + std::chrono::milliseconds(effectiveMs);
  }
  DesignQueue& dq = queues_[key];
  // Not yet listed runnable and no dispatcher on it: enqueue the design.
  const bool listDesign = dq.fifo.empty() && !dq.running;
  const bool armWatchdog = effectiveMs > 0;
  dq.fifo.push_back(std::move(pending));
  std::future<Response> fut = dq.fifo.back().promise.get_future();
  ++waiting_;
  if (listDesign) runnable_.push_back(key);
  workCv_.notify_one();
  if (armWatchdog) watchdogCv_.notify_one();  // re-aim at the new deadline
  return fut;
}

void Server::dispatchLoop() {
  std::unique_lock<std::mutex> lock(queueMutex_);
  for (;;) {
    workCv_.wait(lock, [this] { return stopping_ || !runnable_.empty(); });
    if (runnable_.empty()) return;  // stopping, and nothing left to run
    const std::string key = std::move(runnable_.front());
    runnable_.pop_front();
    DesignQueue& dq = queues_[key];  // recreates the node if it was reaped
    // A listed design never has a dispatcher on it or an empty fifo (the
    // watchdog retracts the listing of a design its sweep empties). Skip
    // either case without dispatching, so same-design requests stay
    // serialized even if that ever breaks.
    if (dq.running) continue;
    if (dq.fifo.empty()) {
      queues_.erase(key);
      continue;
    }
    Pending pending = std::move(dq.fifo.front());
    dq.fifo.pop_front();
    --waiting_;
    dq.running = true;
    ++executing_;
    lock.unlock();

    // This thread alone answers the request. Already past its deadline
    // when popped, it is answered without a load or a route; otherwise
    // execute() runs it under the deadline and returns in bounded time.
    Response resp =
        Clock::now() >= pending.deadline
            ? deadlineResponse(pending.req.design, pending.deadlineMs, "queued")
            : execute(pending);

    lock.lock();
    if (resp.deadlineExpired) ++deadlineExpired_;
    --executing_;
    dq.running = false;
    // FIFO across designs too: a design with more work re-queues at the
    // back, so one hot design cannot starve the others. An emptied design
    // drops its queue node, keeping queues_ bounded by live designs
    // instead of every token ever submitted.
    if (!dq.fifo.empty()) {
      runnable_.push_back(key);
      workCv_.notify_one();
    } else {
      queues_.erase(key);
    }
    if (waiting_ == 0 && executing_ == 0) idleCv_.notify_all();
    lock.unlock();
    pending.promise.set_value(std::move(resp));
    lock.lock();
  }
}

void Server::watchdogLoop() {
  std::unique_lock<std::mutex> lock(queueMutex_);
  while (!stopping_) {
    // Sleep until the earliest queued deadline, or until submit() arms a
    // new one. Executing requests stop at their deadline by themselves.
    util::Deadline next = util::kNoDeadline;
    for (const auto& [key, dq] : queues_)
      for (const Pending& p : dq.fifo) next = std::min(next, p.deadline);
    if (next != util::kNoDeadline)
      watchdogCv_.wait_until(lock, next);
    else
      watchdogCv_.wait(lock);
    if (stopping_) return;

    // Sweep the waiting queues: an expired request queued behind a busy
    // (or parked) design is answered here -- it would otherwise wait for
    // a dispatcher that frees up only after its deadline.
    const Clock::time_point now = Clock::now();
    std::vector<std::promise<Response>> promises;
    std::vector<Response> answers;
    for (auto qit = queues_.begin(); qit != queues_.end();) {
      DesignQueue& dq = qit->second;
      for (auto it = dq.fifo.begin(); it != dq.fifo.end();) {
        if (now >= it->deadline) {
          ++deadlineExpired_;
          --waiting_;
          answers.push_back(
              deadlineResponse(it->req.design, it->deadlineMs, "queued"));
          promises.push_back(std::move(it->promise));
          it = dq.fifo.erase(it);
        } else {
          ++it;
        }
      }
      // A sweep that empties an idle design's fifo must also retract its
      // runnable_ listing: left behind, a later submit() would see
      // `fifo.empty() && !running` and list the key a SECOND time, and two
      // dispatchers could then execute the same design concurrently.
      // Dropping the empty node keeps queues_ (and this scan) bounded by
      // live designs rather than every token ever submitted.
      if (dq.fifo.empty() && !dq.running) {
        runnable_.erase(
            std::remove(runnable_.begin(), runnable_.end(), qit->first),
            runnable_.end());
        qit = queues_.erase(qit);
      } else {
        ++qit;
      }
    }

    if (waiting_ == 0 && executing_ == 0) idleCv_.notify_all();
    if (promises.empty()) continue;
    lock.unlock();
    for (std::size_t i = 0; i < promises.size(); ++i)
      promises[i].set_value(std::move(answers[i]));
    lock.lock();
  }
}

void Server::beginDrain() {
  std::lock_guard<std::mutex> lock(queueMutex_);
  draining_ = true;
}

void Server::drainAndStop() {
  beginDrain();
  std::vector<std::thread> workers;
  std::thread watchdog;
  {
    std::unique_lock<std::mutex> lock(queueMutex_);
    idleCv_.wait(lock, [this] { return waiting_ == 0 && executing_ == 0; });
    stopping_ = true;
    workCv_.notify_all();
    watchdogCv_.notify_all();
    workers.swap(dispatchers_);
    watchdog.swap(watchdog_);
  }
  for (std::thread& t : workers) t.join();
  if (watchdog.joinable()) watchdog.join();
}

std::size_t Server::queuedRequests() const {
  std::lock_guard<std::mutex> lock(queueMutex_);
  return waiting_;
}

// --- batch adapter -------------------------------------------------------

int runBatch(std::istream& manifest, std::ostream& out, AdmissionOptions admission) {
  // One slot per manifest request, in manifest order: either an already
  // rendered parse-error response or the future of a submitted request.
  struct Slot {
    std::optional<std::future<Response>> fut;
    Response immediate;
  };

  Server server;
  admission.maxInflight = std::max(1, admission.maxInflight);
  admission.maxQueue = 0;  // batch mode never sheds load
  server.startDispatch(admission);

  std::vector<Slot> slots;
  std::string line;
  int lineNumber = 0;
  const auto t0 = std::chrono::steady_clock::now();
  while (std::getline(manifest, line)) {
    ++lineNumber;
    if (util::isBlankOrComment(line)) continue;
    ParseError error;
    Slot slot;
    if (std::optional<Request> req = parseRequestLine(line, &error)) {
      slot.fut = server.submit(std::move(*req));
    } else {
      slot.immediate.design = error.design.empty() ? "-" : error.design;
      slot.immediate.ok = false;
      slot.immediate.error =
          "line " + std::to_string(lineNumber) + ": " + error.render();
    }
    slots.push_back(std::move(slot));
  }

  // Futures resolve out of order (per-design FIFO, cross-design parallel);
  // responses still print in request order, stdout byte-stable for a
  // given manifest.
  int failed = 0;
  std::vector<Response> responses;
  responses.reserve(slots.size());
  for (Slot& slot : slots)
    responses.push_back(slot.fut ? slot.fut->get() : std::move(slot.immediate));
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  for (const Response& resp : responses) {
    out << formatResponse(resp) << '\n';
    const bool genOk = resp.ok && resp.genValves >= 0;
    if (!resp.ok || (!genOk && !resp.complete)) ++failed;
  }
  std::fprintf(stderr,
               "pacor serve: %zu request(s), %zu design context(s), "
               "max-inflight=%d, %d failure(s), %.2fs\n",
               slots.size(), server.designCount(), admission.maxInflight, failed,
               seconds);
  return failed;
}

}  // namespace pacor::serve
