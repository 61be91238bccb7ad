#include "trace/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <deque>
#include <mutex>

namespace pacor::trace {

namespace detail {
std::atomic<int> gLevel{static_cast<int>(Level::kOff)};
}  // namespace detail

namespace {

std::int64_t nowNs() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Per-thread event storage. Buffers are owned by the registry, not the
/// threads: a recording thread may exit before endSession() merges its
/// spans, while a server's dispatcher threads outlive many sessions. A thread re-acquires a fresh buffer per session
/// (the session stamp invalidates the cached thread_local pointer), so
/// one long-lived thread across two sessions never writes into a drained
/// buffer.
struct Buffer {
  int tid = 0;
  std::vector<Event> events;
};

std::mutex gMutex;
std::deque<Buffer> gBuffers;               // the active session's buffers
std::atomic<std::uint64_t> gSession{0};    // bumped by Session::begin/end
std::atomic<std::int64_t> gT0{0};          // session time origin (ns)
std::atomic<Session*> gActive{nullptr};    // the session owning gBuffers

thread_local Buffer* tlBuffer = nullptr;
thread_local std::uint64_t tlSession = 0;

Buffer& localBuffer() {
  const std::uint64_t session = gSession.load(std::memory_order_acquire);
  if (tlBuffer == nullptr || tlSession != session) {
    std::lock_guard<std::mutex> lock(gMutex);
    gBuffers.push_back(Buffer{static_cast<int>(gBuffers.size()), {}});
    tlBuffer = &gBuffers.back();
    tlSession = session;
  }
  return *tlBuffer;
}

}  // namespace

std::optional<Level> parseLevel(std::string_view name) noexcept {
  if (name == "off") return Level::kOff;
  if (name == "stage") return Level::kStage;
  if (name == "cluster") return Level::kCluster;
  if (name == "search") return Level::kSearch;
  return std::nullopt;
}

Session::~Session() {
  if (active()) end();  // discard: nobody is left to receive the events
}

void Session::begin(Level level) {
  std::lock_guard<std::mutex> lock(gMutex);
  // Mark the session we are about to kick out so its owner can tell a
  // silent discard from a trace that was simply empty. gActive always
  // points at a live session: a Session that dies while active ends (and
  // clears gActive) in its destructor.
  if (Session* prev = gActive.load(std::memory_order_relaxed);
      prev != nullptr && prev != this)
    prev->superseded_ = true;
  superseded_ = false;
  gBuffers.clear();  // invalidated thread_local pointers re-acquire below
  gSession.fetch_add(1, std::memory_order_release);
  gT0.store(nowNs(), std::memory_order_relaxed);
  gActive.store(level > Level::kOff ? this : nullptr,
                std::memory_order_relaxed);
  detail::gLevel.store(static_cast<int>(level), std::memory_order_relaxed);
}

std::vector<Event> Session::end() {
  if (!active()) return {};
  detail::gLevel.store(static_cast<int>(Level::kOff), std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(gMutex);
  gActive.store(nullptr, std::memory_order_relaxed);
  std::vector<Event> merged;
  for (const Buffer& b : gBuffers)
    merged.insert(merged.end(), b.events.begin(), b.events.end());
  gBuffers.clear();
  gSession.fetch_add(1, std::memory_order_release);
  std::sort(merged.begin(), merged.end(), [](const Event& a, const Event& b) {
    if (a.startNs != b.startNs) return a.startNs < b.startNs;
    if (a.tid != b.tid) return a.tid < b.tid;
    return a.durNs > b.durNs;  // enclosing span first
  });
  return merged;
}

bool Session::active() const noexcept {
  return gActive.load(std::memory_order_relaxed) == this;
}

bool Session::superseded() const noexcept {
  std::lock_guard<std::mutex> lock(gMutex);
  return superseded_;
}

Session& defaultSession() noexcept {
  static Session instance;
  return instance;
}

bool sessionActive() noexcept { return enabled(Level::kStage); }

Span::Span(const char* name, const char* cat, Level level) noexcept {
  if (!enabled(level)) return;
  name_ = name;
  cat_ = cat;
  startNs_ = nowNs() - gT0.load(std::memory_order_relaxed);
}

void Span::arg(const char* key, std::int64_t value) noexcept {
  if (startNs_ < 0) return;
  for (Arg& slot : args_)
    if (slot.key == nullptr) {
      slot = {key, value};
      return;
    }
}

void Span::close() noexcept {
  if (startNs_ < 0) return;
  const std::int64_t start = startNs_;
  startNs_ = -1;
  // The session may have ended while the span was open (endSession inside
  // a traced region violates the contract, but must not corrupt state).
  if (!enabled(Level::kStage)) return;
  Event e;
  e.name = name_;
  e.cat = cat_;
  e.startNs = start;
  e.durNs = nowNs() - gT0.load(std::memory_order_relaxed) - start;
  if (e.durNs < 0) e.durNs = 0;
  e.args[0] = args_[0];
  e.args[1] = args_[1];
  Buffer& buf = localBuffer();
  e.tid = buf.tid;
  buf.events.push_back(e);
}

std::string toChromeJson(const std::vector<Event>& events) {
  std::string out;
  out.reserve(events.size() * 128 + 64);
  out += "{\"traceEvents\": [\n";
  char num[64];
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Event& e = events[i];
    out += "  {\"name\": \"";
    out += e.name != nullptr ? e.name : "?";
    out += "\", \"cat\": \"";
    out += e.cat != nullptr ? e.cat : "?";
    out += "\", \"ph\": \"X\", \"ts\": ";
    std::snprintf(num, sizeof num, "%.3f", static_cast<double>(e.startNs) / 1000.0);
    out += num;
    out += ", \"dur\": ";
    std::snprintf(num, sizeof num, "%.3f", static_cast<double>(e.durNs) / 1000.0);
    out += num;
    out += ", \"pid\": 1, \"tid\": ";
    std::snprintf(num, sizeof num, "%d", e.tid);
    out += num;
    if (e.args[0].key != nullptr) {
      out += ", \"args\": {";
      for (int a = 0; a < 2 && e.args[a].key != nullptr; ++a) {
        if (a > 0) out += ", ";
        out += '"';
        out += e.args[a].key;
        out += "\": ";
        std::snprintf(num, sizeof num, "%lld",
                      static_cast<long long>(e.args[a].value));
        out += num;
      }
      out += '}';
    }
    out += '}';
    if (i + 1 < events.size()) out += ',';
    out += '\n';
  }
  out += "], \"displayTimeUnit\": \"ms\"}\n";
  return out;
}

bool writeChromeTrace(const std::string& path, const std::vector<Event>& events) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string json = toChromeJson(events);
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace pacor::trace
