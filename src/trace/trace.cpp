#include "trace/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace pacor::trace {

namespace {

std::int64_t nowNs() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The calling thread's session; detail::tlLevel says whether it records.
struct ThreadSession {
  std::int64_t t0 = 0;  ///< time origin (ns)
  std::vector<Event> events;
};
thread_local ThreadSession tlSession;

}  // namespace

std::optional<Level> parseLevel(std::string_view name) noexcept {
  if (name == "off") return Level::kOff;
  if (name == "stage") return Level::kStage;
  if (name == "cluster") return Level::kCluster;
  if (name == "search") return Level::kSearch;
  return std::nullopt;
}

void beginSession(Level level) {
  tlSession.events.clear();
  tlSession.t0 = nowNs();
  detail::tlLevel = static_cast<int>(level);
}

std::vector<Event> endSession() {
  if (!sessionActive()) return {};
  detail::tlLevel = static_cast<int>(Level::kOff);
  std::vector<Event> events;
  events.swap(tlSession.events);
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    if (a.startNs != b.startNs) return a.startNs < b.startNs;
    return a.durNs > b.durNs;  // enclosing span first
  });
  return events;
}

Span::Span(const char* name, const char* cat, Level level) noexcept {
  if (!enabled(level)) return;
  name_ = name;
  cat_ = cat;
  startNs_ = nowNs() - tlSession.t0;
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
  e.durNs = nowNs() - tlSession.t0 - start;
  if (e.durNs < 0) e.durNs = 0;
  e.args[0] = args_[0];
  e.args[1] = args_[1];
  tlSession.events.push_back(e);
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
    out += ", \"pid\": 1, \"tid\": 0";
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
