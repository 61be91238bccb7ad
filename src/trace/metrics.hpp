#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace pacor::trace {

/// Typed, insertion-ordered metrics registry: the single queryable home
/// for the pipeline's scattered counters (search effort, detour stats,
/// LM routing stats, escape remedies, stage seconds). Lives by value on
/// PacorResult, so it is deliberately header-only with implicit special
/// members -- consumers that only read results (e.g. the independent
/// oracle) pick up no extra link dependency.
///
/// Names are dotted paths ("detour.reroutes", "time.escape_s"); insertion
/// order is preserved and the JSON dump is deterministic, which lets
/// bench baselines diff snapshots textually.
class MetricsRegistry {
 public:
  struct Entry {
    std::string name;
    bool isReal = false;
    std::int64_t i = 0;
    double r = 0.0;
  };

  void setInt(std::string_view name, std::int64_t value) {
    Entry& e = slot(name);
    e.isReal = false;
    e.i = value;
  }

  void setReal(std::string_view name, double value) {
    Entry& e = slot(name);
    e.isReal = true;
    e.r = value;
  }

  const Entry* find(std::string_view name) const noexcept {
    for (const Entry& e : entries_)
      if (e.name == name) return &e;
    return nullptr;
  }

  std::int64_t getInt(std::string_view name, std::int64_t fallback = 0) const noexcept {
    const Entry* e = find(name);
    return e != nullptr && !e->isReal ? e->i : fallback;
  }

  double getReal(std::string_view name, double fallback = 0.0) const noexcept {
    const Entry* e = find(name);
    if (e == nullptr) return fallback;
    return e->isReal ? e->r : static_cast<double>(e->i);
  }

  bool empty() const noexcept { return entries_.empty(); }
  std::size_t size() const noexcept { return entries_.size(); }
  const std::vector<Entry>& entries() const noexcept { return entries_; }

  /// JSON object in insertion order. `pretty` puts one metric per line
  /// with two-space indentation; otherwise a single line.
  std::string toJson(bool pretty = false) const {
    std::string out = "{";
    char num[64];
    for (std::size_t k = 0; k < entries_.size(); ++k) {
      const Entry& e = entries_[k];
      if (k > 0) out += ',';
      out += pretty ? "\n  " : (k > 0 ? " " : "");
      out += '"';
      out += e.name;
      out += "\": ";
      if (e.isReal)
        std::snprintf(num, sizeof num, "%.6g", e.r);
      else
        std::snprintf(num, sizeof num, "%lld", static_cast<long long>(e.i));
      out += num;
    }
    if (pretty && !entries_.empty()) out += '\n';
    out += '}';
    return out;
  }

 private:
  Entry& slot(std::string_view name) {
    for (Entry& e : entries_)
      if (e.name == name) return e;
    entries_.push_back(Entry{std::string(name), false, 0, 0.0});
    return entries_.back();
  }

  std::vector<Entry> entries_;
};

}  // namespace pacor::trace
