// Shared pieces of the benchmark harness: options, the result report,
// sample statistics, the in-memory span log of the traced runs and the
// per-design stage replay both kinds of workload trace with.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "pacor/result.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string outDir;      ///< run-local files (delta scripts, span dumps)
  std::string goldenPath;  ///< Table-1 golden solution hashes
};

/// Linear-interpolated percentile of an unsorted sample; 0 when empty.
double percentile(std::vector<double> values, double p);
double median(std::vector<double> values);

/// Mixes the workload seed with a stream index into a generator seed
/// (splitmix64), so every derived stream is fixed by --seed alone.
std::uint32_t deriveSeed(std::uint64_t seed, std::uint64_t stream);

double peakRssMb();

/// {design: sha256} from the `name hash` lines of the golden file;
/// throws when the file cannot be read.
std::map<std::string, std::string> loadGolden(const std::string& path);

std::string solutionHash(const pacor::core::PacorResult& result);

/// What one run reports: the contract's result line plus the solution
/// hashes the runner compares across runs of the same build.
struct Report {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics;
  std::map<std::string, std::string> hashes;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Records a failed check: the run is not correct and one more
  /// operation counts as failed.
  void miss(const std::string& what);
  /// Adds ok_ratio from attempted and failed.
  void addOkRatio();
  std::string json() const;
};

/// Spans recorded by the benchmark around its calls into the program:
/// name, start, end, parent span and the design or request they belong
/// to. Kept in memory; written as a Chrome trace at the end of the run.
class SpanLog {
 public:
  SpanLog();
  int begin(const char* name, const std::string& id, int parent);
  /// Closes the span and returns its duration in ms.
  double end(int span);
  bool write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::string id;
    int parent;
    Clock::time_point start;
    Clock::time_point end;
  };
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Span scope: begins on construction; close() (or the destructor) ends it.
class Scoped {
 public:
  Scoped(SpanLog& log, const char* name, const std::string& id, int parent = -1)
      : log_(log), span_(log.begin(name, id, parent)) {}
  ~Scoped() { close(); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  int id() const { return span_; }
  double close() {
    const double ms = span_ >= 0 ? log_.end(span_) : 0.0;
    span_ = -1;
    return ms;
  }

 private:
  SpanLog& log_;
  int span_;
};

/// Samples of the per-layer metrics, one per design or per request.
class LayerSamples {
 public:
  void add(const std::string& name, double value) { values_[name].push_back(value); }
  /// Adds every per-layer metric to the report as the median of its
  /// samples; a layer the workload does not exercise reads 0.
  void report(Report& report) const;

 private:
  std::map<std::string, std::vector<double>> values_;
};

/// One design traced by traceDesign: routeChip's result and its hash,
/// with the time of the routeChip call and of the solution encode.
struct TracedDesign {
  pacor::core::PacorResult result;
  std::string hash;
  double routeMs = 0.0;
  double encodeMs = 0.0;
};

/// Traces one design: generation (serve::loadDesign), the obstacle
/// template, a staged replay of the pipeline's first pass through its
/// public stages, then routeChip and the solution encode, one span each
/// under a root span. Adds the design's stage and counter samples and
/// fails the report when the replay's escape pass differs from
/// routeChip's first escape pass.
TracedDesign traceDesign(const std::string& spec, SpanLog& log, LayerSamples& samples,
                         Report& report);

Report runBatch(const Options& options);
Report runServeMix(const Options& options);

}  // namespace perfbench
