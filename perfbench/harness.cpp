// Benchmark harness entry point and shared helpers.
//
// Usage: pacor_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                        --out-dir DIR [--golden PATH]
//
// serve_mix needs --golden: the Table-1 solution hashes its one-shot
// references are checked against.
//
// Runs one workload (fpva_escape, lm_congested or serve_mix) and prints
// its report as one JSON line on stdout; a human summary goes to stderr.
// perfbench/run.py builds this binary and turns the report into the
// benchmark's result line.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common.hpp"
#include "pacor/solution_io.hpp"
#include "util/sha256.hpp"

namespace perfbench {

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

double median(std::vector<double> values) { return percentile(std::move(values), 50.0); }

std::uint32_t deriveSeed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return static_cast<std::uint32_t>((z ^ (z >> 31)) & 0x7fffffffu);
}

double peakRssMb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

std::map<std::string, std::string> loadGolden(const std::string& path) {
  std::map<std::string, std::string> golden;
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot read the golden hashes '" + path + "'");
  std::string name, hash;
  while (is >> name >> hash) golden[name] = hash;
  return golden;
}

void Report::miss(const std::string& what) {
  correct = false;
  ++failed;
  std::fprintf(stderr, "perfbench: FAIL %s\n", what.c_str());
}

void Report::addOkRatio() {
  add("ok_ratio",
      static_cast<double>(attempted - failed) /
          static_cast<double>(std::max<std::int64_t>(1, attempted)),
      "ratio");
}

std::string solutionHash(const pacor::core::PacorResult& result) {
  return pacor::util::sha256Hex(pacor::core::solutionToString(result));
}

namespace {

std::string quoted(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + '"';
}

std::string number(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

}  // namespace

std::string Report::json() const {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    os << (i > 0 ? ", " : "") << quoted(metrics[i].name) << ": {\"value\": "
       << number(metrics[i].value) << ", \"unit\": " << quoted(metrics[i].unit) << "}";
  os << "}, \"hashes\": {";
  bool first = true;
  for (const auto& [design, hash] : hashes) {
    os << (first ? "" : ", ") << quoted(design) << ": " << quoted(hash);
    first = false;
  }
  os << "}}";
  return os.str();
}

SpanLog::SpanLog() : origin_(Clock::now()) { spans_.reserve(1 << 14); }

int SpanLog::begin(const char* name, const std::string& id, int parent) {
  spans_.push_back({name, id, parent, Clock::now(), {}});
  return static_cast<int>(spans_.size() - 1);
}

double SpanLog::end(int span) {
  Span& s = spans_[static_cast<std::size_t>(span)];
  s.end = Clock::now();
  return msBetween(s.start, s.end);
}

bool SpanLog::write(const std::string& path) const {
  std::ofstream os(path);
  const auto us = [this](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  os << "{\"traceEvents\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i > 0 ? ",\n" : "\n") << "{\"name\": " << quoted(s.name)
       << ", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": " << number(us(s.start))
       << ", \"dur\": " << number(us(s.end) - us(s.start)) << ", \"args\": {\"span\": " << i
       << ", \"parent\": " << s.parent << ", \"id\": " << quoted(s.id) << "}}";
  }
  os << "\n]}\n";
  return static_cast<bool>(os);
}

}  // namespace perfbench

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: pacor_perfbench --workload fpva_escape|lm_congested|serve_mix "
               "--seed N --seconds S --trace 0|1 --out-dir DIR [--golden PATH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string key = argv[i];
      const std::string value = argv[i + 1];
      if (key == "--workload") options.workload = value;
      else if (key == "--seed") options.seed = std::stoull(value);
      else if (key == "--seconds") options.seconds = std::stod(value);
      else if (key == "--trace") options.trace = value == "1";
      else if (key == "--out-dir") options.outDir = value;
      else if (key == "--golden") options.goldenPath = value;
      else return usage();
    }
    if (argc % 2 != 1 || options.outDir.empty() || !(options.seconds > 0)) return usage();
  } catch (const std::exception&) {
    return usage();
  }

  try {
    perfbench::Report report;
    if (options.workload == "fpva_escape" || options.workload == "lm_congested")
      report = perfbench::runBatch(options);
    else if (options.workload == "serve_mix")
      report = perfbench::runServeMix(options);
    else
      return usage();
    std::printf("%s\n", report.json().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
