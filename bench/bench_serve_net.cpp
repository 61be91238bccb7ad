// Socket serve-tier load harness: a multi-connection replay driver.
//
// Fires --requests mixed requests over --connections concurrent clients
// against a serve-net endpoint -- an in-process loopback NetServer by
// default, or an external `pacor serve --listen` instance via
// --connect=HOST:PORT (with a startup retry loop, for CI jobs that
// background the server). The design mix spans the fast Table-1 designs
// plus two fpva: valve arrays; --skew weights the mix zipf-style (design
// i drawn with weight 1/(i+1)^skew), so higher skew concentrates traffic
// on few designs and drives the warm-hit ratio up.
//
// Every ok response's sha256 is checked against a local one-shot
// routeChip of the same design, and the Table-1 designs are additionally
// cross-checked against tests/golden/solution_hashes.txt (--golden=PATH
// to override, --golden=none to skip): the serving tier may never change
// routed bytes. Busy responses are counted (expected under admission
// pressure), error responses are failures.
//
// Writes BENCH_serve.json (consumed by bench/compare_baseline.py
// --serve): request/response tallies, ok-latency p50/p95/p99 ms,
// throughput, warm_hits (ok responses with cold_builds=0) and
// warm_hit_ratio over the warm-eligible requests (ok responses beyond
// each design's first).
//
// Exit 0 when every non-busy response was ok with matching hashes and
// repeat traffic landed warm; 1 otherwise.
//
// --deadline-ms=D appends deadline_ms=D to every request line (works
// against external servers too); deadline-expired responses are tallied
// separately (`deadline_expired` in the JSON) and do not fail the bench --
// the compare gate requires the nominal run to have zero. --max-designs=N
// caps the in-process server's warm-context LRU; under eviction pressure
// the exactly-one-cold affinity check is skipped (hash identity still
// holds) and the post-drain resident count must stay within the cap.
//
// Usage: bench_serve_net [out.json] [--connect=HOST:PORT] [--requests=N]
//          [--connections=C] [--skew=S] [--max-inflight=N]
//          [--max-queue=N] [--deadline-ms=D] [--max-designs=N] [--seed=S]
//          [--golden=PATH|none]

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "pacor/pipeline.hpp"
#include "pacor/solution_io.hpp"
#include "serve/net.hpp"
#include "serve/serve.hpp"
#include "util/sha256.hpp"

namespace {

using namespace pacor;

struct Options {
  std::string outPath = "BENCH_serve.json";
  std::string connectHost;  ///< empty = in-process loopback server
  std::uint16_t connectPort = 0;
  int requests = 1000;
  int connections = 4;
  double skew = 1.0;
  int maxInflight = 2;
  std::size_t maxQueue = 0;
  std::int64_t deadlineMs = 0;   ///< >0: append deadline_ms= to every request
  std::size_t maxDesigns = 0;    ///< >0: cap the server's warm-context LRU
  std::uint32_t seed = 42;
  std::string goldenPath;  ///< "" = default lookup, "none" = skip
};

int usage() {
  std::fprintf(stderr,
               "usage: bench_serve_net [out.json] [--connect=HOST:PORT] "
               "[--requests=N] [--connections=C] [--skew=S] "
               "[--max-inflight=N] [--max-queue=N] [--deadline-ms=D] "
               "[--max-designs=N] [--seed=S] [--golden=PATH|none]\n");
  return 2;
}

bool parseOptions(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string v = argv[i];
    try {
      if (v.rfind("--connect=", 0) == 0) {
        const std::string hostPort = v.substr(10);
        const std::size_t colon = hostPort.rfind(':');
        if (colon == std::string::npos) return false;
        opt.connectHost = hostPort.substr(0, colon);
        opt.connectPort =
            static_cast<std::uint16_t>(std::stoi(hostPort.substr(colon + 1)));
      } else if (v.rfind("--requests=", 0) == 0) {
        opt.requests = std::stoi(v.substr(11));
      } else if (v.rfind("--connections=", 0) == 0) {
        opt.connections = std::stoi(v.substr(14));
      } else if (v.rfind("--skew=", 0) == 0) {
        opt.skew = std::stod(v.substr(7));
      } else if (v.rfind("--max-inflight=", 0) == 0) {
        opt.maxInflight = std::stoi(v.substr(15));
      } else if (v.rfind("--max-queue=", 0) == 0) {
        opt.maxQueue = static_cast<std::size_t>(std::stoul(v.substr(12)));
      } else if (v.rfind("--deadline-ms=", 0) == 0) {
        opt.deadlineMs = std::stoll(v.substr(14));
        if (opt.deadlineMs < 0 || opt.deadlineMs > serve::kMaxDeadlineMs)
          return false;
      } else if (v.rfind("--max-designs=", 0) == 0) {
        opt.maxDesigns = static_cast<std::size_t>(std::stoul(v.substr(14)));
      } else if (v.rfind("--seed=", 0) == 0) {
        opt.seed = static_cast<std::uint32_t>(std::stoul(v.substr(7)));
      } else if (v.rfind("--golden=", 0) == 0) {
        opt.goldenPath = v.substr(9);
      } else if (v.rfind("--", 0) == 0) {
        return false;
      } else {
        opt.outPath = v;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return opt.requests > 0 && opt.connections > 0;
}

/// {design: sha256} from the `name hash` lines of the golden file; empty
/// when the file is absent at every candidate path.
std::map<std::string, std::string> loadGolden(const std::string& override_) {
  std::map<std::string, std::string> golden;
  if (override_ == "none") return golden;
  std::vector<std::string> candidates;
  if (!override_.empty()) {
    candidates.push_back(override_);
  } else {
    candidates = {"tests/golden/solution_hashes.txt",
                  "../tests/golden/solution_hashes.txt",
                  "../../tests/golden/solution_hashes.txt"};
  }
  for (const std::string& path : candidates) {
    std::ifstream is(path);
    if (!is) continue;
    std::string name, hash;
    while (is >> name >> hash) golden[name] = hash;
    break;
  }
  if (!override_.empty() && golden.empty())
    std::fprintf(stderr, "bench_serve_net: cannot read golden file %s\n",
                 override_.c_str());
  return golden;
}

serve::net::Client connectWithRetry(const std::string& host,
                                    std::uint16_t port) {
  // An external server (CI backgrounds it) may still be binding.
  for (int attempt = 0;; ++attempt) {
    try {
      return serve::net::Client(host, port);
    } catch (const std::exception&) {
      if (attempt >= 100) throw;
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  }
}

double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

struct RequestLog {
  std::string design;
  std::string status;  ///< "ok", "busy", ... or "dropped" on conn loss
  std::string sha256;
  std::string errorField;  ///< err responses: "deadline" marks an expiry
  int coldBuilds = -1;
  double millis = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parseOptions(argc, argv, opt)) return usage();

  const std::vector<std::string> kDesigns = {
      "S1", "S2", "S3", "S4", "S5", "fpva:8x8", "fpva:12x12"};

  // Local one-shot references: the bytes the serving tier must reproduce.
  std::map<std::string, std::string> expected;
  for (const std::string& design : kDesigns)
    expected[design] = util::sha256Hex(core::solutionToString(
        core::routeChip(serve::loadDesign(design), core::pacorDefaultConfig())));

  // Golden cross-check: the local references themselves must match the
  // pinned hashes, so a drifted router cannot vouch for itself.
  const std::map<std::string, std::string> golden = loadGolden(opt.goldenPath);
  int goldenChecked = 0;
  for (const auto& [design, hash] : expected) {
    const auto it = golden.find(design);
    if (it == golden.end()) continue;
    ++goldenChecked;
    if (it->second != hash) {
      std::fprintf(stderr,
                   "bench_serve_net: FAIL %s local one-shot hash %.12s... != "
                   "golden %.12s...\n",
                   design.c_str(), hash.c_str(), it->second.c_str());
      return 1;
    }
  }

  // Zipf-skewed request mix, fixed ahead of time so every connection
  // count replays the same traffic.
  std::vector<double> weights;
  for (std::size_t i = 0; i < kDesigns.size(); ++i)
    weights.push_back(1.0 / std::pow(static_cast<double>(i + 1), opt.skew));
  std::mt19937 rng(opt.seed);
  std::discrete_distribution<std::size_t> pick(weights.begin(), weights.end());
  std::vector<std::string> mix;
  mix.reserve(static_cast<std::size_t>(opt.requests));
  for (int i = 0; i < opt.requests; ++i) mix.push_back(kDesigns[pick(rng)]);

  // In-process loopback server unless --connect points elsewhere.
  std::unique_ptr<serve::net::NetServer> local;
  std::string host = opt.connectHost;
  std::uint16_t port = opt.connectPort;
  if (host.empty()) {
    serve::net::NetOptions netOpt;
    netOpt.admission.maxInflight = opt.maxInflight;
    netOpt.admission.maxQueue = opt.maxQueue;
    if (opt.maxDesigns > 0) netOpt.admission.maxDesigns = opt.maxDesigns;
    local = std::make_unique<serve::net::NetServer>(netOpt);
    host = "127.0.0.1";
    port = local->port();
  }

  std::vector<RequestLog> log(mix.size());
  std::vector<std::string> connectionErrors(
      static_cast<std::size_t>(opt.connections));
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  for (int c = 0; c < opt.connections; ++c) {
    clients.emplace_back([&, c] {
      try {
        serve::net::Client client = connectWithRetry(host, port);
        for (std::size_t i = static_cast<std::size_t>(c); i < mix.size();
             i += static_cast<std::size_t>(opt.connections)) {
          RequestLog& entry = log[i];
          entry.design = mix[i];
          std::string request = mix[i];
          if (opt.deadlineMs > 0)
            request += " deadline_ms=" + std::to_string(opt.deadlineMs);
          const auto start = std::chrono::steady_clock::now();
          std::string line;
          if (!client.send(request) || !client.recv(line)) {
            entry.status = "dropped";
            return;
          }
          entry.millis = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - start)
                             .count();
          if (const auto resp = serve::parseResponseLine(line)) {
            entry.status = resp->status;
            entry.sha256 = resp->sha256;
            entry.coldBuilds = resp->coldBuilds;
            entry.errorField = resp->errorField;
          } else {
            entry.status = "unparseable";
          }
        }
      } catch (const std::exception& e) {
        connectionErrors[static_cast<std::size_t>(c)] = e.what();
      }
    });
  }
  for (std::thread& t : clients) t.join();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  if (local != nullptr) local->wait();

  // Server-side liveness counters (in-process runs only; a --connect
  // server's stats land on its own stderr at drain time).
  std::uint64_t evictions = 0;
  std::size_t residentDesigns = 0;
  if (local != nullptr) {
    evictions = local->server().stats().evictions;
    residentDesigns = local->server().designCount();
  }

  int failures = 0;
  for (int c = 0; c < opt.connections; ++c)
    if (!connectionErrors[static_cast<std::size_t>(c)].empty()) {
      std::fprintf(stderr, "bench_serve_net: FAIL connection %d: %s\n", c,
                   connectionErrors[static_cast<std::size_t>(c)].c_str());
      ++failures;
    }

  // Tally. The affinity contract: per design exactly ONE execution builds
  // the escape session cold (whichever the dispatcher ran first -- not
  // necessarily the lowest request index, connections race to submit);
  // every other ok response must report cold_builds=0. Warm-eligible =
  // ok responses beyond each design's first.
  std::size_t okCount = 0, busyCount = 0, errorCount = 0, mismatches = 0,
              deadlineExpired = 0;
  std::vector<double> latencies;
  std::map<std::string, std::size_t> okPerDesign, coldPerDesign,
      requestsPerDesign, busyPerDesign;
  for (const RequestLog& entry : log) {
    if (entry.design.empty()) continue;  // connection died earlier
    ++requestsPerDesign[entry.design];
    if (entry.status == "err" && entry.errorField == "deadline") {
      // An expiry is a structured, expected outcome under an aggressive
      // --deadline-ms; the compare gate decides whether the nominal run
      // may contain any (it may not).
      ++deadlineExpired;
      continue;
    }
    if (entry.status == "ok") {
      ++okCount;
      latencies.push_back(entry.millis);
      ++okPerDesign[entry.design];
      if (entry.coldBuilds != 0) ++coldPerDesign[entry.design];
      if (entry.sha256 != expected[entry.design]) {
        if (mismatches++ == 0)
          std::fprintf(stderr,
                       "bench_serve_net: FAIL %s response hash %.12s... != "
                       "one-shot %.12s...\n",
                       entry.design.c_str(), entry.sha256.c_str(),
                       expected[entry.design].c_str());
      }
    } else if (entry.status == "busy") {
      ++busyCount;
      ++busyPerDesign[entry.design];
    } else {
      if (errorCount++ == 0)
        std::fprintf(stderr, "bench_serve_net: FAIL %s response status '%s'\n",
                     entry.design.c_str(), entry.status.c_str());
    }
  }
  std::sort(latencies.begin(), latencies.end());
  const double p50 = percentile(latencies, 50), p95 = percentile(latencies, 95),
               p99 = percentile(latencies, 99);
  std::size_t warmHits = 0, warmEligible = 0;
  // With the LRU capped below the design-mix size, evictions legitimately
  // force re-cold builds; the exactly-one-cold affinity contract only
  // holds when every design fits resident.
  const bool evictionPressure =
      opt.maxDesigns > 0 && opt.maxDesigns < kDesigns.size();
  for (const auto& [design, ok] : okPerDesign) {
    if (ok == 0) continue;
    warmEligible += ok - 1;
    warmHits += ok - coldPerDesign[design];
    // Repeat traffic must land warm -- the affinity contract, not a band.
    if (!evictionPressure && coldPerDesign[design] > 1) {
      std::fprintf(stderr,
                   "bench_serve_net: FAIL %s: %zu of %zu executions built the "
                   "escape session cold (expected exactly 1)\n",
                   design.c_str(), coldPerDesign[design], ok);
      ++failures;
    }
  }
  const double warmRatio =
      warmEligible == 0
          ? 0.0
          : static_cast<double>(warmHits) / static_cast<double>(warmEligible);

  if (mismatches > 0 || errorCount > 0) ++failures;

  // The LRU cap is a hard bound: once traffic drains nothing is pinned, so
  // the resident set may never exceed --max-designs.
  if (local != nullptr && opt.maxDesigns > 0 && residentDesigns > opt.maxDesigns) {
    std::fprintf(stderr,
                 "bench_serve_net: FAIL %zu resident design context(s) exceed "
                 "--max-designs=%zu after drain\n",
                 residentDesigns, opt.maxDesigns);
    ++failures;
  }

  std::ofstream os(opt.outPath);
  os << "{\n  \"summary\": {\n"
     << "    \"requests\": " << mix.size() << ",\n"
     << "    \"connections\": " << opt.connections << ",\n"
     << "    \"skew\": " << opt.skew << ",\n"
     << "    \"seconds\": " << seconds << ",\n"
     << "    \"throughput_rps\": "
     << (seconds > 0 ? static_cast<double>(okCount) / seconds : 0.0) << ",\n"
     << "    \"ok\": " << okCount << ",\n"
     << "    \"busy\": " << busyCount << ",\n"
     << "    \"errors\": " << errorCount << ",\n"
     << "    \"deadline_ms\": " << opt.deadlineMs << ",\n"
     << "    \"deadline_expired\": " << deadlineExpired << ",\n"
     << "    \"max_designs\": " << opt.maxDesigns << ",\n"
     << "    \"evictions\": " << evictions << ",\n"
     << "    \"hash_mismatches\": " << mismatches << ",\n"
     << "    \"warm_hits\": " << warmHits << ",\n"
     << "    \"warm_eligible\": " << warmEligible << ",\n"
     << "    \"warm_hit_ratio\": " << warmRatio << ",\n"
     << "    \"golden_checked\": " << goldenChecked << ",\n"
     << "    \"all_hashes_match\": " << (mismatches == 0 ? "true" : "false")
     << ",\n"
     << "    \"latency_ms\": {\"p50\": " << p50 << ", \"p95\": " << p95
     << ", \"p99\": " << p99 << ", \"max\": "
     << (latencies.empty() ? 0.0 : latencies.back()) << "}\n  },\n";
  os << "  \"designs\": [\n";
  bool first = true;
  for (const std::string& design : kDesigns) {
    if (requestsPerDesign[design] == 0) continue;
    os << (first ? "" : ",\n") << "    {\"design\": \"" << design
       << "\", \"requests\": " << requestsPerDesign[design]
       << ", \"ok\": " << okPerDesign[design]
       << ", \"busy\": " << busyPerDesign[design] << ", \"sha256\": \""
       << expected[design] << "\"}";
    first = false;
  }
  os << "\n  ]\n}\n";

  std::printf(
      "bench_serve_net: %zu requests over %d connection(s) in %.2fs "
      "(%.1f ok/s), %zu ok / %zu busy / %zu error / %zu deadline-expired, "
      "%llu eviction(s), latency ms p50 %.1f p95 %.1f p99 %.1f, "
      "warm %zu/%zu (%.0f%%), %d golden-checked, %s -> %s\n",
      mix.size(), opt.connections, seconds,
      seconds > 0 ? static_cast<double>(okCount) / seconds : 0.0, okCount,
      busyCount, errorCount, deadlineExpired,
      static_cast<unsigned long long>(evictions), p50, p95, p99, warmHits,
      warmEligible, warmRatio * 100.0, goldenChecked,
      failures == 0 ? "PASS" : "FAIL", opt.outPath.c_str());
  return failures == 0 ? 0 : 1;
}
