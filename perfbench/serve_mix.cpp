// serve_mix: an open loop against the socket serve tier.
//
// One generator thread sends a seed-drawn schedule at 200 requests/s over
// two loopback connections to an in-process serve::net::NetServer with
// default admission (two dispatchers, one routing thread). Designs are
// the bench_serve_net mix (S1-S5, fpva:8x8, fpva:12x12), zipf-weighted by
// rank; each design is pinned to one connection, so its requests keep
// their order. Every 20th request is an `eco` write on S4 or fpva:12x12:
// a seeded valve move, then its inverse. Every request carries a
// generous deadline_ms.
//
// Latency runs from a request's due time to its response. The traced run
// replays the first half of the schedule three ways -- over the socket,
// straight into Server::submit, and as direct calls on warm per-design
// state -- to split the end-to-end time into network, queue and service.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <deque>
#include <future>
#include <memory>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "chip/delta.hpp"
#include "chip/generator.hpp"
#include "common.hpp"
#include "pacor/eco.hpp"
#include "pacor/escape.hpp"
#include "pacor/pipeline.hpp"
#include "serve/net.hpp"
#include "serve/protocol.hpp"
#include "serve/serve.hpp"
#include "verify/oracle.hpp"

namespace perfbench {
namespace {

using namespace pacor;

/// The bench_serve_net designs in zipf rank order. S3 is requested most
/// (39% of routes): its routes take longer than S1's and S2's (32%
/// together) and less than the rest, so the median route request is an
/// S3 route, not the boundary between two designs' latencies, which
/// would jump with a small change in either design's tail.
const std::vector<std::string> kDesigns = {"S3", "S1", "S2", "S4", "fpva:8x8", "fpva:12x12", "S5"};
/// Eco writes go to the heavier designs, except S5: its routes set the
/// p99 (S5 is the slowest 5.5% of routes), and a seeded S5 move can
/// double its route time (34.8 against 18.8 ms median for one seed),
/// which would make the p99 follow the seed rather than the server.
const std::vector<std::string> kWriteDesigns = {"S4", "fpva:12x12"};
/// The slowest design (a warm route takes ~14 ms; the others under 5 ms)
/// has the second connection to itself, so its routes never hold back a
/// light design's response on the in-order connection.
const std::string kOwnConnection = "S5";
/// Two thirds of the writes go to this design, so the median write is
/// one of its own rather than the boundary between its latencies and
/// S4's.
const std::string kMedianWrite = "fpva:12x12";
/// A fifth of the ~1000 requests/s the mix sustains on four cores while
/// the host runs fast. In the host's slow phases, at 400/s, a stall's
/// backlog pushed p99 from ~25 ms to 45-630 ms on four of ten seeds;
/// at 200/s the same four seeds read 26-28 ms.
constexpr double kRatePerS = 200.0;
constexpr std::size_t kWriteEvery = 20;
constexpr std::int64_t kDeadlineMs = 30000;
/// A 30 s run holds ~5700 route requests, ~57 of them beyond p99.
constexpr double kTailPercentile = 99.0;
constexpr int kSetupRepeats = 5;

struct Design {
  std::string token;
  chip::Chip base;
  /// Eco target: delta files of a seeded valve move and of its inverse,
  /// and the moved design, named by its edit.
  bool writable = false;
  std::string movePath, backPath;
  chip::Chip moved;
  std::string movedName;
};

struct Request {
  std::size_t design = 0;
  bool eco = false;
  bool back = false;  ///< eco: applies the inverse move
  int connection = 0;
  double dueMs = 0.0;
  std::string line;
};

/// One way of running the schedule: per request the time it was sent and
/// answered (ms from the schedule start) and the response line.
struct Outcome {
  std::vector<double> sentMs, doneMs;
  std::vector<std::string> responses;
  explicit Outcome(std::size_t n) : sentMs(n, 0.0), doneMs(n, 0.0), responses(n) {}
};

Clock::duration untilDue(const Request& r) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(r.dueMs));
}

/// CPU placement that keeps the spinning generator off the CPUs the
/// server works on: threads inherit their creator's affinity, so the main
/// thread holds the server's CPUs whenever it starts a server, and moves
/// to the last CPU only while it generates load. With fewer than three
/// CPUs nothing is pinned.
class Placement {
 public:
  Placement() {
    cpu_set_t all;
    CPU_ZERO(&all);
    if (sched_getaffinity(0, sizeof all, &all) != 0 || CPU_COUNT(&all) < 3) return;
    server_ = all;
    for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu)
      if (CPU_ISSET(cpu, &all)) {
        CPU_CLR(cpu, &server_);
        CPU_ZERO(&generator_);
        CPU_SET(cpu, &generator_);
        pinned_ = true;
        break;
      }
    toServer();
  }
  void toServer() const {
    if (pinned_) sched_setaffinity(0, sizeof server_, &server_);
  }
  void toGenerator() const {
    if (pinned_) sched_setaffinity(0, sizeof generator_, &generator_);
  }

 private:
  bool pinned_ = false;
  cpu_set_t server_{};
  cpu_set_t generator_{};
};

std::string fileToken(const std::string& token) {
  std::string out = token;
  std::replace(out.begin(), out.end(), ':', '_');
  return out;
}

/// A seeded valve move that keeps the chip valid and fully routable.
void chooseEdit(Design& design, std::uint64_t seed, std::size_t index, const std::string& outDir) {
  std::mt19937 rng(deriveSeed(seed, 2000 + index));
  const chip::Chip& base = design.base;
  const grid::ObstacleMap free = core::makeRoutingObstacleTemplate(base);
  const auto occupied = [&](geom::Point p) {
    for (const chip::Valve& v : base.valves)
      if (v.pos == p) return true;
    for (const chip::ControlPin& pin : base.pins)
      if (pin.pos == p) return true;
    return false;
  };
  std::uniform_int_distribution<std::size_t> pickValve(0, base.valves.size() - 1);
  std::uniform_int_distribution<int> pickStep(0, 7);
  for (int attempt = 0; attempt < 2000; ++attempt) {
    const chip::Valve& valve = base.valves[pickValve(rng)];
    const int step = pickStep(rng);
    const int dist = 1 + step / 4;
    const geom::Point to{valve.pos.x + (step % 4 == 0 ? dist : step % 4 == 1 ? -dist : 0),
                         valve.pos.y + (step % 4 == 2 ? dist : step % 4 == 3 ? -dist : 0)};
    if (!base.routingGrid.inBounds(to) || !free.isFree(to) || occupied(to)) continue;
    chip::ChipDelta move;
    move.moveValve(valve.id, to);
    chip::Chip moved = chip::apply(base, move);
    if (moved.validate() || !core::routeChip(moved).complete) continue;
    design.writable = true;
    design.moved = std::move(moved);
    design.movedName = design.token + "@valve" + std::to_string(valve.id) + "->" +
                       std::to_string(to.x) + "," + std::to_string(to.y);
    design.movePath = outDir + "/" + fileToken(design.token) + "-move.delta";
    design.backPath = outDir + "/" + fileToken(design.token) + "-back.delta";
    chip::writeDeltaFile(design.movePath, move);
    chip::writeDeltaFile(design.backPath, chip::ChipDelta().moveValve(valve.id, valve.pos));
    return;
  }
  throw std::runtime_error(design.token + ": no routable valve move found");
}

std::vector<Design> loadDesigns(std::uint64_t seed, const std::string& outDir) {
  std::vector<Design> designs;
  for (const std::string& token : kDesigns) {
    Design d;
    d.token = token;
    d.base = serve::loadDesign(token);
    designs.push_back(std::move(d));
  }
  for (std::size_t i = 0; i < designs.size(); ++i)
    if (std::find(kWriteDesigns.begin(), kWriteDesigns.end(), designs[i].token) !=
        kWriteDesigns.end())
      chooseEdit(designs[i], seed, i, outDir);
  return designs;
}

std::vector<Request> makeSchedule(const std::vector<Design>& designs, std::uint64_t seed,
                                  std::size_t count) {
  std::mt19937 rng(deriveSeed(seed, 1000));
  std::vector<double> weights;
  std::vector<std::size_t> writable;
  for (std::size_t i = 0; i < designs.size(); ++i) {
    weights.push_back(1.0 / static_cast<double>(i + 1));
    if (designs[i].writable) writable.push_back(i);
  }
  std::discrete_distribution<std::size_t> pick(weights.begin(), weights.end());
  std::vector<double> writeWeights;
  for (const std::size_t d : writable)
    writeWeights.push_back(designs[d].token == kMedianWrite ? 2.0 : 1.0);
  std::discrete_distribution<std::size_t> pickWrite(writeWeights.begin(), writeWeights.end());
  std::vector<int> writes(designs.size(), 0);
  std::vector<Request> schedule(count);
  for (std::size_t i = 0; i < count; ++i) {
    Request& r = schedule[i];
    r.eco = i % kWriteEvery == kWriteEvery - 1;
    r.design = r.eco ? writable[pickWrite(rng)] : pick(rng);
    const Design& d = designs[r.design];
    if (r.eco) r.back = writes[r.design]++ % 2 == 1;
    r.connection = d.token == kOwnConnection ? 1 : 0;
    r.dueMs = static_cast<double>(i) * 1000.0 / kRatePerS;
    r.line = r.eco ? "eco " + d.token + " delta=" + (r.back ? d.backPath : d.movePath) : d.token;
    r.line += " deadline_ms=" + std::to_string(kDeadlineMs);
  }
  return schedule;
}

/// Starts the socket server and warms it up: every design generated and
/// routed once, over one client connection.
std::unique_ptr<serve::net::NetServer> startServer(const std::vector<Design>& designs) {
  auto server = std::make_unique<serve::net::NetServer>(serve::net::NetOptions{});
  serve::net::Client client("127.0.0.1", server->port());
  for (const char* verb : {"gen ", ""})
    for (const Design& d : designs) {
      const std::string line = verb + d.token;
      const std::string response = client.call(line);
      if (response.rfind("ok ", 0) != 0)
        throw std::runtime_error("set-up request '" + line + "' answered: " + response);
    }
  return server;
}

/// Runs the schedule from one thread that spins between sending every
/// request that is due (`send(i)`) and collecting, per connection in
/// request order, the responses that are ready (`receive(i)` returns the
/// response line of request i, or nothing yet). The generator never
/// sleeps, so it adds no timer or wake-up latency to the measured times.
template <typename Send, typename Receive>
Outcome runSchedule(const Placement& placement, const std::vector<Request>& schedule, Send send,
                    Receive receive) {
  Outcome out(schedule.size());
  placement.toGenerator();
  std::array<std::deque<std::size_t>, 2> outstanding;
  std::size_t next = 0, answered = 0;
  const auto t0 = Clock::now() + std::chrono::milliseconds(20);
  while (answered < schedule.size()) {
    const auto now = Clock::now();
    for (; next < schedule.size() && now >= t0 + untilDue(schedule[next]); ++next) {
      out.sentMs[next] = msBetween(t0, Clock::now());
      if (!send(next)) {
        placement.toServer();
        return out;
      }
      outstanding[static_cast<std::size_t>(schedule[next].connection)].push_back(next);
    }
    for (std::deque<std::size_t>& queue : outstanding) {
      while (!queue.empty()) {
        std::optional<std::string> line = receive(queue.front());
        if (!line) break;
        out.doneMs[queue.front()] = msBetween(t0, Clock::now());
        out.responses[queue.front()] = std::move(*line);
        queue.pop_front();
        ++answered;
      }
    }
  }
  placement.toServer();
  return out;
}

/// The schedule over two fresh loopback connections to the server.
Outcome runSocket(const Placement& placement, const serve::net::NetServer& server,
                  const std::vector<Request>& schedule) {
  std::array<int, 2> fds{-1, -1};
  for (int& fd : fds) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server.port());
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    const int one = 1;
    if (fd < 0 || ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one) != 0)
      throw std::runtime_error("cannot connect to the server");
  }
  const auto fdOf = [&](std::size_t i) {
    return fds[static_cast<std::size_t>(schedule[i].connection)];
  };
  bool broken = false;
  Outcome out = runSchedule(
      placement, schedule,
      [&](std::size_t i) { return serve::net::writeFrame(fdOf(i), schedule[i].line); },
      [&](std::size_t i) -> std::optional<std::string> {
        // After a dropped connection every remaining request reads "".
        if (broken) return std::string();
        pollfd ready{fdOf(i), POLLIN, 0};
        if (::poll(&ready, 1, 0) <= 0) return std::nullopt;
        std::string line;
        broken = !serve::net::readFrame(ready.fd, line, 1 << 20);
        return line;
      });
  for (const int fd : fds) ::close(fd);
  return out;
}

/// The same schedule straight into Server::submit of a fresh, warmed-up
/// server, its futures collected in request order per connection, as the
/// socket writer resolves them.
Outcome runSubmit(const Placement& placement, const std::vector<Design>& designs,
                  const std::vector<Request>& schedule) {
  serve::Server server;
  server.startDispatch(serve::AdmissionOptions{});
  for (const char* verb : {"gen ", ""})
    for (const Design& d : designs) {
      const serve::Response r = server.submit(serve::parseRequestLine(verb + d.token).value()).get();
      if (!r.ok) throw std::runtime_error("submit set-up failed for " + d.token);
    }
  std::vector<std::future<serve::Response>> futures(schedule.size());
  Outcome out = runSchedule(
      placement, schedule,
      [&](std::size_t i) {
        futures[i] = server.submit(serve::parseRequestLine(schedule[i].line).value());
        return true;
      },
      [&](std::size_t i) -> std::optional<std::string> {
        if (futures[i].wait_for(std::chrono::seconds(0)) != std::future_status::ready)
          return std::nullopt;
        return serve::formatResponse(futures[i].get());
      });
  return out;
}

/// One-shot routeChip of every design state: the bytes every route
/// response must reproduce.
struct References {
  std::vector<core::PacorResult> base, moved;
  std::vector<std::string> baseHash, movedHash;
};

References makeReferences(const std::vector<Design>& designs, const std::string& goldenPath,
                          Report& report) {
  References refs;
  const std::map<std::string, std::string> golden = loadGolden(goldenPath);
  const auto reference = [&](const chip::Chip& chip, const std::string& name) {
    core::PacorResult result = core::routeChip(chip);
    const verify::OracleReport oracle = verify::verifySolution(chip, result);
    if (!oracle.clean()) report.miss(name + " oracle: " + oracle.str());
    report.hashes[name] = solutionHash(result);
    return result;
  };
  for (const Design& d : designs) {
    refs.base.push_back(reference(d.base, d.token));
    refs.baseHash.push_back(report.hashes[d.token]);
    const auto it = golden.find(d.token);
    if (it == golden.end()) {
      if (!chip::isFpvaSpec(d.token)) report.miss(d.token + ": no golden hash to check against");
    } else if (it->second != refs.baseHash.back()) {
      report.miss(d.token + ": one-shot route differs from the golden hash");
    }
    refs.moved.push_back(d.writable ? reference(d.moved, d.movedName) : core::PacorResult{});
    refs.movedHash.push_back(d.writable ? report.hashes[d.movedName] : "");
  }
  return refs;
}

/// Replays the schedule in process, each design's requests in order, and
/// returns the solution hash every response must carry. An eco chains
/// from the design's previous result exactly as the server does.
///
/// With `direct`, every request runs as the serve tier runs it --
/// routeChip on warm per-design state (obstacle template and escape
/// session), rerouteChip for eco -- with the layer times sampled, and a
/// route must equal the one-shot reference. Without it, route requests
/// take the reference and only eco requests are computed.
std::vector<std::string> replaySchedule(const std::vector<Design>& designs,
                                        const References& refs,
                                        const std::vector<Request>& schedule, bool direct,
                                        LayerSamples& samples, std::vector<double>& serviceMs,
                                        Report& report) {
  struct State {
    const chip::Chip* chip;
    bool moved = false;
    grid::ObstacleMap obstacles;
    std::unique_ptr<core::EscapeFlowSession> session;
    core::PacorResult prev;
  };
  std::vector<State> states;
  for (std::size_t d = 0; d < designs.size(); ++d) {
    State s{&designs[d].base, false, core::makeRoutingObstacleTemplate(designs[d].base), {},
            refs.base[d]};
    if (direct) {
      core::RouteResources warm;
      warm.obstacleTemplate = &s.obstacles;
      warm.escapeSession = &s.session;
      s.prev = core::routeChip(*s.chip, {}, warm);
    }
    states.push_back(std::move(s));
  }

  std::vector<std::string> expected(schedule.size());
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const Request& r = schedule[i];
    const Design& design = designs[r.design];
    State& s = states[r.design];
    const std::string& refHash = s.moved ? refs.movedHash[r.design] : refs.baseHash[r.design];
    if (!direct && !r.eco) {
      expected[i] = refHash;
      s.prev = s.moved ? refs.moved[r.design] : refs.base[r.design];
      continue;
    }
    const auto t0 = Clock::now();
    const std::optional<serve::Request> parsed = serve::parseRequestLine(r.line);
    const double parseUs = msBetween(t0, Clock::now()) * 1000.0;
    core::RouteResources resources;
    resources.escapeSession = &s.session;
    const auto t1 = Clock::now();
    core::PacorResult result;
    if (r.eco) {
      const chip::ChipDelta delta = chip::readDeltaFile(parsed->deltaPath);
      result = core::rerouteChip(*s.chip, s.prev, delta, {}, direct ? resources : core::RouteResources{});
      s.moved = !s.moved;
      s.chip = s.moved ? &design.moved : &design.base;
      if (direct) s.obstacles = core::makeRoutingObstacleTemplate(*s.chip);
    } else {
      resources.obstacleTemplate = &s.obstacles;
      result = core::routeChip(*s.chip, {}, resources);
    }
    const double workMs = msBetween(t1, Clock::now());
    const auto t2 = Clock::now();
    expected[i] = solutionHash(result);
    const double encodeMs = msBetween(t2, Clock::now());
    const auto t3 = Clock::now();
    serve::Response response;
    response.design = design.token;
    response.ok = true;
    response.complete = result.complete;
    response.solutionHash = expected[i];
    response.clusterCount = result.clusters.size();
    response.totalLength = result.totalChannelLength;
    serve::formatResponse(response);
    const double formatUs = msBetween(t3, Clock::now()) * 1000.0;
    if (!r.eco && expected[i] != refHash)
      report.miss(design.token + ": warm route differs from the one-shot route");
    s.prev = std::move(result);
    if (!direct) continue;
    samples.add(r.eco ? "pacor.eco_ms" : "pacor.route_warm_ms", workMs);
    samples.add("pacor.encode_ms", encodeMs);
    samples.add("serve.protocol_us", parseUs + formatUs);
    serviceMs.push_back(msBetween(t0, Clock::now()));
  }
  return expected;
}

/// Checks every response against the expected hash; returns per-request
/// latency from due time (negative for a failed request).
std::vector<double> checkResponses(const std::vector<Request>& schedule, const Outcome& out,
                                   const std::vector<std::string>& expected, Report& report,
                                   LayerSamples* samples) {
  std::vector<double> latency(schedule.size(), -1.0);
  std::map<std::string, int> ecoModes;
  int busy = 0, expired = 0, warm = 0, routes = 0;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const Request& r = schedule[i];
    const std::string& line = out.responses[i];
    ++report.attempted;
    const std::optional<serve::ParsedResponse> resp = serve::parseResponseLine(line);
    const std::string where = "request " + std::to_string(i) + " (" + r.line + ")";
    if (!resp || resp->status != "ok") {
      if (resp && resp->status == "busy") ++busy;
      if (resp && resp->errorField == "deadline") ++expired;
      report.miss(where + " answered '" + (line.empty() ? "<dropped>" : line) + "'");
      continue;
    }
    if (resp->sha256 != expected[i]) {
      report.miss(where + ": response hash differs from the in-process replay");
      continue;
    }
    latency[i] = out.doneMs[i] - r.dueMs;
    if (r.eco) {
      const std::size_t at = line.find(" eco=");
      ecoModes[at == std::string::npos ? "" : line.substr(at + 5, line.find(' ', at + 5) - at - 5)]++;
    } else {
      ++routes;
      if (resp->coldBuilds == 0) ++warm;
    }
  }
  if (samples != nullptr) {
    samples->add("serve.eco_identity", ecoModes["identity"]);
    samples->add("serve.eco_incremental", ecoModes["incremental"]);
    samples->add("serve.eco_full", ecoModes["full"]);
    samples->add("serve.warm_hit_ratio", routes > 0 ? static_cast<double>(warm) / routes : 0.0);
    samples->add("serve.busy", busy);
    samples->add("serve.deadline_expired", expired);
  }
  return latency;
}

std::vector<double> select(const std::vector<Request>& schedule, const std::vector<double>& latency,
                           bool eco) {
  std::vector<double> out;
  for (std::size_t i = 0; i < schedule.size(); ++i)
    if (schedule[i].eco == eco && latency[i] >= 0) out.push_back(latency[i]);
  return out;
}

/// Share of route requests whose design is unchanged since its previous
/// route (the set-up route counts): the repeats a result memo could serve.
double repeatShare(const std::vector<Request>& schedule, std::size_t designs) {
  std::vector<bool> changed(designs, false);
  int routes = 0, repeats = 0;
  for (const Request& r : schedule) {
    if (r.eco) {
      changed[r.design] = true;
      continue;
    }
    ++routes;
    if (!changed[r.design]) ++repeats;
    changed[r.design] = false;
  }
  return routes > 0 ? static_cast<double>(repeats) / routes : 0.0;
}

}  // namespace

Report runServeMix(const Options& options) {
  if (options.outDir.find_first_of(" \t") != std::string::npos)
    throw std::invalid_argument("--out-dir must not contain whitespace");
  Report report;

  // Set-up: load the designs, choose and write the eco edits, start the
  // server and warm every design with a gen and a route. It is timed
  // again after the window (so the repeats do not add to peak RSS).
  const Placement placement;
  std::vector<Design> designs;
  std::unique_ptr<serve::net::NetServer> server;
  std::vector<double> setupS;
  const auto setUp = [&] {
    const auto t0 = Clock::now();
    designs = loadDesigns(options.seed, options.outDir);
    server = startServer(designs);
    setupS.push_back(msBetween(t0, Clock::now()) / 1000.0);
  };
  setUp();

  const double windowS = options.trace ? options.seconds / 2 : options.seconds;
  const std::vector<Request> schedule =
      makeSchedule(designs, options.seed, static_cast<std::size_t>(windowS * kRatePerS));
  const Outcome socket = runSocket(placement, *server, schedule);
  const serve::Server::Stats stats = server->server().stats();
  server->wait();
  const double peakRss = peakRssMb();
  for (int rep = 1; rep < kSetupRepeats && !options.trace; ++rep) {
    setUp();
    server->wait();
  }

  const References refs = makeReferences(designs, options.goldenPath, report);
  LayerSamples samples;
  std::vector<double> serviceMs;

  if (options.trace) {
    const Outcome submitted = runSubmit(placement, designs, schedule);
    const std::vector<std::string> expected =
        replaySchedule(designs, refs, schedule, true, samples, serviceMs, report);
    const std::vector<double> viaSocket =
        checkResponses(schedule, socket, expected, report, &samples);
    const std::vector<double> viaSubmit =
        checkResponses(schedule, submitted, expected, report, nullptr);
    samples.add("serve.net_ms",
                median(select(schedule, viaSocket, false)) - median(select(schedule, viaSubmit, false)));
    std::vector<double> queueWait;
    for (std::size_t i = 0; i < schedule.size(); ++i)
      if (viaSubmit[i] >= 0) queueWait.push_back(viaSubmit[i] - serviceMs[i]);
    samples.add("serve.queue_wait_p50_ms", median(queueWait));
    samples.add("serve.queue_wait_tail_ms", percentile(queueWait, kTailPercentile));
    samples.add("serve.repeat_share", repeatShare(schedule, designs.size()));
    samples.add("serve.evictions", static_cast<double>(stats.evictions));
    double late = 0.0;
    for (std::size_t i = 0; i < schedule.size(); ++i)
      late = std::max(late, socket.sentMs[i] - schedule[i].dueMs);
    samples.add("serve.generator_late_ms", late);
    samples.add("trace.route_p50_ms", median(select(schedule, viaSocket, false)));
    SpanLog log;
    for (std::size_t d = 0; d < designs.size(); ++d)
      if (traceDesign(designs[d].token, log, samples, report).hash != refs.baseHash[d])
        report.miss(designs[d].token + ": traced route differs from the one-shot route");
    samples.report(report);
    const std::string path = options.outDir + "/trace-serve_mix.json";
    if (!log.write(path)) report.miss("cannot write " + path);
    return report;
  }

  const std::vector<std::string> expected =
      replaySchedule(designs, refs, schedule, false, samples, serviceMs, report);
  const std::vector<double> latency =
      checkResponses(schedule, socket, expected, report, nullptr);
  const std::vector<double> routes = select(schedule, latency, false);
  const std::vector<double> writes = select(schedule, latency, true);
  double lastDone = 0.0;
  for (const double t : socket.doneMs) lastDone = std::max(lastDone, t);
  std::int64_t length = 0, matched = 0, routed = 0, clusters = 0;
  for (const core::PacorResult& r : refs.base) {
    length += r.totalChannelLength;
    matched += r.matchedClusterCount;
    clusters += static_cast<std::int64_t>(r.clusters.size());
    for (const core::RoutedCluster& c : r.clusters) routed += c.routed ? 1 : 0;
  }

  report.add("setup_s", median(setupS), "s");
  report.add("latency_p50_ms", median(routes), "ms");
  report.add("latency_tail_ms", percentile(routes, kTailPercentile), "ms");
  report.add("throughput_ops",
             static_cast<double>(routes.size() + writes.size()) / (lastDone / 1000.0), "1/s");
  report.add("write_latency_p50_ms", median(writes), "ms");
  report.add("peak_rss_mb", peakRss, "MB");
  report.addOkRatio();
  report.add("length_total", static_cast<double>(length), "units");
  report.add("matched_clusters", static_cast<double>(matched), "count");
  report.add("routed_ratio",
             static_cast<double>(routed) / static_cast<double>(std::max<std::int64_t>(1, clusters)),
             "ratio");
  std::fprintf(stderr,
               "perfbench: serve_mix seed %llu: %zu requests at %.0f/s, route p50 %.2f ms "
               "p%.0f %.2f ms (%zu samples), eco p50 %.2f ms (%zu samples)\n",
               static_cast<unsigned long long>(options.seed), schedule.size(), kRatePerS,
               median(routes), kTailPercentile, percentile(routes, kTailPercentile),
               routes.size(), median(writes), writes.size());
  return report;
}

}  // namespace perfbench
