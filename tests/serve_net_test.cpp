// Socket serve tier: framing, protocol grammar, affinity, backpressure,
// and drain contracts of serve::net.
//
//  * Protocol tables: valid request lines round-trip exactly
//    (format(parse(x)) == canonical(x)); malformed lines report the
//    offending field, both from parseRequestLine and as structured `err`
//    responses over a live socket.
//  * Multi-client byte-identity: concurrent clients hammering mixed
//    designs get responses whose sha256 -- and sol= file bytes -- equal a
//    fresh one-shot routeChip of the same design.
//  * Warm affinity: the per-design FIFO serializes same-design requests
//    onto the warm EscapeFlowSession, so a repeat request reports
//    cold_builds=0; an unedited repeat answers from the route memo and
//    carries memo=1 through the response line.
//  * Backpressure: with maxInflight=1/maxQueue=1 and the executing
//    request parked on a named-pipe design (the chip bytes arrive only
//    when the test writes them), the over-limit submit gets an immediate
//    `busy`, and the queue accepts work again after the block clears.
//  * Graceful drain: an in-flight request completes and its response is
//    flushed, frames sent after beginDrain get `busy draining`, and a
//    late connect is refused.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "chip/delta.hpp"
#include "chip/generator.hpp"
#include "chip/io.hpp"
#include "pacor/pipeline.hpp"
#include "pacor/solution_io.hpp"
#include "serve/net.hpp"
#include "serve/serve.hpp"
#include "util/sha256.hpp"

namespace pacor {
namespace {

/// One-shot reference: what any serve path must reproduce byte-for-byte.
struct Oneshot {
  std::string text;
  std::string hash;
};

Oneshot oneshot(const std::string& design) {
  const core::PacorResult result =
      core::routeChip(serve::loadDesign(design), core::pacorDefaultConfig());
  Oneshot ref;
  ref.text = core::solutionToString(result);
  ref.hash = util::sha256Hex(ref.text);
  return ref;
}

std::string readFile(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

// --- protocol tables -----------------------------------------------------

TEST(ServeProtocol, ValidLinesRoundTripExactly) {
  // {input line, canonical form} -- parse then format must yield the
  // canonical text, and the canonical text must be a fixed point.
  const std::vector<std::pair<std::string, std::string>> kTable = {
      {"S1", "S1"},
      {"  S1   sol=out.sol  ", "S1 sol=out.sol"},
      {"S2 metrics=m.json sol=a.sol", "S2 sol=a.sol metrics=m.json"},
      {"fpva:8x8 variant=wosel", "fpva:8x8 variant=wosel"},
      {"S3 trace=t.json trace-level=search", "S3 trace=t.json trace-level=search"},
      {"S1 variant=pacor", "S1"},  // defaults canonicalize away
      {"S1 trace=t.json trace-level=cluster", "S1 trace=t.json"},
      {"eco S1 delta=d.delta", "eco S1 delta=d.delta"},
      {"eco S1 delta=d.delta variant=detour-first sol=s.sol",
       "eco S1 delta=d.delta sol=s.sol variant=detour-first"},
      {"gen fpva:16x16", "gen fpva:16x16"},
      {"S1 deadline_ms=500", "S1 deadline_ms=500"},
      {"S1 deadline_ms=250 variant=wosel", "S1 variant=wosel deadline_ms=250"},
      {"eco S2 deadline_ms=86400000 delta=d.delta",
       "eco S2 delta=d.delta deadline_ms=86400000"},
  };
  for (const auto& [line, canonical] : kTable) {
    SCOPED_TRACE(line);
    serve::ParseError error;
    const auto req = serve::parseRequestLine(line, &error);
    ASSERT_TRUE(req.has_value()) << error.render();
    EXPECT_EQ(serve::formatRequestLine(*req), canonical);
    const auto reparsed = serve::parseRequestLine(canonical, &error);
    ASSERT_TRUE(reparsed.has_value()) << error.render();
    EXPECT_EQ(serve::formatRequestLine(*reparsed), canonical);
  }
}

TEST(ServeProtocol, MalformedLinesReportTheOffendingField) {
  // {input line, expected field, expected design token}
  const std::vector<std::array<std::string, 3>> kTable = {
      {"", "design", ""},
      {"   ", "design", ""},
      {"eco", "design", ""},
      {"gen", "design", ""},
      {"eco S1", "delta", "S1"},
      {"S1 delta=d.delta", "delta", "S1"},
      {"eco S1 delta=", "delta", "S1"},
      {"S1 sol=", "sol", "S1"},
      {"S1 metrics=", "metrics", "S1"},
      {"S1 trace=", "trace", "S1"},
      {"S1 trace-level=bogus", "trace-level", "S1"},
      {"S1 variant=fastest", "variant", "S1"},
      {"S1 frobnicate", "frobnicate", "S1"},
      {"S1 frobnicate=2", "frobnicate", "S1"},
      {"gen S1 sol=out.sol", "sol", "S1"},
      {"S1 deadline_ms=", "deadline_ms", "S1"},
      {"S1 deadline_ms=0", "deadline_ms", "S1"},
      {"S1 deadline_ms=-5", "deadline_ms", "S1"},
      {"S1 deadline_ms=abc", "deadline_ms", "S1"},
      {"S1 deadline_ms=1e3", "deadline_ms", "S1"},
      {"S1 deadline_ms=86400001", "deadline_ms", "S1"},
      {"S1 deadline_ms=99999999999999999999", "deadline_ms", "S1"},
  };
  for (const auto& [line, field, design] : kTable) {
    SCOPED_TRACE("'" + line + "'");
    serve::ParseError error;
    EXPECT_FALSE(serve::parseRequestLine(line, &error).has_value());
    EXPECT_EQ(error.field, field);
    EXPECT_EQ(error.design, design);
    EXPECT_NE(error.render().find("field '" + field + "'"), std::string::npos);
  }
}

TEST(ServeProtocol, BatchModeReportsLineNumbers) {
  std::istringstream manifest(
      "# comment\n"
      "\n"
      "eco S1\n"
      "S1 frobnicate\n");
  std::ostringstream out;
  EXPECT_EQ(serve::runBatch(manifest, out, serve::AdmissionOptions{.maxInflight = 1}), 2);
  std::istringstream lines(out.str());
  std::string first, second;
  ASSERT_TRUE(std::getline(lines, first));
  ASSERT_TRUE(std::getline(lines, second));
  // Comments and blanks do not advance the reported request numbering --
  // the N in `line N` is the manifest line, so editors can jump to it.
  EXPECT_EQ(first,
            "error S1 line 3: eco request without delta=PATH (field 'delta')");
  EXPECT_EQ(second,
            "error S1 line 4: unknown option 'frobnicate' (field 'frobnicate')");
}

// --- socket tier ---------------------------------------------------------

serve::net::NetOptions loopback() {
  return {};  // host 127.0.0.1, port 0 = ephemeral
}

TEST(ServeNet, MalformedFramesGetStructuredErrResponses) {
  serve::net::NetServer server(loopback());
  serve::net::Client client("127.0.0.1", server.port());
  const std::vector<std::pair<std::string, std::string>> kTable = {
      {"eco S1", "err S1 field=delta eco request without delta=PATH"},
      {"S1 trace-level=bogus", "err S1 field=trace-level bad trace-level 'bogus'"},
      {"S1 frobnicate", "err S1 field=frobnicate unknown option 'frobnicate'"},
      {"S1 fast-escape", "err S1 field=fast-escape unknown option 'fast-escape'"},
      {"", "err - field=design empty request line"},
  };
  for (const auto& [line, expected] : kTable) {
    SCOPED_TRACE("'" + line + "'");
    EXPECT_EQ(client.call(line), expected);
  }
  // The connection survives malformed frames: a valid request still works.
  const auto resp = serve::parseResponseLine(client.call("gen S1"));
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, "ok");
  EXPECT_EQ(resp->design, "S1");
}

TEST(ServeNet, ConcurrentClientsMatchOneshotByteForByte) {
  const std::vector<std::string> kDesigns = {"S1", "S2", "S5"};
  std::map<std::string, Oneshot> expected;
  for (const std::string& design : kDesigns) expected[design] = oneshot(design);

  serve::net::NetServer server(loopback());
  constexpr int kClients = 4;
  constexpr int kRounds = 3;
  std::vector<std::string> failures(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      try {
        serve::net::Client client("127.0.0.1", server.port());
        for (int round = 0; round < kRounds; ++round) {
          const std::string& design = kDesigns[(c + round) % kDesigns.size()];
          const auto resp = serve::parseResponseLine(client.call(design));
          if (!resp || resp->status != "ok" || resp->complete != 1 ||
              resp->sha256 != expected[design].hash) {
            failures[c] = "design " + design + " round " +
                          std::to_string(round) + ": bad response";
            return;
          }
        }
      } catch (const std::exception& e) {
        failures[c] = e.what();
      }
    });
  }
  for (std::thread& t : clients) t.join();
  for (int c = 0; c < kClients; ++c) EXPECT_EQ(failures[c], "") << "client " << c;

  // Solution text (not just the hash) is byte-identical: a sol= request's
  // file equals the one-shot canonical bytes.
  const std::string solPath = testing::TempDir() + "serve_net_s1.sol";
  serve::net::Client client("127.0.0.1", server.port());
  const auto resp = serve::parseResponseLine(client.call("S1 sol=" + solPath));
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, "ok");
  EXPECT_EQ(readFile(solPath), expected["S1"].text);
}

TEST(ServeNet, RepeatDesignRequestsLandWarm) {
  serve::net::NetServer server(loopback());
  serve::net::Client client("127.0.0.1", server.port());
  const auto first = serve::parseResponseLine(client.call("S1"));
  const auto second = serve::parseResponseLine(client.call("S1"));
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  ASSERT_EQ(first->status, "ok");
  ASSERT_EQ(second->status, "ok");
  // First request of a design builds its escape-flow session...
  EXPECT_GT(first->coldBuilds, 0);
  // ...and the per-design FIFO guarantees every repeat lands warm. The
  // unedited repeat answers from the route memo.
  EXPECT_EQ(second->coldBuilds, 0);
  EXPECT_FALSE(first->memo);
  EXPECT_TRUE(second->memo);
  EXPECT_EQ(first->sha256, second->sha256);
}

TEST(ServeNet, ExecutionErrorsComeBackAsErrorResponses) {
  serve::net::NetServer server(loopback());
  serve::net::Client client("127.0.0.1", server.port());
  const std::string line = client.call("no-such-design.chip");
  EXPECT_EQ(line.rfind("error no-such-design.chip ", 0), 0u) << line;
}

/// A design token whose loadDesign blocks until the test supplies the
/// chip bytes: a named pipe masquerading as a .chip file. Writing the
/// serialized chip and closing the write end releases the dispatcher.
class FifoDesign {
 public:
  explicit FifoDesign(const std::string& name)
      : path_(testing::TempDir() + name) {
    ::unlink(path_.c_str());
    if (::mkfifo(path_.c_str(), 0600) != 0)
      ADD_FAILURE() << "mkfifo failed for " << path_;
  }
  ~FifoDesign() { ::unlink(path_.c_str()); }

  const std::string& path() const { return path_; }

  /// Spins until the server side is blocked opening/reading the pipe
  /// (O_NONBLOCK writes fail with ENXIO until a reader exists).
  int waitForReader() {
    for (;;) {
      const int fd = ::open(path_.c_str(), O_WRONLY | O_NONBLOCK);
      if (fd >= 0) return fd;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  /// Spins until no reader holds the pipe open (a stopped load has closed
  /// its fd) -- after this, any reader that appears belongs to a NEW
  /// request, so waitForReader/release cannot feed bytes to the stopped
  /// one by mistake.
  void waitForNoReader() {
    for (;;) {
      const int fd = ::open(path_.c_str(), O_WRONLY | O_NONBLOCK);
      if (fd < 0 && errno == ENXIO) return;
      if (fd >= 0) ::close(fd);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  /// Feeds the chip through the pipe, releasing the blocked request.
  void release(int fd, const chip::Chip& chip) {
    const std::string tmp = path_ + ".bytes";
    chip::writeChipFile(tmp, chip);
    const std::string bytes = readFile(tmp);
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t w = ::write(fd, bytes.data() + off, bytes.size() - off);
      if (w < 0) break;
      off += static_cast<std::size_t>(w);
    }
    ::close(fd);
    ::unlink(tmp.c_str());
  }

 private:
  std::string path_;
};

/// Scope guard for the test's write end of a FifoDesign. A request parked
/// on a FIFO with no deadline legitimately blocks graceful drain forever,
/// so if a fatal assertion unwinds the test before release(), the server
/// destructor would hang the whole suite. The guard feeds one junk byte and
/// closes: the parked reader sees bytes-then-EOF, fails the chip parse, and
/// the request completes as an ordinary error so drain can finish.
class FifoUnwedge {
 public:
  explicit FifoUnwedge(int fd) : fd_(fd) {}
  ~FifoUnwedge() {
    if (fd_ < 0) return;
    (void)!::write(fd_, "x", 1);
    ::close(fd_);
  }
  /// Hands the fd to FifoDesign::release() for the normal path.
  int disarm() {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }

 private:
  int fd_;
};

TEST(ServeNet, FullQueueShedsLoadWithBusyThenRecovers) {
  // Deterministic at the Server tier: one dispatcher, a one-slot waiting
  // queue, and the executing request parked on a FifoDesign.
  FifoDesign fifo("serve_net_busy.chip");
  serve::Server server;
  serve::AdmissionOptions admission;
  admission.maxInflight = 1;
  admission.maxQueue = 1;
  admission.allowFifoDesigns = true;
  server.startDispatch(admission);

  serve::Request blocked;
  blocked.design = fifo.path();
  auto blockedFut = server.submit(std::move(blocked));
  const int fifoFd = fifo.waitForReader();  // executing, not waiting
  FifoUnwedge unwedge(fifoFd);
  ASSERT_EQ(server.queuedRequests(), 0u);

  serve::Request queued;
  queued.design = "S1";
  auto queuedFut = server.submit(std::move(queued));
  ASSERT_EQ(server.queuedRequests(), 1u);

  // The queue is at its high-water mark: the next submit is shed
  // immediately (the future is already resolved -- nothing to wait on).
  serve::Request over;
  over.design = "S2";
  auto overFut = server.submit(std::move(over));
  const serve::Response busy = overFut.get();
  EXPECT_TRUE(busy.busy);
  EXPECT_EQ(busy.design, "S2");
  const std::string busyLine = serve::formatResponse(busy);
  EXPECT_EQ(busyLine.rfind("busy S2 queue full", 0), 0u) << busyLine;

  // Unblock; both admitted requests complete, and the queue takes new
  // work again.
  fifo.release(unwedge.disarm(), chip::generateChip(chip::table1Designs()[2]));
  EXPECT_TRUE(blockedFut.get().ok);
  EXPECT_TRUE(queuedFut.get().ok);
  serve::Request after;
  after.design = "S1";
  const serve::Response recovered = server.submit(std::move(after)).get();
  EXPECT_FALSE(recovered.busy);
  EXPECT_TRUE(recovered.ok);
}

TEST(ServeNet, GracefulDrainFinishesInflightAndRefusesLateConnects) {
  FifoDesign fifo("serve_net_drain.chip");
  const chip::Chip chip = chip::generateChip(chip::table1Designs()[0]);
  const std::string expectedHash =
      util::sha256Hex(core::solutionToString(
          core::routeChip(chip, core::pacorDefaultConfig())));

  serve::net::NetOptions netOptions = loopback();
  netOptions.admission.allowFifoDesigns = true;
  serve::net::NetServer server(netOptions);
  serve::net::Client inflight("127.0.0.1", server.port());
  serve::net::Client bystander("127.0.0.1", server.port());
  // Force both connections through accept() before the drain closes the
  // listener: a TCP connect completes in the kernel backlog, so without a
  // round trip the acceptLoop may not have serviced `bystander` yet and the
  // drain would RST it as a late connect instead of answering busy. A
  // malformed frame is answered in place (no queue work), so this is cheap.
  EXPECT_EQ(bystander.call(""), "err - field=design empty request line");
  ASSERT_TRUE(inflight.send(fifo.path()));
  const int fifoFd = fifo.waitForReader();  // the request is executing
  FifoUnwedge unwedge(fifoFd);

  server.beginDrain();

  // Frames arriving on open connections after drain began are shed, not
  // hung: the queue answers busy immediately.
  const std::string busyLine = bystander.call("S1");
  EXPECT_EQ(busyLine.rfind("busy S1 draining", 0), 0u) << busyLine;

  // The in-flight request completes and its response is flushed.
  fifo.release(unwedge.disarm(), chip);
  std::string response;
  ASSERT_TRUE(inflight.recv(response));
  const auto parsed = serve::parseResponseLine(response);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->status, "ok");
  EXPECT_EQ(parsed->sha256, expectedHash);

  server.wait();
  // The listener is down: late connects are refused outright.
  EXPECT_THROW(serve::net::Client("127.0.0.1", server.port()),
               std::runtime_error);
}

// --- liveness: deadlines and the watchdog ---------------------------------

/// Shorthand: a future resolved within `seconds` (liveness tests must
/// never hang the suite on the very bug they guard against).
serve::Response getWithin(std::future<serve::Response>& fut, int seconds) {
  if (fut.wait_for(std::chrono::seconds(seconds)) !=
      std::future_status::ready) {
    ADD_FAILURE() << "response not produced within " << seconds << "s";
    std::abort();  // blocking on get() would hang the whole suite
  }
  return fut.get();
}

TEST(ServeDeadline, ExpiresWhileQueuedBehindAParkedDesign) {
  // One dispatcher, parked forever on a FIFO design: the queued S1 can
  // never pop, so only the watchdog's queue sweep (or the pop-time check,
  // if the timing lands there) can answer it.
  FifoDesign fifo("serve_deadline_queued.chip");
  serve::Server server;
  serve::AdmissionOptions admission;
  admission.maxInflight = 1;
  admission.allowFifoDesigns = true;
  server.startDispatch(admission);

  serve::Request parked;
  parked.design = fifo.path();
  auto parkedFut = server.submit(std::move(parked));
  const int fifoFd = fifo.waitForReader();
  FifoUnwedge unwedge(fifoFd);

  serve::Request queued;
  queued.design = "S1";
  queued.deadlineMs = 50;
  auto queuedFut = server.submit(std::move(queued));
  const serve::Response expired = getWithin(queuedFut, 10);
  EXPECT_FALSE(expired.ok);
  EXPECT_TRUE(expired.deadlineExpired);
  EXPECT_EQ(expired.errorField, "deadline");
  EXPECT_EQ(expired.design, "S1");
  const std::string line = serve::formatResponse(expired);
  EXPECT_EQ(line.rfind("err S1 field=deadline deadline expired after 50 ms",
                       0),
            0u)
      << line;

  // The parked request had no deadline; releasing it completes normally,
  // and the freed dispatcher serves new work.
  fifo.release(unwedge.disarm(), chip::generateChip(chip::table1Designs()[2]));
  EXPECT_TRUE(getWithin(parkedFut, 60).ok);
  serve::Request after;
  after.design = "S1";
  auto afterFut = server.submit(std::move(after));
  EXPECT_TRUE(getWithin(afterFut, 60).ok);
  EXPECT_GE(server.stats().deadlineExpired, 1u);
}

TEST(ServeDeadline, ParkedLoadExpiryAnswersExecutingAndFreesTheSlot) {
  FifoDesign fifo("serve_deadline_exec.chip");
  serve::Server server;
  serve::AdmissionOptions admission;
  admission.maxInflight = 1;
  admission.allowFifoDesigns = true;
  server.startDispatch(admission);

  // The executing request itself expires while its load is parked: the
  // load polls the deadline, so the dispatcher stops it and answers.
  serve::Request stuck;
  stuck.design = fifo.path();
  stuck.deadlineMs = 200;
  auto stuckFut = server.submit(std::move(stuck));
  const int stuckFd = fifo.waitForReader();
  const serve::Response expired = getWithin(stuckFut, 10);
  // Close our write end: a lingering writer would rob the retry below of
  // its EOF (a FIFO read sees EOF only once EVERY writer is gone).
  ::close(stuckFd);
  EXPECT_TRUE(expired.deadlineExpired);
  EXPECT_EQ(expired.errorField, "deadline");
  EXPECT_NE(expired.error.find("(executing)"), std::string::npos)
      << expired.error;

  // The freed slot serves other designs immediately...
  serve::Request other;
  other.design = "S1";
  auto otherFut = server.submit(std::move(other));
  EXPECT_TRUE(getWithin(otherFut, 60).ok);

  // ...and an identical request succeeds (the stopped load closed its end
  // of the pipe before the answer): the context was never built, so this
  // run is cold.
  fifo.waitForNoReader();
  serve::Request retry;
  retry.design = fifo.path();
  auto retryFut = server.submit(std::move(retry));
  const int fifoFd = fifo.waitForReader();
  fifo.release(fifoFd, chip::generateChip(chip::table1Designs()[2]));
  const serve::Response ok = getWithin(retryFut, 60);
  EXPECT_TRUE(ok.ok) << ok.error;
  EXPECT_GT(ok.coldBuilds, 0);

  EXPECT_GE(server.stats().deadlineExpired, 1u);
}

TEST(ServeDeadline, ServerDefaultAppliesWhenTheRequestCarriesNone) {
  FifoDesign fifo("serve_deadline_default.chip");
  serve::Server server;
  serve::AdmissionOptions admission;
  admission.maxInflight = 1;
  admission.defaultDeadlineMs = 100;
  admission.allowFifoDesigns = true;
  server.startDispatch(admission);

  serve::Request stuck;
  stuck.design = fifo.path();  // no per-request deadline
  auto stuckFut = server.submit(std::move(stuck));
  const int stuckFd = fifo.waitForReader();
  const serve::Response expired = getWithin(stuckFut, 10);
  EXPECT_TRUE(expired.deadlineExpired);
  EXPECT_NE(expired.error.find("after 100 ms"), std::string::npos)
      << expired.error;
  ::close(stuckFd);
  fifo.waitForNoReader();  // let the cancelled load exit before teardown
}

TEST(ServeDeadline, SweptQueueCannotDoubleDispatchADesign) {
  // Regression: the watchdog's queued sweep used to leave the swept
  // design's key listed in runnable_; a later submit for the same design
  // then saw an empty, idle fifo and listed the key a SECOND time, so two
  // freed dispatchers could execute the design concurrently -- breaking
  // per-design FIFO serialization (and, for eco, commit order). With a
  // FIFO design as the target the break is directly observable: two
  // concurrent readers would race one pipe and split the chip bytes.
  FifoDesign parked1("serve_sweep_p1.chip");
  FifoDesign parked2("serve_sweep_p2.chip");
  FifoDesign target("serve_sweep_target.chip");
  serve::Server server;
  serve::AdmissionOptions admission;
  admission.maxInflight = 2;
  admission.allowFifoDesigns = true;
  server.startDispatch(admission);

  // Occupy both dispatchers, so the target request below can only ever be
  // answered by the watchdog's queued sweep.
  serve::Request busy1;
  busy1.design = parked1.path();
  auto busy1Fut = server.submit(std::move(busy1));
  serve::Request busy2;
  busy2.design = parked2.path();
  auto busy2Fut = server.submit(std::move(busy2));
  FifoUnwedge unwedge1(parked1.waitForReader());
  FifoUnwedge unwedge2(parked2.waitForReader());

  serve::Request doomed;
  doomed.design = target.path();
  doomed.deadlineMs = 50;
  auto doomedFut = server.submit(std::move(doomed));
  const serve::Response expired = getWithin(doomedFut, 10);
  EXPECT_TRUE(expired.deadlineExpired);
  ASSERT_EQ(server.queuedRequests(), 0u);

  // Two fresh requests for the swept design, then both dispatchers free
  // up at once: the design must still run them strictly one at a time.
  serve::Request first;
  first.design = target.path();
  auto firstFut = server.submit(std::move(first));
  serve::Request second;
  second.design = target.path();
  auto secondFut = server.submit(std::move(second));
  const chip::Chip chip = chip::generateChip(chip::table1Designs()[2]);
  parked1.release(unwedge1.disarm(), chip);
  parked2.release(unwedge2.disarm(), chip);
  EXPECT_TRUE(getWithin(busy1Fut, 60).ok);
  EXPECT_TRUE(getWithin(busy2Fut, 60).ok);

  // Exactly ONE reader parks on the pipe: the first request loads the
  // design, and the second -- running strictly after it -- reuses the
  // freshly built context without touching the pipe again. Under double
  // dispatch both requests would miss the context cache, park on the pipe
  // together, and split the single write between them: parse failures
  // (or a never-released second reader) instead of two ok responses.
  const int fd = target.waitForReader();
  target.release(fd, chip);
  const serve::Response firstResp = getWithin(firstFut, 60);
  EXPECT_TRUE(firstResp.ok) << firstResp.error;
  const serve::Response secondResp = getWithin(secondFut, 60);
  EXPECT_TRUE(secondResp.ok) << secondResp.error;
  EXPECT_EQ(secondResp.solutionHash, firstResp.solutionHash);
}

TEST(ServeDeadline, EcoRequestsHonorGenerousDeadlines) {
  // A deadline far in the future must not perturb the eco path: an empty
  // edit script is an identity re-route against the cached result.
  const std::string deltaPath = testing::TempDir() + "serve_deadline_empty.delta";
  chip::writeDeltaFile(deltaPath, chip::ChipDelta{});

  serve::Server server;
  serve::Request route;
  route.design = "S1";
  route.deadlineMs = serve::kMaxDeadlineMs;
  auto routeFut = server.submit(std::move(route));
  const serve::Response routed = getWithin(routeFut, 60);
  ASSERT_TRUE(routed.ok) << routed.error;

  serve::Request eco;
  eco.verb = serve::Verb::kEco;
  eco.design = "S1";
  eco.deltaPath = deltaPath;
  eco.deadlineMs = serve::kMaxDeadlineMs;
  auto ecoFut = server.submit(std::move(eco));
  const serve::Response ecoResp = getWithin(ecoFut, 60);
  ASSERT_TRUE(ecoResp.ok) << ecoResp.error;
  EXPECT_EQ(ecoResp.ecoMode, "identity");
  EXPECT_EQ(ecoResp.solutionHash, routed.solutionHash);
}

TEST(ServeDeadline, EcoAnsweredErrNeverCommitted) {
  // Regression: the watchdog used to answer `(executing)` wherever an eco
  // happened to be, so an eco that had already committed (and was still
  // encoding its response) was reported expired, and a client retrying
  // it applied the edit twice. Now `err ... field=deadline` means the eco
  // had no effect and `ok` means it committed: every eco here adds one
  // obstacle, with deadlines straddling its running time.
  const std::string design = "fpva:64x64";
  const chip::Chip chip = serve::loadDesign(design);
  std::set<std::pair<std::int32_t, std::int32_t>> taken;
  for (const chip::Valve& v : chip.valves) taken.insert({v.pos.x, v.pos.y});
  for (const chip::ControlPin& p : chip.pins) taken.insert({p.pos.x, p.pos.y});
  for (const geom::Point o : chip.obstacles) taken.insert({o.x, o.y});
  constexpr int kEcos = 40;
  std::vector<std::string> deltas;
  for (std::int32_t y = 3; y + 3 < chip.routingGrid.height() &&
                           static_cast<int>(deltas.size()) < kEcos;
       y += 7)
    for (std::int32_t x = 3; x + 3 < chip.routingGrid.width() &&
                             static_cast<int>(deltas.size()) < kEcos;
         x += 11) {
      if (taken.contains({x, y})) continue;
      chip::ChipDelta d;
      d.addObstacle({x, y});
      deltas.push_back(testing::TempDir() + "serve_eco_probe_" +
                       std::to_string(deltas.size()) + ".delta");
      chip::writeDeltaFile(deltas.back(), d);
    }
  ASSERT_EQ(static_cast<int>(deltas.size()), kEcos);

  serve::Server server;
  serve::AdmissionOptions admission;
  admission.maxInflight = 2;
  server.startDispatch(admission);
  const auto call = [&server](serve::Request req) {
    auto fut = server.submit(std::move(req));
    return getWithin(fut, 600);
  };
  serve::Request warm;
  warm.design = design;
  ASSERT_TRUE(call(warm).ok);
  serve::Request gen;
  gen.verb = serve::Verb::kGen;
  gen.design = design;
  int obstacles = call(gen).genObstacles;

  int committed = 0;
  int expired = 0;
  for (int i = 0; i < kEcos; ++i) {
    SCOPED_TRACE(i);
    serve::Request eco;
    eco.verb = serve::Verb::kEco;
    eco.design = design;
    eco.deltaPath = deltas[static_cast<std::size_t>(i)];
    eco.deadlineMs = i + 1;
    const serve::Response resp = call(eco);
    const int now = call(gen).genObstacles;
    if (resp.ok) {
      EXPECT_EQ(now, obstacles + 1) << "an ok eco must commit its edit";
      ++committed;
    } else {
      EXPECT_TRUE(resp.deadlineExpired) << serve::formatResponse(resp);
      EXPECT_EQ(now, obstacles) << "an err eco must have no effect";
      ++expired;
    }
    obstacles = now;
  }
  // Deadlines of 1 ms expire; 40 ms cover an eco on a warm design.
  EXPECT_GT(committed, 0);
  EXPECT_GT(expired, 0);
}

// --- LRU design cache ----------------------------------------------------

TEST(ServeLru, EvictionRebuildsTheDesignByteIdentically) {
  serve::Server server;
  serve::AdmissionOptions admission;
  admission.maxInflight = 1;
  admission.maxDesigns = 2;
  server.startDispatch(admission);

  const auto routeOnce = [&server](const std::string& design) {
    serve::Request req;
    req.design = design;
    auto fut = server.submit(std::move(req));
    const serve::Response resp = getWithin(fut, 60);
    EXPECT_TRUE(resp.ok) << resp.error;
    return resp;
  };

  const serve::Response first = routeOnce("S1");
  routeOnce("S2");
  routeOnce("S3");  // capacity 2: S1 is the LRU victim
  EXPECT_FALSE(server.hasContext("S1"));
  EXPECT_TRUE(server.hasContext("S2"));
  EXPECT_TRUE(server.hasContext("S3"));
  EXPECT_EQ(server.designCount(), 2u);
  EXPECT_GE(server.stats().evictions, 1u);

  // The evicted design rebuilds cold -- and byte-identically.
  const serve::Response again = routeOnce("S1");
  EXPECT_GT(again.coldBuilds, 0);
  EXPECT_EQ(again.solutionText, first.solutionText);
  EXPECT_EQ(again.solutionHash, first.solutionHash);
}

TEST(ServeLru, PinnedContextsAreNeverEvicted) {
  serve::Server server;
  // The external pin: holding the shared_ptr is exactly what an executing
  // request does, so this models an in-flight context under pressure.
  std::shared_ptr<serve::DesignContext> pin = server.context(
      "pinned", [] { return chip::generateChip(chip::table1Designs()[2]); });

  serve::AdmissionOptions admission;
  admission.maxInflight = 1;
  admission.maxDesigns = 1;
  server.startDispatch(admission);

  serve::Request req;
  req.design = "S2";
  auto fut = server.submit(std::move(req));
  EXPECT_TRUE(getWithin(fut, 60).ok);

  // Over capacity (2 resident > 1), but the pinned context survived: only
  // unpinned LRU entries are eviction candidates.
  EXPECT_TRUE(server.hasContext("pinned"));

  // Dropping the pin makes it evictable: the next insert reclaims down to
  // the cap, and the pinned-era context goes first (it is least recent).
  pin.reset();
  serve::Request next;
  next.design = "S3";
  auto nextFut = server.submit(std::move(next));
  EXPECT_TRUE(getWithin(nextFut, 60).ok);
  EXPECT_FALSE(server.hasContext("pinned"));
  EXPECT_LE(server.designCount(), 1u);
}

// --- load hardening ------------------------------------------------------

TEST(ServeLoad, NonRegularDesignFilesGetStructuredErrors) {
  // A FIFO without the test-only escape hatch, and a directory: both must
  // answer a structured `err ... field=design` without ever blocking.
  const std::string fifoPath = testing::TempDir() + "serve_load_reject.chip";
  ::unlink(fifoPath.c_str());
  ASSERT_EQ(::mkfifo(fifoPath.c_str(), 0600), 0);
  const std::string dirPath = testing::TempDir() + "serve_load_dir.chip";
  ::mkdir(dirPath.c_str(), 0700);

  serve::Server server;
  for (const std::string& path : {fifoPath, dirPath}) {
    SCOPED_TRACE(path);
    serve::Request req;
    req.design = path;
    auto fut = server.submit(std::move(req));
    const serve::Response resp = getWithin(fut, 10);
    EXPECT_FALSE(resp.ok);
    EXPECT_EQ(resp.errorField, "design");
    EXPECT_EQ(serve::formatResponse(resp).rfind("err " + path + " field=design", 0),
              0u)
        << serve::formatResponse(resp);
  }
  ::unlink(fifoPath.c_str());
  ::rmdir(dirPath.c_str());

  // Missing paths keep their historical plain-error shape (see
  // ExecutionErrorsComeBackAsErrorResponses): reject only what EXISTS and
  // is the wrong kind of file.
}

TEST(ServeLoad, NonRegularDeltaAndSideFilesAreRefusedWithoutBlocking) {
  // Regression: the delta and the sol=/metrics=/trace= files were opened
  // with blocking streams, so a FIFO named there parked the dispatcher
  // forever where no deadline is polled. Every client-named path is now
  // opened without blocking: the request is refused with a structured err
  // on its field, at once, and has no effect.
  const std::string fifoPath = testing::TempDir() + "serve_load_side.fifo";
  ::unlink(fifoPath.c_str());
  ASSERT_EQ(::mkfifo(fifoPath.c_str(), 0600), 0);
  const chip::Chip s1 = serve::loadDesign("S1");
  std::set<std::pair<std::int32_t, std::int32_t>> taken;
  for (const chip::Valve& v : s1.valves) taken.insert({v.pos.x, v.pos.y});
  for (const chip::ControlPin& p : s1.pins) taken.insert({p.pos.x, p.pos.y});
  for (const geom::Point o : s1.obstacles) taken.insert({o.x, o.y});
  geom::Point cell{2, 2};
  while (taken.contains({cell.x, cell.y})) ++cell.x;
  chip::ChipDelta edit;
  edit.addObstacle(cell);
  const std::string deltaPath = testing::TempDir() + "serve_load_side.delta";
  chip::writeDeltaFile(deltaPath, edit);

  // One dispatcher: a request parked in an open would hold it for good.
  serve::Server server;
  serve::AdmissionOptions admission;
  admission.maxInflight = 1;
  server.startDispatch(admission);
  const auto call = [&server](serve::Request req, int seconds) {
    auto fut = server.submit(std::move(req));
    return getWithin(fut, seconds);
  };
  const auto obstacles = [&call] {
    serve::Request gen;
    gen.verb = serve::Verb::kGen;
    gen.design = "S1";
    return call(gen, 60).genObstacles;
  };
  const auto ecoRequest = [&](const std::string& delta) {
    serve::Request eco;
    eco.verb = serve::Verb::kEco;
    eco.design = "S1";
    eco.deltaPath = delta;
    eco.deadlineMs = 200;
    return eco;
  };
  const int before = obstacles();

  const serve::Response fifoDelta = call(ecoRequest(fifoPath), 2);
  EXPECT_EQ(serve::formatResponse(fifoDelta).rfind("err S1 field=delta", 0), 0u)
      << serve::formatResponse(fifoDelta);
  for (const std::string field : {"sol", "metrics", "trace"}) {
    SCOPED_TRACE(field);
    serve::Request eco = ecoRequest(deltaPath);
    (field == "sol"       ? eco.solutionPath
     : field == "metrics" ? eco.metricsPath
                          : eco.tracePath) = fifoPath;
    const serve::Response resp = call(eco, 2);
    EXPECT_EQ(serve::formatResponse(resp).rfind("err S1 field=" + field, 0), 0u)
        << serve::formatResponse(resp);
    EXPECT_EQ(obstacles(), before) << "a refused eco must have no effect";
  }

  // The slot was never held: the same edit without a FIFO commits.
  serve::Request eco = ecoRequest(deltaPath);
  eco.deadlineMs = 0;
  const serve::Response ok = call(eco, 60);
  EXPECT_TRUE(ok.ok) << ok.error;
  EXPECT_EQ(obstacles(), before + 1);
  ::unlink(fifoPath.c_str());
}

/// Open file descriptors of this process.
std::size_t openFds() {
  std::size_t n = 0;
  for (const auto& entry : std::filesystem::directory_iterator("/proc/self/fd")) {
    (void)entry;
    ++n;
  }
  return n;
}

TEST(ServeNet, ClosedConnectionsReleaseTheirFds) {
  // Regression: every accepted connection kept its fd and its reader and
  // writer threads until the server drained, so connection churn ran the
  // process out of fds. A closed connection is now joined and closed
  // before the next accept.
  serve::net::NetServer server(loopback());
  const std::size_t before = openFds();
  for (int i = 0; i < 300; ++i) {
    serve::net::Client client("127.0.0.1", server.port());
    ASSERT_EQ(client.call(""), "err - field=design empty request line");
  }
  EXPECT_LE(openFds(), before + 10);
}

TEST(ServeNet, ClientDisconnectMidResponseKeepsTheServerServing) {
  // The client vanishes between request and response: the write fails
  // (EPIPE/ECONNRESET), which must neither kill the process (SIGPIPE) nor
  // wedge the server for other clients.
  FifoDesign fifo("serve_net_disconnect.chip");
  serve::net::NetOptions netOptions = loopback();
  netOptions.admission.allowFifoDesigns = true;
  serve::net::NetServer server(netOptions);

  int fifoFd = -1;
  {
    serve::net::Client doomed("127.0.0.1", server.port());
    ASSERT_TRUE(doomed.send(fifo.path()));
    fifoFd = fifo.waitForReader();  // request admitted and executing
  }  // ~Client closes the socket with the response still pending
  FifoUnwedge unwedge(fifoFd);

  // Resolving the request now writes into a dead connection.
  fifo.release(unwedge.disarm(), chip::generateChip(chip::table1Designs()[2]));

  // The server keeps serving other clients as if nothing happened.
  serve::net::Client bystander("127.0.0.1", server.port());
  for (int i = 0; i < 3; ++i) {
    const auto resp = serve::parseResponseLine(bystander.call("S1"));
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(resp->status, "ok") << "request " << i;
  }
  server.wait();  // drains cleanly despite the dead connection
}

}  // namespace
}  // namespace pacor
