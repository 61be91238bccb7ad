#include "serve/net.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <stdexcept>

namespace pacor::serve::net {

namespace {

/// send()/recv() loops over partial transfers; MSG_NOSIGNAL instead of a
/// process-wide SIGPIPE handler (every fd here is a socket).
bool writeAll(int fd, const char* data, std::size_t n) {
  while (n > 0) {
    const ssize_t w = ::send(fd, data, n, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

/// Returns false on error or EOF; *cleanEof is set when the very first
/// byte was already EOF (an orderly close between frames).
bool readAll(int fd, char* data, std::size_t n, bool* cleanEof = nullptr) {
  bool first = true;
  while (n > 0) {
    const ssize_t r = ::recv(fd, data, n, 0);
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (r == 0) {
      if (cleanEof != nullptr && first) *cleanEof = true;
      return false;
    }
    first = false;
    data += r;
    n -= static_cast<std::size_t>(r);
  }
  return true;
}

int connectTo(const std::string& host, std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

}  // namespace

bool writeFrame(int fd, const std::string& payload) {
  const std::uint32_t n = static_cast<std::uint32_t>(payload.size());
  const unsigned char header[4] = {
      static_cast<unsigned char>(n >> 24), static_cast<unsigned char>(n >> 16),
      static_cast<unsigned char>(n >> 8), static_cast<unsigned char>(n)};
  return writeAll(fd, reinterpret_cast<const char*>(header), 4) &&
         writeAll(fd, payload.data(), payload.size());
}

bool readFrame(int fd, std::string& payload, std::size_t maxBytes) {
  payload.clear();
  char header[4];
  bool cleanEof = false;
  if (!readAll(fd, header, 4, &cleanEof)) return false;
  const std::uint32_t n =
      (static_cast<std::uint32_t>(static_cast<unsigned char>(header[0])) << 24) |
      (static_cast<std::uint32_t>(static_cast<unsigned char>(header[1])) << 16) |
      (static_cast<std::uint32_t>(static_cast<unsigned char>(header[2])) << 8) |
      static_cast<std::uint32_t>(static_cast<unsigned char>(header[3]));
  if (n > maxBytes) return false;  // oversized frame: drop the connection
  payload.resize(n);
  return n == 0 || readAll(fd, payload.data(), n);
}

/// One accepted connection: the reader turns frames into queued futures,
/// the writer resolves them strictly in arrival order and flushes the
/// response frames. SHUT_RD on `fd` is the drain signal (reader sees EOF,
/// write side stays open so the queued responses still go out).
struct NetServer::Connection {
  int fd = -1;
  std::thread reader;
  std::thread writer;
  std::mutex mutex;
  std::condition_variable cv;
  std::deque<std::future<Response>> pending;
  bool readerDone = false;
  bool writeFailed = false;  ///< client went away mid-response
};

NetServer::NetServer(const NetOptions& options)
    : options_(options) {
  server_.startDispatch(options_.admission);

  listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listenFd_ < 0) throw std::runtime_error("cannot create listen socket");
  const int one = 1;
  ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listenFd_);
    listenFd_ = -1;
    throw std::runtime_error("bad listen host '" + options_.host + "'");
  }
  if (::bind(listenFd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(listenFd_, 64) != 0) {
    ::close(listenFd_);
    listenFd_ = -1;
    throw std::runtime_error("cannot bind " + options_.host + ":" +
                             std::to_string(options_.port) + ": " +
                             std::strerror(errno));
  }
  sockaddr_in bound{};
  socklen_t boundLen = sizeof bound;
  ::getsockname(listenFd_, reinterpret_cast<sockaddr*>(&bound), &boundLen);
  port_ = ntohs(bound.sin_port);

  if (::pipe(wakePipe_) != 0) {
    ::close(listenFd_);
    listenFd_ = -1;
    throw std::runtime_error("cannot create wake pipe");
  }
  acceptThread_ = std::thread([this] { acceptLoop(); });
}

NetServer::~NetServer() {
  wait();
  if (wakePipe_[0] >= 0) ::close(wakePipe_[0]);
  if (wakePipe_[1] >= 0) ::close(wakePipe_[1]);
}

void NetServer::acceptLoop() {
  for (;;) {
    pollfd fds[2] = {{listenFd_, POLLIN, 0}, {wakePipe_[0], POLLIN, 0}};
    if (::poll(fds, 2, -1) < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (draining_.load()) break;
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int fd = ::accept(listenFd_, nullptr, nullptr);
    if (fd < 0) continue;
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    Connection& ref = *conn;
    {
      std::lock_guard<std::mutex> lock(connectionsMutex_);
      if (draining_.load()) {  // drain won the race: refuse
        ::close(fd);
        continue;
      }
      connections_.push_back(std::move(conn));
    }
    ref.reader = std::thread([this, &ref] { readerLoop(ref); });
    ref.writer = std::thread([this, &ref] { writerLoop(ref); });
  }
  // Closed here, on the owning thread, so no poll/accept races the close.
  ::close(listenFd_);
  listenFd_ = -1;
}

void NetServer::readerLoop(Connection& conn) {
  std::string payload;
  while (readFrame(conn.fd, payload, options_.maxFrameBytes)) {
    std::future<Response> fut;
    ParseError error;
    if (std::optional<Request> req = parseRequestLine(payload, &error)) {
      fut = server_.submit(std::move(*req));
    } else {
      // Malformed frames never touch the queue tier: answer a structured
      // `err` response in place, still in arrival order.
      Response resp;
      resp.design = error.design.empty() ? "-" : error.design;
      resp.errorField = error.field.empty() ? "request" : error.field;
      resp.error = error.reason;
      std::promise<Response> ready;
      fut = ready.get_future();
      ready.set_value(std::move(resp));
    }
    {
      std::lock_guard<std::mutex> lock(conn.mutex);
      conn.pending.push_back(std::move(fut));
    }
    conn.cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(conn.mutex);
    conn.readerDone = true;
  }
  conn.cv.notify_one();
}

void NetServer::writerLoop(Connection& conn) {
  for (;;) {
    std::future<Response> fut;
    {
      std::unique_lock<std::mutex> lock(conn.mutex);
      conn.cv.wait(lock,
                   [&conn] { return conn.readerDone || !conn.pending.empty(); });
      if (conn.pending.empty()) return;  // reader done, everything flushed
      fut = std::move(conn.pending.front());
      conn.pending.pop_front();
    }
    // A failed write (client disconnected mid-response -- EPIPE/ECONNRESET
    // under MSG_NOSIGNAL, or a short send the writeAll loop could not
    // finish) must not stop the loop: every queued future still has to be
    // consumed so the request's result is reaped and drain can complete.
    // After the first failure the remaining responses are computed but not
    // sent -- the peer is gone, and other connections are unaffected.
    const Response resp = fut.get();
    if (!conn.writeFailed && !writeFrame(conn.fd, formatResponse(resp)))
      conn.writeFailed = true;
  }
}

void NetServer::beginDrain() {
  server_.beginDrain();
  if (draining_.exchange(true)) return;
  const char byte = 'w';
  (void)!::write(wakePipe_[1], &byte, 1);
}

void NetServer::wait() {
  beginDrain();
  if (acceptThread_.joinable()) acceptThread_.join();
  // Every admitted request resolves before the readers are unplugged, so
  // no in-flight work is abandoned...
  server_.drainAndStop();
  std::vector<std::unique_ptr<Connection>> connections;
  {
    std::lock_guard<std::mutex> lock(connectionsMutex_);
    connections.swap(connections_);
  }
  // ...and SHUT_RD (not RDWR) ends the readers while the writers keep
  // flushing the already-queued response frames.
  for (const auto& conn : connections) ::shutdown(conn->fd, SHUT_RD);
  for (const auto& conn : connections) {
    conn->reader.join();
    conn->writer.join();
    ::close(conn->fd);
  }
}

namespace {

int gSignalPipe[2] = {-1, -1};

void onShutdownSignal(int) {
  const char byte = 's';
  (void)!::write(gSignalPipe[1], &byte, 1);
}

}  // namespace

int serveForever(const NetOptions& options) {
  // Belt and braces next to the per-send MSG_NOSIGNAL: any stray write to
  // a dead peer (or a sol=/metrics= side file that turns out to be a
  // pipe) must error with EPIPE, never kill the server.
  ::signal(SIGPIPE, SIG_IGN);
  std::unique_ptr<NetServer> server;
  try {
    server = std::make_unique<NetServer>(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pacor serve: %s\n", e.what());
    return 1;
  }
  if (::pipe(gSignalPipe) != 0) {
    std::fprintf(stderr, "pacor serve: cannot create signal pipe\n");
    return 1;
  }
  struct sigaction action {};
  action.sa_handler = onShutdownSignal;
  ::sigaction(SIGTERM, &action, nullptr);
  ::sigaction(SIGINT, &action, nullptr);

  std::fprintf(stderr,
               "pacor serve: listening on %s:%u (max-inflight=%d, "
               "max-queue=%zu, max-designs=%zu, deadline-ms=%lld)\n",
               options.host.c_str(), server->port(),
               std::max(1, options.admission.maxInflight),
               options.admission.maxQueue, options.admission.maxDesigns,
               static_cast<long long>(options.admission.defaultDeadlineMs));

  char byte;
  while (::read(gSignalPipe[0], &byte, 1) < 0 && errno == EINTR) {
  }
  std::fprintf(stderr, "pacor serve: draining (finishing in-flight requests)\n");
  server->beginDrain();
  server->wait();
  const std::size_t designs = server->server().designCount();
  const Server::Stats stats = server->server().stats();
  server.reset();
  ::close(gSignalPipe[0]);
  ::close(gSignalPipe[1]);
  gSignalPipe[0] = gSignalPipe[1] = -1;
  std::fprintf(stderr,
               "pacor serve: drained, %zu design context(s) resident, "
               "%llu deadline_expired, %llu eviction(s), %llu dispatcher "
               "recycle(s)\n",
               designs, static_cast<unsigned long long>(stats.deadlineExpired),
               static_cast<unsigned long long>(stats.evictions),
               static_cast<unsigned long long>(stats.dispatcherRecycles));
  return 0;
}

Client::Client(const std::string& host, std::uint16_t port)
    : fd_(connectTo(host, port)) {
  if (fd_ < 0)
    throw std::runtime_error("cannot connect to " + host + ":" +
                             std::to_string(port));
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

std::string Client::call(const std::string& requestLine) {
  std::string response;
  if (!send(requestLine) || !recv(response))
    throw std::runtime_error("connection dropped during call");
  return response;
}

bool Client::send(const std::string& requestLine) {
  return writeFrame(fd_, requestLine);
}

bool Client::recv(std::string& responseLine) {
  // Responses are bounded lines; 1 MiB is far past any real one.
  return readFrame(fd_, responseLine, 1 << 20);
}

}  // namespace pacor::serve::net
