#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/serve.hpp"

namespace pacor::serve::net {

/// Frame layer of the socket protocol: every request and every response is
/// one length-framed text payload -- a 4-byte big-endian unsigned length
/// followed by that many bytes, the request/response line of protocol.hpp
/// without a trailing newline. Clients may pipeline: frames on one
/// connection are answered in order, one response frame per request frame.
/// Returns false on EOF/error (readFrame: clean EOF before any byte is a
/// false with frame.clear()).
bool writeFrame(int fd, const std::string& payload);
bool readFrame(int fd, std::string& payload, std::size_t maxBytes);

struct NetOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral; NetServer::port() tells which
  AdmissionOptions admission;  ///< queue bound + dispatcher count
  std::size_t maxFrameBytes = 1 << 20;  ///< oversized frames drop the conn
};

/// TCP front end over Server::submit. One accept thread; per connection a
/// reader thread (frame -> parse -> submit; malformed frames get an
/// immediate structured `err` response without touching the queue) and a
/// writer thread that resolves the connection's futures strictly in
/// request order, so pipelined clients can match responses positionally.
///
/// Shutdown protocol (beginDrain, then wait):
///   1. the listener closes -- late connects are refused by the OS,
///   2. the queue tier drains -- frames still arriving on open
///      connections get immediate `busy draining` responses,
///   3. every admitted request finishes and its response frame is
///      flushed before the connection closes.
class NetServer {
 public:
  /// Binds and listens; throws std::runtime_error when the address is
  /// unavailable. Serving starts immediately (accept thread).
  explicit NetServer(const NetOptions& options);
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  std::uint16_t port() const noexcept { return port_; }
  Server& server() noexcept { return server_; }

  /// Stops accepting connections and admitting requests (non-blocking).
  void beginDrain();
  /// Waits until every admitted request resolved and every response frame
  /// flushed, then joins all threads. Implies beginDrain().
  void wait();

 private:
  struct Connection;
  void acceptLoop();
  void readerLoop(Connection& conn);
  void writerLoop(Connection& conn);

  NetOptions options_;
  Server server_;
  int listenFd_ = -1;
  int wakePipe_[2] = {-1, -1};
  std::uint16_t port_ = 0;
  std::atomic<bool> draining_{false};
  std::thread acceptThread_;
  std::mutex connectionsMutex_;
  std::vector<std::unique_ptr<Connection>> connections_;
};

/// Runs a NetServer until SIGTERM/SIGINT, then drains gracefully (finish
/// in-flight, flush responses, refuse late connects) and returns 0.
/// Returns 1 when the listener cannot bind. This is `pacor serve
/// --listen=HOST:PORT`.
int serveForever(const NetOptions& options);

/// Minimal blocking client for tests and the replay driver: one
/// connection, framed request lines in, framed response lines out.
class Client {
 public:
  /// Throws std::runtime_error when the connection is refused.
  Client(const std::string& host, std::uint16_t port);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// One round trip: send a request line, wait for its response line.
  /// Throws on a dropped connection.
  std::string call(const std::string& requestLine);

  /// Split halves of call() for pipelining several requests at once.
  bool send(const std::string& requestLine);
  bool recv(std::string& responseLine);

 private:
  int fd_ = -1;
};

}  // namespace pacor::serve::net
