#pragma once

#include <algorithm>
#include <chrono>
#include <stdexcept>

namespace pacor::util {

/// A point on the steady clock after which the calling thread's work is
/// no longer wanted. Deadline::max() means none.
using Deadline = std::chrono::steady_clock::time_point;
inline constexpr Deadline kNoDeadline = Deadline::max();

/// Thrown by checkDeadline() once the thread's deadline has passed. It
/// only ever leaves a load or a routing call whose result is being thrown
/// away, so nothing the call was building is observed afterwards.
class DeadlineExceeded : public std::runtime_error {
 public:
  DeadlineExceeded() : std::runtime_error("deadline exceeded") {}
};

namespace detail {
inline thread_local Deadline tlDeadline = kNoDeadline;
}  // namespace detail

/// RAII scope that sets this thread's deadline until destruction and
/// restores the previous one on exit, so scopes nest; a nested scope can
/// only tighten the deadline, never extend it. Like the trace session it
/// is per-thread: a routing request runs entirely on the thread that
/// installed it, so every poll of the request sees it.
class DeadlineScope {
 public:
  explicit DeadlineScope(Deadline deadline) noexcept
      : prev_(detail::tlDeadline) {
    detail::tlDeadline = std::min(prev_, deadline);
  }
  ~DeadlineScope() noexcept { detail::tlDeadline = prev_; }

  DeadlineScope(const DeadlineScope&) = delete;
  DeadlineScope& operator=(const DeadlineScope&) = delete;

 private:
  Deadline prev_;
};

/// Poll point: throws DeadlineExceeded once the thread's deadline has
/// passed. With no deadline set it costs one thread-local load. Call it
/// only at unit boundaries (a flow pass, an iteration, a round, a
/// cluster, a read chunk), never inside a search, so a cancelled call
/// always stops between two units of work.
inline void checkDeadline() {
  const Deadline deadline = detail::tlDeadline;
  if (deadline != kNoDeadline && std::chrono::steady_clock::now() >= deadline)
    throw DeadlineExceeded();
}

}  // namespace pacor::util
