#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace pacor::chip {

/// Activation status of a valve at one time step (paper Def. 1):
/// '0' = open, '1' = closed, 'X' = don't care.
enum class Activation : char {
  kOpen = '0',
  kClosed = '1',
  kDontCare = 'X',
};

/// Two statuses are compatible when equal or either is don't-care
/// (paper Def. 2).
constexpr bool compatible(Activation a, Activation b) noexcept {
  return a == b || a == Activation::kDontCare || b == Activation::kDontCare;
}

/// Valve activation sequence over the scheduled time steps (Def. 1).
/// Stored as a validated "01X" string; sequences of one chip share a
/// common length fixed by the binding/scheduling result.
class ActivationSequence {
 public:
  ActivationSequence() = default;

  /// Throws std::invalid_argument on characters outside {0, 1, X}.
  explicit ActivationSequence(std::string_view steps);

  std::size_t length() const noexcept { return steps_.size(); }
  bool empty() const noexcept { return steps_.empty(); }
  Activation at(std::size_t i) const { return static_cast<Activation>(steps_.at(i)); }
  const std::string& str() const noexcept { return steps_; }

  friend bool operator==(const ActivationSequence&, const ActivationSequence&) = default;

  /// Pairwise per-step compatibility (Def. 3). Sequences of different
  /// length are incompatible by convention (they cannot share a pin).
  bool compatibleWith(const ActivationSequence& other) const noexcept;

 private:
  std::string steps_;
};

}  // namespace pacor::chip
