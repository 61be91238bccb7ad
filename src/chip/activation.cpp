#include "chip/activation.hpp"

#include <stdexcept>

namespace pacor::chip {

ActivationSequence::ActivationSequence(std::string_view steps) : steps_(steps) {
  for (const char c : steps_) {
    if (c != '0' && c != '1' && c != 'X')
      throw std::invalid_argument("activation sequence may contain only 0, 1, X: got '" +
                                  std::string(1, c) + "'");
  }
}

bool ActivationSequence::compatibleWith(const ActivationSequence& other) const noexcept {
  if (steps_.size() != other.steps_.size()) return false;
  for (std::size_t i = 0; i < steps_.size(); ++i) {
    if (!compatible(static_cast<Activation>(steps_[i]),
                    static_cast<Activation>(other.steps_[i])))
      return false;
  }
  return true;
}

}  // namespace pacor::chip
