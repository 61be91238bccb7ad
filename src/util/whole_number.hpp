#pragma once

#include <charconv>
#include <optional>
#include <string_view>
#include <system_error>

namespace pacor::util {

/// The whole of `text` as a number of type T in [lo, hi], or nullopt: a
/// token with anything after its number (`2x`, `5abc`, `1.5` for an
/// integer) or no number at all (`abc`, ``) is not a number. Integers are
/// decimal; floating T takes std::from_chars' general format, and NaN is
/// never in range.
template <typename T>
std::optional<T> wholeNumber(std::string_view text, T lo, T hi) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || stop != end || !(value >= lo && value <= hi))
    return std::nullopt;
  return value;
}

}  // namespace pacor::util
