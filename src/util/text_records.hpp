#pragma once

#include <cstddef>
#include <istream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace pacor::util {

/// The line grammar of every text format in this project (chip, delta,
/// solution, synth spec, serve manifest): a line that is blank or whose
/// first non-blank character is '#' holds no record.
inline bool isBlankOrComment(const std::string& line) {
  const std::size_t first = line.find_first_not_of(" \t\r");
  return first == std::string::npos || line[first] == '#';
}

/// Reads the record lines of one text format and throws
/// std::runtime_error("<format>: <what>") on malformed input. Readers
/// built on it append each record as they parse it and never size a
/// container from a count read from the input, so a file that claims
/// more records than it holds fails at its real end having allocated
/// only what it holds: memory follows the bytes read, not the claims.
class RecordReader {
 public:
  /// Largest count a record or list header may claim.
  static constexpr std::size_t kMaxRecords = 16'777'216;

  RecordReader(std::istream& is, const char* format) : is_(is), format_(format) {}

  /// The next record line; `context` names what was wanted when the
  /// input ends first.
  std::istringstream line(const std::string& context) {
    std::string text;
    while (std::getline(is_, text))
      if (!isBlankOrComment(text)) return std::istringstream(text);
    fail("unexpected end of file while reading " + context);
  }

  /// The next record line, which must start with `key`; the returned
  /// stream is positioned after it.
  std::istringstream keyed(const std::string& key) {
    std::istringstream ls = line("'" + key + "'");
    std::string got;
    ls >> got;
    if (got != key) fail("expected '" + key + "', got '" + got + "'");
    return ls;
  }

  /// A `<key> <n>` line's count.
  std::size_t count(const std::string& key) {
    std::istringstream ls = keyed(key);
    return count(ls, key);
  }

  /// The next value of `ls` as a count of `what`.
  std::size_t count(std::istream& ls, const std::string& what) const {
    std::size_t n = 0;
    if (!(ls >> n)) fail("malformed count for '" + what + "'");
    if (n > kMaxRecords) fail("implausible count for '" + what + "'");
    return n;
  }

  /// Appends the next `n` values of `ls` to `out`, one at a time.
  template <typename T>
  void values(std::istream& ls, std::size_t n, std::vector<T>& out,
              const std::string& what) const {
    for (std::size_t i = 0; i < n; ++i) {
      T value{};
      if (!(ls >> value)) fail("malformed " + what);
      out.push_back(value);
    }
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error(format_ + ": " + what);
  }

  std::istream& is_;
  std::string format_;
};

}  // namespace pacor::util
