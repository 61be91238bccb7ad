#pragma once

#include <iosfwd>
#include <string>

#include "pacor/result.hpp"

namespace pacor::core {

/// Plain-text serialization of a routed solution. Together with the chip
/// file (chip/io.hpp) this makes a run fully reproducible and lets the
/// `pacor check` CLI verify solutions produced elsewhere. Format:
///
///   pacor-solution 1
///   design <name>
///   complete <0|1>
///   stats <#multiValve> <#matched> <matchedLen> <totalLen> <rounds> <declustered>
///   clusters <n>
///   --- per cluster ---
///   valves <k> <v1> ... <vk>
///   flags <lmRequested> <lmMatched> <routed>
///   pin <id>
///   tap <x> <y>
///   lengths <k> <l1> ... <lk>
///   treepaths <m>
///   path <cells> <x1> <y1> ... (m lines)
///   escape <cells> <x1> <y1> ...
///
/// Both functions throw std::runtime_error on malformed input.
void writeSolution(std::ostream& os, const PacorResult& result);
PacorResult readSolution(std::istream& is);

void writeSolutionFile(const std::string& path, const PacorResult& result);
PacorResult readSolutionFile(const std::string& path);

/// In-memory forms of the same format. The string form is the canonical
/// byte representation used by the differential fuzz harness and the
/// golden-hash regression tests: two results are "byte-identical" iff
/// their solutionToString outputs match.
std::string solutionToString(const PacorResult& result);
PacorResult solutionFromString(const std::string& text);

/// The metrics file of a run, as `pacor route --metrics=` and the serve
/// tier's `metrics=` write it: `{"design": ..., "metrics": ...}` with the
/// design name as an escaped JSON string and the result's MetricsRegistry
/// as pretty-printed JSON, newline-terminated.
std::string metricsFileText(const PacorResult& result);

}  // namespace pacor::core
