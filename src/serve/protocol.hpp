#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "pacor/config.hpp"
#include "trace/trace.hpp"

namespace pacor::serve {

/// What a request asks the server to do.
enum class Verb {
  kRoute,  ///< route the design's current state
  kEco,    ///< apply an edit script, re-route incrementally
  kGen,    ///< load/generate the design into a warm context, no routing
};

/// The three Table-2 flow variants a request line can select. The variant
/// is the only routing choice a request makes.
enum class Variant { kPacor, kWosel, kDetourFirst };

/// `pacor`, `wosel` or `detour-first`; nullopt for any other name. Shared
/// by the request grammar's variant= and `pacor route --variant=`.
std::optional<Variant> parseVariant(const std::string& name);

/// The flow configuration a variant names: pacorDefaultConfig(),
/// withoutSelectionConfig() or detourFirstConfig().
core::PacorConfig configFor(Variant variant);

/// One typed request: the single in-memory form behind every entry point
/// (batch manifest lines, the socket front end, the fuzzer, tests). The
/// wire grammar, shared verbatim by batch mode and the framed socket
/// protocol, is one line:
///
///   [eco|gen ]<design> [delta=PATH] [sol=PATH] [metrics=PATH]
///       [trace=PATH] [trace-level=stage|cluster|search]
///       [variant=pacor|wosel|detour-first] [deadline_ms=N]
///
/// <design> is a Table-1 name (Chip1, Chip2, S1..S5), an FPVA spec
/// (fpva:NxM[:key=val...]), or a path to a .chip file; it doubles as the
/// server's context/affinity key. `delta=` is required by (and only legal
/// on) eco requests; `gen` requests accept no options at all.
/// `deadline_ms=` is an integer in [1, kMaxDeadlineMs], measured from
/// admission. A request that cannot finish by then is answered with a
/// structured `err <design> field=deadline ...` response and had no
/// effect: no eco commit, no side files. An `ok` response means the
/// request committed, even if it finished after its deadline (see
/// serve.hpp).
struct Request {
  Verb verb = Verb::kRoute;
  std::string design;
  std::string deltaPath;  ///< eco only: edit script (chip/delta.hpp format)

  Variant variant = Variant::kPacor;
  std::string solutionPath;  ///< write the solution file here when set
  std::string metricsPath;   ///< write the metrics JSON here when set

  /// Per-request Chrome trace, recorded by the trace session of the
  /// dispatcher thread that runs the request, so other requests keep
  /// running and stay out of it. The session ends on every path, a
  /// request stopped by its deadline included.
  std::string tracePath;
  trace::Level traceLevel = trace::Level::kCluster;

  /// Per-request deadline in milliseconds from admission; 0 = use the
  /// server's AdmissionOptions::defaultDeadlineMs (itself 0 = none).
  std::int64_t deadlineMs = 0;
};

/// Upper bound on deadline_ms= values (24 h): larger values are parse
/// errors, which keeps the arithmetic on deadline time points overflow-free.
inline constexpr std::int64_t kMaxDeadlineMs = 86'400'000;

/// Why a request line failed to parse: the offending field (an option
/// name like "trace-level", "delta", or "design") plus a human reason.
/// Batch mode renders it as `line N: <reason> (field '<field>')`; the
/// socket path returns a structured `err` response carrying the field.
struct ParseError {
  std::string field;
  std::string reason;
  std::string design;  ///< the design token, when one was read before failing

  /// "<reason> (field '<field>')" -- the canonical rendering.
  std::string render() const;
};

/// Result of one request, carrying the canonical solution bytes so callers
/// can assert byte-identity against one-shot routeChip runs.
struct Response {
  std::string design;
  bool ok = false;        ///< request executed without an exception
  bool complete = false;  ///< 100% routing completion
  std::string solutionText;  ///< canonical solutionToString bytes
  std::string solutionHash;  ///< SHA-256 of solutionText
  std::size_t clusterCount = 0;
  std::int64_t totalLength = 0;
  int coldBuilds = -1;  ///< escape.flow.cold_builds; 0 = warm session reuse
  /// Answered from the design's route memo (serve.hpp): no routing ran.
  bool memo = false;
  int traceSpans = -1;  ///< recorded spans; -1 = no trace requested
  std::string error;    ///< non-empty when !ok (or trace/file I/O failed)

  /// Admission control: the request was refused before execution because
  /// the server's waiting queue was full or it is draining. `error` holds
  /// the reason; the response renders as `busy <design> <reason>`.
  bool busy = false;

  /// Protocol-level failure (malformed request line): the offending field
  /// name. Renders as `err <design|-> field=<field> <reason>`.
  std::string errorField;

  /// The request's deadline passed before it finished: the server
  /// answered `err <design> field=deadline deadline expired after <D> ms
  /// (<queued|executing>)` instead of a result, and the request had no
  /// effect.
  bool deadlineExpired = false;

  /// ECO responses only (empty / -1 otherwise): how rerouteChip answered.
  std::string ecoMode;  ///< "identity", "incremental", or "full"
  int ecoDirty = -1;    ///< clusters re-routed
  int ecoFrozen = -1;   ///< previous clusters carried verbatim

  /// `gen` responses only (-1 otherwise): shape of the loaded design.
  int genValves = -1;
  int genPins = -1;
  int genObstacles = -1;
};

/// Parses one request line (the grammar above). Returns nullopt and fills
/// `error` (when given) on malformed input; never throws on any byte
/// sequence. Blank / comment ('#') lines are the caller's concern -- here
/// an empty line is a parse error on field "design".
std::optional<Request> parseRequestLine(const std::string& line,
                                        ParseError* error = nullptr);

/// The canonical text of a request: fields in grammar order, defaults
/// omitted (variant=pacor, trace-level=cluster, absent paths). Exact
/// round trip: parseRequestLine(formatRequestLine(r)) reproduces r, and
/// formatRequestLine(*parseRequestLine(x)) is the canonical form of any
/// parseable line x (idempotent under a second parse/format).
std::string formatRequestLine(const Request& req);

/// One response line (no trailing newline), the single wire encoding used
/// by batch stdout and the socket frames:
///
///   ok <design> sha256=<hash> complete=<0|1> clusters=<n> length=<L>
///       [cold_builds=<n>] [memo=1] [trace_spans=<n>]
///       [eco=identity|incremental|full dirty=<n> reused=<n>]
///   ok <design> gen=1 valves=<n> pins=<n> obstacles=<n>
///   busy <design> <reason>
///   err <design|-> field=<field> <reason>
///   error <design> <message>
///
/// `memo=1` marks a route answered from the design's route memo without
/// routing (Response::memo, always with cold_builds=0); eco answers and
/// routes with metrics= or trace= never carry it.
std::string formatResponse(const Response& resp);

/// Minimal decode of a response line (status + design + key=value fields),
/// for clients (the replay driver, tests) that assert on responses.
struct ParsedResponse {
  std::string status;  ///< "ok", "busy", "err", or "error"
  std::string design;
  std::string sha256;
  int complete = -1;
  int coldBuilds = -1;
  bool memo = false;       ///< ok responses: carried memo=1
  std::string errorField;  ///< err responses: the offending field
  std::string message;     ///< busy/err/error: trailing reason text
};
std::optional<ParsedResponse> parseResponseLine(const std::string& line);

}  // namespace pacor::serve
