#include "serve/protocol.hpp"

#include <sstream>

#include "pacor/pipeline.hpp"

namespace pacor::serve {

namespace {

const char* levelName(trace::Level level) {
  switch (level) {
    case trace::Level::kOff: return "off";
    case trace::Level::kStage: return "stage";
    case trace::Level::kCluster: return "cluster";
    case trace::Level::kSearch: return "search";
  }
  return "cluster";
}

const char* variantName(Variant v) {
  switch (v) {
    case Variant::kPacor: return "pacor";
    case Variant::kWosel: return "wosel";
    case Variant::kDetourFirst: return "detour-first";
  }
  return "pacor";
}

std::optional<Request> failParse(ParseError* error, std::string field,
                                 std::string reason,
                                 const std::string& design = {}) {
  if (error != nullptr) {
    error->field = std::move(field);
    error->reason = std::move(reason);
    error->design = design;
  }
  return std::nullopt;
}

/// "key=value" tokens: the key of `token` when it starts with `key=`.
bool keyedValue(const std::string& token, const char* key, std::string& out) {
  const std::size_t keyLen = std::char_traits<char>::length(key);
  if (token.size() < keyLen + 1 || token.compare(0, keyLen, key) != 0 ||
      token[keyLen] != '=')
    return false;
  out = token.substr(keyLen + 1);
  return true;
}

}  // namespace

std::optional<Variant> parseVariant(const std::string& name) {
  if (name == "pacor") return Variant::kPacor;
  if (name == "wosel") return Variant::kWosel;
  if (name == "detour-first") return Variant::kDetourFirst;
  return std::nullopt;
}

core::PacorConfig configFor(Variant variant) {
  switch (variant) {
    case Variant::kPacor: return core::pacorDefaultConfig();
    case Variant::kWosel: return core::withoutSelectionConfig();
    case Variant::kDetourFirst: return core::detourFirstConfig();
  }
  return core::pacorDefaultConfig();
}

std::string ParseError::render() const {
  return reason + " (field '" + field + "')";
}

std::optional<Request> parseRequestLine(const std::string& line,
                                        ParseError* error) {
  Request req;
  std::istringstream is(line);
  if (!(is >> req.design))
    return failParse(error, "design", "empty request line");
  if (req.design == "eco" || req.design == "gen") {
    req.verb = req.design == "eco" ? Verb::kEco : Verb::kGen;
    if (!(is >> req.design))
      return failParse(error, "design",
                       std::string(req.verb == Verb::kEco ? "eco" : "gen") +
                           " request without a design");
  }
  std::string token;
  std::string value;
  while (is >> token) {
    if (req.verb == Verb::kGen) {
      const std::string field = token.substr(0, token.find('='));
      return failParse(error, field,
                       "gen requests take no options ('" + token + "')",
                       req.design);
    }
    if (keyedValue(token, "delta", value)) {
      if (req.verb != Verb::kEco)
        return failParse(error, "delta", "delta= is only valid on eco requests", req.design);
      if (value.empty()) return failParse(error, "delta", "empty delta= path", req.design);
      req.deltaPath = value;
    } else if (keyedValue(token, "sol", value)) {
      if (value.empty()) return failParse(error, "sol", "empty sol= path", req.design);
      req.solutionPath = value;
    } else if (keyedValue(token, "metrics", value)) {
      if (value.empty()) return failParse(error, "metrics", "empty metrics= path", req.design);
      req.metricsPath = value;
    } else if (keyedValue(token, "trace", value)) {
      if (value.empty()) return failParse(error, "trace", "empty trace= path", req.design);
      req.tracePath = value;
    } else if (keyedValue(token, "trace-level", value)) {
      const auto level = trace::parseLevel(value);
      if (!level)
        return failParse(error, "trace-level", "bad trace-level '" + value + "'", req.design);
      req.traceLevel = *level;
    } else if (keyedValue(token, "variant", value)) {
      const auto variant = parseVariant(value);
      if (!variant)
        return failParse(error, "variant", "unknown variant '" + value + "'", req.design);
      req.variant = *variant;
    } else if (keyedValue(token, "deadline_ms", value)) {
      // Total validation: digits only (no sign, no suffix), in range.
      // Junk (`deadline_ms=`, negative, overflow) is a structured parse
      // error -- fuzz property (i) holds the parser to "never throws".
      bool digits = !value.empty();
      for (const char c : value)
        if (c < '0' || c > '9') digits = false;
      std::int64_t ms = 0;
      if (digits && value.size() <= 18) {
        for (const char c : value) ms = ms * 10 + (c - '0');
      } else {
        digits = false;
      }
      if (!digits || ms < 1 || ms > kMaxDeadlineMs)
        return failParse(error, "deadline_ms",
                         "bad deadline_ms '" + value + "' (want an integer in 1.." +
                             std::to_string(kMaxDeadlineMs) + ")",
                         req.design);
      req.deadlineMs = ms;
    } else {
      const std::string field = token.substr(0, token.find('='));
      return failParse(error, field, "unknown option '" + token + "'",
                       req.design);
    }
  }
  if (req.verb == Verb::kEco && req.deltaPath.empty())
    return failParse(error, "delta", "eco request without delta=PATH",
                     req.design);
  return req;
}

std::string formatRequestLine(const Request& req) {
  std::string out;
  if (req.verb == Verb::kEco) out += "eco ";
  else if (req.verb == Verb::kGen) out += "gen ";
  out += req.design;
  if (req.verb == Verb::kGen) return out;
  if (!req.deltaPath.empty()) out += " delta=" + req.deltaPath;
  if (!req.solutionPath.empty()) out += " sol=" + req.solutionPath;
  if (!req.metricsPath.empty()) out += " metrics=" + req.metricsPath;
  if (!req.tracePath.empty()) out += " trace=" + req.tracePath;
  if (req.traceLevel != trace::Level::kCluster)
    out += std::string(" trace-level=") + levelName(req.traceLevel);
  if (req.variant != Variant::kPacor)
    out += std::string(" variant=") + variantName(req.variant);
  if (req.deadlineMs > 0) out += " deadline_ms=" + std::to_string(req.deadlineMs);
  return out;
}

std::string formatResponse(const Response& resp) {
  std::ostringstream out;
  if (resp.busy) {
    out << "busy " << (resp.design.empty() ? "-" : resp.design) << ' '
        << (resp.error.empty() ? "server busy" : resp.error);
    return out.str();
  }
  if (!resp.errorField.empty()) {
    out << "err " << (resp.design.empty() ? "-" : resp.design)
        << " field=" << resp.errorField << ' '
        << (resp.error.empty() ? "malformed request" : resp.error);
    return out.str();
  }
  if (!resp.ok) {
    out << "error " << resp.design << ' '
        << (resp.error.empty() ? "unknown failure" : resp.error);
    return out.str();
  }
  if (resp.genValves >= 0) {
    out << "ok " << resp.design << " gen=1 valves=" << resp.genValves
        << " pins=" << resp.genPins << " obstacles=" << resp.genObstacles;
    return out.str();
  }
  out << "ok " << resp.design << " sha256=" << resp.solutionHash
      << " complete=" << (resp.complete ? 1 : 0) << " clusters="
      << resp.clusterCount << " length=" << resp.totalLength;
  if (resp.coldBuilds >= 0) out << " cold_builds=" << resp.coldBuilds;
  if (resp.memo) out << " memo=1";
  if (resp.traceSpans >= 0) out << " trace_spans=" << resp.traceSpans;
  // Only eco responses carry the extra fields: the line stays byte-stable
  // for any manifest that predates the verb.
  if (!resp.ecoMode.empty())
    out << " eco=" << resp.ecoMode << " dirty=" << resp.ecoDirty
        << " reused=" << resp.ecoFrozen;
  return out.str();
}

std::optional<ParsedResponse> parseResponseLine(const std::string& line) {
  std::istringstream is(line);
  ParsedResponse parsed;
  if (!(is >> parsed.status >> parsed.design)) return std::nullopt;
  if (parsed.status != "ok" && parsed.status != "busy" &&
      parsed.status != "err" && parsed.status != "error")
    return std::nullopt;
  const auto asInt = [](const std::string& v) {
    try {
      return std::stoi(v);
    } catch (const std::exception&) {
      return -1;
    }
  };
  std::string token;
  std::string value;
  while (is >> token) {
    if (keyedValue(token, "sha256", value)) parsed.sha256 = value;
    else if (keyedValue(token, "complete", value)) parsed.complete = asInt(value);
    else if (keyedValue(token, "cold_builds", value))
      parsed.coldBuilds = asInt(value);
    else if (keyedValue(token, "memo", value)) parsed.memo = value == "1";
    else if (keyedValue(token, "field", value)) parsed.errorField = value;
    else if (parsed.status != "ok") {
      if (!parsed.message.empty()) parsed.message += ' ';
      parsed.message += token;
    }
  }
  return parsed;
}

}  // namespace pacor::serve
