#include "pacor/solution_io.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <unordered_set>

#include "util/text_records.hpp"

namespace pacor::core {
namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("solution io: " + what);
}

void writePath(std::ostream& os, const char* key, const route::Path& path) {
  os << key << ' ' << path.size();
  for (const geom::Point p : path) os << ' ' << p.x << ' ' << p.y;
  os << '\n';
}

/// `text` as a JSON string literal.
std::string jsonString(const std::string& text) {
  std::string out = "\"";
  for (const char ch : text) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char code[8];
      std::snprintf(code, sizeof code, "\\u%04x", static_cast<unsigned>(ch));
      out += code;
    } else {
      out += ch;
    }
  }
  return out + '"';
}

route::Path readPath(util::RecordReader& r, const char* key) {
  auto ls = r.keyed(key);
  route::Path path;
  for (std::size_t i = 0, n = r.count(ls, "path cells"); i < n; ++i) {
    geom::Point p;
    if (!(ls >> p.x >> p.y)) fail("malformed path cell");
    path.push_back(p);
  }
  return path;
}

}  // namespace

void writeSolution(std::ostream& os, const PacorResult& result) {
  os << "pacor-solution 1\n";
  os << "design " << result.design << '\n';
  os << "complete " << (result.complete ? 1 : 0) << '\n';
  os << "stats " << result.multiValveClusterCount << ' ' << result.matchedClusterCount
     << ' ' << result.matchedChannelLength << ' ' << result.totalChannelLength << ' '
     << result.escapeRounds << ' ' << result.declusteredCount << '\n';
  os << "clusters " << result.clusters.size() << '\n';
  for (const RoutedCluster& c : result.clusters) {
    os << "valves " << c.valves.size();
    for (const auto v : c.valves) os << ' ' << v;
    os << '\n';
    os << "flags " << (c.lengthMatchRequested ? 1 : 0) << ' '
       << (c.lengthMatched ? 1 : 0) << ' ' << (c.routed ? 1 : 0) << '\n';
    os << "pin " << c.pin << '\n';
    os << "tap " << c.tap.x << ' ' << c.tap.y << '\n';
    os << "lengths " << c.valveLengths.size();
    for (const auto l : c.valveLengths) os << ' ' << l;
    os << '\n';
    os << "treepaths " << c.treePaths.size() << '\n';
    for (const route::Path& p : c.treePaths) writePath(os, "path", p);
    writePath(os, "escape", c.escapePath);
  }
  if (!os) fail("write failure");
}

PacorResult readSolution(std::istream& is) {
  util::RecordReader r(is, "solution io");
  PacorResult result;
  {
    int version = 0;
    r.keyed("pacor-solution") >> version;
    if (version != 1) fail("unsupported version");
  }
  r.keyed("design") >> result.design;
  {
    int c = 0;
    r.keyed("complete") >> c;
    result.complete = c != 0;
  }
  {
    auto ls = r.keyed("stats");
    ls >> result.multiValveClusterCount >> result.matchedClusterCount >>
        result.matchedChannelLength >> result.totalChannelLength >>
        result.escapeRounds >> result.declusteredCount;
    if (ls.fail()) fail("malformed stats");
  }
  for (std::size_t i = 0, n = r.count("clusters"); i < n; ++i) {
    RoutedCluster& c = result.clusters.emplace_back();
    {
      auto ls = r.keyed("valves");
      r.values(ls, r.count(ls, "valves"), c.valves, "valve id");
    }
    {
      auto ls = r.keyed("flags");
      int a = 0, b = 0, routed = 0;
      if (!(ls >> a >> b >> routed)) fail("malformed flags");
      c.lengthMatchRequested = a != 0;
      c.lengthMatched = b != 0;
      c.routed = routed != 0;
    }
    if (!(r.keyed("pin") >> c.pin)) fail("malformed pin");
    if (!(r.keyed("tap") >> c.tap.x >> c.tap.y)) fail("malformed tap");
    {
      auto ls = r.keyed("lengths");
      r.values(ls, r.count(ls, "lengths"), c.valveLengths, "length");
    }
    for (std::size_t j = 0, m = r.count("treepaths"); j < m; ++j)
      c.treePaths.push_back(readPath(r, "path"));
    c.escapePath = readPath(r, "escape");
    c.totalLength = 0;
    std::unordered_set<geom::Point> cells;
    for (const auto& p : c.treePaths) cells.insert(p.begin(), p.end());
    cells.insert(c.escapePath.begin(), c.escapePath.end());
    if (!cells.empty()) c.totalLength = static_cast<std::int64_t>(cells.size()) - 1;
  }
  return result;
}

void writeSolutionFile(const std::string& path, const PacorResult& result) {
  std::ofstream os(path);
  if (!os) fail("cannot open for writing: " + path);
  writeSolution(os, result);
}

PacorResult readSolutionFile(const std::string& path) {
  std::ifstream is(path);
  if (!is) fail("cannot open for reading: " + path);
  return readSolution(is);
}

std::string solutionToString(const PacorResult& result) {
  std::ostringstream os;
  writeSolution(os, result);
  return os.str();
}

PacorResult solutionFromString(const std::string& text) {
  std::istringstream is(text);
  return readSolution(is);
}

std::string metricsFileText(const PacorResult& result) {
  return "{\n  \"design\": " + jsonString(result.design) + ",\n  \"metrics\": " +
         result.metrics.toJson(/*pretty=*/true) + "\n}\n";
}

}  // namespace pacor::core
