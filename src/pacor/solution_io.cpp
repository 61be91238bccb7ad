#include "pacor/solution_io.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <unordered_set>

namespace pacor::core {
namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("solution io: " + what);
}

std::istringstream lineFor(std::istream& is, const char* key) {
  std::string line;
  while (std::getline(is, line)) {
    const auto pos = line.find_first_not_of(" \t\r");
    if (pos == std::string::npos || line[pos] == '#') continue;
    std::istringstream ls(line);
    std::string k;
    ls >> k;
    if (k != key) fail(std::string("expected '") + key + "', got '" + k + "'");
    return ls;
  }
  fail(std::string("unexpected EOF, wanted '") + key + "'");
}


/// Rejects absurd record counts before any allocation (a corrupted count
/// must fail cleanly, not throw std::length_error out of vector).
std::size_t checkedCount(std::size_t n, const char* what) {
  constexpr std::size_t kMaxRecords = 16'777'216;
  if (n > kMaxRecords) fail(std::string("implausible count for ") + what);
  return n;
}

void writePath(std::ostream& os, const char* key, const route::Path& path) {
  os << key << ' ' << path.size();
  for (const geom::Point p : path) os << ' ' << p.x << ' ' << p.y;
  os << '\n';
}

route::Path readPath(std::istringstream& ls) {
  std::size_t n = 0;
  if (!(ls >> n)) fail("malformed path length");
  route::Path path(checkedCount(n, "path cells"));
  for (auto& p : path)
    if (!(ls >> p.x >> p.y)) fail("malformed path cell");
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
  PacorResult result;
  {
    auto ls = lineFor(is, "pacor-solution");
    int version = 0;
    ls >> version;
    if (version != 1) fail("unsupported version");
  }
  {
    auto ls = lineFor(is, "design");
    ls >> result.design;
  }
  {
    auto ls = lineFor(is, "complete");
    int c = 0;
    ls >> c;
    result.complete = c != 0;
  }
  {
    auto ls = lineFor(is, "stats");
    ls >> result.multiValveClusterCount >> result.matchedClusterCount >>
        result.matchedChannelLength >> result.totalChannelLength >>
        result.escapeRounds >> result.declusteredCount;
    if (ls.fail()) fail("malformed stats");
  }
  std::size_t n = 0;
  {
    auto ls = lineFor(is, "clusters");
    if (!(ls >> n)) fail("malformed cluster count");
  }
  result.clusters.resize(checkedCount(n, "clusters"));
  for (RoutedCluster& c : result.clusters) {
    {
      auto ls = lineFor(is, "valves");
      std::size_t k = 0;
      if (!(ls >> k)) fail("malformed valves");
      c.valves.resize(checkedCount(k, "valves"));
      for (auto& v : c.valves)
        if (!(ls >> v)) fail("malformed valve id");
    }
    {
      auto ls = lineFor(is, "flags");
      int a = 0, b = 0, r = 0;
      if (!(ls >> a >> b >> r)) fail("malformed flags");
      c.lengthMatchRequested = a != 0;
      c.lengthMatched = b != 0;
      c.routed = r != 0;
    }
    {
      auto ls = lineFor(is, "pin");
      if (!(ls >> c.pin)) fail("malformed pin");
    }
    {
      auto ls = lineFor(is, "tap");
      if (!(ls >> c.tap.x >> c.tap.y)) fail("malformed tap");
    }
    {
      auto ls = lineFor(is, "lengths");
      std::size_t k = 0;
      if (!(ls >> k)) fail("malformed lengths");
      c.valveLengths.resize(checkedCount(k, "lengths"));
      for (auto& l : c.valveLengths)
        if (!(ls >> l)) fail("malformed length");
    }
    std::size_t m = 0;
    {
      auto ls = lineFor(is, "treepaths");
      if (!(ls >> m)) fail("malformed treepaths");
    }
    c.treePaths.resize(checkedCount(m, "tree paths"));
    for (auto& p : c.treePaths) {
      auto ls = lineFor(is, "path");
      p = readPath(ls);
    }
    {
      auto ls = lineFor(is, "escape");
      c.escapePath = readPath(ls);
    }
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
  return "{\n  \"design\": \"" + result.design + "\",\n  \"metrics\": " +
         result.metrics.toJson(/*pretty=*/true) + "\n}\n";
}

}  // namespace pacor::core
