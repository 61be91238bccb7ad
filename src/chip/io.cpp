#include "chip/io.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/text_records.hpp"

namespace pacor::chip {
namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("chip io: " + what);
}

}  // namespace

void writeChip(std::ostream& os, const Chip& chip) {
  os << "pacor-chip 1\n";
  os << "name " << chip.name << '\n';
  os << "grid " << chip.routingGrid.width() << ' ' << chip.routingGrid.height() << '\n';
  os << "rules " << chip.rules.minChannelWidthUm << ' ' << chip.rules.minChannelSpacingUm
     << '\n';
  os << "delta " << chip.delta << '\n';
  os << "valves " << chip.valves.size() << '\n';
  for (const Valve& v : chip.valves)
    os << v.id << ' ' << v.pos.x << ' ' << v.pos.y << ' ' << v.sequence.str() << '\n';
  os << "pins " << chip.pins.size() << '\n';
  for (const ControlPin& p : chip.pins) os << p.id << ' ' << p.pos.x << ' ' << p.pos.y << '\n';
  os << "obstacles " << chip.obstacles.size() << '\n';
  for (const Point o : chip.obstacles) os << o.x << ' ' << o.y << '\n';
  os << "clusters " << chip.givenClusters.size() << '\n';
  for (const ValveCluster& c : chip.givenClusters) {
    os << (c.lengthMatched ? 1 : 0) << ' ' << c.valves.size();
    for (const ValveId v : c.valves) os << ' ' << v;
    os << '\n';
  }
  if (!os) fail("write failure");
}

Chip readChip(std::istream& is) {
  util::RecordReader r(is, "chip io");
  Chip chip;
  {
    auto ls = r.line("header");
    std::string magic;
    int version = 0;
    ls >> magic >> version;
    if (magic != "pacor-chip" || version != 1) fail("bad header (want 'pacor-chip 1')");
  }
  r.keyed("name") >> chip.name;
  {
    auto ls = r.keyed("grid");
    std::int32_t w = 0, h = 0;
    ls >> w >> h;
    if (w <= 0 || h <= 0) fail("bad grid line");
    // Checked product before constructing: an oversized grid must fail
    // with a parse error, not corrupt int32 cell indices downstream.
    if (static_cast<std::int64_t>(w) * h > grid::Grid::kMaxCells)
      fail("grid " + std::to_string(w) + "x" + std::to_string(h) +
           " exceeds the int32 cell-index range");
    chip.routingGrid = grid::Grid(w, h);
  }
  r.keyed("rules") >> chip.rules.minChannelWidthUm >> chip.rules.minChannelSpacingUm;
  if (!chip.rules.valid()) fail("bad rules line");
  r.keyed("delta") >> chip.delta;
  if (chip.delta < 0) fail("bad delta line");
  for (std::size_t i = 0, n = r.count("valves"); i < n; ++i) {
    auto vl = r.line("valve");
    Valve v;
    std::string seq;
    vl >> v.id >> v.pos.x >> v.pos.y >> seq;
    if (vl.fail()) fail("malformed valve line");
    v.sequence = ActivationSequence(seq);
    chip.valves.push_back(std::move(v));
  }
  for (std::size_t i = 0, n = r.count("pins"); i < n; ++i) {
    auto pl = r.line("pin");
    ControlPin p;
    pl >> p.id >> p.pos.x >> p.pos.y;
    if (pl.fail()) fail("malformed pin line");
    chip.pins.push_back(p);
  }
  for (std::size_t i = 0, n = r.count("obstacles"); i < n; ++i) {
    auto ol = r.line("obstacle");
    Point o;
    ol >> o.x >> o.y;
    if (ol.fail()) fail("malformed obstacle line");
    chip.obstacles.push_back(o);
  }
  for (std::size_t i = 0, n = r.count("clusters"); i < n; ++i) {
    auto cl = r.line("cluster");
    int lm = 0;
    if (!(cl >> lm)) fail("malformed cluster line");
    ValveCluster& c = chip.givenClusters.emplace_back();
    c.lengthMatched = lm != 0;
    r.values(cl, r.count(cl, "cluster members"), c.valves, "cluster members");
  }
  if (const auto err = chip.validate()) fail("invalid chip: " + *err);
  return chip;
}

void writeChipFile(const std::string& path, const Chip& chip) {
  std::ofstream os(path);
  if (!os) fail("cannot open for writing: " + path);
  writeChip(os, chip);
}

Chip readChipFile(const std::string& path) {
  std::ifstream is(path);
  if (!is) fail("cannot open for reading: " + path);
  return readChip(is);
}

}  // namespace pacor::chip
