#include "chip/synth_spec.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/text_records.hpp"

namespace pacor::chip {
namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("synth spec: " + what);
}

}  // namespace

std::optional<std::string> SynthSpec::validate() const {
  if (die.width() <= 0 || die.height() <= 0) return "die has non-positive size";
  for (const geom::Point v : valveSites)
    if (!die.inBounds(v)) return "valve site " + v.str() + " out of bounds";
  if (const auto err = flow.validate(die)) return err;
  for (const geom::Point p : pinSites)
    if (!die.onBoundary(p)) return "pin " + p.str() + " not on the boundary";
  std::vector<int> seen(valveSites.size(), 0);
  for (const ValveCluster& c : clusters) {
    if (c.valves.size() < 2) return "clusters need >= 2 valves";
    for (const ValveId v : c.valves) {
      if (v < 0 || static_cast<std::size_t>(v) >= valveSites.size())
        return "cluster references unknown valve " + std::to_string(v);
      if (++seen[static_cast<std::size_t>(v)] > 1)
        return "valve " + std::to_string(v) + " in two clusters";
    }
  }
  if (const auto err = assay.validate(valveSites.size())) return err;
  return std::nullopt;
}

Chip buildChip(const SynthSpec& spec) {
  if (const auto err = spec.validate()) fail("invalid spec: " + *err);

  std::string conflict;
  const auto sequences = synthesizeSequences(spec.assay, spec.valveSites.size(), &conflict);
  if (!sequences) fail("schedule conflict: " + conflict);

  Chip chip;
  chip.name = spec.name;
  chip.routingGrid = spec.die;
  chip.delta = spec.delta;
  for (std::size_t v = 0; v < spec.valveSites.size(); ++v)
    chip.valves.push_back(
        {static_cast<ValveId>(v), spec.valveSites[v], (*sequences)[v]});
  chip.obstacles = controlObstacles(spec.flow, spec.die, spec.valveSites);
  for (std::size_t p = 0; p < spec.pinSites.size(); ++p)
    chip.pins.push_back({static_cast<PinId>(p), spec.pinSites[p]});
  chip.givenClusters = spec.clusters;

  if (const auto err = chip.validate()) fail("assembled chip invalid: " + *err);
  return chip;
}

void writeSynthSpec(std::ostream& os, const SynthSpec& spec) {
  os << "pacor-synth 1\n";
  os << "name " << spec.name << '\n';
  os << "grid " << spec.die.width() << ' ' << spec.die.height() << '\n';
  os << "delta " << spec.delta << '\n';
  os << "valves " << spec.valveSites.size() << '\n';
  for (const geom::Point v : spec.valveSites) os << v.x << ' ' << v.y << '\n';
  os << "channels " << spec.flow.channels.size() << '\n';
  for (const FlowChannel& c : spec.flow.channels) {
    os << c.waypoints.size();
    for (const geom::Point w : c.waypoints) os << ' ' << w.x << ' ' << w.y;
    os << '\n';
  }
  os << "components " << spec.flow.components.size() << '\n';
  for (const FlowComponent& c : spec.flow.components)
    os << c.kind << ' ' << c.footprint.lo.x << ' ' << c.footprint.lo.y << ' '
       << c.footprint.hi.x << ' ' << c.footprint.hi.y << '\n';
  os << "pins " << spec.pinSites.size() << '\n';
  for (const geom::Point p : spec.pinSites) os << p.x << ' ' << p.y << '\n';
  os << "clusters " << spec.clusters.size() << '\n';
  for (const ValveCluster& c : spec.clusters) {
    os << (c.lengthMatched ? 1 : 0) << ' ' << c.valves.size();
    for (const ValveId v : c.valves) os << ' ' << v;
    os << '\n';
  }
  os << "horizon " << spec.assay.horizon << '\n';
  os << "operations " << spec.assay.operations.size() << '\n';
  for (const ScheduledOperation& op : spec.assay.operations) {
    os << op.name << ' ' << op.start << ' ' << op.end << ' ' << op.openValves.size();
    for (const auto v : op.openValves) os << ' ' << v;
    os << ' ' << op.closedValves.size();
    for (const auto v : op.closedValves) os << ' ' << v;
    os << '\n';
  }
  if (!os) fail("write failure");
}

SynthSpec readSynthSpec(std::istream& is) {
  util::RecordReader r(is, "synth spec");
  SynthSpec spec;
  {
    int version = 0;
    r.keyed("pacor-synth") >> version;
    if (version != 1) fail("unsupported version");
  }
  r.keyed("name") >> spec.name;
  {
    auto ls = r.keyed("grid");
    std::int32_t w = 0, h = 0;
    if (!(ls >> w >> h) || w <= 0 || h <= 0) fail("bad grid");
    spec.die = grid::Grid(w, h);
  }
  if (!(r.keyed("delta") >> spec.delta)) fail("bad delta");
  for (std::size_t i = 0, n = r.count("valves"); i < n; ++i) {
    geom::Point v;
    if (!(r.line("valve site") >> v.x >> v.y)) fail("malformed valve site");
    spec.valveSites.push_back(v);
  }
  for (std::size_t i = 0, n = r.count("channels"); i < n; ++i) {
    auto ls = r.line("channel");
    std::size_t k = 0;
    if (!(ls >> k) || k < 2 || k > 65536) fail("malformed channel");
    FlowChannel& c = spec.flow.channels.emplace_back();
    for (std::size_t j = 0; j < k; ++j) {
      geom::Point w;
      if (!(ls >> w.x >> w.y)) fail("malformed channel waypoint");
      c.waypoints.push_back(w);
    }
  }
  for (std::size_t i = 0, n = r.count("components"); i < n; ++i) {
    FlowComponent& c = spec.flow.components.emplace_back();
    if (!(r.line("component") >> c.kind >> c.footprint.lo.x >> c.footprint.lo.y >>
          c.footprint.hi.x >> c.footprint.hi.y))
      fail("malformed component");
  }
  for (std::size_t i = 0, n = r.count("pins"); i < n; ++i) {
    geom::Point p;
    if (!(r.line("pin") >> p.x >> p.y)) fail("malformed pin");
    spec.pinSites.push_back(p);
  }
  for (std::size_t i = 0, n = r.count("clusters"); i < n; ++i) {
    auto ls = r.line("cluster");
    int lm = 0;
    std::size_t k = 0;
    if (!(ls >> lm >> k) || k > 65536) fail("malformed cluster");
    ValveCluster& c = spec.clusters.emplace_back();
    c.lengthMatched = lm != 0;
    r.values(ls, k, c.valves, "cluster member");
  }
  if (!(r.keyed("horizon") >> spec.assay.horizon)) fail("bad horizon");
  for (std::size_t i = 0, n = r.count("operations"); i < n; ++i) {
    auto ls = r.line("operation");
    ScheduledOperation& op = spec.assay.operations.emplace_back();
    std::size_t no = 0;
    if (!(ls >> op.name >> op.start >> op.end >> no) || no > 65536)
      fail("malformed operation");
    r.values(ls, no, op.openValves, "open valve list");
    std::size_t nc = 0;
    if (!(ls >> nc) || nc > 65536) fail("malformed operation");
    r.values(ls, nc, op.closedValves, "closed valve list");
  }
  if (const auto err = spec.validate()) fail("invalid spec: " + *err);
  return spec;
}

SynthSpec readSynthSpecFile(const std::string& path) {
  std::ifstream is(path);
  if (!is) fail("cannot open for reading: " + path);
  return readSynthSpec(is);
}

}  // namespace pacor::chip
