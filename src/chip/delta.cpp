#include "chip/delta.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/text_records.hpp"

namespace pacor::chip {
namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("chip delta io: " + what);
}

[[noreturn]] void badOp(const std::string& what) {
  throw std::invalid_argument("chip::apply: " + what);
}

void checkIndex(std::int32_t id, std::size_t size, const char* what) {
  if (id < 0 || static_cast<std::size_t>(id) >= size)
    badOp(std::string(what) + " index " + std::to_string(id) + " out of range");
}

/// Applies one op to `chip`; `valveMap` (when non-null) tracks where the
/// original instance's valves end up across removals.
void applyOp(Chip& chip, const DeltaOp& op, std::vector<ValveId>* valveMap) {
  switch (op.kind) {
    case DeltaOp::Kind::kSetName:
      chip.name = op.text;
      break;
    case DeltaOp::Kind::kSetGrid:
      if (op.pos.x <= 0 || op.pos.y <= 0) badOp("grid dimensions must be positive");
      chip.routingGrid = grid::Grid(op.pos.x, op.pos.y);
      break;
    case DeltaOp::Kind::kSetRules:
      chip.rules.minChannelWidthUm = op.pos.x;
      chip.rules.minChannelSpacingUm = op.pos.y;
      if (!chip.rules.valid()) badOp("design rules must be positive");
      break;
    case DeltaOp::Kind::kSetDelta:
      chip.delta = op.value;
      break;
    case DeltaOp::Kind::kMoveValve:
      checkIndex(op.id, chip.valves.size(), "valve");
      chip.valves[static_cast<std::size_t>(op.id)].pos = op.pos;
      break;
    case DeltaOp::Kind::kSetValveSequence:
      checkIndex(op.id, chip.valves.size(), "valve");
      chip.valves[static_cast<std::size_t>(op.id)].sequence =
          ActivationSequence(op.text);
      break;
    case DeltaOp::Kind::kAddValve: {
      Valve v;
      v.id = static_cast<ValveId>(chip.valves.size());
      v.pos = op.pos;
      v.sequence = ActivationSequence(op.text);
      chip.valves.push_back(std::move(v));
      break;
    }
    case DeltaOp::Kind::kRemoveValve: {
      checkIndex(op.id, chip.valves.size(), "valve");
      chip.valves.erase(chip.valves.begin() + op.id);
      for (std::size_t i = 0; i < chip.valves.size(); ++i)
        chip.valves[i].id = static_cast<ValveId>(i);
      for (ValveCluster& c : chip.givenClusters) {
        std::erase(c.valves, op.id);
        for (ValveId& v : c.valves)
          if (v > op.id) --v;
      }
      if (valveMap != nullptr)
        for (ValveId& v : *valveMap) {
          if (v == op.id) v = -1;
          else if (v > op.id) --v;
        }
      break;
    }
    case DeltaOp::Kind::kMovePin:
      checkIndex(op.id, chip.pins.size(), "pin");
      chip.pins[static_cast<std::size_t>(op.id)].pos = op.pos;
      break;
    case DeltaOp::Kind::kAddPin: {
      ControlPin p;
      p.id = static_cast<PinId>(chip.pins.size());
      p.pos = op.pos;
      chip.pins.push_back(p);
      break;
    }
    case DeltaOp::Kind::kRemovePin:
      checkIndex(op.id, chip.pins.size(), "pin");
      chip.pins.erase(chip.pins.begin() + op.id);
      for (std::size_t i = 0; i < chip.pins.size(); ++i)
        chip.pins[i].id = static_cast<PinId>(i);
      break;
    case DeltaOp::Kind::kAddObstacle:
      chip.obstacles.push_back(op.pos);
      break;
    case DeltaOp::Kind::kRemoveObstacle: {
      const auto it = std::find(chip.obstacles.begin(), chip.obstacles.end(), op.pos);
      if (it == chip.obstacles.end())
        badOp("no obstacle at (" + std::to_string(op.pos.x) + ", " +
              std::to_string(op.pos.y) + ")");
      chip.obstacles.erase(it);
      break;
    }
    case DeltaOp::Kind::kSetCluster:
      checkIndex(op.id, chip.givenClusters.size(), "cluster");
      chip.givenClusters[static_cast<std::size_t>(op.id)] = op.cluster;
      break;
    case DeltaOp::Kind::kAddCluster:
      chip.givenClusters.push_back(op.cluster);
      break;
    case DeltaOp::Kind::kRemoveCluster:
      checkIndex(op.id, chip.givenClusters.size(), "cluster");
      chip.givenClusters.erase(chip.givenClusters.begin() + op.id);
      break;
  }
}

}  // namespace

#define PACOR_DELTA_BUILDER(fn, body)        \
  ChipDelta& ChipDelta::fn {                 \
    DeltaOp op;                              \
    body;                                    \
    ops.push_back(std::move(op));            \
    return *this;                            \
  }

PACOR_DELTA_BUILDER(moveValve(ValveId id, Point to), {
  op.kind = DeltaOp::Kind::kMoveValve; op.id = id; op.pos = to;
})
PACOR_DELTA_BUILDER(setValveSequence(ValveId id, std::string seq), {
  op.kind = DeltaOp::Kind::kSetValveSequence; op.id = id; op.text = std::move(seq);
})
PACOR_DELTA_BUILDER(addValve(Point at, std::string seq), {
  op.kind = DeltaOp::Kind::kAddValve; op.pos = at; op.text = std::move(seq);
})
PACOR_DELTA_BUILDER(removeValve(ValveId id), {
  op.kind = DeltaOp::Kind::kRemoveValve; op.id = id;
})
PACOR_DELTA_BUILDER(movePin(PinId id, Point to), {
  op.kind = DeltaOp::Kind::kMovePin; op.id = id; op.pos = to;
})
PACOR_DELTA_BUILDER(addPin(Point at), {
  op.kind = DeltaOp::Kind::kAddPin; op.pos = at;
})
PACOR_DELTA_BUILDER(removePin(PinId id), {
  op.kind = DeltaOp::Kind::kRemovePin; op.id = id;
})
PACOR_DELTA_BUILDER(addObstacle(Point at), {
  op.kind = DeltaOp::Kind::kAddObstacle; op.pos = at;
})
PACOR_DELTA_BUILDER(removeObstacle(Point at), {
  op.kind = DeltaOp::Kind::kRemoveObstacle; op.pos = at;
})
PACOR_DELTA_BUILDER(setCluster(std::int32_t index, ValveCluster cluster), {
  op.kind = DeltaOp::Kind::kSetCluster; op.id = index; op.cluster = std::move(cluster);
})
PACOR_DELTA_BUILDER(addCluster(ValveCluster cluster), {
  op.kind = DeltaOp::Kind::kAddCluster; op.cluster = std::move(cluster);
})
PACOR_DELTA_BUILDER(removeCluster(std::int32_t index), {
  op.kind = DeltaOp::Kind::kRemoveCluster; op.id = index;
})
PACOR_DELTA_BUILDER(setDelta(std::int64_t value), {
  op.kind = DeltaOp::Kind::kSetDelta; op.value = value;
})
PACOR_DELTA_BUILDER(setName(std::string name), {
  op.kind = DeltaOp::Kind::kSetName; op.text = std::move(name);
})

#undef PACOR_DELTA_BUILDER

bool chipsEqual(const Chip& a, const Chip& b) {
  if (a.name != b.name || a.delta != b.delta) return false;
  if (a.routingGrid.width() != b.routingGrid.width() ||
      a.routingGrid.height() != b.routingGrid.height())
    return false;
  if (a.rules.minChannelWidthUm != b.rules.minChannelWidthUm ||
      a.rules.minChannelSpacingUm != b.rules.minChannelSpacingUm)
    return false;
  if (a.valves.size() != b.valves.size() || a.pins.size() != b.pins.size() ||
      a.obstacles.size() != b.obstacles.size() ||
      a.givenClusters.size() != b.givenClusters.size())
    return false;
  for (std::size_t i = 0; i < a.valves.size(); ++i) {
    const Valve& va = a.valves[i];
    const Valve& vb = b.valves[i];
    if (va.id != vb.id || va.pos != vb.pos || va.sequence != vb.sequence)
      return false;
  }
  for (std::size_t i = 0; i < a.pins.size(); ++i)
    if (a.pins[i].id != b.pins[i].id || a.pins[i].pos != b.pins[i].pos) return false;
  if (a.obstacles != b.obstacles) return false;
  for (std::size_t i = 0; i < a.givenClusters.size(); ++i)
    if (a.givenClusters[i].valves != b.givenClusters[i].valves ||
        a.givenClusters[i].lengthMatched != b.givenClusters[i].lengthMatched)
      return false;
  return true;
}

ChipDelta diff(const Chip& a, const Chip& b) {
  ChipDelta delta;
  if (a.name != b.name) delta.setName(b.name);
  if (a.routingGrid.width() != b.routingGrid.width() ||
      a.routingGrid.height() != b.routingGrid.height()) {
    DeltaOp op;
    op.kind = DeltaOp::Kind::kSetGrid;
    op.pos = {b.routingGrid.width(), b.routingGrid.height()};
    delta.ops.push_back(std::move(op));
  }
  if (a.rules.minChannelWidthUm != b.rules.minChannelWidthUm ||
      a.rules.minChannelSpacingUm != b.rules.minChannelSpacingUm) {
    DeltaOp op;
    op.kind = DeltaOp::Kind::kSetRules;
    op.pos = {b.rules.minChannelWidthUm, b.rules.minChannelSpacingUm};
    delta.ops.push_back(std::move(op));
  }
  if (a.delta != b.delta) delta.setDelta(b.delta);

  // Valves: per-index edits, then trailing removals (descending, so the
  // kept prefix never renumbers), then appends.
  const std::size_t commonValves = std::min(a.valves.size(), b.valves.size());
  for (std::size_t i = 0; i < commonValves; ++i) {
    if (a.valves[i].pos != b.valves[i].pos)
      delta.moveValve(static_cast<ValveId>(i), b.valves[i].pos);
    if (a.valves[i].sequence != b.valves[i].sequence)
      delta.setValveSequence(static_cast<ValveId>(i), b.valves[i].sequence.str());
  }
  for (std::size_t i = a.valves.size(); i > b.valves.size(); --i)
    delta.removeValve(static_cast<ValveId>(i - 1));
  for (std::size_t i = a.valves.size(); i < b.valves.size(); ++i)
    delta.addValve(b.valves[i].pos, b.valves[i].sequence.str());

  // Pins: same pattern.
  const std::size_t commonPins = std::min(a.pins.size(), b.pins.size());
  for (std::size_t i = 0; i < commonPins; ++i)
    if (a.pins[i].pos != b.pins[i].pos)
      delta.movePin(static_cast<PinId>(i), b.pins[i].pos);
  for (std::size_t i = a.pins.size(); i > b.pins.size(); --i)
    delta.removePin(static_cast<PinId>(i - 1));
  for (std::size_t i = a.pins.size(); i < b.pins.size(); ++i)
    delta.addPin(b.pins[i].pos);

  // Obstacles: multiset diff (remove A-only, append B-only). When B also
  // reorders the survivors the multiset form cannot reproduce the exact
  // vector, so fall back to a full rewrite.
  {
    std::vector<Point> removals;   // in A order
    std::vector<Point> additions;  // in B order
    std::vector<char> matchedB(b.obstacles.size(), 0);
    std::vector<char> matchedA(a.obstacles.size(), 0);
    for (std::size_t i = 0; i < a.obstacles.size(); ++i)
      for (std::size_t j = 0; j < b.obstacles.size(); ++j)
        if (!matchedB[j] && b.obstacles[j] == a.obstacles[i]) {
          matchedB[j] = 1;
          matchedA[i] = 1;
          break;
        }
    std::vector<Point> survivors;
    for (std::size_t i = 0; i < a.obstacles.size(); ++i)
      (matchedA[i] ? survivors : removals).push_back(a.obstacles[i]);
    for (std::size_t j = 0; j < b.obstacles.size(); ++j)
      if (!matchedB[j]) additions.push_back(b.obstacles[j]);
    std::vector<Point> expected = survivors;
    expected.insert(expected.end(), additions.begin(), additions.end());
    if (expected == b.obstacles) {
      for (const Point p : removals) delta.removeObstacle(p);
      for (const Point p : additions) delta.addObstacle(p);
    } else {
      for (std::size_t i = a.obstacles.size(); i > 0; --i)
        delta.removeObstacle(a.obstacles[i - 1]);
      for (const Point p : b.obstacles) delta.addObstacle(p);
    }
  }

  // Clusters: per-index rewrites against B's final valve ids (the valve
  // ops above already settled the numbering), trailing removals, appends.
  const std::size_t commonClusters =
      std::min(a.givenClusters.size(), b.givenClusters.size());
  Chip probe = apply(a, delta);  // state after valve/pin/obstacle ops
  for (std::size_t i = 0; i < commonClusters; ++i)
    if (probe.givenClusters[i].valves != b.givenClusters[i].valves ||
        probe.givenClusters[i].lengthMatched != b.givenClusters[i].lengthMatched)
      delta.setCluster(static_cast<std::int32_t>(i), b.givenClusters[i]);
  for (std::size_t i = probe.givenClusters.size(); i > b.givenClusters.size(); --i)
    delta.removeCluster(static_cast<std::int32_t>(i - 1));
  for (std::size_t i = probe.givenClusters.size(); i < b.givenClusters.size(); ++i)
    delta.addCluster(b.givenClusters[i]);

  if (!chipsEqual(apply(a, delta), b))
    throw std::logic_error("chip::diff: edit script does not reproduce B");
  return delta;
}

Chip apply(const Chip& base, const ChipDelta& delta) {
  Chip chip = base;
  for (const DeltaOp& op : delta.ops) applyOp(chip, op, nullptr);
  return chip;
}

AppliedDelta applyWithMap(const Chip& base, const ChipDelta& delta) {
  AppliedDelta out;
  out.chip = base;
  out.valveMap.resize(base.valves.size());
  for (std::size_t i = 0; i < out.valveMap.size(); ++i)
    out.valveMap[i] = static_cast<ValveId>(i);
  for (const DeltaOp& op : delta.ops) applyOp(out.chip, op, &out.valveMap);
  return out;
}

namespace {

const char* opName(DeltaOp::Kind kind) {
  switch (kind) {
    case DeltaOp::Kind::kSetName: return "set-name";
    case DeltaOp::Kind::kSetGrid: return "set-grid";
    case DeltaOp::Kind::kSetRules: return "set-rules";
    case DeltaOp::Kind::kSetDelta: return "set-delta";
    case DeltaOp::Kind::kMoveValve: return "move-valve";
    case DeltaOp::Kind::kSetValveSequence: return "set-valve-seq";
    case DeltaOp::Kind::kAddValve: return "add-valve";
    case DeltaOp::Kind::kRemoveValve: return "remove-valve";
    case DeltaOp::Kind::kMovePin: return "move-pin";
    case DeltaOp::Kind::kAddPin: return "add-pin";
    case DeltaOp::Kind::kRemovePin: return "remove-pin";
    case DeltaOp::Kind::kAddObstacle: return "add-obstacle";
    case DeltaOp::Kind::kRemoveObstacle: return "remove-obstacle";
    case DeltaOp::Kind::kSetCluster: return "set-cluster";
    case DeltaOp::Kind::kAddCluster: return "add-cluster";
    case DeltaOp::Kind::kRemoveCluster: return "remove-cluster";
  }
  return "?";
}

}  // namespace

void writeDelta(std::ostream& os, const ChipDelta& delta) {
  os << "pacor-delta 1\n";
  os << "ops " << delta.ops.size() << '\n';
  for (const DeltaOp& op : delta.ops) {
    os << opName(op.kind);
    switch (op.kind) {
      case DeltaOp::Kind::kSetName:
        os << ' ' << op.text;
        break;
      case DeltaOp::Kind::kSetGrid:
      case DeltaOp::Kind::kSetRules:
      case DeltaOp::Kind::kAddPin:
      case DeltaOp::Kind::kAddObstacle:
      case DeltaOp::Kind::kRemoveObstacle:
        os << ' ' << op.pos.x << ' ' << op.pos.y;
        break;
      case DeltaOp::Kind::kSetDelta:
        os << ' ' << op.value;
        break;
      case DeltaOp::Kind::kMoveValve:
      case DeltaOp::Kind::kMovePin:
        os << ' ' << op.id << ' ' << op.pos.x << ' ' << op.pos.y;
        break;
      case DeltaOp::Kind::kSetValveSequence:
        os << ' ' << op.id << ' ' << op.text;
        break;
      case DeltaOp::Kind::kAddValve:
        os << ' ' << op.pos.x << ' ' << op.pos.y << ' ' << op.text;
        break;
      case DeltaOp::Kind::kRemoveValve:
      case DeltaOp::Kind::kRemovePin:
      case DeltaOp::Kind::kRemoveCluster:
        os << ' ' << op.id;
        break;
      case DeltaOp::Kind::kSetCluster:
      case DeltaOp::Kind::kAddCluster: {
        if (op.kind == DeltaOp::Kind::kSetCluster) os << ' ' << op.id;
        os << ' ' << (op.cluster.lengthMatched ? 1 : 0) << ' '
           << op.cluster.valves.size();
        for (const ValveId v : op.cluster.valves) os << ' ' << v;
        break;
      }
    }
    os << '\n';
  }
  if (!os) fail("write failure");
}

ChipDelta readDelta(std::istream& is) {
  util::RecordReader r(is, "chip delta io");
  {
    auto ls = r.line("header");
    std::string magic;
    int version = 0;
    ls >> magic >> version;
    if (magic != "pacor-delta" || version != 1)
      fail("bad header (want 'pacor-delta 1')");
  }
  ChipDelta delta;
  for (std::size_t i = 0, count = r.count("ops"); i < count; ++i) {
    auto ls = r.line("op");
    std::string name;
    ls >> name;
    DeltaOp op;
    const auto readId = [&] { if (!(ls >> op.id)) fail("malformed id in " + name); };
    const auto readPos = [&] {
      if (!(ls >> op.pos.x >> op.pos.y)) fail("malformed position in " + name);
    };
    const auto readText = [&] {
      if (!(ls >> op.text)) fail("malformed text payload in " + name);
    };
    const auto readCluster = [&] {
      int lm = 0;
      if (!(ls >> lm)) fail("malformed cluster payload in " + name);
      op.cluster.lengthMatched = lm != 0;
      r.values(ls, r.count(ls, "cluster members"), op.cluster.valves,
               "cluster members in " + name);
    };
    if (name == "set-name") { op.kind = DeltaOp::Kind::kSetName; readText(); }
    else if (name == "set-grid") { op.kind = DeltaOp::Kind::kSetGrid; readPos(); }
    else if (name == "set-rules") { op.kind = DeltaOp::Kind::kSetRules; readPos(); }
    else if (name == "set-delta") {
      op.kind = DeltaOp::Kind::kSetDelta;
      if (!(ls >> op.value)) fail("malformed value in set-delta");
    } else if (name == "move-valve") {
      op.kind = DeltaOp::Kind::kMoveValve; readId(); readPos();
    } else if (name == "set-valve-seq") {
      op.kind = DeltaOp::Kind::kSetValveSequence; readId(); readText();
    } else if (name == "add-valve") {
      op.kind = DeltaOp::Kind::kAddValve; readPos(); readText();
    } else if (name == "remove-valve") { op.kind = DeltaOp::Kind::kRemoveValve; readId(); }
    else if (name == "move-pin") { op.kind = DeltaOp::Kind::kMovePin; readId(); readPos(); }
    else if (name == "add-pin") { op.kind = DeltaOp::Kind::kAddPin; readPos(); }
    else if (name == "remove-pin") { op.kind = DeltaOp::Kind::kRemovePin; readId(); }
    else if (name == "add-obstacle") { op.kind = DeltaOp::Kind::kAddObstacle; readPos(); }
    else if (name == "remove-obstacle") {
      op.kind = DeltaOp::Kind::kRemoveObstacle; readPos();
    } else if (name == "set-cluster") {
      op.kind = DeltaOp::Kind::kSetCluster; readId(); readCluster();
    } else if (name == "add-cluster") {
      op.kind = DeltaOp::Kind::kAddCluster; readCluster();
    } else if (name == "remove-cluster") {
      op.kind = DeltaOp::Kind::kRemoveCluster; readId();
    } else {
      fail("unknown op '" + name + "'");
    }
    // Sequence payloads must parse; surface the '01X' contract here, not
    // at apply time.
    if (op.kind == DeltaOp::Kind::kSetValveSequence ||
        op.kind == DeltaOp::Kind::kAddValve) {
      try {
        ActivationSequence check(op.text);
      } catch (const std::invalid_argument& e) {
        fail(std::string("bad activation sequence: ") + e.what());
      }
    }
    delta.ops.push_back(std::move(op));
  }
  return delta;
}

void writeDeltaFile(const std::string& path, const ChipDelta& delta) {
  std::ofstream os(path);
  if (!os) fail("cannot open for writing: " + path);
  writeDelta(os, delta);
}

ChipDelta readDeltaFile(const std::string& path) {
  std::ifstream is(path);
  if (!is) fail("cannot open for reading: " + path);
  return readDelta(is);
}

std::string deltaToString(const ChipDelta& delta) {
  std::ostringstream os;
  writeDelta(os, delta);
  return os.str();
}

ChipDelta deltaFromString(const std::string& text) {
  std::istringstream is(text);
  return readDelta(is);
}

}  // namespace pacor::chip
