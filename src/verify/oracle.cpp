#include "verify/oracle.hpp"

#include <algorithm>
#include <cstdlib>
#include <deque>
#include <set>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

namespace pacor::verify {
namespace {

using geom::Point;

std::string cellStr(Point p) {
  std::string s = "(";
  s += std::to_string(p.x);
  s += ", ";
  s += std::to_string(p.y);
  s += ')';
  return s;
}

/// One maximal straight run of channel cells. Normalized so a <= b on the
/// varying axis; a single cell is a degenerate horizontal run.
struct Run {
  std::size_t cluster;
  Point a;
  Point b;
  bool horizontal;
};

/// Collects every violation; the oracle never throws on solution content.
class Oracle {
 public:
  Oracle(const chip::Chip& chip, const core::PacorResult& result)
      : chip_(chip), result_(result) {
    blocked_.reserve(chip.obstacles.size());
    for (const Point p : chip.obstacles) blocked_.insert(p);
    valveAt_.reserve(chip.valves.size());
    for (const chip::Valve& v : chip.valves) valveAt_.emplace(v.pos, v.id);
  }

  OracleReport run() {
    for (std::size_t ci = 0; ci < result_.clusters.size(); ++ci) checkCluster(ci);
    sweepCrossings();
    return std::move(report_);
  }

 private:
  void add(Fault fault, std::size_t cluster, std::string detail) {
    report_.violations.push_back({fault, cluster, std::move(detail)});
  }

  bool onDie(Point p) const {
    return p.x >= 0 && p.y >= 0 && p.x < chip_.routingGrid.width() &&
           p.y < chip_.routingGrid.height();
  }

  bool onDieEdge(Point p) const {
    return onDie(p) && (p.x == 0 || p.y == 0 || p.x == chip_.routingGrid.width() - 1 ||
                        p.y == chip_.routingGrid.height() - 1);
  }

  /// Per-step activation conflict straight from the raw "01X" strings.
  static bool sequencesConflict(const std::string& a, const std::string& b) {
    if (a.size() != b.size()) return true;
    for (std::size_t i = 0; i < a.size(); ++i)
      if (a[i] != 'X' && b[i] != 'X' && a[i] != b[i]) return true;
    return false;
  }

  /// Validates one channel: cells on the die, off blockages, consecutive
  /// cells 4-adjacent, no cell repeated within the channel. Appends the
  /// channel's maximal straight runs for the crossing sweep and its edges
  /// to the cluster connectivity graph.
  void checkChannel(std::size_t ci, const std::vector<Point>& path,
                    std::unordered_map<Point, std::vector<Point>>& adjacency) {
    for (const Point p : path) {
      if (!onDie(p))
        add(Fault::kOffGrid, ci, "channel cell " + cellStr(p) + " outside the die");
      else if (blocked_.contains(p))
        add(Fault::kBlockedCell, ci, "channel cell " + cellStr(p) + " on a blockage");
    }
    std::unordered_set<Point> seen;
    for (const Point p : path)
      if (!seen.insert(p).second) {
        add(Fault::kBadChannel, ci, "channel revisits cell " + cellStr(p));
        break;
      }
    for (std::size_t i = 1; i < path.size(); ++i) {
      const std::int64_t step = std::abs(static_cast<std::int64_t>(path[i].x) - path[i - 1].x) +
                                std::abs(static_cast<std::int64_t>(path[i].y) - path[i - 1].y);
      if (step != 1) {
        add(Fault::kBadChannel, ci,
            "cells " + cellStr(path[i - 1]) + " and " + cellStr(path[i]) +
                " are not 4-adjacent");
      } else {
        adjacency[path[i - 1]].push_back(path[i]);
        adjacency[path[i]].push_back(path[i - 1]);
      }
    }
    if (path.size() == 1) adjacency.try_emplace(path[0]);

    // Maximal straight runs for the segment sweep.
    std::size_t start = 0;
    const auto flush = [&](std::size_t end) {  // run over path[start..end]
      Point a = path[start], b = path[end];
      const bool horizontal = a.y == b.y;
      if (b < a) std::swap(a, b);
      runs_.push_back({ci, a, b, horizontal});
      start = end;
    };
    for (std::size_t i = 2; i < path.size(); ++i) {
      const bool sameLine = (path[i].x == path[start].x && path[i - 1].x == path[start].x) ||
                            (path[i].y == path[start].y && path[i - 1].y == path[start].y);
      if (!sameLine) flush(i - 1);
    }
    if (!path.empty()) flush(path.size() - 1);
  }

  void checkCluster(std::size_t ci) {
    const core::RoutedCluster& c = result_.clusters[ci];

    // Reference legality first: everything later indexes through these.
    bool refsOk = true;
    for (const chip::ValveId v : c.valves) {
      if (v < 0 || static_cast<std::size_t>(v) >= chip_.valves.size()) {
        add(Fault::kBadReference, ci, "unknown valve id " + std::to_string(v));
        refsOk = false;
      } else if (!claimedValves_.insert(v).second) {
        add(Fault::kBadReference, ci,
            "valve " + std::to_string(v) + " already claimed by another cluster");
      }
    }

    std::unordered_map<Point, std::vector<Point>> adjacency;
    for (const auto& path : c.treePaths) checkChannel(ci, path, adjacency);
    checkChannel(ci, c.escapePath, adjacency);

    // Terminal exclusivity: a channel cell sitting on the valve of ANOTHER
    // cluster shorts that valve onto this control line. The router keeps
    // valve cells owned by their cluster from clustering time on, so this
    // only fires on corrupted occupancy bookkeeping (e.g. a reroute that
    // swallowed a foreign endpoint owner). Skipped when the cluster's own
    // valve references are malformed: the own-valve set is meaningless then
    // and every touched valve cell would misreport as foreign.
    if (refsOk) {
      const std::unordered_set<chip::ValveId> own(c.valves.begin(), c.valves.end());
      std::unordered_set<Point> flagged;
      const auto checkForeign = [&](const std::vector<Point>& path) {
        for (const Point p : path) {
          const auto it = valveAt_.find(p);
          if (it == valveAt_.end() || own.contains(it->second)) continue;
          if (!flagged.insert(p).second) continue;
          add(Fault::kForeignValve, ci,
              "channel cell " + cellStr(p) + " sits on foreign valve " +
                  std::to_string(it->second));
        }
      };
      for (const auto& path : c.treePaths) checkForeign(path);
      checkForeign(c.escapePath);
    }

    if (c.pin < 0 || static_cast<std::size_t>(c.pin) >= chip_.pins.size()) {
      add(Fault::kPinMissing, ci, "no valid control pin (id " + std::to_string(c.pin) + ")");
      return;
    }
    const Point pinCell = chip_.pins[static_cast<std::size_t>(c.pin)].pos;
    if (!onDieEdge(pinCell))
      add(Fault::kPinMissing, ci, "pin cell " + cellStr(pinCell) + " not on the die edge");
    const auto [owner, fresh] = pinOwner_.emplace(c.pin, ci);
    if (!fresh)
      add(Fault::kPinShared, ci,
          "pin " + std::to_string(c.pin) + " also drives cluster " +
              std::to_string(owner->second));

    if (!refsOk) return;

    // Constraint (ii): all valves on one pin pairwise non-conflicting.
    for (std::size_t i = 0; i < c.valves.size(); ++i)
      for (std::size_t j = i + 1; j < c.valves.size(); ++j) {
        const auto& a = chip_.valves[static_cast<std::size_t>(c.valves[i])].sequence.str();
        const auto& b = chip_.valves[static_cast<std::size_t>(c.valves[j])].sequence.str();
        if (sequencesConflict(a, b))
          add(Fault::kIncompatible, ci,
              "valves " + std::to_string(c.valves[i]) + " and " +
                  std::to_string(c.valves[j]) + " conflict");
      }

    // Connectivity + recomputed channel lengths: BFS from the pin cell
    // over the channel graph built in checkChannel.
    std::unordered_map<Point, std::int64_t> dist;
    if (adjacency.contains(pinCell)) {
      std::deque<Point> frontier{pinCell};
      dist.emplace(pinCell, 0);
      while (!frontier.empty()) {
        const Point p = frontier.front();
        frontier.pop_front();
        for (const Point q : adjacency.at(p))
          if (dist.emplace(q, dist.at(p) + 1).second) frontier.push_back(q);
      }
    }

    std::vector<std::int64_t> lengths;
    bool allReached = true;
    for (const chip::ValveId v : c.valves) {
      const Point vp = chip_.valves[static_cast<std::size_t>(v)].pos;
      const auto it = dist.find(vp);
      if (it == dist.end()) {
        add(Fault::kDisconnected, ci,
            "valve " + std::to_string(v) + " at " + cellStr(vp) +
                " has no channel to pin " + std::to_string(c.pin));
        allReached = false;
      } else {
        lengths.push_back(it->second);
      }
    }
    if (!allReached) return;

    if (!c.valveLengths.empty()) {
      if (c.valveLengths.size() != lengths.size()) {
        add(Fault::kLengthReport, ci, "reported length list has wrong arity");
      } else {
        for (std::size_t i = 0; i < lengths.size(); ++i)
          if (c.valveLengths[i] != lengths[i])
            add(Fault::kLengthReport, ci,
                "valve " + std::to_string(c.valves[i]) + " reported " +
                    std::to_string(c.valveLengths[i]) + ", geometry says " +
                    std::to_string(lengths[i]));
      }
    }

    // Constraint (iii): |l(vi) - l(vj)| <= delta for claimed matches.
    if (c.lengthMatchRequested && c.lengthMatched && !lengths.empty()) {
      const auto [lo, hi] = std::minmax_element(lengths.begin(), lengths.end());
      if (*hi - *lo > chip_.delta)
        add(Fault::kMatchBroken, ci,
            "recomputed spread " + std::to_string(*hi - *lo) + " exceeds delta " +
                std::to_string(chip_.delta));
    }
  }

  /// Single-layer non-crossing: no cell may carry channels of two pins.
  /// Plane sweep over the maximal straight runs -- three passes that
  /// together cover every way two axis-aligned runs can share a cell:
  /// collinear horizontal overlap (per row), collinear vertical overlap
  /// (per column), and perpendicular intersection (sweep across x with an
  /// active set of horizontal runs). Same-cluster contact is legal (tree
  /// trunks are shared), so only inter-cluster incidents are reported.
  void sweepCrossings() {
    collinearPass(/*horizontal=*/true);
    collinearPass(/*horizontal=*/false);
    perpendicularSweep();
  }

  void addCrossing(const Run& r, const Run& s, Point at) {
    // Report once per ordered cluster pair to keep reports readable.
    const auto key = std::minmax(r.cluster, s.cluster);
    if (!crossingPairs_.insert(key).second) return;
    add(Fault::kCrossing, key.first,
        "channel cell " + cellStr(at) + " shared with cluster " +
            std::to_string(key.second));
  }

  void collinearPass(bool horizontal) {
    // Bucket runs by their fixed axis, then sweep each line with an
    // active-interval scan: a start event while a run of another cluster
    // is still open is a shared cell.
    std::unordered_map<std::int32_t, std::vector<const Run*>> lines;
    for (const Run& r : runs_)
      if (r.horizontal == horizontal) lines[horizontal ? r.a.y : r.a.x].push_back(&r);
    for (auto& [line, rs] : lines) {
      std::sort(rs.begin(), rs.end(), [&](const Run* p, const Run* q) {
        const std::int32_t ps = horizontal ? p->a.x : p->a.y;
        const std::int32_t qs = horizontal ? q->a.x : q->a.y;
        return ps < qs;
      });
      // Open runs, tracked as (end coordinate, run). Intervals are
      // inclusive: [a, b] and [b, c] share cell b.
      std::vector<const Run*> open;
      for (const Run* r : rs) {
        const std::int32_t start = horizontal ? r->a.x : r->a.y;
        std::erase_if(open, [&](const Run* o) {
          return (horizontal ? o->b.x : o->b.y) < start;
        });
        for (const Run* o : open)
          if (o->cluster != r->cluster)
            addCrossing(*o, *r, horizontal ? Point{start, line} : Point{line, start});
        open.push_back(r);
      }
    }
  }

  void perpendicularSweep() {
    // Sweep x left to right: horizontal runs enter at a.x and leave after
    // b.x; every vertical run at the sweep position is tested against the
    // active horizontals' y values.
    struct Event {
      std::int32_t x;
      int kind;  // 0 = open horizontal, 1 = vertical probe, 2 = close horizontal
      const Run* run;
    };
    std::vector<Event> events;
    for (const Run& r : runs_) {
      if (r.horizontal) {
        events.push_back({r.a.x, 0, &r});
        events.push_back({r.b.x, 2, &r});
      } else {
        events.push_back({r.a.x, 1, &r});
      }
    }
    std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
      return a.x != b.x ? a.x < b.x : a.kind < b.kind;
    });
    std::vector<const Run*> active;
    for (const Event& e : events) {
      if (e.kind == 0) {
        active.push_back(e.run);
      } else if (e.kind == 2) {
        std::erase(active, e.run);
      } else {
        for (const Run* h : active)
          if (h->cluster != e.run->cluster && h->a.y >= e.run->a.y &&
              h->a.y <= e.run->b.y)
            addCrossing(*h, *e.run, {e.run->a.x, h->a.y});
      }
    }
  }

  const chip::Chip& chip_;
  const core::PacorResult& result_;
  std::unordered_set<Point> blocked_;
  std::unordered_map<Point, chip::ValveId> valveAt_;
  std::unordered_set<chip::ValveId> claimedValves_;
  std::unordered_map<chip::PinId, std::size_t> pinOwner_;
  std::vector<Run> runs_;
  std::set<std::pair<std::size_t, std::size_t>> crossingPairs_;
  OracleReport report_;
};

}  // namespace

std::string faultName(Fault fault) {
  switch (fault) {
    case Fault::kBadReference: return "bad-reference";
    case Fault::kBadChannel: return "bad-channel";
    case Fault::kOffGrid: return "off-grid";
    case Fault::kBlockedCell: return "blocked-cell";
    case Fault::kCrossing: return "crossing";
    case Fault::kPinMissing: return "pin-missing";
    case Fault::kPinShared: return "pin-shared";
    case Fault::kIncompatible: return "incompatible";
    case Fault::kDisconnected: return "disconnected";
    case Fault::kLengthReport: return "length-report";
    case Fault::kMatchBroken: return "match-broken";
    case Fault::kForeignValve: return "foreign-valve";
  }
  return "unknown";
}

bool OracleReport::has(Fault fault) const noexcept {
  return count(fault) > 0;
}

std::size_t OracleReport::count(Fault fault) const noexcept {
  std::size_t n = 0;
  for (const Violation& v : violations) n += v.fault == fault ? 1 : 0;
  return n;
}

std::string OracleReport::str() const {
  std::ostringstream os;
  if (clean()) {
    os << "oracle: solution verified\n";
    return os.str();
  }
  os << "oracle: " << violations.size() << " violation(s):\n";
  for (const Violation& v : violations)
    os << "  [" << faultName(v.fault) << "] cluster " << v.cluster << ": " << v.detail
       << '\n';
  return os.str();
}

OracleReport verifySolution(const chip::Chip& chip, const core::PacorResult& result) {
  return Oracle(chip, result).run();
}

}  // namespace pacor::verify
