// pacor_fuzz -- randomized differential fuzz harness for the PACOR flow.
//
// Drives chip::generateChip(chip::randomParams(seed)) through seeded
// random designs (die size, valve/cluster mix, obstacle density, delta
// all vary), runs the full pipeline under a rotating flow variant, and
// asserts these properties per design:
//
//   (a) the independent oracle (src/verify) accepts every produced
//       solution of a run that claims completion,
//   (b) a design whose first escape pass routes every cluster ends
//       complete: stages 1-3 (and the detour-first pass when the variant
//       runs it) are replayed with (d)'s helper and followed by one
//       escapeRoute() pass, which must equal routeChip's own first pass
//       (routed count and flow cost); when it fails no cluster, the
//       routeChip result must be complete. Checked on every design and
//       on (h)'s FPVA arrays,
//   (c) the oracle and the router-side DRC agree on clean/dirty -- a
//       disagreement is a bug in one of the two checkers,
//   (d) the escape-flow session equals the from-scratch escapeRoute()
//       reference: stages 1-3 run once, then three escape rounds run on
//       two copies of the result, one through an EscapeFlowSession and
//       one through escapeRoute(). The second round follows the same
//       rip-up on both copies (every escape path and pin, plus one
//       multi-valve cluster's tree); the third keeps every other escape
//       (its pin stays taken) and widens one matched cluster's taps to
//       its whole tree with the root-distance bias. Every round must
//       agree on the requested/routed counts, the flow cost, the solver
//       counters (settles, passes, augmentations, queue pushes and pops),
//       and each cluster's pin and escape path,
//   (e) the long-lived serve loop is invisible too: submitting the design
//       with the seed's variant= to one shared serve::Server (reused
//       workspaces and obstacle templates across all previous seeds'
//       requests) is byte-identical to the independent one-shot run, and
//       submitting it again is answered from the route memo with the same
//       bytes,
//   (g) ECO differential: a seeded random edit script (1-8 edits -- valve
//       moves/adds/removes, obstacle adds/removes, cluster flips) is
//       applied one delta at a time, chaining each rerouteChip() result
//       into the next step. Every step must be oracle-clean on the edited
//       chip; identity-mode answers must equal the previous solution,
//       full-mode answers must equal a from-scratch routeChip of the
//       edited chip, and every cluster an incremental answer carries must
//       be byte-equal to a cluster of the previous step's solution under
//       the delta's valve renumbering,
//   (h) FPVA valve arrays (every eighth seed) are oracle-clean when they
//       claim completion, and are held to (b),
//   (i) serve protocol round trip: random valid request lines re-parse to
//       the same canonical text (format(parse(x)) == x), and arbitrary
//       byte soup never crashes parseRequestLine / parseResponseLine --
//       the exact property the socket front end relies on.
//
// Any failure dumps a repro (<dump>/fuzz_<seed>.chip + .sol; eco failures
// dump <dump>/eco_<seed>.chip + .delta + .sol) with the seed
// in the name; checker disagreements are first minimized by greedily
// deleting clusters, eco failures by greedily deleting delta ops, while
// the failure persists.
//
//   pacor_fuzz [--designs=N] [--seed=S] [--dump=DIR] [--verbose]
//              [--trace=FILE]
//
// --trace=FILE records the first design's runs on the main thread at
// search granularity and writes one Chrome trace_event file, exercising
// the tracing subsystem under the same build (e.g. ASan in CI). The serve
// property's requests run on dispatcher threads, whose sessions are their
// own, so they are not in the file.
//
// Exit code 0 when every design passed, 1 otherwise, 2 on usage errors.

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "chip/delta.hpp"
#include "chip/generator.hpp"
#include "chip/io.hpp"
#include "pacor/cluster_routing.hpp"
#include "pacor/clustering.hpp"
#include "pacor/detour.hpp"
#include "pacor/drc.hpp"
#include "pacor/eco.hpp"
#include "pacor/escape.hpp"
#include "pacor/mst_routing.hpp"
#include "pacor/pipeline.hpp"
#include "pacor/solution_io.hpp"
#include "serve/serve.hpp"
#include "trace/trace.hpp"
#include "verify/oracle.hpp"

namespace {

using namespace pacor;

struct Options {
  std::uint32_t designs = 200;
  std::uint32_t seed = 1;
  std::string dumpDir = "fuzz-repros";
  std::string tracePath;
  bool verbose = false;
};

int usage() {
  std::cerr << "usage: pacor_fuzz [--designs=N] [--seed=S] "
               "[--dump=DIR] [--trace=FILE] [--verbose]\n";
  return 2;
}

bool parseOptions(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto intValue = [&](const std::string& prefix, auto& out) {
      out = static_cast<std::remove_reference_t<decltype(out)>>(
          std::stoll(arg.substr(prefix.size())));
      return true;
    };
    try {
      if (arg.rfind("--designs=", 0) == 0) intValue("--designs=", opt.designs);
      else if (arg.rfind("--seed=", 0) == 0) intValue("--seed=", opt.seed);
      else if (arg.rfind("--dump=", 0) == 0) opt.dumpDir = arg.substr(7);
      else if (arg.rfind("--trace=", 0) == 0) opt.tracePath = arg.substr(8);
      else if (arg == "--verbose") opt.verbose = true;
      else return false;
    } catch (const std::exception&) {
      return false;
    }
  }
  return true;
}

/// The per-design pass/fail record the summary aggregates.
struct Tally {
  std::uint32_t designs = 0;
  std::uint32_t complete = 0;
  std::uint32_t failures = 0;
  std::uint64_t clusters = 0;
  // Property (b): routes whose first escape pass failed no cluster.
  std::uint32_t firstPassWhole = 0;
  // Property (d): warm escape-session rounds checked against escapeRoute().
  std::uint32_t warmEscapeRounds = 0;
  // Property (g) eco-step mode counts -- the summary proves the sweep
  // exercised all three rerouteChip answers, not just identity.
  std::uint32_t ecoIdentity = 0;
  std::uint32_t ecoIncremental = 0;
  std::uint32_t ecoFull = 0;
  // Property (h): randomized FPVA valve arrays routed differentially.
  std::uint32_t fpva = 0;
  // Property (e): repeat requests answered from the route memo.
  std::uint32_t memoHits = 0;
  // Property (i): serve protocol lines round-tripped / junk lines survived.
  std::uint64_t protocolLines = 0;
};

/// Property (i) generator: a random valid Request. Tokens avoid
/// whitespace (the grammar's separator) and the verb keywords, which a
/// design name cannot be.
serve::Request randomRequest(std::mt19937& rng) {
  const auto token = [&rng](std::size_t minLen) {
    static const char kChars[] =
        "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
        "._:/-";
    std::string out;
    const std::size_t len = minLen + rng() % 12;
    for (std::size_t i = 0; i < len; ++i)
      out += kChars[rng() % (sizeof kChars - 1)];
    if (out == "eco" || out == "gen") out += "_";
    return out;
  };
  serve::Request req;
  const std::uint32_t verb = rng() % 8;
  req.verb = verb == 0   ? serve::Verb::kGen
             : verb == 1 ? serve::Verb::kEco
                         : serve::Verb::kRoute;
  req.design = token(1);
  if (req.verb == serve::Verb::kGen) return req;
  if (req.verb == serve::Verb::kEco) req.deltaPath = token(1);
  if (rng() % 2) req.solutionPath = token(1);
  if (rng() % 2) req.metricsPath = token(1);
  if (rng() % 3 == 0) {
    req.tracePath = token(1);
    static const trace::Level kLevels[] = {
        trace::Level::kStage, trace::Level::kCluster, trace::Level::kSearch};
    req.traceLevel = kLevels[rng() % 3];
  }
  static const serve::Variant kVariants[] = {
      serve::Variant::kPacor, serve::Variant::kWosel,
      serve::Variant::kDetourFirst};
  req.variant = kVariants[rng() % 3];
  if (rng() % 3 == 0)
    req.deadlineMs = 1 + static_cast<std::int64_t>(
                             rng() % static_cast<std::uint64_t>(
                                         serve::kMaxDeadlineMs));
  return req;
}

core::PacorConfig configForSeed(std::uint32_t seed) {
  switch (seed % 3) {
    case 1: return core::withoutSelectionConfig();
    case 2: return core::detourFirstConfig();
    default: return core::pacorDefaultConfig();
  }
}

/// The serve variant= naming configForSeed(seed). Property (e) submits it,
/// so a wrong mapping in serve::configFor shows up as a mismatch against
/// the independently configured one-shot run.
serve::Variant variantForSeed(std::uint32_t seed) {
  switch (seed % 3) {
    case 1: return serve::Variant::kWosel;
    case 2: return serve::Variant::kDetourFirst;
    default: return serve::Variant::kPacor;
  }
}

void dumpRepro(const Options& opt, std::uint32_t seed, const chip::Chip& chip,
               const core::PacorResult& result) {
  std::filesystem::create_directories(opt.dumpDir);
  const std::string stem = opt.dumpDir + "/fuzz_" + std::to_string(seed);
  chip::writeChipFile(stem + ".chip", chip);
  core::writeSolutionFile(stem + ".sol", result);
  std::cerr << "  repro dumped: " << stem << ".chip / .sol  (seed " << seed
            << "; re-check with `pacor verify " << stem << ".chip " << stem
            << ".sol`)\n";
}

bool checkersDisagree(const chip::Chip& chip, const core::PacorResult& result) {
  return verify::verifySolution(chip, result).clean() !=
         core::checkSolution(chip, result).clean();
}

/// Greedy 1-cluster deletion while the oracle/DRC disagreement persists;
/// returns the smallest disagreeing solution found.
core::PacorResult minimizeDisagreement(const chip::Chip& chip,
                                       core::PacorResult result) {
  bool shrunk = true;
  while (shrunk && result.clusters.size() > 1) {
    shrunk = false;
    for (std::size_t i = 0; i < result.clusters.size(); ++i) {
      core::PacorResult trial = result;
      trial.clusters.erase(trial.clusters.begin() + static_cast<std::ptrdiff_t>(i));
      if (checkersDisagree(chip, trial)) {
        result = std::move(trial);
        shrunk = true;
        break;
      }
    }
  }
  return result;
}

// --------------------------------------------------------------------------
// Property (d): escape-flow session vs the from-scratch escapeRoute().

/// Stages 1-3 of routeChip (clustering, LM cluster routing, MST routing)
/// on a fresh obstacle map, ready for the escape stage.
std::vector<core::WorkCluster> routeToEscape(const chip::Chip& chip,
                                             const core::PacorConfig& cfg,
                                             grid::ObstacleMap& obstacles) {
  grid::NetId nextNet = 0;
  std::vector<core::WorkCluster> clusters;
  for (core::ClusterSpec& spec : core::clusterValves(chip)) {
    core::WorkCluster wc;
    wc.spec = std::move(spec);
    wc.net = nextNet++;
    for (const chip::ValveId v : wc.spec.valves) {
      const geom::Point cell = chip.valve(v).pos;
      obstacles.occupy(std::span<const geom::Point>(&cell, 1), wc.net);
    }
    clusters.push_back(std::move(wc));
  }
  std::vector<core::WorkCluster*> lm;
  for (core::WorkCluster& wc : clusters)
    if (wc.wantsMatching() && wc.spec.valves.size() >= 2 && !wc.internallyRouted)
      lm.push_back(&wc);
  core::routeLengthMatchingClusters(chip, cfg, obstacles, lm);
  return core::routeClustersStage(chip, obstacles, std::move(clusters),
                                  [&nextNet] { return nextNet++; });
}

void releaseEscape(grid::ObstacleMap& obstacles, core::WorkCluster& wc) {
  if (wc.escapePath.size() > 1)
    obstacles.releasePath(std::span<const geom::Point>(wc.escapePath.data() + 1,
                                                       wc.escapePath.size() - 1),
                          wc.net);
  wc.escapePath.clear();
  wc.pin = -1;
}

/// The rip-up before the second replay round: every escape path and pin
/// is released, and so is the tree of cluster `victim` (when in range),
/// which leaves that cluster unrouted and out of the next round.
void ripUpForReplay(grid::ObstacleMap& obstacles, std::vector<core::WorkCluster>& clusters,
                    const chip::Chip& chip, std::size_t victim) {
  for (core::WorkCluster& wc : clusters) releaseEscape(obstacles, wc);
  if (victim >= clusters.size()) return;
  core::WorkCluster& wc = clusters[victim];
  obstacles.release(wc.net);
  for (const chip::ValveId v : wc.spec.valves) {
    const geom::Point cell = chip.valve(v).pos;
    obstacles.occupy(std::span<const geom::Point>(&cell, 1), wc.net);
  }
  wc.internallyRouted = false;
  wc.treePaths.clear();
  wc.tapCells.clear();
}

/// The edit before the third replay round: the first escaped matched
/// cluster gets the pipeline's wide-tap remedy (every tree cell a tap,
/// priced by its distance from the root) and loses its escape, and so
/// does every other escaped cluster; the rest keep their pins taken.
void widenOneAndRipUpHalf(grid::ObstacleMap& obstacles,
                          std::vector<core::WorkCluster>& clusters) {
  std::size_t widened = 0;
  while (widened < clusters.size() &&
         !(clusters[widened].lmStructured && clusters[widened].pin >= 0))
    ++widened;
  int escaped = 0;
  for (std::size_t i = 0; i < clusters.size(); ++i)
    if (clusters[i].pin >= 0 && (escaped++ % 2 == 1 || i == widened))
      releaseEscape(obstacles, clusters[i]);
  if (widened == clusters.size()) return;
  core::WorkCluster& wc = clusters[widened];
  wc.tapCells.clear();
  for (const route::Path& p : wc.treePaths)
    wc.tapCells.insert(wc.tapCells.end(), p.begin(), p.end());
  std::sort(wc.tapCells.begin(), wc.tapCells.end());
  wc.tapCells.erase(std::unique(wc.tapCells.begin(), wc.tapCells.end()), wc.tapCells.end());
  wc.wideTap = true;
}

std::vector<core::WorkCluster*> pointersTo(std::vector<core::WorkCluster>& clusters) {
  std::vector<core::WorkCluster*> ptrs;
  for (core::WorkCluster& wc : clusters) ptrs.push_back(&wc);
  return ptrs;
}

/// Property (d) verdict; empty == pass. `warmRounds` receives the number
/// of warm session rounds the replay checked.
std::string escapeReplayFailure(const chip::Chip& chip, const core::PacorConfig& cfg,
                                std::uint32_t seed, int& warmRounds) {
  grid::ObstacleMap sessionMap = core::makeRoutingObstacleTemplate(chip);
  std::vector<core::WorkCluster> sessionClusters = routeToEscape(chip, cfg, sessionMap);
  grid::ObstacleMap scratchMap = sessionMap;
  std::vector<core::WorkCluster> scratchClusters = sessionClusters;

  std::vector<std::size_t> multiValve;
  for (std::size_t i = 0; i < sessionClusters.size(); ++i)
    if (sessionClusters[i].spec.valves.size() >= 2 && sessionClusters[i].internallyRouted)
      multiValve.push_back(i);
  const std::size_t victim =
      multiValve.empty() ? sessionClusters.size() : multiValve[seed % multiValve.size()];

  core::EscapeFlowSession session(chip, sessionMap);
  for (int round = 1; round <= 3; ++round) {
    if (round == 2) {
      ripUpForReplay(sessionMap, sessionClusters, chip, victim);
      ripUpForReplay(scratchMap, scratchClusters, chip, victim);
    }
    if (round == 3) {
      widenOneAndRipUpHalf(sessionMap, sessionClusters);
      widenOneAndRipUpHalf(scratchMap, scratchClusters);
    }
    std::vector<core::WorkCluster*> sessionPtrs = pointersTo(sessionClusters);
    std::vector<core::WorkCluster*> scratchPtrs = pointersTo(scratchClusters);
    const core::EscapeOutcome warm = session.route(sessionPtrs);
    const core::EscapeOutcome cold = core::escapeRoute(chip, scratchMap, scratchPtrs);
    std::ostringstream why;
    why << "escape round " << round << ": ";
    if (warm.requested != cold.requested || warm.routedCount != cold.routedCount ||
        warm.flowCost != cold.flowCost || warm.failed != cold.failed) {
      why << "session requested/routed/cost " << warm.requested << "/"
          << warm.routedCount << "/" << warm.flowCost << " vs escapeRoute "
          << cold.requested << "/" << cold.routedCount << "/" << cold.flowCost;
      return why.str();
    }
    const graph::SspCore::Counters& w = warm.flowCounters;
    const graph::SspCore::Counters& c = cold.flowCounters;
    if (!(w == c)) {
      why << "session settles/passes/pushes/pops " << w.settles << "/" << w.dijkstraPasses
          << "/" << w.bucketPushes + w.heapPushes << "/" << w.queuePops
          << " vs escapeRoute " << c.settles << "/" << c.dijkstraPasses << "/"
          << c.bucketPushes + c.heapPushes << "/" << c.queuePops;
      return why.str();
    }
    for (std::size_t i = 0; i < sessionClusters.size(); ++i)
      if (sessionClusters[i].pin != scratchClusters[i].pin ||
          sessionClusters[i].escapePath != scratchClusters[i].escapePath) {
        why << "cluster " << i << " escapes to pin " << sessionClusters[i].pin
            << " via the session but to pin " << scratchClusters[i].pin
            << " via escapeRoute (or along a different path)";
        return why.str();
      }
    if (round > 1 && warm.requested > 0 && session.stats().warmRounds == 0)
      return "escape round " + std::to_string(round) + " was not a warm session round";
  }
  warmRounds = session.stats().warmRounds;
  return "";
}

/// Property (b) verdict for `result`, the routeChip(chip, cfg) answer;
/// empty == pass. `whole` receives whether the replayed first escape pass
/// failed no cluster.
std::string firstPassFailure(const chip::Chip& chip, const core::PacorConfig& cfg,
                             const core::PacorResult& result, bool& whole) {
  grid::ObstacleMap obstacles = core::makeRoutingObstacleTemplate(chip);
  std::vector<core::WorkCluster> clusters = routeToEscape(chip, cfg, obstacles);
  if (cfg.detourStage == core::DetourStage::kAfterClusterRouting)
    for (core::WorkCluster& wc : clusters)
      if (wc.lmStructured && wc.internallyRouted)
        core::detourClusterForMatching(chip, obstacles, wc, wc.tap, chip.delta,
                                       cfg.detourIterations, nullptr,
                                       cfg.useBoundedDetour);
  std::vector<core::WorkCluster*> ptrs = pointersTo(clusters);
  const core::EscapeOutcome pass = core::escapeRoute(chip, obstacles, ptrs);
  const std::int64_t firstRouted = result.metrics.getInt("escape.flow.first_routed", -1);
  const std::int64_t firstCost = result.metrics.getInt("escape.flow.first_cost", -1);
  if (pass.routedCount != firstRouted || pass.flowCost != firstCost)
    return "the replayed first escape pass (routed " + std::to_string(pass.routedCount) +
           ", cost " + std::to_string(pass.flowCost) + ") differs from routeChip's (routed " +
           std::to_string(firstRouted) + ", cost " + std::to_string(firstCost) + ")";
  whole = pass.failed.empty();
  if (whole && !result.complete)
    return "the first escape pass routes all " + std::to_string(clusters.size()) +
           " clusters, but the route ends incomplete after " +
           std::to_string(result.escapeRounds) + " escape rounds";
  return "";
}

// --------------------------------------------------------------------------
// Property (g): edit-sequence differential ECO fuzzing.

geom::Point randomFreeCell(const chip::Chip& chip, std::mt19937& rng) {
  std::unordered_set<geom::Point> used(chip.obstacles.begin(), chip.obstacles.end());
  for (const chip::Valve& v : chip.valves) used.insert(v.pos);
  for (const chip::ControlPin& p : chip.pins) used.insert(p.pos);
  std::vector<geom::Point> free;
  for (std::int32_t y = 0; y < chip.routingGrid.height(); ++y)
    for (std::int32_t x = 0; x < chip.routingGrid.width(); ++x)
      if (!used.count({x, y})) free.push_back({x, y});
  // A generated chip always leaves free routing cells.
  return free[rng() % free.size()];
}

std::vector<chip::ValveId> unclusteredValves(const chip::Chip& chip) {
  std::vector<bool> clustered(chip.valves.size(), false);
  for (const chip::ValveCluster& c : chip.givenClusters)
    for (const chip::ValveId v : c.valves)
      clustered[static_cast<std::size_t>(v)] = true;
  std::vector<chip::ValveId> loose;
  for (std::size_t i = 0; i < clustered.size(); ++i)
    if (!clustered[i]) loose.push_back(static_cast<chip::ValveId>(i));
  return loose;
}

/// A structurally-valid 1..2-op edit script against `base`. Ops are drawn
/// against the evolving intermediate chip (DeltaOp ids refer to the state
/// at the moment the op applies), so the script is valid by construction.
chip::ChipDelta randomDelta(const chip::Chip& base, std::mt19937& rng) {
  chip::ChipDelta delta;
  chip::Chip cur = base;
  const int ops = 1 + static_cast<int>(rng() % 2);
  for (int i = 0; i < ops; ++i) {
    for (int attempt = 0; attempt < 8; ++attempt) {
      chip::ChipDelta op;
      switch (rng() % 6) {
        case 0:  // block a free cell
          op.addObstacle(randomFreeCell(cur, rng));
          break;
        case 1:  // unblock an existing obstacle
          if (cur.obstacles.empty()) continue;
          op.removeObstacle(cur.obstacles[rng() % cur.obstacles.size()]);
          break;
        case 2:  // move a valve onto a free cell
          if (cur.valves.empty()) continue;
          op.moveValve(static_cast<chip::ValveId>(rng() % cur.valves.size()),
                       randomFreeCell(cur, rng));
          break;
        case 3:  // drop in a fresh unclustered valve
          op.addValve(randomFreeCell(cur, rng),
                      cur.valves.empty() ? "10" : cur.valves.front().sequence.str());
          break;
        case 4: {  // remove a valve no given cluster references
          const std::vector<chip::ValveId> loose = unclusteredValves(cur);
          if (loose.empty()) continue;
          op.removeValve(loose[rng() % loose.size()]);
          break;
        }
        default: {  // flip a cluster's length-matching constraint
          if (cur.givenClusters.empty()) continue;
          const auto idx = static_cast<std::int32_t>(rng() % cur.givenClusters.size());
          chip::ValveCluster c = cur.givenClusters[static_cast<std::size_t>(idx)];
          c.lengthMatched = !c.lengthMatched;
          op.setCluster(idx, c);
          break;
        }
      }
      cur = chip::apply(cur, op);
      delta.ops.push_back(op.ops.front());
      break;
    }
  }
  return delta;
}

/// Property (g) verdict for one edit step; empty == pass. Deltas that no
/// longer apply or yield an invalid chip (the minimizer shrinks into
/// those) vacuously pass. On pass, `editedOut`/`incOut` receive the edited
/// chip and the rerouteChip result so the caller can chain the next step.
std::string ecoStepFailure(const chip::Chip& cur, const core::PacorResult& prev,
                           const chip::ChipDelta& delta,
                           const core::PacorConfig& cfg,
                           chip::Chip* editedOut = nullptr,
                           core::PacorResult* incOut = nullptr,
                           core::EcoInfo* infoOut = nullptr) {
  chip::AppliedDelta applied;
  try {
    applied = chip::applyWithMap(cur, delta);
  } catch (const std::exception&) {
    return "";
  }
  if (applied.chip.validate()) return "";
  const chip::Chip& edited = applied.chip;
  if (editedOut) *editedOut = edited;

  core::EcoInfo info;
  core::PacorResult inc;
  try {
    inc = core::rerouteChip(cur, prev, delta, cfg, {}, &info);
  } catch (const std::exception& e) {
    return std::string("rerouteChip threw: ") + e.what();
  }
  if (incOut) *incOut = inc;
  if (infoOut) *infoOut = info;

  if (inc.complete) {
    const verify::OracleReport oracle = verify::verifySolution(edited, inc);
    if (!oracle.clean())
      return "eco result claims completion but the oracle found violations:\n" +
             oracle.str();
  }

  switch (info.mode) {
    case core::EcoInfo::Mode::kFull:
      if (core::solutionToString(inc) !=
          core::solutionToString(core::routeChip(edited, cfg)))
        return "full-mode eco differs from routeChip on the edited chip";
      break;
    case core::EcoInfo::Mode::kIdentity:
      if (core::solutionToString(inc) != core::solutionToString(prev))
        return "identity-mode eco does not return the previous solution";
      break;
    case core::EcoInfo::Mode::kIncremental: {
      if (!inc.complete)
        return "incremental-mode eco returned an incomplete solution";
      // Every carried cluster must be byte-equal to a previous cluster
      // under the delta's valve renumbering.
      std::map<std::vector<chip::ValveId>, const core::RoutedCluster*> byValves;
      for (const core::RoutedCluster& rc : prev.clusters) {
        std::vector<chip::ValveId> key = rc.valves;
        std::sort(key.begin(), key.end());
        byValves[std::move(key)] = &rc;
      }
      std::vector<chip::ValveId> invMap(edited.valves.size(), -1);
      for (std::size_t old = 0; old < applied.valveMap.size(); ++old)
        if (applied.valveMap[old] >= 0)
          invMap[static_cast<std::size_t>(applied.valveMap[old])] =
              static_cast<chip::ValveId>(old);
      int carried = 0;
      for (const core::RoutedCluster& rc : inc.clusters) {
        if (!rc.ecoCarried) continue;
        ++carried;
        std::vector<chip::ValveId> key;
        for (const chip::ValveId v : rc.valves) {
          const chip::ValveId old = invMap.at(static_cast<std::size_t>(v));
          if (old < 0) return "carried cluster contains a valve new in this delta";
          key.push_back(old);
        }
        std::sort(key.begin(), key.end());
        const auto it = byValves.find(key);
        if (it == byValves.end())
          return "carried cluster has no valve-set match in the previous solution";
        const core::RoutedCluster& was = *it->second;
        if (rc.pin != was.pin || !(rc.tap == was.tap) ||
            rc.treePaths != was.treePaths || !(rc.escapePath == was.escapePath) ||
            rc.valveLengths != was.valveLengths ||
            rc.lengthMatched != was.lengthMatched ||
            rc.lengthMatchRequested != was.lengthMatchRequested)
          return "carried cluster geometry differs from the previous solution";
      }
      if (carried != info.frozenClusters) {
        std::ostringstream why;
        why << "frozen-cluster count mismatch: " << carried
            << " carried clusters vs info.frozenClusters=" << info.frozenClusters;
        return why.str();
      }
      break;
    }
  }
  return "";
}

/// Greedy 1-op deletion while the eco step failure persists.
chip::ChipDelta minimizeEcoDelta(const chip::Chip& cur, const core::PacorResult& prev,
                                 chip::ChipDelta delta, const core::PacorConfig& cfg) {
  bool shrunk = true;
  while (shrunk && delta.ops.size() > 1) {
    shrunk = false;
    for (std::size_t i = 0; i < delta.ops.size(); ++i) {
      chip::ChipDelta trial = delta;
      trial.ops.erase(trial.ops.begin() + static_cast<std::ptrdiff_t>(i));
      if (!ecoStepFailure(cur, prev, trial, cfg).empty()) {
        delta = std::move(trial);
        shrunk = true;
        break;
      }
    }
  }
  return delta;
}

void dumpEcoRepro(const Options& opt, std::uint32_t seed, const chip::Chip& cur,
                  const core::PacorResult& prev, const chip::ChipDelta& delta) {
  std::filesystem::create_directories(opt.dumpDir);
  const std::string stem = opt.dumpDir + "/eco_" + std::to_string(seed);
  chip::writeChipFile(stem + ".chip", cur);
  chip::writeDeltaFile(stem + ".delta", delta);
  core::writeSolutionFile(stem + ".sol", prev);
  std::cerr << "  repro dumped: " << stem << ".chip / .delta / .sol  (seed "
            << seed << "; base chip + previous solution + edit script)\n";
}

bool runDesign(const Options& opt, serve::Server& server, std::uint32_t seed,
               Tally& tally) {
  const chip::GeneratorParams params = chip::randomParams(seed);
  const chip::Chip chip = chip::generateChip(params);

  const core::PacorConfig cfg = configForSeed(seed);
  const core::PacorResult result = core::routeChip(chip, cfg);
  ++tally.designs;
  tally.complete += result.complete ? 1 : 0;
  tally.clusters += result.clusters.size();

  bool ok = true;

  // (a) oracle-clean completed solutions, and the round-tripped text
  // re-verifies the same way (covers solution_io on every design).
  const std::string resultText = core::solutionToString(result);
  const verify::OracleReport oracle = verify::verifySolution(chip, result);
  if (result.complete && !oracle.clean()) {
    std::cerr << "FAIL seed " << seed << ": pipeline claims completion but the "
              << "oracle found violations:\n" << oracle.str();
    dumpRepro(opt, seed, chip, result);
    ok = false;
  }
  const core::PacorResult reparsed = core::solutionFromString(resultText);
  if (verify::verifySolution(chip, reparsed).clean() != oracle.clean()) {
    std::cerr << "FAIL seed " << seed
              << ": oracle verdict changed across a solution_io round trip\n";
    dumpRepro(opt, seed, chip, result);
    ok = false;
  }

  // (b) a first escape pass that routes every cluster ends complete.
  bool whole = false;
  if (const std::string fail = firstPassFailure(chip, cfg, result, whole); !fail.empty()) {
    std::cerr << "FAIL seed " << seed << ": " << fail << '\n';
    dumpRepro(opt, seed, chip, result);
    ok = false;
  }
  tally.firstPassWhole += whole ? 1 : 0;

  // (d) the escape-flow session replays equal to escapeRoute().
  int warmRounds = 0;
  if (const std::string fail = escapeReplayFailure(chip, cfg, seed, warmRounds);
      !fail.empty()) {
    std::cerr << "FAIL seed " << seed << ": " << fail << '\n';
    dumpRepro(opt, seed, chip, result);
    ok = false;
  }
  tally.warmEscapeRounds += static_cast<std::uint32_t>(warmRounds);

  // (e) N requests through one long-lived server == N independent runs.
  // The server is shared across all seeds, so every request after the
  // first exercises reused workspaces and a warm request loop. The pin
  // installs this chip object as the design; it is held until the answer
  // so the context cannot be evicted before the request runs.
  serve::Request request;
  request.design = "fuzz_" + std::to_string(seed);
  request.variant = variantForSeed(seed);
  const std::shared_ptr<serve::DesignContext> pin =
      server.context(request.design, [&chip] { return chip; });
  const serve::Response served = server.submit(request).get();
  if (!served.ok || served.solutionText != resultText) {
    std::cerr << "FAIL seed " << seed << ": serve::Server output differs from "
              << "the independent one-shot run ("
              << (served.ok ? "different bytes" : "error: " + served.error)
              << ")\n";
    dumpRepro(opt, seed, chip, result);
    ok = false;
  } else {
    // The unedited repeat is the route memo's: the same bytes, no route.
    const serve::Response repeat = server.submit(std::move(request)).get();
    if (!repeat.ok || !repeat.memo || repeat.solutionText != resultText) {
      std::cerr << "FAIL seed " << seed << ": the repeat request "
                << (!repeat.ok     ? "failed: " + repeat.error
                    : !repeat.memo ? "missed the route memo"
                                   : "differs from the first answer")
                << '\n';
      dumpRepro(opt, seed, chip, result);
      ok = false;
    }
    tally.memoHits += repeat.memo ? 1 : 0;
  }

  // (c) oracle / DRC agreement on clean-vs-dirty.
  if (checkersDisagree(chip, result)) {
    const core::PacorResult minimized = minimizeDisagreement(chip, result);
    std::cerr << "FAIL seed " << seed << ": oracle and DRC disagree (minimized to "
              << minimized.clusters.size() << " cluster(s))\n"
              << verify::verifySolution(chip, minimized).str()
              << core::checkSolution(chip, minimized).str();
    dumpRepro(opt, seed, chip, minimized);
    ok = false;
  }

  // (g) edit-sequence differential ECO: a seeded 1-8 edit script applied
  // one delta at a time, each rerouteChip result chained into the next
  // step as the previous solution.
  {
    std::mt19937 rng(seed ^ 0x9e3779b9u);
    chip::Chip cur = chip;
    core::PacorResult prev = result;
    const int steps = 1 + static_cast<int>(rng() % 4);
    for (int step = 0; ok && step < steps; ++step) {
      const chip::ChipDelta delta = randomDelta(cur, rng);
      chip::Chip edited;
      core::PacorResult inc;
      core::EcoInfo info;
      const std::string fail =
          ecoStepFailure(cur, prev, delta, cfg, &edited, &inc, &info);
      if (!fail.empty()) {
        const chip::ChipDelta minimized = minimizeEcoDelta(cur, prev, delta, cfg);
        std::cerr << "FAIL seed " << seed << " (eco step " << step << ", "
                  << minimized.ops.size() << "/" << delta.ops.size()
                  << " op(s) after minimization): " << fail << '\n';
        dumpEcoRepro(opt, seed, cur, prev, minimized);
        ok = false;
        break;
      }
      switch (info.mode) {
        case core::EcoInfo::Mode::kIdentity: ++tally.ecoIdentity; break;
        case core::EcoInfo::Mode::kIncremental: ++tally.ecoIncremental; break;
        case core::EcoInfo::Mode::kFull: ++tally.ecoFull; break;
      }
      cur = std::move(edited);
      prev = std::move(inc);
    }
  }

  // (h) FPVA valve arrays: every eighth seed also generates a randomized
  // N x M array chip (regular lattice, block clusters, boundary pin ring)
  // and holds it to the core invariant, oracle-clean when complete, and
  // to (b). Keeps the generator's parameter space (ragged blocks, obstacle
  // sprinkling, dense lm mixes) under the same harness as the
  // Table-1-style instances.
  if (seed % 8 == 0) {
    const chip::Chip array = chip::generateFpvaChip(chip::randomFpvaParams(seed));
    const core::PacorResult arrayResult = core::routeChip(array, cfg);
    ++tally.fpva;
    if (const verify::OracleReport arrayOracle =
            verify::verifySolution(array, arrayResult);
        arrayResult.complete && !arrayOracle.clean()) {
      std::cerr << "FAIL seed " << seed << ": FPVA " << array.name
                << " claims completion but the oracle found violations:\n"
                << arrayOracle.str();
      dumpRepro(opt, seed, array, arrayResult);
      ok = false;
    }
    bool arrayWhole = false;
    if (const std::string fail = firstPassFailure(array, cfg, arrayResult, arrayWhole);
        !fail.empty()) {
      std::cerr << "FAIL seed " << seed << ": FPVA " << array.name << ": " << fail << '\n';
      dumpRepro(opt, seed, array, arrayResult);
      ok = false;
    }
    tally.firstPassWhole += arrayWhole ? 1 : 0;
  }

  // (i) protocol round trip + junk-tolerance. Round trip: a random valid
  // request's canonical text re-parses and re-formats to itself. Junk: any
  // byte soup (including frames a confused client might send) must come
  // back as a parse error or a parse, never a crash or a throw -- an
  // exception here propagates to the seed-level catch and fails the seed.
  {
    std::mt19937 rng(seed * 2654435761u + 17u);
    for (int i = 0; i < 32; ++i) {
      const serve::Request req = randomRequest(rng);
      const std::string canonical = serve::formatRequestLine(req);
      serve::ParseError perr;
      const std::optional<serve::Request> reparsed =
          serve::parseRequestLine(canonical, &perr);
      if (!reparsed ||
          serve::formatRequestLine(*reparsed) != canonical) {
        std::cerr << "FAIL seed " << seed << ": protocol round trip broke on '"
                  << canonical << "' ("
                  << (reparsed ? "'" + serve::formatRequestLine(*reparsed) + "'"
                               : "parse error: " + perr.render())
                  << ")\n";
        ok = false;
        break;
      }
      ++tally.protocolLines;
    }
    for (int i = 0; i < 32; ++i) {
      std::string junk;
      const std::size_t len = rng() % 64;
      for (std::size_t j = 0; j < len; ++j)
        junk += static_cast<char>(rng() % 256);
      serve::parseRequestLine(junk);
      serve::parseResponseLine(junk);
      ++tally.protocolLines;
    }
    // Junk deadline_ms values: every malformed shape (empty, signed,
    // non-numeric, zero, overflow past kMaxDeadlineMs, embedded junk) must
    // come back as a structured error on field "deadline_ms" -- never a
    // parse that silently clamps, and never a throw.
    static const char* kJunkDeadlines[] = {
        "deadline_ms=",          "deadline_ms=-5",
        "deadline_ms=+5",        "deadline_ms=abc",
        "deadline_ms=0",         "deadline_ms=86400001",
        "deadline_ms=99999999999999999999999999", "deadline_ms=12x",
        "deadline_ms=0x10",      "deadline_ms= 7"};
    for (const char* junkOpt : kJunkDeadlines) {
      serve::ParseError perr;
      if (serve::parseRequestLine(std::string("D1 ") + junkOpt, &perr) ||
          perr.field != "deadline_ms") {
        std::cerr << "FAIL seed " << seed << ": junk '" << junkOpt
                  << "' was not a structured deadline_ms error\n";
        ok = false;
        break;
      }
      ++tally.protocolLines;
    }
  }

  if (opt.verbose)
    std::cout << "seed " << seed << ": " << chip.name << " "
              << chip.routingGrid.width() << "x" << chip.routingGrid.height()
              << ", " << chip.valves.size() << " valves, delta " << chip.delta
              << (result.complete ? ", complete" : ", INCOMPLETE")
              << (ok ? "" : "  <-- FAILED") << '\n';
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parseOptions(argc, argv, opt)) return usage();

  Tally tally;
  serve::Server server;  // shared across all seeds (property e)
  for (std::uint32_t i = 0; i < opt.designs; ++i) {
    const std::uint32_t seed = opt.seed + i;
    // Trace the first design's main-thread runs so the tracing subsystem
    // is exercised under the harness build's sanitizers.
    const bool traceThis = i == 0 && !opt.tracePath.empty();
    if (traceThis) trace::beginSession(trace::Level::kSearch);
    try {
      if (!runDesign(opt, server, seed, tally)) ++tally.failures;
    } catch (const std::exception& e) {
      // Generator/pipeline exceptions on a feasible random design are
      // harness bugs too -- surface them with the seed.
      std::cerr << "FAIL seed " << seed << ": exception: " << e.what() << '\n';
      ++tally.failures;
      ++tally.designs;
    }
    if (traceThis) {
      const auto events = trace::endSession();
      if (!trace::writeChromeTrace(opt.tracePath, events)) {
        std::cerr << "FAIL: cannot write trace file " << opt.tracePath << '\n';
        ++tally.failures;
      } else {
        std::cout << "trace: wrote " << opt.tracePath << " (" << events.size()
                  << " spans)\n";
      }
    }
  }

  std::cout << "pacor_fuzz: " << tally.designs << " designs (base seed " << opt.seed
            << "), " << tally.complete << " routed to completion, " << tally.clusters
            << " clusters total, " << tally.firstPassWhole
            << " whole first escape passes ended complete, " << tally.warmEscapeRounds
            << " warm escape rounds replayed, eco steps " << tally.ecoIdentity << " identity / "
            << tally.ecoIncremental << " incremental / " << tally.ecoFull
            << " full, " << tally.fpva << " fpva arrays, "
            << tally.protocolLines << " protocol lines, " << tally.memoHits
            << " memo hits, " << tally.failures << " failure(s)\n";
  return tally.failures == 0 ? 0 : 1;
}
