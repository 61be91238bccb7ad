// The escape session's implicit grid network against escapeRoute()'s
// from-scratch CSR network: both run the one SspCore loop, and every
// round must agree bit for bit -- escapes, costs and solver effort --
// which is what lets the pipeline serve every rip-up round (and serve
// requests) from one persistent session without moving the golden
// solution hashes. A route stopped by its deadline must leave that
// session reusable. On the same replayed stages it also checks the
// paper's Sec. 5 claim: the flow escapes at least as many clusters as
// greedy sequential escape.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "chip/generator.hpp"
#include "grid/obstacle_map.hpp"
#include "pacor/cluster_routing.hpp"
#include "pacor/clustering.hpp"
#include "pacor/escape.hpp"
#include "pacor/mst_routing.hpp"
#include "pacor/pipeline.hpp"
#include "pacor/solution_io.hpp"
#include "util/deadline.hpp"

namespace pacor {
namespace {

/// Stages 1-3 of routeChip (clustering, LM cluster routing, MST routing)
/// on a fresh obstacle map, ready for the escape stage.
std::vector<core::WorkCluster> routeToEscape(const chip::Chip& chip,
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
  core::routeLengthMatchingClusters(chip, core::pacorDefaultConfig(), obstacles, lm);
  return core::routeClustersStage(chip, obstacles, std::move(clusters),
                                  [&nextNet] { return nextNet++; });
}

/// Releases wc's escape path and pin.
void releaseEscape(grid::ObstacleMap& obstacles, core::WorkCluster& wc) {
  if (wc.escapePath.size() > 1)
    obstacles.releasePath(std::span<const geom::Point>(wc.escapePath.data() + 1,
                                                       wc.escapePath.size() - 1),
                          wc.net);
  wc.escapePath.clear();
  wc.pin = -1;
}

/// Releases every escape path and pin, plus the tree of cluster `victim`
/// (which leaves that cluster unrouted and out of the next escape round).
void ripUp(grid::ObstacleMap& obstacles, std::vector<core::WorkCluster>& clusters,
           const chip::Chip& chip, std::size_t victim) {
  for (core::WorkCluster& wc : clusters) releaseEscape(obstacles, wc);
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

/// Gives the first escaped matched cluster the pipeline's wide-tap remedy
/// (every tree cell becomes a tap, priced by its distance from the root)
/// and releases its escape and every other escaped cluster's. The rest
/// keep their escapes, so their pins stay taken and their paths occupied.
/// Returns the widened cluster's index, clusters.size() when there is none.
std::size_t widenOneAndRipUpHalf(grid::ObstacleMap& obstacles,
                                 std::vector<core::WorkCluster>& clusters) {
  std::size_t widened = 0;
  while (widened < clusters.size() &&
         !(clusters[widened].lmStructured && clusters[widened].pin >= 0))
    ++widened;
  int escaped = 0;
  for (std::size_t i = 0; i < clusters.size(); ++i)
    if (clusters[i].pin >= 0 && (escaped++ % 2 == 1 || i == widened))
      releaseEscape(obstacles, clusters[i]);
  if (widened < clusters.size()) {
    core::WorkCluster& wc = clusters[widened];
    wc.tapCells.clear();
    for (const route::Path& p : wc.treePaths)
      wc.tapCells.insert(wc.tapCells.end(), p.begin(), p.end());
    std::sort(wc.tapCells.begin(), wc.tapCells.end());
    wc.tapCells.erase(std::unique(wc.tapCells.begin(), wc.tapCells.end()),
                      wc.tapCells.end());
    wc.wideTap = true;
  }
  return widened;
}

std::vector<core::WorkCluster*> pointersTo(std::vector<core::WorkCluster>& clusters) {
  std::vector<core::WorkCluster*> ptrs;
  for (core::WorkCluster& wc : clusters) ptrs.push_back(&wc);
  return ptrs;
}

/// The pipeline's only escape path is the persistent EscapeFlowSession;
/// escapeRoute() builds the same network from scratch and is the
/// reference. Replayed on one post-routing state, both must escape every
/// cluster identically and with identical solver effort (equal counters
/// show both networks relaxed the same arcs, not just that they reached
/// the same optimum) -- on the cold first round; on a warm second round
/// after the same rip-up, which frees one tree's cells, drops that
/// cluster from the round and re-opens every released pin; and on a third
/// round where half the escapes stay (their pins taken) and one matched
/// cluster attaches anywhere on its tree with the root-distance bias.
TEST(IncrementalEscape, StagedReplayMatchesEscapeRoute) {
  for (const std::uint32_t seed : {2u, 5u}) {
    SCOPED_TRACE("stress seed " + std::to_string(seed));
    const chip::Chip chip = chip::generateChip(chip::stressParams(seed));
    grid::ObstacleMap sessionMap = core::makeRoutingObstacleTemplate(chip);
    std::vector<core::WorkCluster> sessionClusters = routeToEscape(chip, sessionMap);
    grid::ObstacleMap scratchMap = sessionMap;
    std::vector<core::WorkCluster> scratchClusters = sessionClusters;

    std::size_t victim = 0;
    while (victim < sessionClusters.size() &&
           !(sessionClusters[victim].spec.valves.size() >= 2 &&
             sessionClusters[victim].internallyRouted))
      ++victim;
    ASSERT_LT(victim, sessionClusters.size()) << "no routed multi-valve cluster";

    core::EscapeFlowSession session(chip, sessionMap);
    for (int round = 1; round <= 3; ++round) {
      SCOPED_TRACE("round " + std::to_string(round));
      if (round == 2) {
        ripUp(sessionMap, sessionClusters, chip, victim);
        ripUp(scratchMap, scratchClusters, chip, victim);
      }
      if (round == 3) {
        const std::size_t widened = widenOneAndRipUpHalf(sessionMap, sessionClusters);
        ASSERT_EQ(widenOneAndRipUpHalf(scratchMap, scratchClusters), widened);
        ASSERT_LT(widened, sessionClusters.size()) << "no escaped matched cluster";
        EXPECT_TRUE(std::any_of(sessionClusters.begin(), sessionClusters.end(),
                                [](const core::WorkCluster& wc) { return wc.pin >= 0; }))
            << "no escape kept into the third round";
      }
      std::vector<core::WorkCluster*> sessionPtrs = pointersTo(sessionClusters);
      std::vector<core::WorkCluster*> scratchPtrs = pointersTo(scratchClusters);
      const core::EscapeOutcome warm = session.route(sessionPtrs);
      const core::EscapeOutcome cold = core::escapeRoute(chip, scratchMap, scratchPtrs);
      EXPECT_GT(warm.requested, 0);
      EXPECT_EQ(warm.requested, cold.requested);
      EXPECT_EQ(warm.routedCount, cold.routedCount);
      EXPECT_EQ(warm.flowCost, cold.flowCost);
      EXPECT_EQ(warm.failed, cold.failed);
      const graph::SspCore::Counters& w = warm.flowCounters;
      const graph::SspCore::Counters& c = cold.flowCounters;
      EXPECT_TRUE(w == c) << "session settles/passes/augmentations/pushes/pops "
                          << w.settles << "/" << w.dijkstraPasses << "/" << w.augmentations
                          << "/" << w.bucketPushes + w.heapPushes << "/" << w.queuePops
                          << " vs escapeRoute " << c.settles << "/" << c.dijkstraPasses
                          << "/" << c.augmentations << "/" << c.bucketPushes + c.heapPushes
                          << "/" << c.queuePops;
      for (std::size_t i = 0; i < sessionClusters.size(); ++i) {
        EXPECT_EQ(sessionClusters[i].pin, scratchClusters[i].pin) << "cluster " << i;
        EXPECT_EQ(sessionClusters[i].escapePath, scratchClusters[i].escapePath)
            << "cluster " << i;
      }
    }
    EXPECT_EQ(session.stats().warmRounds, 2);
    EXPECT_GT(session.stats().warmDeltaCells, 0);
  }
}

// The Sec. 5 claim on clusters the pipeline produced (stress seeds 2 and
// 5): from one post-routing state, the simultaneous min-cost flow escapes
// at least as many clusters as the greedy sequential baseline it replaces.
TEST(EscapeStage, FlowNeverRoutesFewerThanSequential) {
  for (const std::uint32_t seed : {2u, 5u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const chip::Chip chip = chip::generateChip(chip::stressParams(seed));
    grid::ObstacleMap flowMap = core::makeRoutingObstacleTemplate(chip);
    std::vector<core::WorkCluster> flowClusters = routeToEscape(chip, flowMap);
    grid::ObstacleMap seqMap = flowMap;
    std::vector<core::WorkCluster> seqClusters = flowClusters;

    std::vector<core::WorkCluster*> flowPtrs = pointersTo(flowClusters);
    std::vector<core::WorkCluster*> seqPtrs = pointersTo(seqClusters);
    const core::EscapeOutcome flow = core::escapeRoute(chip, flowMap, flowPtrs);
    const core::EscapeOutcome seq = core::escapeRouteSequential(chip, seqMap, seqPtrs);
    EXPECT_GT(seq.requested, 0);
    EXPECT_EQ(flow.requested, seq.requested);
    EXPECT_GE(flow.routedCount, seq.routedCount);
  }
}

TEST(RouteDeadline, CancelledRoutesLeaveTheEscapeSlotReusable) {
  // Deadlines in turn -- already passed, then 1, 2, 4, ... ms -- until a
  // route completes. Every cancelled call throws the typed exception, and
  // the next deadline-free route on the same template and escape slot must
  // give the one-shot bytes, warm once the slot exists: a cancel can land
  // in any stage, mid-escape included. No timing is asserted.
  const std::vector<chip::Chip> chips = {
      chip::generateChip(chip::chip1Params()),
      chip::generateFpvaChip(chip::parseFpvaSpec("fpva:40x40")),
  };
  for (const chip::Chip& chip : chips) {
    SCOPED_TRACE(chip.name);
    const core::PacorConfig config = core::pacorDefaultConfig();
    const std::string oneShot = core::solutionToString(core::routeChip(chip, config));
    const grid::ObstacleMap obstacleTemplate = core::makeRoutingObstacleTemplate(chip);
    std::unique_ptr<core::EscapeFlowSession> slot;
    core::RouteResources shared;
    shared.obstacleTemplate = &obstacleTemplate;
    shared.escapeSession = &slot;

    int cancels = 0;
    for (std::int64_t ms = -1;; ms = ms < 1 ? 1 : 2 * ms) {
      SCOPED_TRACE(ms);
      try {
        const util::DeadlineScope scope(std::chrono::steady_clock::now() +
                                        std::chrono::milliseconds(ms));
        EXPECT_EQ(core::solutionToString(core::routeChip(chip, config, shared)), oneShot);
        break;
      } catch (const util::DeadlineExceeded&) {
        ++cancels;
      }
      const bool slotExisted = slot != nullptr;
      const core::PacorResult again = core::routeChip(chip, config, shared);
      EXPECT_EQ(core::solutionToString(again), oneShot);
      if (slotExisted) {
        EXPECT_EQ(again.metrics.getInt("escape.flow.cold_builds", -1), 0);
      }
    }
    EXPECT_GE(cancels, 2);  // the passed deadline and at least 1 ms
  }
}

}  // namespace
}  // namespace pacor
