// ECO re-routing tests: the chip::diff/apply contract, edit-script
// serialization, and core::rerouteChip's dirty-set exactness -- an edit
// confined to one cluster must never perturb another cluster's committed
// geometry, and an edit touching nothing must return the previous result
// verbatim.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "chip/chip.hpp"
#include "chip/delta.hpp"
#include "chip/generator.hpp"
#include "pacor/eco.hpp"
#include "pacor/pipeline.hpp"
#include "pacor/solution_io.hpp"
#include "verify/oracle.hpp"

namespace pacor {
namespace {

using chip::Chip;
using chip::ChipDelta;
using core::EcoInfo;
using core::PacorResult;
using core::RoutedCluster;

// --- diff / apply ----------------------------------------------------------

class DiffApplyRoundTrip : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(DiffApplyRoundTrip, ReconstructsTargetAndSerializes) {
  const std::uint32_t seed = GetParam();
  const Chip a = chip::generateChip(chip::randomParams(seed));
  const Chip b = chip::generateChip(chip::randomParams(seed + 1000));

  const ChipDelta d = chip::diff(a, b);  // self-checks apply(a, d) == b
  EXPECT_TRUE(chip::chipsEqual(chip::apply(a, d), b));

  // Text round-trip preserves every op.
  const ChipDelta parsed = chip::deltaFromString(chip::deltaToString(d));
  EXPECT_EQ(parsed.ops, d.ops);
  EXPECT_TRUE(chip::chipsEqual(chip::apply(a, parsed), b));
}

INSTANTIATE_TEST_SUITE_P(Seeds, DiffApplyRoundTrip,
                         ::testing::Values(1u, 7u, 21u, 42u, 77u, 123u));

TEST(DiffApply, SelfDiffIsEmptyAndEmptyDeltaIsNoOp) {
  const Chip a = chip::generateChip(chip::randomParams(5));
  EXPECT_TRUE(chip::diff(a, a).empty());
  EXPECT_TRUE(chip::chipsEqual(chip::apply(a, ChipDelta{}), a));
}

TEST(DiffApply, ValveMapTracksRemovalRenumbering) {
  const Chip a = chip::generateChip(chip::randomParams(9));
  ASSERT_GE(a.valves.size(), 3u);
  ChipDelta d;
  d.removeValve(1);
  const chip::AppliedDelta applied = chip::applyWithMap(a, d);
  ASSERT_EQ(applied.valveMap.size(), a.valves.size());
  EXPECT_EQ(applied.valveMap[0], 0);
  EXPECT_EQ(applied.valveMap[1], -1);
  for (std::size_t v = 2; v < a.valves.size(); ++v)
    EXPECT_EQ(applied.valveMap[v], static_cast<chip::ValveId>(v) - 1);
  // Surviving valves keep their geometry under the new ids.
  for (std::size_t v = 0; v < a.valves.size(); ++v) {
    if (applied.valveMap[v] >= 0) {
      EXPECT_EQ(applied.chip.valve(applied.valveMap[v]).pos,
                a.valve(static_cast<chip::ValveId>(v)).pos);
    }
  }
}

TEST(DeltaIo, MalformedInputThrows) {
  EXPECT_THROW(chip::deltaFromString("not-a-delta"), std::runtime_error);
  EXPECT_THROW(chip::deltaFromString("pacor-delta 1\nops 1\nbad-op 0\n"),
               std::runtime_error);
}

// --- rerouteChip -----------------------------------------------------------

/// Two length-matching pairs on opposite ends of a wide die, far enough
/// apart that an edit inside one cluster's region cannot plausibly force
/// the other to move.
Chip twoIslandChip() {
  Chip c;
  c.name = "eco-islands";
  c.routingGrid = grid::Grid(40, 20);
  c.delta = 2;
  const auto addValve = [&](geom::Point p) {
    chip::Valve v;
    v.id = static_cast<chip::ValveId>(c.valves.size());
    v.pos = p;
    v.sequence = chip::ActivationSequence("10");
    c.valves.push_back(std::move(v));
  };
  addValve({4, 7});
  addValve({4, 13});
  addValve({35, 7});
  addValve({35, 13});
  const auto addPin = [&](geom::Point p) {
    c.pins.push_back(chip::ControlPin{static_cast<chip::PinId>(c.pins.size()), p});
  };
  addPin({0, 10});
  addPin({39, 10});
  addPin({0, 4});
  addPin({39, 4});
  c.givenClusters.push_back(chip::ValveCluster{{0, 1}, true});
  c.givenClusters.push_back(chip::ValveCluster{{2, 3}, true});
  return c;
}

std::vector<chip::ValveId> sorted(std::vector<chip::ValveId> v) {
  std::sort(v.begin(), v.end());
  return v;
}

const RoutedCluster* findCluster(const PacorResult& r,
                                 std::vector<chip::ValveId> valves) {
  valves = sorted(std::move(valves));
  for (const RoutedCluster& rc : r.clusters)
    if (sorted(rc.valves) == valves) return &rc;
  return nullptr;
}

void expectSameGeometry(const RoutedCluster& a, const RoutedCluster& b) {
  EXPECT_EQ(a.pin, b.pin);
  EXPECT_EQ(a.tap, b.tap);
  EXPECT_EQ(a.treePaths, b.treePaths);
  EXPECT_EQ(a.escapePath, b.escapePath);
  EXPECT_EQ(a.valveLengths, b.valveLengths);
}

/// A committed cell of `rc` that is neither a valve site nor a pin --
/// legal to turn into an obstacle in an edited chip.
geom::Point interiorPathCell(const Chip& c, const RoutedCluster& rc) {
  const auto usable = [&](geom::Point p) {
    for (const chip::Valve& v : c.valves)
      if (v.pos == p) return false;
    for (const chip::ControlPin& pin : c.pins)
      if (pin.pos == p) return false;
    return true;
  };
  for (const route::Path& p : rc.treePaths)
    for (const geom::Point cell : p)
      if (usable(cell)) return cell;
  for (const geom::Point cell : rc.escapePath)
    if (usable(cell)) return cell;
  ADD_FAILURE() << "cluster has no interior path cell";
  return {0, 0};
}

/// A cell owned by nobody: not on any committed channel, valve, pin, or
/// obstacle of the routed chip.
geom::Point freeCell(const Chip& c, const PacorResult& r) {
  const auto taken = [&](geom::Point p) {
    for (const chip::Valve& v : c.valves)
      if (v.pos == p) return true;
    for (const chip::ControlPin& pin : c.pins)
      if (pin.pos == p) return true;
    for (const geom::Point o : c.obstacles)
      if (o == p) return true;
    for (const RoutedCluster& rc : r.clusters) {
      for (const route::Path& path : rc.treePaths)
        for (const geom::Point cell : path)
          if (cell == p) return true;
      for (const geom::Point cell : rc.escapePath)
        if (cell == p) return true;
    }
    return false;
  };
  for (std::int32_t y = 1; y + 1 < c.routingGrid.height(); ++y)
    for (std::int32_t x = 1; x + 1 < c.routingGrid.width(); ++x)
      if (!taken({x, y})) return {x, y};
  ADD_FAILURE() << "no free interior cell";
  return {1, 1};
}

TEST(RerouteChip, EmptyDeltaIsIdentity) {
  const Chip base = twoIslandChip();
  ASSERT_EQ(base.validate(), std::nullopt);
  const PacorResult prev = core::routeChip(base);
  ASSERT_TRUE(prev.complete);

  EcoInfo info;
  const PacorResult out = core::rerouteChip(base, prev, ChipDelta{}, {}, {}, &info);
  EXPECT_EQ(info.mode, EcoInfo::Mode::kIdentity);
  EXPECT_EQ(core::solutionToString(out), core::solutionToString(prev));
  for (const RoutedCluster& rc : out.clusters) EXPECT_TRUE(rc.ecoCarried);
}

TEST(RerouteChip, UntouchedObstacleEditIsIdentity) {
  const Chip base = twoIslandChip();
  const PacorResult prev = core::routeChip(base);
  ASSERT_TRUE(prev.complete);

  ChipDelta d;
  d.addObstacle(freeCell(base, prev));
  EcoInfo info;
  const PacorResult out = core::rerouteChip(base, prev, d, {}, {}, &info);
  EXPECT_EQ(info.mode, EcoInfo::Mode::kIdentity);
  EXPECT_EQ(core::solutionToString(out), core::solutionToString(prev));
  // The carried solution must still be clean on the *edited* chip.
  EXPECT_TRUE(verify::verifySolution(chip::apply(base, d), out).clean());
}

TEST(RerouteChip, ObstacleOnOneClusterNeverPerturbsTheOther) {
  const Chip base = twoIslandChip();
  const PacorResult prev = core::routeChip(base);
  ASSERT_TRUE(prev.complete);
  const RoutedCluster* left = findCluster(prev, {0, 1});
  const RoutedCluster* right = findCluster(prev, {2, 3});
  ASSERT_NE(left, nullptr);
  ASSERT_NE(right, nullptr);

  // Block a committed cell of the left cluster: only it may re-route.
  ChipDelta d;
  d.addObstacle(interiorPathCell(base, *left));
  const Chip edited = chip::apply(base, d);
  ASSERT_EQ(edited.validate(), std::nullopt);

  EcoInfo info;
  const PacorResult out = core::rerouteChip(base, prev, d, {}, {}, &info);
  EXPECT_EQ(info.mode, EcoInfo::Mode::kIncremental);
  EXPECT_EQ(info.dirtyClusters, 1);
  EXPECT_EQ(info.frozenClusters, 1);
  EXPECT_TRUE(out.complete);
  EXPECT_TRUE(verify::verifySolution(edited, out).clean());

  const RoutedCluster* rightAfter = findCluster(out, {2, 3});
  ASSERT_NE(rightAfter, nullptr);
  EXPECT_TRUE(rightAfter->ecoCarried);
  expectSameGeometry(*rightAfter, *right);

  const RoutedCluster* leftAfter = findCluster(out, {0, 1});
  ASSERT_NE(leftAfter, nullptr);
  EXPECT_FALSE(leftAfter->ecoCarried);
}

TEST(RerouteChip, ValveMoveDirtiesExactlyItsCluster) {
  const Chip base = twoIslandChip();
  const PacorResult prev = core::routeChip(base);
  ASSERT_TRUE(prev.complete);
  const RoutedCluster* right = findCluster(prev, {2, 3});
  ASSERT_NE(right, nullptr);

  ChipDelta d;
  d.moveValve(0, {5, 6});
  const Chip edited = chip::apply(base, d);
  ASSERT_EQ(edited.validate(), std::nullopt);

  EcoInfo info;
  const PacorResult out = core::rerouteChip(base, prev, d, {}, {}, &info);
  EXPECT_EQ(info.mode, EcoInfo::Mode::kIncremental);
  EXPECT_EQ(info.dirtyClusters, 1);
  EXPECT_EQ(info.frozenClusters, 1);
  EXPECT_TRUE(out.complete);
  EXPECT_TRUE(verify::verifySolution(edited, out).clean());

  const RoutedCluster* rightAfter = findCluster(out, {2, 3});
  ASSERT_NE(rightAfter, nullptr);
  EXPECT_TRUE(rightAfter->ecoCarried);
  expectSameGeometry(*rightAfter, *right);
}

TEST(RerouteChip, PinEditForcesFullMode) {
  const Chip base = twoIslandChip();
  const PacorResult prev = core::routeChip(base);
  ASSERT_TRUE(prev.complete);

  ChipDelta d;
  d.addPin({0, 15});
  EcoInfo info;
  const PacorResult out = core::rerouteChip(base, prev, d, {}, {}, &info);
  EXPECT_EQ(info.mode, EcoInfo::Mode::kFull);
  EXPECT_FALSE(info.fellBack);
  const Chip edited = chip::apply(base, d);
  // Full mode is a plain routeChip of the edited design: byte-identical.
  EXPECT_EQ(core::solutionToString(out),
            core::solutionToString(core::routeChip(edited)));
}

TEST(RerouteChip, InvalidEditedChipThrows) {
  const Chip base = twoIslandChip();
  const PacorResult prev = core::routeChip(base);
  ChipDelta d;
  d.addObstacle(base.valve(0).pos);  // obstacle on a valve cell
  EXPECT_THROW(core::rerouteChip(base, prev, d), std::invalid_argument);
}

/// Random-instance sweep: seeded obstacle edits on generated chips; the
/// incremental answer must be oracle-clean on the edited chip and every
/// carried cluster byte-equal to its previous incarnation.
class RerouteRandom : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(RerouteRandom, ObstacleEditStaysClean) {
  const std::uint32_t seed = GetParam();
  const Chip base = chip::generateChip(chip::randomParams(seed));
  const PacorResult prev = core::routeChip(base);
  if (!prev.complete) GTEST_SKIP() << "base instance did not route";

  ChipDelta d;
  d.addObstacle(freeCell(base, prev));
  const Chip edited = chip::apply(base, d);
  ASSERT_EQ(edited.validate(), std::nullopt);

  EcoInfo info;
  const PacorResult out = core::rerouteChip(base, prev, d, {}, {}, &info);
  EXPECT_TRUE(out.complete);
  EXPECT_TRUE(verify::verifySolution(edited, out).clean())
      << verify::verifySolution(edited, out).str();
  for (const RoutedCluster& rc : out.clusters) {
    if (!rc.ecoCarried) continue;
    const RoutedCluster* was = findCluster(prev, rc.valves);
    ASSERT_NE(was, nullptr);
    expectSameGeometry(rc, *was);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RerouteRandom,
                         ::testing::Values(2u, 11u, 33u, 58u, 91u));

}  // namespace
}  // namespace pacor
