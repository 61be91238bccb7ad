#pragma once

#include <iosfwd>
#include <string>

#include "chip/chip.hpp"
#include "chip/flow_layer.hpp"
#include "chip/schedule.hpp"

namespace pacor::chip {

/// Everything a designer specifies before control-layer routing: the die,
/// the flow layer, the valve sites, the candidate pins, the clusters that
/// must share a pin (with or without length matching), and the bioassay
/// schedule. `buildChip` runs control synthesis (schedule -> activation
/// sequences) and flow-layer rasterization (channels/components -> control
/// obstacles) to produce the routing instance PACOR consumes.
///
/// Text format ("pacor-synth 1"):
///
///   pacor-synth 1
///   name <token>
///   grid <w> <h>
///   delta <d>
///   valves <n>
///   <x> <y>                                  (n lines, ids are 0..n-1)
///   channels <n>
///   <k> <x1> <y1> ... <xk> <yk>              (n lines)
///   components <n>
///   <kind> <x1> <y1> <x2> <y2>               (n lines)
///   pins <n>
///   <x> <y>                                  (n lines)
///   clusters <n>
///   <lm 0|1> <k> <v1> ... <vk>               (n lines)
///   horizon <steps>
///   operations <n>
///   <name> <start> <end> <no> <v...> <nc> <v...>   (n lines)
struct SynthSpec {
  std::string name = "synth";
  grid::Grid die;
  std::int64_t delta = 1;
  std::vector<geom::Point> valveSites;
  FlowLayer flow;
  std::vector<geom::Point> pinSites;
  std::vector<ValveCluster> clusters;
  AssaySchedule assay;

  /// First structural problem, or nullopt.
  std::optional<std::string> validate() const;
};

/// Control synthesis + obstacle rasterization + instance assembly.
/// Throws std::runtime_error on schedule conflicts or invalid geometry.
Chip buildChip(const SynthSpec& spec);

void writeSynthSpec(std::ostream& os, const SynthSpec& spec);
SynthSpec readSynthSpec(std::istream& is);
SynthSpec readSynthSpecFile(const std::string& path);

}  // namespace pacor::chip
