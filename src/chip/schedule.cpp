#include "chip/schedule.hpp"

#include <random>
#include <sstream>

namespace pacor::chip {

std::optional<std::string> AssaySchedule::validate(std::size_t valveCount) const {
  if (horizon <= 0) return "horizon must be positive";
  for (const ScheduledOperation& op : operations) {
    if (op.start < 0 || op.end > horizon || op.start >= op.end)
      return "operation '" + op.name + "' has an invalid window";
    for (const auto v : op.openValves)
      if (v < 0 || static_cast<std::size_t>(v) >= valveCount)
        return "operation '" + op.name + "' references unknown valve";
    for (const auto v : op.closedValves) {
      if (v < 0 || static_cast<std::size_t>(v) >= valveCount)
        return "operation '" + op.name + "' references unknown valve";
      for (const auto o : op.openValves)
        if (o == v)
          return "operation '" + op.name + "' lists valve " + std::to_string(v) +
                 " both open and closed";
    }
  }
  return std::nullopt;
}

std::optional<std::vector<ActivationSequence>> synthesizeSequences(
    const AssaySchedule& schedule, std::size_t valveCount, std::string* conflict) {
  // steps[v][t]: ' ' undemanded, '0' open, '1' closed.
  std::vector<std::string> steps(valveCount,
                                 std::string(static_cast<std::size_t>(schedule.horizon), ' '));
  const auto demand = [&](std::int32_t valve, const ScheduledOperation& op,
                          char state) -> bool {
    for (std::int32_t t = op.start; t < op.end; ++t) {
      char& cell = steps[static_cast<std::size_t>(valve)][static_cast<std::size_t>(t)];
      if (cell != ' ' && cell != state) {
        if (conflict != nullptr) {
          std::ostringstream os;
          os << "valve " << valve << " demanded both open and closed at step " << t
             << " (operation '" << op.name << "')";
          *conflict = os.str();
        }
        return false;
      }
      cell = state;
    }
    return true;
  };

  for (const ScheduledOperation& op : schedule.operations) {
    for (const auto v : op.openValves)
      if (!demand(v, op, '0')) return std::nullopt;
    for (const auto v : op.closedValves)
      if (!demand(v, op, '1')) return std::nullopt;
  }

  std::vector<ActivationSequence> out;
  out.reserve(valveCount);
  for (std::string& s : steps) {
    for (char& c : s)
      if (c == ' ') c = 'X';
    out.emplace_back(s);
  }
  return out;
}

AssaySchedule synthesizeAssay(std::size_t valveCount, std::int32_t horizon,
                              std::size_t groups, std::uint32_t seed) {
  AssaySchedule schedule;
  schedule.horizon = horizon;
  if (valveCount == 0 || groups == 0 || horizon <= 1) return schedule;
  std::mt19937 rng(seed);

  // Valves are dealt round-robin into functional groups; each group gets
  // 1-3 operations in random conflict-free windows (per group, windows
  // may overlap only with identical state demands -- we simply make each
  // operation's window disjoint from the group's previous ones).
  std::vector<std::vector<std::int32_t>> members(groups);
  for (std::size_t v = 0; v < valveCount; ++v)
    members[v % groups].push_back(static_cast<std::int32_t>(v));

  for (std::size_t g = 0; g < groups; ++g) {
    if (members[g].empty()) continue;
    std::int32_t cursor = static_cast<std::int32_t>(rng() % 2);
    const int opCount = 1 + static_cast<int>(rng() % 3);
    for (int k = 0; k < opCount && cursor + 1 < horizon; ++k) {
      const std::int32_t len =
          1 + static_cast<std::int32_t>(rng() % static_cast<unsigned>(
                                            std::max<std::int32_t>(1, (horizon - cursor) / 2)));
      ScheduledOperation op;
      op.name = "g";
      op.name += std::to_string(g);
      op.name += "_op";
      op.name += std::to_string(k);
      op.start = cursor;
      op.end = std::min<std::int32_t>(horizon, cursor + len);
      // Alternate the group's members between gate (closed) and path
      // (open) roles, as a mixer's peristaltic phases would.
      for (std::size_t i = 0; i < members[g].size(); ++i) {
        if ((i + static_cast<std::size_t>(k)) % 2 == 0)
          op.openValves.push_back(members[g][i]);
        else
          op.closedValves.push_back(members[g][i]);
      }
      schedule.operations.push_back(std::move(op));
      cursor += len + static_cast<std::int32_t>(rng() % 2);
    }
  }
  return schedule;
}

}  // namespace pacor::chip
