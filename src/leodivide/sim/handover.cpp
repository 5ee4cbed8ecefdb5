#include "leodivide/sim/handover.hpp"

#include <cstdint>
#include <stdexcept>
#include <vector>

namespace leodivide::sim {

namespace {

constexpr std::int64_t kUnassigned = -1;

std::vector<std::int64_t> assignment_map(const ScheduleResult& schedule,
                                         std::size_t cell_count) {
  std::vector<std::int64_t> map(cell_count, kUnassigned);
  for (const auto& a : schedule.assignments) {
    if (a.cell >= cell_count) {
      throw std::invalid_argument("compare_schedules: assignment out of range");
    }
    map[a.cell] = static_cast<std::int64_t>(a.sat);
  }
  return map;
}

}  // namespace

HandoverStats compare_schedules(const ScheduleResult& before,
                                const ScheduleResult& after,
                                std::size_t cell_count) {
  const std::vector<std::int64_t> was_sat = assignment_map(before, cell_count);
  const std::vector<std::int64_t> is_sat = assignment_map(after, cell_count);
  HandoverStats stats;
  for (std::size_t i = 0; i < cell_count; ++i) {
    const bool was = was_sat[i] != kUnassigned;
    const bool is = is_sat[i] != kUnassigned;
    if (was && is) {
      ++stats.cells_tracked;
      if (was_sat[i] != is_sat[i]) ++stats.handovers;
    } else if (was) {
      ++stats.cells_dropped;
    } else if (is) {
      ++stats.cells_acquired;
    }
  }
  return stats;
}

}  // namespace leodivide::sim
