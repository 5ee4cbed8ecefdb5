#include "leodivide/sim/coverage.hpp"

#include <algorithm>
#include <vector>

namespace leodivide::sim {

EpochCoverage summarize_epoch(const ScheduleResult& schedule,
                              std::size_t cells_total, double time_s,
                              std::vector<std::uint32_t>& scratch) {
  EpochCoverage out;
  out.time_s = time_s;
  out.cells_total = cells_total;
  out.cells_served = schedule.assignments.size();
  out.locations_total = schedule.locations_total;
  out.locations_served = schedule.locations_served;
  out.mean_beam_utilization = schedule.mean_beam_utilization;
  // The scratch is a seen-mark per satellite id: one pass finds the id
  // range, one pass counts each id's first mark. The count depends only on
  // the ids, never on a container's layout, and the scratch keeps its
  // capacity across epochs, so the steady state allocates nothing.
  std::size_t ids = 0;
  for (const Assignment& a : schedule.assignments) {
    ids = std::max(ids, std::size_t{a.sat} + 1);
  }
  scratch.assign(ids, 0);
  std::size_t distinct = 0;
  for (const Assignment& a : schedule.assignments) {
    distinct += static_cast<std::size_t>(scratch[a.sat] == 0);
    scratch[a.sat] = 1;
  }
  out.satellites_in_view = distinct;
  return out;
}

}  // namespace leodivide::sim
