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
  // Sorted-vector dedup: the distinct count is computed from a fully
  // ordered sequence, so no hash-container layout is ever consulted. The
  // caller's scratch keeps its capacity across epochs, and the count is an
  // iterator difference — no erase, no allocation at steady state.
  scratch.clear();
  for (const auto& a : schedule.assignments) scratch.push_back(a.sat);
  std::sort(scratch.begin(), scratch.end());
  out.satellites_in_view = static_cast<std::size_t>(
      std::unique(scratch.begin(), scratch.end()) - scratch.begin());
  return out;
}

}  // namespace leodivide::sim
