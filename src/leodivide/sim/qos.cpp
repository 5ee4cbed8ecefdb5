#include "leodivide/sim/qos.hpp"

#include <algorithm>
#include <stdexcept>

namespace leodivide::sim {

void compute_qos(const std::vector<SchedCell>& cells,
                 const ScheduleResult& schedule,
                 const core::SatelliteCapacityModel& model,
                 const SchedulerConfig& config, double target_oversub,
                 std::vector<CellQos>& out) {
  if (target_oversub <= 0.0) {
    throw std::invalid_argument("compute_qos: target must be > 0");
  }
  const double per_beam = model.beam_capacity_gbps();
  out.clear();
  out.reserve(schedule.assignments.size());
  for (const auto& a : schedule.assignments) {
    if (a.cell >= cells.size()) {
      throw std::invalid_argument("compute_qos: assignment out of range");
    }
    CellQos q;
    q.cell = a.cell;
    q.capacity_gbps =
        a.beams >= 2
            ? static_cast<double>(a.beams) * per_beam
            : per_beam / static_cast<double>(config.beamspread);
    const double demand = model.cell_demand_gbps(cells[a.cell].locations);
    q.achieved_oversub =
        q.capacity_gbps > 0.0 ? demand / q.capacity_gbps : 0.0;
    q.within_target = q.achieved_oversub <= target_oversub;
    out.push_back(q);
  }
}

QosSummary summarize_qos(const std::vector<CellQos>& qos) {
  QosSummary s;
  s.cells_served = qos.size();
  double sum = 0.0;
  std::size_t with_demand = 0;
  for (const auto& q : qos) {
    if (q.within_target) ++s.cells_within_target;
    if (q.achieved_oversub > 0.0) {
      sum += q.achieved_oversub;
      ++with_demand;
    }
    s.worst_oversub = std::max(s.worst_oversub, q.achieved_oversub);
  }
  s.mean_oversub = with_demand == 0 ? 0.0 : sum / static_cast<double>(
                                                with_demand);
  s.fraction_within_target =
      qos.empty() ? 1.0
                  : static_cast<double>(s.cells_within_target) /
                        static_cast<double>(qos.size());
  return s;
}

}  // namespace leodivide::sim
