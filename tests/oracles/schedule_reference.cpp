#include <algorithm>
#include <numeric>

#include "leodivide/sim/beam.hpp"
#include "oracles/oracles.hpp"

namespace leodivide::oracle {

sim::ScheduleResult schedule_reference(
    const sim::BeamScheduler& scheduler,
    const std::vector<orbit::SatState>& sats) {
  const std::vector<sim::SchedCell>& cells = scheduler.cells();
  const sim::SchedulerConfig& config = scheduler.config();
  sim::ScheduleResult result;
  if (cells.empty()) return result;

  // The BeamScheduler constructor's processing order: the same comparator
  // over the same iota input, so std::sort yields the same permutation.
  std::vector<std::uint32_t> order(cells.size());
  std::iota(order.begin(), order.end(), 0U);
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    if (cells[a].beams_needed != cells[b].beams_needed) {
      return cells[a].beams_needed > cells[b].beams_needed;
    }
    return cells[a].locations > cells[b].locations;
  });

  // A satellite is usable by a cell when the cell lies within the coverage
  // central angle for the elevation mask.
  const double cos_psi = sim::coverage_geometry(sim::coverage_radius_km(sats),
                                                config.min_elevation_deg)
                             .cos_psi;
  std::vector<sim::BeamBudget> budgets(
      sats.size(),
      sim::BeamBudget(config.beams_per_satellite, config.beamspread));
  std::vector<geo::Vec3> sat_units;
  sat_units.reserve(sats.size());
  for (const auto& s : sats) sat_units.push_back(s.ecef_km.unit());
  std::vector<bool> sat_touched(sats.size(), false);

  for (std::uint32_t ci : order) {
    const sim::SchedCell& cell = cells[ci];
    result.locations_total += cell.locations;
    const geo::Vec3 cell_unit = cell.ecef_km.unit();

    std::int64_t best_sat = -1;
    std::uint32_t best_slack = 0;
    for (std::size_t si = 0; si < sats.size(); ++si) {
      if (cell_unit.dot(sat_units[si]) < cos_psi) continue;  // not visible
      const std::uint32_t slack = budgets[si].slack();
      if (slack == 0) continue;
      // Whole-beam cells need enough free whole beams.
      if (cell.beams_needed >= 2 &&
          budgets[si].beams_free() < cell.beams_needed) {
        continue;
      }
      bool take = best_sat < 0;
      switch (config.strategy) {
        case sim::Strategy::kMostSlack:
          take = take || slack > best_slack;
          break;
        case sim::Strategy::kBestFit:
          take = take || slack < best_slack;
          break;
        case sim::Strategy::kFirstFit:
          break;  // keep the first feasible satellite
      }
      if (take) {
        best_sat = static_cast<std::int64_t>(si);
        best_slack = slack;
        if (config.strategy == sim::Strategy::kFirstFit) break;
      }
    }
    if (best_sat < 0) {
      result.unassigned_cells.push_back(ci);
      continue;
    }
    auto& budget = budgets[static_cast<std::size_t>(best_sat)];
    const bool ok = cell.beams_needed >= 2
                        ? budget.reserve_whole(cell.beams_needed)
                        : budget.reserve_shared_slot();
    if (!ok) {
      result.unassigned_cells.push_back(ci);
      continue;
    }
    sat_touched[static_cast<std::size_t>(best_sat)] = true;
    result.assignments.push_back(
        sim::Assignment{ci, static_cast<std::uint32_t>(best_sat),
                        cell.beams_needed >= 2 ? cell.beams_needed : 0U});
    result.locations_served += cell.locations;
  }

  double util_sum = 0.0;
  std::size_t util_n = 0;
  for (std::size_t si = 0; si < sats.size(); ++si) {
    if (!sat_touched[si]) continue;
    util_sum += static_cast<double>(budgets[si].beams_used()) /
                static_cast<double>(config.beams_per_satellite);
    ++util_n;
  }
  result.mean_beam_utilization = util_n == 0 ? 0.0 : util_sum /
                                                         static_cast<double>(
                                                             util_n);
  return result;
}

}  // namespace leodivide::oracle
