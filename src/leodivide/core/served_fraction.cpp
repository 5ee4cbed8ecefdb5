#include "leodivide/core/served_fraction.hpp"

#include "leodivide/core/beamspread.hpp"

namespace leodivide::core {

ServedCounts served_counts(const demand::DemandProfile& profile,
                           std::uint32_t limit) {
  ServedCounts counts;
  for (const auto& cell : profile.cells()) counts.consider(cell, limit);
  return counts;
}

double served_cell_fraction(const demand::DemandProfile& profile,
                            const SatelliteCapacityModel& model,
                            double beamspread, double oversub) {
  if (profile.cell_count() == 0) return 1.0;
  const std::uint32_t limit = max_locations_spread(model, beamspread, oversub);
  return static_cast<double>(served_counts(profile, limit).cells) /
         static_cast<double>(profile.cell_count());
}

double served_location_fraction(const demand::DemandProfile& profile,
                                const SatelliteCapacityModel& model,
                                double beamspread, double oversub) {
  const std::uint64_t total = profile.total_locations();
  if (total == 0) return 1.0;
  const std::uint32_t limit = max_locations_spread(model, beamspread, oversub);
  return static_cast<double>(served_counts(profile, limit).locations) /
         static_cast<double>(total);
}

std::vector<std::vector<double>> served_fraction_grid(
    const demand::DemandProfile& profile, const SatelliteCapacityModel& model,
    const std::vector<double>& beamspreads,
    const std::vector<double>& oversubs) {
  std::vector<std::vector<double>> grid;
  grid.reserve(beamspreads.size());
  for (double s : beamspreads) {
    std::vector<double> row;
    row.reserve(oversubs.size());
    for (double o : oversubs) {
      row.push_back(served_cell_fraction(profile, model, s, o));
    }
    grid.push_back(std::move(row));
  }
  return grid;
}

}  // namespace leodivide::core
