#pragma once
// The Figure-2 sweep: fraction of US cells served as a function of
// beamspread and maximum acceptable oversubscription.

#include <cstdint>
#include <vector>

#include "leodivide/core/capacity_model.hpp"

namespace leodivide::core {

/// The Figure-2 served-count sum: cells whose count is within a per-cell
/// location limit, and the locations in them. Integer sums, so partials
/// over any partition of the cells merge to the same totals.
struct ServedCounts {
  std::uint64_t cells = 0;
  std::uint64_t locations = 0;

  /// Counts `cell` if its count is within `limit`; returns whether it was.
  bool consider(const demand::CellDemand& cell, std::uint32_t limit) noexcept {
    if (cell.underserved > limit) return false;
    ++cells;
    locations += cell.underserved;
    return true;
  }
  void merge(const ServedCounts& other) noexcept {
    cells += other.cells;
    locations += other.locations;
  }
};

/// ServedCounts over every cell of `profile` at one limit.
[[nodiscard]] ServedCounts served_counts(const demand::DemandProfile& profile,
                                         std::uint32_t limit);

/// Fraction of the profile's cells that receive adequate service under
/// (beamspread, oversub): demand <= (C / beamspread) * oversub.
[[nodiscard]] double served_cell_fraction(const demand::DemandProfile& profile,
                                          const SatelliteCapacityModel& model,
                                          double beamspread, double oversub);

/// Fraction of *locations* in served cells (the location-weighted variant).
[[nodiscard]] double served_location_fraction(
    const demand::DemandProfile& profile, const SatelliteCapacityModel& model,
    double beamspread, double oversub);

/// The full Figure-2 grid: rows are beamspread values, columns are
/// oversubscription values; entries are served cell fractions.
[[nodiscard]] std::vector<std::vector<double>> served_fraction_grid(
    const demand::DemandProfile& profile, const SatelliteCapacityModel& model,
    const std::vector<double>& beamspreads,
    const std::vector<double>& oversubs);

}  // namespace leodivide::core
