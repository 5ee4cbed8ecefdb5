#pragma once
// Beamspreading (Section 3.0.2): serving multiple cells with one beam lets a
// satellite cover more cells than it has beams, at the cost of dividing the
// beam's channel capacity among the cells it covers.

#include "leodivide/core/capacity_model.hpp"

namespace leodivide::core {

/// Capacity each cell receives when the full cell capacity is spread over
/// `beamspread` cells [Gbps].
[[nodiscard]] double spread_cell_capacity_gbps(
    const SatelliteCapacityModel& model, double beamspread);

/// Max locations servable per cell under (beamspread, oversub), saturated
/// as location_floor does: a cell is served when its demand fits the spread
/// capacity C / beamspread times `oversub` (the Figure-2 criterion). Throws
/// std::invalid_argument unless `oversub` is finite and > 0 and
/// `beamspread` is finite and >= 1.
[[nodiscard]] std::uint32_t max_locations_spread(
    const SatelliteCapacityModel& model, double beamspread, double oversub);

}  // namespace leodivide::core
