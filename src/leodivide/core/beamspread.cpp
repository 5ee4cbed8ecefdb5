#include "leodivide/core/beamspread.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

namespace leodivide::core {

double spread_cell_capacity_gbps(const SatelliteCapacityModel& model,
                                 double beamspread) {
  return model.plan().spread_cell_capacity_gbps(beamspread);
}

namespace {

// beamspread is checked by BeamPlan::spread_cell_capacity_gbps.
void check_oversub(const char* fn, double oversub) {
  if (!std::isfinite(oversub) || oversub <= 0.0) {
    throw std::invalid_argument(std::string(fn) +
                                ": oversub must be finite and > 0");
  }
}

}  // namespace

std::uint32_t max_locations_spread(const SatelliteCapacityModel& model,
                                   double beamspread, double oversub) {
  check_oversub("max_locations_spread", oversub);
  return location_floor(spread_cell_capacity_gbps(model, beamspread) *
                        oversub / demand::location_demand_gbps());
}

}  // namespace leodivide::core
