#include "leodivide/core/capacity_model.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace leodivide::core {

std::uint32_t location_floor(double real_count) noexcept {
  constexpr double kMax = std::numeric_limits<std::uint32_t>::max();
  return static_cast<std::uint32_t>(std::floor(std::min(real_count, kMax)));
}

SatelliteCapacityModel::SatelliteCapacityModel()
    : SatelliteCapacityModel(spectrum::starlink_beam_plan()) {}

SatelliteCapacityModel::SatelliteCapacityModel(spectrum::BeamPlan plan)
    : plan_(std::move(plan)) {}

double SatelliteCapacityModel::required_oversubscription(
    std::uint32_t locations) const {
  return cell_demand_gbps(locations) / cell_capacity_gbps();
}

std::uint32_t SatelliteCapacityModel::max_locations_at(double oversub) const {
  if (!std::isfinite(oversub) || oversub <= 0.0) {
    throw std::invalid_argument(
        "max_locations_at: oversub must be finite and > 0");
  }
  return location_floor(cell_capacity_gbps() * oversub /
                        demand::location_demand_gbps());
}

Table1Summary SatelliteCapacityModel::table1(
    const demand::DemandProfile& profile) const {
  Table1Summary t;
  t.ut_downlink_mhz = plan_.spectrum().user_downlink_mhz();
  t.total_mhz = plan_.spectrum().total_mhz();
  t.ut_beams = plan_.spectrum().user_beams();
  t.total_beams = plan_.spectrum().total_beams();
  t.spectral_efficiency = plan_.spectral_efficiency();
  t.max_cell_capacity_gbps = cell_capacity_gbps();
  t.peak_cell_users = profile.peak_cell_count();
  t.required_down_mbps = demand::kReliableDownMbps;
  t.required_up_mbps = demand::kReliableUpMbps;
  t.peak_cell_demand_gbps = cell_demand_gbps(t.peak_cell_users);
  t.max_oversubscription = required_oversubscription(t.peak_cell_users);
  return t;
}

}  // namespace leodivide::core
