#include "leodivide/spectrum/beamplan.hpp"

#include <cmath>
#include <stdexcept>

namespace leodivide::spectrum {

namespace {

void check_beamspread(double beamspread) {
  if (!std::isfinite(beamspread) || beamspread < 1.0) {
    throw std::invalid_argument("BeamPlan: beamspread must be finite and >= 1");
  }
}

}  // namespace

BeamPlan::BeamPlan(SpectrumPlan plan, std::uint32_t beams_per_full_cell,
                   double bps_per_hz)
    : plan_(std::move(plan)),
      beams_per_full_cell_(beams_per_full_cell),
      bps_per_hz_(bps_per_hz) {
  if (beams_per_full_cell_ == 0) {
    throw std::invalid_argument("BeamPlan: beams_per_full_cell must be > 0");
  }
  if (beams_per_full_cell_ > plan_.user_beams()) {
    throw std::invalid_argument(
        "BeamPlan: beams_per_full_cell exceeds user beams");
  }
  if (bps_per_hz_ <= 0.0) {
    throw std::invalid_argument("BeamPlan: spectral efficiency must be > 0");
  }
}

double BeamPlan::full_cell_capacity_gbps() const noexcept {
  return capacity_gbps(plan_.user_downlink_mhz(), bps_per_hz_);
}

double BeamPlan::per_beam_capacity_gbps() const noexcept {
  return full_cell_capacity_gbps() / static_cast<double>(beams_per_full_cell_);
}

double BeamPlan::spread_cell_capacity_gbps(double beamspread) const {
  check_beamspread(beamspread);
  return full_cell_capacity_gbps() / beamspread;
}

double BeamPlan::cells_served_per_satellite(
    double beamspread, std::uint32_t beams_on_peak) const {
  check_beamspread(beamspread);
  if (beams_on_peak == 0 || beams_on_peak > plan_.user_beams()) {
    throw std::invalid_argument("BeamPlan: beams_on_peak outside [1, beams]");
  }
  return 1.0 + static_cast<double>(plan_.user_beams() - beams_on_peak) *
                   beamspread;
}

BeamPlan starlink_beam_plan() { return BeamPlan(starlink_schedule_s()); }

}  // namespace leodivide::spectrum
