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
      bps_per_hz_(bps_per_hz),
      user_beams_(plan_.user_beams()) {
  if (beams_per_full_cell_ == 0) {
    throw std::invalid_argument("BeamPlan: beams_per_full_cell must be > 0");
  }
  if (beams_per_full_cell_ > user_beams_) {
    throw std::invalid_argument(
        "BeamPlan: beams_per_full_cell exceeds user beams");
  }
  if (!std::isfinite(bps_per_hz_) || bps_per_hz_ <= 0.0) {
    throw std::invalid_argument(
        "BeamPlan: spectral efficiency must be finite and > 0");
  }
  full_cell_capacity_gbps_ =
      capacity_gbps(plan_.user_downlink_mhz(), bps_per_hz_);
  if (!std::isfinite(full_cell_capacity_gbps_)) {
    throw std::invalid_argument("BeamPlan: cell capacity is not finite");
  }
  per_beam_capacity_gbps_ =
      full_cell_capacity_gbps_ / static_cast<double>(beams_per_full_cell_);
}

double BeamPlan::spread_cell_capacity_gbps(double beamspread) const {
  check_beamspread(beamspread);
  return full_cell_capacity_gbps() / beamspread;
}

double BeamPlan::cells_served_per_satellite(
    double beamspread, std::uint32_t beams_on_peak) const {
  check_beamspread(beamspread);
  if (beams_on_peak == 0 || beams_on_peak > user_beams_) {
    throw std::invalid_argument("BeamPlan: beams_on_peak outside [1, beams]");
  }
  return 1.0 + static_cast<double>(user_beams_ - beams_on_peak) *
                   beamspread;
}

BeamPlan starlink_beam_plan() { return BeamPlan(starlink_schedule_s()); }

}  // namespace leodivide::spectrum
