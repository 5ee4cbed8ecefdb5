#pragma once
// Per-satellite beam accounting: how many spot beams a satellite forms, how
// many are needed to pour the full user-downlink spectrum into one cell, and
// how beamspreading divides a beam's capacity across cells.

#include <cstdint>

#include "leodivide/spectrum/band.hpp"
#include "leodivide/spectrum/efficiency.hpp"

namespace leodivide::spectrum {

/// Beam-level view of a satellite under a spectrum plan. Immutable: the
/// user beams and the cell and beam capacities are derived from the band
/// table once, in the constructor, so the per-cell sizing loops read them
/// as plain fields.
class BeamPlan {
 public:
  /// `beams_per_full_cell`: beams required to deliver the entire user
  /// downlink spectrum into a single cell (4 per the FCC filings — the four
  /// frequency-band groups land on the same cell). Throws
  /// std::invalid_argument unless beams_per_full_cell is in [1, user
  /// beams], `bps_per_hz` is finite and > 0, and the cell capacity they
  /// give is finite.
  BeamPlan(SpectrumPlan plan, std::uint32_t beams_per_full_cell = 4,
           double bps_per_hz = kPaperSpectralEfficiency);

  [[nodiscard]] const SpectrumPlan& spectrum() const noexcept { return plan_; }
  [[nodiscard]] std::uint32_t user_beams() const noexcept {
    return user_beams_;
  }
  [[nodiscard]] std::uint32_t beams_per_full_cell() const noexcept {
    return beams_per_full_cell_;
  }
  [[nodiscard]] double spectral_efficiency() const noexcept {
    return bps_per_hz_;
  }

  /// Max capacity a single cell can receive (all user spectrum) [Gbps] —
  /// 17.325 Gbps under the paper's plan.
  [[nodiscard]] double full_cell_capacity_gbps() const noexcept {
    return full_cell_capacity_gbps_;
  }

  /// Capacity of one beam [Gbps] = full cell capacity / beams per cell.
  [[nodiscard]] double per_beam_capacity_gbps() const noexcept {
    return per_beam_capacity_gbps_;
  }

  /// Capacity each cell receives when one beam is spread across
  /// `beamspread` cells [Gbps]. Throws std::invalid_argument unless
  /// beamspread is finite and >= 1.
  [[nodiscard]] double spread_cell_capacity_gbps(double beamspread) const;

  /// Number of cells a satellite can keep beams on when the peak cell takes
  /// `beams_on_peak` beams and every other beam is spread across
  /// `beamspread` cells: 1 + (user_beams - beams_on_peak) * beamspread.
  /// This is the denominator of the paper's constellation-sizing formula.
  /// Throws std::invalid_argument unless beamspread is finite and >= 1.
  [[nodiscard]] double cells_served_per_satellite(double beamspread,
                                                  std::uint32_t beams_on_peak)
      const;

 private:
  SpectrumPlan plan_;
  std::uint32_t beams_per_full_cell_;
  double bps_per_hz_;
  std::uint32_t user_beams_;
  double full_cell_capacity_gbps_ = 0.0;
  double per_beam_capacity_gbps_ = 0.0;
};

/// The paper's beam plan: Schedule-S spectrum, 4 beams per full cell,
/// 4.5 bps/Hz.
[[nodiscard]] BeamPlan starlink_beam_plan();

}  // namespace leodivide::spectrum
