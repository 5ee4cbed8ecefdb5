#pragma once
// The single-satellite capacity model of the paper's Table 1: spectrum in,
// per-cell capacity and peak-cell oversubscription out.

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "leodivide/demand/dataset.hpp"
#include "leodivide/spectrum/beamplan.hpp"

namespace leodivide::core {

/// Everything Table 1 reports.
struct Table1Summary {
  double ut_downlink_mhz = 0.0;       ///< 3850 MHz
  double total_mhz = 0.0;             ///< 8850 MHz
  std::uint32_t ut_beams = 0;         ///< 24
  std::uint32_t total_beams = 0;      ///< 28
  double spectral_efficiency = 0.0;   ///< 4.5 bps/Hz
  double max_cell_capacity_gbps = 0.0;///< ~17.3 Gbps
  std::uint32_t peak_cell_users = 0;  ///< 5998
  double required_down_mbps = 0.0;    ///< 100 (FCC)
  double required_up_mbps = 0.0;      ///< 20 (FCC)
  double peak_cell_demand_gbps = 0.0; ///< 599.8 Gbps
  double max_oversubscription = 0.0;  ///< ~35:1

  /// Exact (bit-level) equality; snapshot round-trip tests rely on it.
  friend bool operator==(const Table1Summary&, const Table1Summary&) = default;
};

/// floor(real_count) as a per-cell location count, saturated at
/// UINT32_MAX. Saturation is exact: cell counts are uint32, so no cell
/// exceeds the saturated limit. `real_count` must be finite and >= 0.
[[nodiscard]] std::uint32_t location_floor(double real_count) noexcept;

/// The paper's primary capacity model: a beam plan applied to a demand
/// profile.
class SatelliteCapacityModel {
 public:
  /// Defaults to the paper's Starlink beam plan.
  SatelliteCapacityModel();
  explicit SatelliteCapacityModel(spectrum::BeamPlan plan);

  [[nodiscard]] const spectrum::BeamPlan& plan() const noexcept {
    return plan_;
  }

  /// Max capacity deliverable to one cell [Gbps].
  [[nodiscard]] double cell_capacity_gbps() const noexcept {
    return plan_.full_cell_capacity_gbps();
  }

  /// Capacity of one beam [Gbps].
  [[nodiscard]] double beam_capacity_gbps() const noexcept {
    return plan_.per_beam_capacity_gbps();
  }

  /// Downlink demand of a cell with `locations` un(der)served locations
  /// [Gbps] at the federal 100 Mbps per location.
  [[nodiscard]] double cell_demand_gbps(std::uint32_t locations) const {
    return static_cast<double>(locations) * demand::location_demand_gbps();
  }

  /// Oversubscription ratio required to serve `locations` from the full
  /// cell capacity.
  [[nodiscard]] double required_oversubscription(
      std::uint32_t locations) const;

  /// Locations servable from full cell capacity at `oversub`:1 (saturated,
  /// see location_floor). Throws std::invalid_argument unless `oversub` is
  /// finite and > 0.
  [[nodiscard]] std::uint32_t max_locations_at(double oversub) const;

  /// Beams needed to serve `locations` at `oversub`:1, at most
  /// beams_per_full_cell (returns beams_per_full_cell when demand exceeds
  /// even the full capacity — capacity is then the binding limit). Throws
  /// std::invalid_argument unless `oversub` is finite and > 0. Inline:
  /// the sizing sweeps call it once per cell and per shed beam.
  [[nodiscard]] std::uint32_t beams_needed(std::uint32_t locations,
                                           double oversub) const {
    if (!std::isfinite(oversub) || oversub <= 0.0) {
      throw std::invalid_argument(
          "beams_needed: oversub must be finite and > 0");
    }
    if (locations == 0) return 0;
    const double beams = std::ceil(cell_demand_gbps(locations) /
                                   (oversub * beam_capacity_gbps()));
    const double cap = static_cast<double>(plan_.beams_per_full_cell());
    return static_cast<std::uint32_t>(std::min(beams, cap));
  }

  /// Builds the Table 1 summary for a demand profile.
  [[nodiscard]] Table1Summary table1(
      const demand::DemandProfile& profile) const;

 private:
  spectrum::BeamPlan plan_;
};

}  // namespace leodivide::core
