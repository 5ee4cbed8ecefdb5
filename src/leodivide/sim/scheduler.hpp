#pragma once
// Greedy beam->cell scheduler: at one epoch, assign every demand cell to a
// visible satellite within the per-satellite beam budget. This is the
// operational counterpart of the paper's analytical lower bound — the
// ablation bench compares the two.

#include <cstdint>
#include <memory>
#include <vector>

#include "leodivide/core/capacity_model.hpp"
#include "leodivide/geo/ecef.hpp"
#include "leodivide/orbit/propagate.hpp"
#include "leodivide/sim/workspace.hpp"

namespace leodivide::sim {

/// A demand cell prepared for scheduling (positions precomputed).
struct SchedCell {
  geo::GeoPoint center;
  geo::Vec3 ecef_km;           ///< surface position, precomputed
  std::uint32_t locations = 0;
  std::uint32_t beams_needed = 1;  ///< at the scheduler's oversub target
};

/// One successful assignment.
struct Assignment {
  std::uint32_t cell = 0;  ///< index into the scheduler's cell list
  std::uint32_t sat = 0;   ///< index into the epoch's satellite states
  std::uint32_t beams = 1; ///< whole beams (0 means a shared slot)

  friend bool operator==(const Assignment&, const Assignment&) = default;
};

/// How the scheduler picks among visible satellites with room.
enum class Strategy {
  kMostSlack,  ///< balance load: satellite with the most remaining capacity
  kFirstFit,   ///< cheapest: first visible satellite with room
  kBestFit,    ///< pack tightly: least remaining capacity that still fits
};

/// Scheduler configuration.
struct SchedulerConfig {
  std::uint32_t beams_per_satellite = 24;
  std::uint32_t beamspread = 5;
  double min_elevation_deg = 25.0;  ///< Starlink's terminal mask
  Strategy strategy = Strategy::kMostSlack;
};

/// Result of scheduling one epoch.
struct ScheduleResult {
  std::vector<Assignment> assignments;
  std::vector<std::uint32_t> unassigned_cells;  ///< indices
  std::uint64_t locations_served = 0;
  std::uint64_t locations_total = 0;
  double mean_beam_utilization = 0.0;  ///< over satellites that saw demand

  /// Exact (bit-level) equality; the indexed-vs-naive golden equivalence
  /// suite relies on it.
  friend bool operator==(const ScheduleResult&, const ScheduleResult&) =
      default;
};

/// Orbit radius [km] the coverage cone is derived from: |first state| (a
/// Walker shell has one altitude), or a 550 km shell when there are no
/// states, so psi stays well-defined.
[[nodiscard]] double coverage_radius_km(
    const std::vector<orbit::SatState>& sats);

/// Coverage-cone geometry at `radius_km` for a terminal elevation mask, via
/// orbit::coverage_central_angle_rad. Throws std::invalid_argument for a
/// mask outside [0, 90) (NaN included) or a radius at or below the surface.
[[nodiscard]] CoverageGeometry coverage_geometry(double radius_km,
                                                 double min_elevation_deg);

/// Greedy scheduler over a fixed cell list.
class BeamScheduler {
 public:
  /// Throws std::invalid_argument for zero beams or beamspread, for an
  /// elevation mask outside [0, 90), and for a cell centre with a
  /// non-finite coordinate or |lat| > 90.
  BeamScheduler(std::vector<SchedCell> cells, SchedulerConfig config);

  /// Schedules one epoch given satellite states. Cells are processed in
  /// descending beam need then descending demand; each picks among the
  /// visible satellites per the configured strategy. Internally the cell →
  /// satellite search is one scan of a per-epoch spatial index
  /// (orbit::VisIndex), which tests only the O(k) live satellites of the
  /// cell's buckets instead of O(sats), and a satellite is retired from the
  /// index once its slack reaches zero; the result is byte-identical to the
  /// naive full scan kept as a test oracle in tests/oracles.
  /// Each cell's index window is computed once per grid layout and shared
  /// by every later epoch, thread and copy of this scheduler.
  [[nodiscard]] ScheduleResult schedule(
      const std::vector<orbit::SatState>& sats) const;

  /// As above, reusing `workspace` scratch and `out`'s vector capacity:
  /// repeated epochs over a constellation of fixed size perform zero heap
  /// allocations once the buffers have warmed up. `workspace` must not be
  /// shared between threads.
  void schedule(const std::vector<orbit::SatState>& sats,
                ScheduleWorkspace& workspace, ScheduleResult& out) const;

  [[nodiscard]] const std::vector<SchedCell>& cells() const noexcept {
    return cells_;
  }
  [[nodiscard]] const SchedulerConfig& config() const noexcept {
    return config_;
  }

  /// Builds SchedCells from a demand profile at an oversubscription target
  /// (beams_needed computed from the capacity model).
  [[nodiscard]] static std::vector<SchedCell> cells_from_profile(
      const demand::DemandProfile& profile,
      const core::SatelliteCapacityModel& model, double oversub);

 private:
  struct WindowTable;
  struct WindowCache;

  /// The window table valid for `index`'s layout and psi, building and
  /// publishing a new one when the current table does not fit.
  [[nodiscard]] std::shared_ptr<const WindowTable> window_table(
      const orbit::VisIndex& index) const;

  /// A cell in processing order, with what the scheduling loop reads of it.
  struct OrderedCell {
    geo::Vec3 unit;                  ///< unit radial of the centre
    std::uint32_t cell = 0;          ///< index into cells_
    std::uint32_t beams_needed = 1;
    std::uint32_t locations = 0;
  };

  std::vector<SchedCell> cells_;
  SchedulerConfig config_;
  std::vector<OrderedCell> order_;        ///< processing order, precomputed
  std::shared_ptr<WindowCache> windows_;  ///< shared by copies
};

}  // namespace leodivide::sim
