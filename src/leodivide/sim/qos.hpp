#pragma once
// Per-cell quality of service from a schedule: the capacity each served
// cell actually received and the oversubscription its subscribers
// experience — the simulator-side counterpart of the paper's per-cell
// oversubscription analysis (F1).

#include <vector>

#include "leodivide/core/capacity_model.hpp"
#include "leodivide/sim/scheduler.hpp"

namespace leodivide::sim {

/// Delivered service at one served cell.
struct CellQos {
  std::uint32_t cell = 0;            ///< index into the scheduler's cells
  double capacity_gbps = 0.0;        ///< beam capacity allocated to the cell
  double achieved_oversub = 0.0;     ///< demand / capacity
  bool within_target = false;        ///< achieved <= target oversub
};

/// Aggregate view of one epoch's QoS.
struct QosSummary {
  std::size_t cells_served = 0;
  std::size_t cells_within_target = 0;
  double mean_oversub = 0.0;   ///< over served cells with demand
  double worst_oversub = 0.0;
  double fraction_within_target = 0.0;

  /// Exact (bit-level) equality; event-trace snapshot round trips rely on
  /// it.
  friend bool operator==(const QosSummary&, const QosSummary&) = default;
};

/// Computes per-cell QoS for a schedule into caller-owned `out` (cleared
/// first): repeated calls at warm capacity perform no heap allocation.
/// Whole-beam assignments receive beams * per-beam capacity; shared-slot
/// assignments receive per-beam / beamspread.
void compute_qos(const std::vector<SchedCell>& cells,
                 const ScheduleResult& schedule,
                 const core::SatelliteCapacityModel& model,
                 const SchedulerConfig& config, double target_oversub,
                 std::vector<CellQos>& out);

/// Reduces per-cell QoS to a summary.
[[nodiscard]] QosSummary summarize_qos(const std::vector<CellQos>& qos);

}  // namespace leodivide::sim
