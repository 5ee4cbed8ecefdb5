#pragma once
// Per-epoch coverage statistics derived from a schedule.

#include <cstdint>
#include <vector>

#include "leodivide/sim/scheduler.hpp"

namespace leodivide::sim {

/// Coverage snapshot of one epoch.
struct EpochCoverage {
  double time_s = 0.0;
  std::size_t cells_total = 0;
  std::size_t cells_served = 0;
  std::uint64_t locations_total = 0;
  std::uint64_t locations_served = 0;
  double mean_beam_utilization = 0.0;
  std::size_t satellites_in_view = 0;  ///< sats with >= 1 assignment

  [[nodiscard]] double cell_coverage() const noexcept {
    return cells_total == 0
               ? 1.0
               : static_cast<double>(cells_served) /
                     static_cast<double>(cells_total);
  }
  [[nodiscard]] double location_coverage() const noexcept {
    return locations_total == 0
               ? 1.0
               : static_cast<double>(locations_served) /
                     static_cast<double>(locations_total);
  }

  /// Exact (bit-level) equality; snapshot round-trip tests rely on it.
  friend bool operator==(const EpochCoverage&, const EpochCoverage&) = default;
};

/// Summarises a schedule result into an epoch snapshot, in O(assignments +
/// satellites). `scratch` is caller-owned: its contents on entry are
/// ignored, and it holds one seen-mark per satellite id on return, so
/// repeated epochs allocate nothing once its capacity has warmed up.
[[nodiscard]] EpochCoverage summarize_epoch(
    const ScheduleResult& schedule, std::size_t cells_total, double time_s,
    std::vector<std::uint32_t>& scratch);

}  // namespace leodivide::sim
