#pragma once
// Handover accounting. Because LEO satellites sweep overhead (Section 2.2:
// "satellites constantly replace their spot beams ... as old cells exit the
// satellite's field of view"), a cell's serving satellite changes every few
// minutes. This module measures that churn across consecutive schedules —
// a service-quality dimension the capacity model abstracts away.

#include <cstddef>

#include "leodivide/sim/scheduler.hpp"

namespace leodivide::sim {

/// Churn between two consecutive epoch schedules over the same cell list.
struct HandoverStats {
  std::size_t cells_tracked = 0;   ///< cells assigned in both epochs
  std::size_t handovers = 0;       ///< tracked cells whose satellite changed
  std::size_t cells_dropped = 0;   ///< assigned before, unassigned now
  std::size_t cells_acquired = 0;  ///< unassigned before, assigned now

  /// Fraction of tracked cells that switched satellites.
  [[nodiscard]] double handover_rate() const noexcept {
    return cells_tracked == 0
               ? 0.0
               : static_cast<double>(handovers) /
                     static_cast<double>(cells_tracked);
  }
};

/// Compares two schedules. `cell_count` is the size of the scheduler's
/// cell list (assignments index into it); throws std::invalid_argument if
/// any assignment is out of range.
[[nodiscard]] HandoverStats compare_schedules(const ScheduleResult& before,
                                              const ScheduleResult& after,
                                              std::size_t cell_count);

}  // namespace leodivide::sim
