#pragma once
// Reusable per-executor-thread scratch for the epoch scheduling loop. One
// workspace per worker (the simulation driver creates one per parallel_for
// chunk) lets every epoch after the first reuse the satellite budgets,
// touched flags, visible lists and the spatial index storage (unit radials
// included) — the steady-state epoch loop performs zero heap allocations
// (pinned by tests/test_sim_equivalence.cpp).

#include <cstdint>
#include <vector>

#include "leodivide/orbit/propagate.hpp"
#include "leodivide/orbit/visindex.hpp"
#include "leodivide/sim/beam.hpp"

namespace leodivide::sim {

/// Memoized coverage-cone geometry. Keyed on the exact bit patterns of the
/// orbit radius and elevation mask: repeated epochs of one shell re-derive
/// the acos/cos constants only once per workspace, and a key miss merely
/// recomputes them, so exact float comparison is the correct cache test.
struct CoverageGeometry {
  double radius_km = -1.0;          ///< key: |sat position| (< 0 = unset)
  double min_elevation_deg = -1.0;  ///< key: terminal mask
  double psi_rad = 0.0;             ///< coverage central angle
  double cos_psi = 0.0;             ///< visibility threshold on unit dot

  [[nodiscard]] bool matches(double radius, double elevation) const noexcept {
    // leolint:allow(float-eq): exact-bit memo key; a miss only recomputes
    return radius == radius_km && elevation == min_elevation_deg;
  }
};

/// Scratch buffers for BeamScheduler::schedule and the simulation's epoch
/// loop. Not thread-safe: use one instance per worker thread.
struct ScheduleWorkspace {
  CoverageGeometry geometry;
  orbit::VisIndex index;

  std::vector<BeamBudget> budgets;        ///< per-satellite beam budgets
  std::vector<std::uint8_t> sat_touched;  ///< per-satellite "saw demand"
  std::vector<std::uint32_t> visible;     ///< per-cell scan, sized to sats
  std::vector<orbit::SatState> states;    ///< propagate_all target
  std::vector<std::uint32_t> sat_dedup;   ///< summarize_epoch scratch
};

}  // namespace leodivide::sim
