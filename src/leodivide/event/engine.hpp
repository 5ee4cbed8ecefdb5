#pragma once
// The event-driven simulator core. Where the epoch kernel recomputes the
// full beam schedule at every fixed step, this engine:
//
//   1. solves, per satellite x cell, the certified cos-threshold crossing
//      windows over the whole horizon (orbit/crossing.hpp),
//   2. sorts them under the total order (time, kind, cell, sat) — the
//      sequence is a pure function of the event set, independent of how
//      many threads computed it,
//   3. merges the sorted windows into "dirty spans" and recomputes the
//      schedule with the *exact epoch kernel* only at span boundaries,
//      reusing the previous result everywhere the visibility graph is
//      certified constant.
//
// Because the greedy schedule is a deterministic function of the boolean
// visibility graph plus integer budgets, and the solver certifies the
// graph constant between windows (with a Lipschitz bound and an evaluation
// slack that dominates float noise between the analytic g(t) and the
// kernel's own dot products), the sampled trace is byte-identical to the
// epoch kernel's at every shared timestamp — proven by the golden
// equivalence suite — while the work scales with contact dynamics instead
// of step count. The same recompute discipline yields exact handover and
// QoS accounting at event resolution as a byproduct (event/trace.hpp).

#include <cstddef>
#include <cstdint>
#include <vector>

#include "leodivide/event/event.hpp"
#include "leodivide/event/trace.hpp"
#include "leodivide/orbit/crossing.hpp"
#include "leodivide/sim/handover.hpp"
#include "leodivide/sim/qos.hpp"
#include "leodivide/sim/simulation.hpp"
#include "leodivide/sim/workspace.hpp"

namespace leodivide::runtime {
class Executor;
}

namespace leodivide::event {

/// Dirty spans are widened by this much on both sides [s] before the reuse
/// decision, so a crossing exactly on a window edge can never be attributed
/// to the certified side. Like the solver's kCrossingWindowS and
/// kCrossingEvalSlack, it is a fixed constant that keeps the determinism
/// contract.
inline constexpr double kDirtySpanGuardS = 1e-6;

/// Reusable state for the event engine. One instance per engine; after the
/// first run warms every buffer, subsequent runs of the same configuration
/// perform no steady-state heap allocation (pinned by tests/test_event.cpp).
struct EventWorkspace {
  /// One merged dirty interval; `first_kind` is the kind of the event that
  /// opened it (the latency-histogram key for its recomputes).
  struct DirtySpan {
    double lo = 0.0;
    double hi = 0.0;
    EventKind first_kind = EventKind::kInitial;
  };
  /// One exact-recompute instant.
  struct Boundary {
    double time_s = 0.0;
    EventKind kind = EventKind::kInitial;
  };

  std::vector<orbit::ConeCrossingSolver> solvers;  ///< one per satellite
  std::vector<std::vector<Event>> cell_events;     ///< per-cell, pre-sort
  std::vector<orbit::CrossingScratch> crossing_scratch;  ///< per chunk
  std::vector<std::vector<orbit::Crossing>> crossings;   ///< per chunk
  std::vector<DirtySpan> spans;
  std::vector<Boundary> boundaries;
  sim::ScheduleWorkspace sched_ws;
  sim::ScheduleResult schedule_a;
  sim::ScheduleResult schedule_b;
  std::vector<sim::CellQos> qos_cells;
  sim::HandoverScratch handover_scratch;
  EventTrace trace;  ///< run()'s backing trace, reused across runs
};

/// Event-driven counterpart of sim::Simulation: same inputs, same sampled
/// output bytes. Methods are non-const because runs reuse the engine's
/// workspace; an engine must not be driven from two threads at once (the
/// parallelism lives *inside* a run).
class EventSimulation {
 public:
  /// Mirrors sim::Simulation's constructor.
  EventSimulation(sim::SimulationConfig config,
                  const demand::DemandProfile& profile,
                  const core::SatelliteCapacityModel& model = {});

  /// Runs the event loop and writes the piecewise-constant trace into
  /// `out` (cleared first; its capacity is reused). Crossing solving is
  /// parallel over cells on `executor`; the event sort and schedule
  /// recomputation are a single deterministic serial pass, so the trace is
  /// byte-identical at every thread count.
  void run_trace(runtime::Executor& executor, EventTrace& out);

  /// Runs and samples the trace onto the fixed-step epoch grid:
  /// byte-identical to sim::Simulation::run for the same configuration.
  [[nodiscard]] std::vector<sim::EpochCoverage> run(
      runtime::Executor& executor);

  [[nodiscard]] const sim::SimulationConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] const sim::BeamScheduler& scheduler() const noexcept {
    return scheduler_;
  }

 private:
  sim::SimulationConfig config_;
  sim::BeamScheduler scheduler_;
  std::vector<orbit::CircularOrbit> orbits_;
  core::SatelliteCapacityModel model_;
  EventWorkspace ws_;
};

/// Engine dispatch: runs `config` with the core selected by
/// `config.engine` (sim::Engine::kEpoch -> sim::Simulation,
/// sim::Engine::kEvent -> EventSimulation). Both return byte-identical
/// traces; the switch only chooses how the bytes are computed.
[[nodiscard]] std::vector<sim::EpochCoverage> run_simulation(
    const sim::SimulationConfig& config, const demand::DemandProfile& profile,
    const core::SatelliteCapacityModel& model, runtime::Executor& executor);

}  // namespace leodivide::event
