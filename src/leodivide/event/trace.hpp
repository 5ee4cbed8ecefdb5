#pragma once
// The event engine's output: a piecewise-constant coverage trace. Instead
// of one `EpochCoverage` per fixed step, the trace records one
// `CoverageSegment` per interval over which the beam schedule is provably
// constant, the full sorted event list, and *exact* handover totals
// (accumulated at segment boundaries, i.e. at event resolution rather
// than step resolution). `sample_epochs` projects the trace back onto the
// fixed-step grid, byte-identical to what the epoch kernel would have
// produced — the golden-equivalence contract.

#include <cstdint>
#include <vector>

#include "leodivide/event/event.hpp"
#include "leodivide/sim/coverage.hpp"
#include "leodivide/sim/handover.hpp"
#include "leodivide/sim/qos.hpp"

namespace leodivide::event {

/// One maximal interval [begin_s, end_s) over which the schedule — and
/// therefore coverage and QoS — is constant. `coverage.time_s` equals
/// `begin_s` (the instant the segment's schedule was computed exactly).
struct CoverageSegment {
  double begin_s = 0.0;
  double end_s = 0.0;
  sim::EpochCoverage coverage;
  sim::QosSummary qos;

  friend bool operator==(const CoverageSegment&, const CoverageSegment&) =
      default;
};

/// A complete event-driven run. `events` is every event, sorted under
/// event_less; `segments` partition [0, duration_s]; `handovers` are the
/// exact accumulated churn totals across all segment transitions;
/// `boundaries` counts exact schedule recomputations (the engine's work
/// metric — compare against the epoch count for the reuse ratio).
struct EventTrace {
  double duration_s = 0.0;
  double step_s = 0.0;
  std::uint64_t cells_total = 0;
  std::vector<Event> events;
  std::vector<CoverageSegment> segments;
  sim::HandoverStats handovers;
  std::uint64_t boundaries = 0;

  friend bool operator==(const EventTrace&, const EventTrace&) = default;
};

/// Projects the trace onto the fixed-step epoch grid of
/// SimClock(duration_s, step_s): epoch e takes the coverage of the segment
/// containing its timestamp, with `time_s` rewritten to the epoch time.
/// Byte-identical to the epoch kernel's trace for the same configuration.
/// Throws std::invalid_argument if the trace has no segments.
[[nodiscard]] std::vector<sim::EpochCoverage> sample_epochs(
    const EventTrace& trace);

/// As above, writing into caller-owned `out` (resized to the epoch count);
/// repeated calls at warm capacity perform no heap allocation.
void sample_epochs(const EventTrace& trace,
                   std::vector<sim::EpochCoverage>& out);

}  // namespace leodivide::event
