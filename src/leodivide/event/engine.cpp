#include "leodivide/event/engine.hpp"

#include <utility>

#include "leodivide/obs/metrics.hpp"
#include "leodivide/obs/trace.hpp"
#include "leodivide/orbit/propagate.hpp"
#include "leodivide/runtime/parallel_for.hpp"
#include "leodivide/sim/clock.hpp"
#include "leodivide/sim/coverage.hpp"

namespace leodivide::event {

namespace {

obs::Histogram& latency_histogram(EventKind kind) {
  static obs::Histogram& initial =
      obs::registry().histogram("event.latency.initial");
  static obs::Histogram& rise = obs::registry().histogram("event.latency.rise");
  static obs::Histogram& set = obs::registry().histogram("event.latency.set");
  static obs::Histogram& graze =
      obs::registry().histogram("event.latency.graze");
  switch (kind) {
    case EventKind::kRise: return rise;
    case EventKind::kSet: return set;
    case EventKind::kGraze: return graze;
    case EventKind::kInitial: break;
  }
  return initial;
}

}  // namespace

EventSimulation::EventSimulation(sim::SimulationConfig config,
                                 const demand::DemandProfile& profile,
                                 const core::SatelliteCapacityModel& model)
    : config_(config),
      scheduler_(sim::BeamScheduler::cells_from_profile(profile, model,
                                                        config.oversub_target),
                 config.scheduler),
      orbits_(orbit::make_constellation(config.shell)),
      model_(model) {}

void EventSimulation::run_trace(runtime::Executor& executor, EventTrace& out) {
  const obs::Span obs_span("event.run");
  const sim::SimClock clock(config_.duration_s, config_.step_s);
  const double duration = config_.duration_s;
  const std::vector<sim::SchedCell>& cells = scheduler_.cells();
  const std::size_t n_cells = cells.size();

  out.duration_s = config_.duration_s;
  out.step_s = config_.step_s;
  out.cells_total = n_cells;
  out.events.clear();
  out.segments.clear();
  out.handovers = sim::HandoverStats{};
  out.boundaries = 0;

  // --- Phase 1: certified crossing windows, parallel over cells. -------
  // The solver threshold comes from the kernel's own geometry derivation,
  // evaluated at t = 0. The kernel re-derives it per epoch from |sat 0|,
  // which jitters at the ulp level over time; the solver's kCrossingEvalSlack
  // dominates that jitter by orders of magnitude, so deriving once
  // preserves the certificate.
  orbit::propagate_all(orbits_, 0.0, ws_.sched_ws.states);
  const double cos_psi =
      sim::coverage_geometry(sim::coverage_radius_km(ws_.sched_ws.states),
                             config_.scheduler.min_elevation_deg)
          .cos_psi;

  ws_.solvers.clear();
  ws_.solvers.reserve(orbits_.size());
  for (const orbit::CircularOrbit& orbit : orbits_) {
    ws_.solvers.emplace_back(orbit, cos_psi);
  }

  // resize (not clear) keeps every inner vector's capacity across runs.
  ws_.cell_events.resize(n_cells);
  const std::size_t chunks = runtime::chunk_count(executor, n_cells, 1);
  ws_.crossing_scratch.resize(chunks);
  ws_.crossings.resize(chunks);
  if (n_cells > 0) {
    const obs::Span solve_span("event.solve");
    // Each chunk writes only its own cells' event vectors, so the result
    // is independent of the chunking; ordering enters below, where the
    // events are gathered in cell order and sorted. The single-chunk case
    // runs inline (the exact serial code path, and free of the
    // std::function indirection run_tasks needs — which keeps the serial
    // steady state allocation-free).
    const auto solve_chunk = [this, n_cells, chunks, &cells,
                              duration](std::size_t chunk) {
      const runtime::ChunkRange r =
          runtime::chunk_range(0, n_cells, chunks, chunk);
      std::vector<orbit::Crossing>& found = ws_.crossings[chunk];
      orbit::CrossingScratch& scratch = ws_.crossing_scratch[chunk];
      for (std::size_t ci = r.lo; ci < r.hi; ++ci) {
        std::vector<Event>& events = ws_.cell_events[ci];
        events.clear();
        const geo::Vec3 unit = cells[ci].ecef_km.unit();
        for (std::size_t si = 0; si < ws_.solvers.size(); ++si) {
          found.clear();
          ws_.solvers[si].find(unit, 0.0, duration, found, scratch);
          for (const orbit::Crossing& c : found) {
            Event ev;
            ev.time_s = c.window_lo_s;  // ordering key: earliest flip
            ev.window_lo_s = c.window_lo_s;
            ev.window_hi_s = c.window_hi_s;
            ev.kind = !c.certain ? EventKind::kGraze
                      : c.rising ? EventKind::kRise
                                 : EventKind::kSet;
            ev.cell = static_cast<std::uint32_t>(ci);
            ev.sat = static_cast<std::uint32_t>(si);
            events.push_back(ev);
          }
        }
      }
    };
    if (chunks == 1) {
      solve_chunk(0);
    } else {
      executor.run_tasks(chunks, solve_chunk);
    }
  }

  // --- Phase 2: deterministic seed, sort and walk into dirty spans. ----
  // The seed is gathered serially in cell order, and event_less is a total
  // order under which no two distinct events tie, so the sorted sequence
  // never depends on thread count (or on the seed order at all).
  std::size_t total_events = 1;  // the initial-state event
  for (const std::vector<Event>& events : ws_.cell_events) {
    total_events += events.size();
  }
  out.events.reserve(total_events);
  out.events.push_back(Event{});  // kInitial at t = 0
  for (const std::vector<Event>& events : ws_.cell_events) {
    out.events.insert(out.events.end(), events.begin(), events.end());
  }
  sort_events(out.events);

  if (obs::metrics_enabled()) {
    static obs::Gauge& depth = obs::registry().gauge("event.queue.depth");
    depth.set(static_cast<std::int64_t>(out.events.size()));
  }

  ws_.spans.clear();
  std::uint64_t n_rise = 0;
  std::uint64_t n_set = 0;
  std::uint64_t n_graze = 0;
  for (const Event& ev : out.events) {
    if (ev.kind == EventKind::kInitial) continue;
    if (ev.kind == EventKind::kRise) ++n_rise;
    if (ev.kind == EventKind::kSet) ++n_set;
    if (ev.kind == EventKind::kGraze) ++n_graze;
    double lo = ev.window_lo_s - kDirtySpanGuardS;
    double hi = ev.window_hi_s + kDirtySpanGuardS;
    if (lo < 0.0) lo = 0.0;
    if (hi > duration) hi = duration;
    // Events are sorted by ascending window_lo, so a span only ever grows
    // to the right; overlapping or touching windows coalesce.
    if (!ws_.spans.empty() && !(lo > ws_.spans.back().hi)) {
      if (hi > ws_.spans.back().hi) ws_.spans.back().hi = hi;
    } else {
      ws_.spans.push_back({lo, hi, ev.kind});
    }
  }
  if (obs::metrics_enabled()) {
    static obs::Counter& rise = obs::registry().counter("event.count.rise");
    static obs::Counter& set = obs::registry().counter("event.count.set");
    static obs::Counter& graze = obs::registry().counter("event.count.graze");
    rise.add(n_rise);
    set.add(n_set);
    graze.add(n_graze);
  }

  // --- Phase 3: boundary plan. -----------------------------------------
  // Exact recomputes happen at: t = 0; every epoch inside a dirty span
  // (its value may differ from its neighbours'); and the instant just past
  // each span (the certified-constant region's value, reused until the
  // next span). Everything else reuses the schedule of the last boundary
  // at or before it — valid because no span intersects the gap.
  ws_.boundaries.clear();
  ws_.boundaries.push_back({0.0, EventKind::kInitial});
  std::uint64_t epoch_boundaries = 1;
  std::size_t e = 1;
  for (const EventWorkspace::DirtySpan& span : ws_.spans) {
    while (e < clock.epochs() && clock.time_at(e) < span.lo) ++e;
    while (e < clock.epochs() && !(clock.time_at(e) > span.hi)) {
      ws_.boundaries.push_back({clock.time_at(e), span.first_kind});
      ++epoch_boundaries;
      ++e;
    }
    // Post-span boundary, only when a later epoch will reuse it and the
    // span didn't already end exactly on the last boundary pushed.
    if (e < clock.epochs() && ws_.boundaries.back().time_s < span.hi) {
      ws_.boundaries.push_back({span.hi, span.first_kind});
    }
  }

  // --- Phase 4: serial recompute with the exact epoch kernel. ----------
  out.boundaries = ws_.boundaries.size();
  sim::ScheduleResult* prev = &ws_.schedule_a;
  sim::ScheduleResult* cur = &ws_.schedule_b;
  for (std::size_t k = 0; k < ws_.boundaries.size(); ++k) {
    const EventWorkspace::Boundary& boundary = ws_.boundaries[k];
    const obs::ScopedLatency latency(latency_histogram(boundary.kind));
    orbit::propagate_all(orbits_, boundary.time_s, ws_.sched_ws.states);
    scheduler_.schedule(ws_.sched_ws.states, ws_.sched_ws, *cur);
    const bool changed = k == 0 || !(*cur == *prev);
    if (changed) {
      if (!out.segments.empty()) {
        out.segments.back().end_s = boundary.time_s;
        out.handovers +=
            compare_schedules(*prev, *cur, n_cells, ws_.handover_scratch);
      }
      CoverageSegment segment;
      segment.begin_s = boundary.time_s;
      segment.end_s = duration;
      segment.coverage = sim::summarize_epoch(*cur, n_cells, boundary.time_s,
                                              ws_.sched_ws.sat_dedup);
      sim::compute_qos(cells, *cur, model_, config_.scheduler,
                       config_.oversub_target, ws_.qos_cells);
      segment.qos = sim::summarize_qos(ws_.qos_cells);
      out.segments.push_back(segment);
      std::swap(prev, cur);
    }
  }

  if (obs::metrics_enabled()) {
    static obs::Counter& recomputed =
        obs::registry().counter("event.epochs.recomputed");
    static obs::Counter& reused =
        obs::registry().counter("event.epochs.reused");
    recomputed.add(epoch_boundaries);
    reused.add(clock.epochs() - epoch_boundaries);
  }
}

std::vector<sim::EpochCoverage> EventSimulation::run(
    runtime::Executor& executor) {
  run_trace(executor, ws_.trace);
  return sample_epochs(ws_.trace);
}

std::vector<sim::EpochCoverage> run_simulation(
    const sim::SimulationConfig& config, const demand::DemandProfile& profile,
    const core::SatelliteCapacityModel& model, runtime::Executor& executor) {
  if (config.engine == sim::Engine::kEvent) {
    EventSimulation simulation(config, profile, model);
    return simulation.run(executor);
  }
  const sim::Simulation simulation(config, profile, model);
  return simulation.run(executor);
}

}  // namespace leodivide::event
