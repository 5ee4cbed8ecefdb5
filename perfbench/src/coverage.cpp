// coverage_epoch: sim::Simulation::run with the fixed-step epoch engine over
// the national profile, Starlink shell 1 (72 x 22) at a 60 s step. One pass
// is one run over the horizon plus its summary. orbit (propagation and the
// visibility kernels) and sim (index, scheduler) do all of its work.
//
// The event engine is left out: at this scale it took 40 s and 2 GB for the
// 10-minute coverage_sim default and ran out of memory near 16 GB at 120
// minutes, against 0.31 s for the epoch engine (see perfbench/README.md).

#include <cmath>
#include <memory>
#include <string>

#include "harness.hpp"
#include "leodivide/demand/generator.hpp"
#include "leodivide/obs/obs.hpp"
#include "leodivide/orbit/propagate.hpp"
#include "leodivide/runtime/executor.hpp"
#include "leodivide/sim/coverage.hpp"
#include "leodivide/sim/metrics.hpp"
#include "leodivide/sim/simulation.hpp"

namespace perfbench {
namespace {

using namespace leodivide;

/// Simulated horizon [min]: enough epochs that every executor thread gets
/// several, so a pass measures the epoch loop rather than its tail.
constexpr double kHorizonMin = 30.0;

sim::SimulationConfig sim_config() {
  sim::SimulationConfig config;
  config.scheduler.beamspread = 5;
  config.duration_s = kHorizonMin * 60.0;
  config.step_s = 60.0;
  return config;
}

demand::DemandProfile make_profile(const Options& opt) {
  demand::GeneratorConfig gen;
  gen.seed = opt.seed;
  gen.scale = opt.scale;
  return demand::SyntheticGenerator{gen}.generate_profile();
}

/// The 1-thread reference trace, checked against the EXPERIMENTS.md anchor
/// (mean cell coverage 0.170 for shell 1) on the full-scale seed-42 profile.
std::vector<sim::EpochCoverage> reference_trace(const Options& opt,
                                                const sim::Simulation& sim,
                                                Tally& tally) {
  std::vector<sim::EpochCoverage> trace = sim.run(runtime::serial_executor());
  const double mean = sim::summarize(trace).mean_cell_coverage;
  const bool anchor =
      opt.seed != 42 || opt.scale != 1.0 || std::abs(mean - 0.170) < 0.001;
  tally.record(anchor, "coverage_epoch mean cell coverage " +
                           std::to_string(mean) + " is not 0.170");
  return trace;
}

}  // namespace

void coverage_run(const Options& opt, Tally& tally, Metrics& out) {
  std::vector<double> setup_s;
  demand::DemandProfile profile;
  std::unique_ptr<sim::Simulation> sim;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const Clock::time_point t0 = Clock::now();
    profile = make_profile(opt);
    sim = std::make_unique<sim::Simulation>(sim_config(), profile);
    setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
  }
  const std::vector<sim::EpochCoverage> reference =
      reference_trace(opt, *sim, tally);

  std::vector<double> pass_ms;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(opt.seconds));
  for (int n = 0; n == 0 || Clock::now() < deadline; ++n) {
    const Clock::time_point t0 = Clock::now();
    const std::vector<sim::EpochCoverage> trace = sim->run();
    const sim::SimulationReport report = sim::summarize(trace);
    const double ms = ms_between(t0, Clock::now());
    const bool ok = trace == reference && report.epochs == reference.size();
    tally.record(ok, "epoch trace differs from the 1-thread run");
    if (ok) pass_ms.push_back(ms);
  }
  set_end_to_end(out, setup_s, pass_ms);
}

void coverage_traced(const Options& opt, double budget_s, Tally& tally,
                     Metrics& out) {
  const demand::DemandProfile profile = make_profile(opt);
  const sim::Simulation sim(sim_config(), profile);
  const std::vector<sim::EpochCoverage> reference =
      reference_trace(opt, sim, tally);
  Samples samples;

  // Simulation::run's component calls, one epoch after another on this
  // thread, assembled into a trace that must equal the single call's.
  {
    Layers layers;
    const sim::SimClock clock(sim.config().duration_s, sim.config().step_s);
    sim::ScheduleWorkspace workspace;
    sim::ScheduleResult schedule;
    std::vector<sim::EpochCoverage> trace;
    for (std::size_t e = 0; e < clock.epochs(); ++e) {
      const double t = clock.time_at(e);
      layers.time("orbit.propagate_ms", [&] {
        orbit::propagate_all(sim.orbits(), t, workspace.states);
      });
      layers.time("sim.schedule_ms", [&] {
        sim.scheduler().schedule(workspace.states, workspace, schedule);
      });
      trace.push_back(layers.time("sim.summarize_ms", [&] {
        return sim::summarize_epoch(schedule, sim.scheduler().cells().size(),
                                    t, workspace.sat_dedup);
      }));
    }
    tally.record(trace == reference,
                 "Simulation::run components differ from the single call");
    for (const char* name :
         {"orbit.propagate_ms", "sim.schedule_ms", "sim.summarize_ms"}) {
      samples[name].push_back(layers.ms(name));
    }
  }

  obs::HistogramSnapshot queue_wait;
  std::vector<double> untraced_ms;
  std::vector<double> traced_ms;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(budget_s));
  while (traced_ms.size() < 2 || Clock::now() < deadline) {
    for (const bool traced : {false, true}) {
      set_observability(traced);
      Layers layers;
      const Clock::time_point t0 = Clock::now();
      const std::vector<sim::EpochCoverage> trace =
          layers.time("sim.run_ms", [&] { return sim.run(); });
      (void)layers.time("sim.report_ms", [&] { return sim::summarize(trace); });
      const double ms = ms_between(t0, Clock::now());
      const obs::MetricsSnapshot snap = obs::registry().snapshot();
      set_observability(false);
      const bool ok = trace == reference;
      tally.record(ok, "traced-run epoch trace differs from the 1-thread run");
      if (!ok) continue;
      if (!traced) {
        untraced_ms.push_back(ms);
        continue;
      }
      traced_ms.push_back(ms);
      samples["pass.untimed_frac"].push_back((ms - layers.total_ms()) / ms);
      const double pruned = counter(snap, "sim.sched.pruned");
      const double pairs = counter(snap, "sim.sched.candidates") + pruned;
      samples["sim.prune_ratio"].push_back(pruned / pairs);
      samples["sim.epochs"].push_back(counter(snap, "sim.epochs"));
      record_runtime(snap, ms, opt.threads, samples, queue_wait);
    }
  }
  samples["trace_overhead_frac"].push_back(median(traced_ms) /
                                               median(untraced_ms) -
                                           1.0);
  samples["runtime.queue_wait_us_p50"].push_back(
      histogram_quantile_us(queue_wait, 0.5));

  // One traced pass at 1 thread.
  runtime::set_global_threads(1);
  set_observability(true);
  const Clock::time_point t0 = Clock::now();
  const std::vector<sim::EpochCoverage> trace = sim.run();
  const double one_thread_ms = ms_between(t0, Clock::now());
  set_observability(false);
  runtime::set_global_threads(opt.threads);
  tally.record(trace == reference, "1-thread traced pass differs");
  out.set("coverage_epoch.sim.run_t1_ratio",
          one_thread_ms / median(traced_ms), "ratio");
  emit_medians("coverage_epoch.", samples, out);
}

}  // namespace perfbench
