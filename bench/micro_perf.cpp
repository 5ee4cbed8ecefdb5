// The gated micro harnesses. Each mode checks its fast path byte-identical
// against a reference before timing anything, and exits nonzero on a
// mismatch. Pick the harness with its mode flag:
//   --sim-schedule  indexed (VisIndex) vs naive full-scan scheduling over a
//                   cells x sats sweep and the national profile on Starlink
//                   shell 1; gated against BENCH_sim.json.
//   --serve-delta   incremental per-region recompute (serve/) vs full
//                   recompute per delta; gated against BENCH_serve.json.
//   --market        the three-operator market serially and on a pool;
//                   gated against BENCH_market.json.
//   --graph         K scenario chains sequential vs one pool batch, each
//                   chain storing its own blob; gated against
//                   BENCH_graph.json.
// tools/bench_check.py gates each mode's JSON lines against its baseline.

#include <algorithm>
#include <bit>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "leodivide/afford/affordability.hpp"
#include "leodivide/core/served_fraction.hpp"
#include "leodivide/core/sizing.hpp"
#include "leodivide/demand/generator.hpp"
#include "leodivide/geo/angle.hpp"
#include "leodivide/hex/hexgrid.hpp"
#include "leodivide/market/simulation.hpp"
#include "leodivide/orbit/propagate.hpp"
#include "leodivide/orbit/walker.hpp"
#include "leodivide/runtime/executor.hpp"
#include "leodivide/runtime/thread_pool.hpp"
#include "leodivide/serve/incremental.hpp"
#include "leodivide/serve/session.hpp"
#include "leodivide/sim/scheduler.hpp"
#include "leodivide/sim/simulation.hpp"
#include "leodivide/sim/workspace.hpp"
#include "leodivide/snapshot/snapshot.hpp"
#include "leodivide/stats/rng.hpp"
#include "oracles/oracles.hpp"

namespace {

using namespace leodivide;

// One `--sim-schedule` comparison scale: a synthetic cell field against a
// Walker shell of planes x sats_per_plane satellites.
struct SimScheduleCase {
  std::size_t n_cells;
  std::uint32_t planes;
  std::uint32_t sats_per_plane;
};

std::vector<sim::SchedCell> synthetic_sched_cells(std::size_t n) {
  // Cells across the shell's covered latitudes (+-56 deg for the 53 deg
  // shell), all longitudes, mixed demand and beam needs.
  stats::Pcg32 rng(4242);
  std::vector<sim::SchedCell> cells;
  cells.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    sim::SchedCell c;
    c.center = {-56.0 + rng.next_double() * 112.0,
                -180.0 + rng.next_double() * 360.0};
    c.ecef_km = geo::spherical_to_cartesian(c.center, geo::kEarthRadiusKm);
    c.locations = 1 + rng.next_below(2000);
    c.beams_needed = 1 + rng.next_below(3);
    cells.push_back(c);
  }
  return cells;
}

// Best-of plus median-of-`reps` wall time of `fn` in milliseconds (warm
// caller assumed). The best-of is the gated low-noise estimator; the median
// shows how far a typical run sits from it (bench_check.py reports
// `median_speedup` informationally). Use an odd `reps` where the median is
// read, so it is an actual observation.
struct RepTimes {
  double best_ms;
  double median_ms;
};
template <typename Fn>
RepTimes timed_reps_ms(int reps, const Fn& fn) {
  std::vector<double> ms;
  ms.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    const bench::WallTimer timer;
    fn();
    ms.push_back(timer.elapsed_ms());
  }
  std::sort(ms.begin(), ms.end());
  return {ms.front(), ms[ms.size() / 2]};
}

// Checks one `--sim-schedule` case byte-identical to the naive reference,
// then times both kernels and prints the case's JSON line. A non-empty
// `profile` names the demand profile the cells come from. Returns nonzero
// when the kernels disagree.
int run_sim_schedule_case(const sim::BeamScheduler& scheduler,
                          const std::vector<orbit::SatState>& states,
                          const std::string& profile) {
  const std::size_t n_cells = scheduler.cells().size();
  std::cout << "  case: " << n_cells << " cells x " << states.size()
            << " sats" << (profile.empty() ? "" : " (" + profile + " profile)")
            << "\n";

  sim::ScheduleWorkspace ws;
  sim::ScheduleResult indexed;
  scheduler.schedule(states, ws, indexed);  // also warms the workspace
  const sim::ScheduleResult naive =
      oracle::schedule_reference(scheduler, states);
  if (!(indexed == naive)) {
    std::cerr << "FAIL: indexed and naive schedules differ at " << n_cells
              << "x" << states.size() << "\n";
    return 1;
  }
  std::cout << "  outputs:  byte-identical (served "
            << indexed.locations_served << "/" << indexed.locations_total
            << " locations)\n";

  const double naive_ms =
      timed_reps_ms(3, [&] {
        bench::keep(oracle::schedule_reference(scheduler, states));
      }).best_ms;
  const double indexed_ms =
      timed_reps_ms(5, [&] { scheduler.schedule(states, ws, indexed); })
          .best_ms;
  std::cout << "  naive:    " << naive_ms << " ms\n"
            << "  indexed:  " << indexed_ms << " ms\n"
            << "  speedup:  " << naive_ms / indexed_ms << "x\n";
  std::cout << "{\"bench\":\"sim.schedule\""
            << (profile.empty() ? "" : ",\"profile\":\"" + profile + "\"")
            << ",\"cells\":" << n_cells << ",\"sats\":" << states.size()
            << ",\"naive_ms\":" << naive_ms << ",\"indexed_ms\":" << indexed_ms
            << ",\"speedup\":" << naive_ms / indexed_ms << "}" << std::endl;
  return 0;
}

// The `--sim-schedule` kernel-comparison harness. Returns the process exit
// code: nonzero when the kernels disagree on any case.
int run_sim_schedule_harness() {
  bench::banner("micro_perf: sim.schedule indexed vs naive kernel");
  int rc = 0;
  const SimScheduleCase cases[] = {{1000, 40, 25}, {4000, 80, 50}};
  for (const SimScheduleCase& c : cases) {
    const orbit::WalkerShell shell{53.0, 550.0, c.planes, c.sats_per_plane,
                                   1};
    rc |= run_sim_schedule_case(
        sim::BeamScheduler(synthetic_sched_cells(c.n_cells),
                           sim::SchedulerConfig{}),
        orbit::propagate_all(orbit::make_constellation(shell), 100.0), "");
  }
  // The traffic the scheduler serves in practice: the coverage_sim default
  // run's cells (national profile, seed 42, 20:1 target, beamspread 5)
  // against Starlink shell 1, where most cells test a handful of live
  // candidates and keep about one.
  sim::SchedulerConfig national;
  national.beamspread = 5;
  rc |= run_sim_schedule_case(
      sim::BeamScheduler(
          sim::BeamScheduler::cells_from_profile(
              bench::national_profile(), core::SatelliteCapacityModel(),
              sim::SimulationConfig{}.oversub_target),
          national),
      orbit::propagate_all(orbit::make_constellation(orbit::starlink_shell1()),
                           100.0),
      "national");
  return rc;
}

// Bit-level equality for the serve-delta harness's cross-checks (the
// determinism contract is byte-identical, not approximately-equal).
bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_sizing(const core::SizingResult& a, const core::SizingResult& b) {
  return same_bits(a.satellites, b.satellites) &&
         same_bits(a.binding_lat_deg, b.binding_lat_deg) &&
         a.beams_on_binding == b.beams_on_binding &&
         a.binding_cell_index == b.binding_cell_index;
}

// The `--serve-delta` harness: incremental per-region recompute (serve/)
// vs full library recompute after each single-cell delta. Both paths apply
// the same op sequence to their own copy of the baseline and answer the
// same resize + served-fraction queries each round; answers are checked
// bit-identical before anything is timed. Affordability is cross-checked
// once at the end but kept out of the timed loop: an add-delta revises a
// county count, so both paths rebuild the affordability analyzer in full —
// there is no incremental win to measure there. Returns the process exit
// code: nonzero on any answer mismatch.
int run_serve_delta_harness(std::size_t smoke_workers) {
  bench::banner("micro_perf: serve.delta incremental vs full recompute");
  int rc = 0;
  constexpr int kRounds = 200;
  constexpr double kBeamspread = 10.0;
  constexpr double kOversubCap = 20.0;

  const demand::DemandProfile baseline =
      demand::SyntheticGenerator({.seed = 42, .scale = 0.5})
          .generate_profile();
  const std::size_t n_cells = baseline.cell_count();
  std::cout << "  baseline: " << n_cells << " cells, "
            << baseline.counties().size() << " counties, " << kRounds
            << " rounds of 1 add-delta + resize + served\n";

  // One add-op per round, spread over the baseline's cells.
  std::vector<demand::DeltaOp> ops;
  ops.reserve(kRounds);
  for (int r = 0; r < kRounds; ++r) {
    demand::DeltaOp op;
    op.kind = demand::DeltaKind::kAddLocations;
    op.position =
        baseline.cells()[(static_cast<std::size_t>(r) * 9973) % n_cells]
            .center;
    op.count = 25;
    ops.push_back(op);
  }

  const core::SizingModel model{};
  runtime::Executor& executor = runtime::serial_executor();

  // Incremental path: engine owns its copy; cold partial build happens on
  // the first query and is reported separately (it is the startup cost a
  // long-lived server pays once).
  serve::IncrementalEngine engine(baseline, serve::EngineConfig{});
  const bench::WallTimer cold_timer;
  (void)engine.query_resize(kBeamspread, kOversubCap);
  (void)engine.query_served_fraction(kBeamspread, kOversubCap);
  const double cold_ms = cold_timer.elapsed_ms();

  std::vector<serve::ResizeAnswer> inc_resize(ops.size());
  std::vector<serve::ServedFractionAnswer> inc_served(ops.size());
  const bench::WallTimer inc_timer;
  for (std::size_t r = 0; r < ops.size(); ++r) {
    (void)engine.apply(ops[r]);
    inc_resize[r] = engine.query_resize(kBeamspread, kOversubCap);
    inc_served[r] = engine.query_served_fraction(kBeamspread, kOversubCap);
  }
  const double incremental_ms = inc_timer.elapsed_ms();

  // Full path: same ops against a second copy, answered by the plain
  // library calls on every round.
  demand::DemandProfile full_profile = baseline;
  const hex::HexGrid grid;
  demand::DeltaApplier applier(full_profile, grid,
                               hex::kServiceCellResolution);
  std::vector<core::SizingResult> full_full(ops.size());
  std::vector<core::SizingResult> full_capped(ops.size());
  std::vector<double> full_cell_frac(ops.size());
  std::vector<double> full_loc_frac(ops.size());
  const bench::WallTimer full_timer;
  for (std::size_t r = 0; r < ops.size(); ++r) {
    (void)applier.apply(ops[r]);
    full_full[r] = core::size_full_service(full_profile, model, kBeamspread);
    full_capped[r] = core::size_with_cap(full_profile, model, kBeamspread,
                                         kOversubCap, executor);
    full_cell_frac[r] = core::served_cell_fraction(
        full_profile, model.capacity, kBeamspread, kOversubCap);
    full_loc_frac[r] = core::served_location_fraction(
        full_profile, model.capacity, kBeamspread, kOversubCap);
  }
  const double full_ms = full_timer.elapsed_ms();

  for (std::size_t r = 0; r < ops.size(); ++r) {
    if (!same_sizing(inc_resize[r].full, full_full[r]) ||
        !same_sizing(inc_resize[r].capped, full_capped[r]) ||
        !same_bits(inc_served[r].cell_fraction, full_cell_frac[r]) ||
        !same_bits(inc_served[r].location_fraction, full_loc_frac[r])) {
      std::cerr << "FAIL: incremental and full answers differ at round " << r
                << "\n";
      rc = 1;
    }
  }

  // Affordability correctness on the fully mutated profile (untimed).
  const afford::ServicePlan plan = afford::starlink_residential();
  const afford::PlanAffordability inc_afford =
      engine.query_affordability(plan, afford::kAffordabilityThreshold);
  const afford::PlanAffordability full_afford =
      afford::AffordabilityAnalyzer(full_profile)
          .evaluate(plan, afford::kAffordabilityThreshold);
  if (!(inc_afford == full_afford)) {
    std::cerr << "FAIL: incremental and full affordability answers differ\n";
    rc = 1;
  }
  if (rc == 0) {
    std::cout << "  outputs:  byte-identical over " << kRounds
              << " rounds (+ affordability)\n";
  }

  std::cout << "  cold partial build: " << cold_ms << " ms\n"
            << "  full:        " << full_ms << " ms\n"
            << "  incremental: " << incremental_ms << " ms\n"
            << "  speedup:     " << full_ms / incremental_ms << "x\n";
  std::cout << "{\"bench\":\"serve.delta\",\"cells\":" << n_cells
            << ",\"rounds\":" << kRounds << ",\"deltas_per_round\":1"
            << ",\"full_ms\":" << full_ms
            << ",\"incremental_ms\":" << incremental_ms
            << ",\"speedup\":" << full_ms / incremental_ms << "}"
            << std::endl;

  // Concurrency smoke: `--workers W` threads hammer one ServiceState (the
  // same lock the socket server's worker pool contends on) and every reply
  // must come back well-formed and identical across threads.
  if (smoke_workers > 1) {
    serve::ServiceState state(
        demand::SyntheticGenerator({.seed = 42, .scale = 0.05})
            .generate_profile(),
        serve::ServiceConfig{});
    const std::string expected =
        state
            .handle({serve::protocol::MsgType::kQueryServedFraction,
                     encode(serve::protocol::QueryServedFractionRequest{
                         kBeamspread, kOversubCap})})
            .payload;
    std::vector<std::thread> threads;
    std::vector<int> errors(smoke_workers, 0);
    for (std::size_t w = 0; w < smoke_workers; ++w) {
      threads.emplace_back([&, w] {
        for (int q = 0; q < 50; ++q) {
          const serve::protocol::Frame reply =
              state.handle({serve::protocol::MsgType::kQueryServedFraction,
                            encode(serve::protocol::QueryServedFractionRequest{
                                kBeamspread, kOversubCap})});
          if (reply.type !=
                  serve::protocol::MsgType::kServedFractionResult ||
              reply.payload != expected) {
            errors[w] = 1;
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    for (std::size_t w = 0; w < smoke_workers; ++w) {
      if (errors[w] != 0) {
        std::cerr << "FAIL: concurrent session smoke saw a bad reply\n";
        rc = 1;
        break;
      }
    }
    if (rc == 0) {
      std::cout << "  smoke:    " << smoke_workers << " worker(s) x 50"
                << " queries, all replies identical\n";
    }
  }
  return rc;
}

// The `--market` harness: the three-operator default market under the
// FairShare split, evaluated serially and on a three-thread pool (one
// worker per operator — the parallelism MarketSimulation actually
// exploits). The two reports are checked byte-identical (operator==, which
// is bit-level on every float) before anything is timed. Returns the
// process exit code: nonzero when the reports differ.
int run_market_harness() {
  bench::banner("micro_perf: market.operators serial vs pooled evaluation");
  const demand::DemandProfile profile =
      demand::SyntheticGenerator({.seed = 11, .scale = 1.0})
          .generate_profile();

  market::MarketConfig config;
  config.operators = market::default_market();
  config.split.policy = market::SplitPolicy::kFairShare;
  const market::MarketSimulation simulation(config);
  const std::size_t n_operators = config.operators.size();
  std::cout << "  case: " << n_operators << " operators x "
            << profile.cell_count() << " cells, policy "
            << market::to_string(config.split.policy) << "\n";

  runtime::Executor& serial = runtime::serial_executor();
  runtime::ThreadPool pool(n_operators);

  const market::MarketReport serial_report = simulation.run(profile, serial);
  const market::MarketReport pool_report = simulation.run(profile, pool);
  if (!(serial_report == pool_report)) {
    std::cerr << "FAIL: serial and pooled market reports differ\n";
    return 1;
  }
  std::cout << "  outputs:  byte-identical across executors\n";

  const double serial_ms =
      timed_reps_ms(3, [&] {
        bench::keep(simulation.run(profile, serial));
      }).best_ms;
  const double pool_ms =
      timed_reps_ms(3, [&] {
        bench::keep(simulation.run(profile, pool));
      }).best_ms;
  std::cout << "  serial:   " << serial_ms << " ms\n"
            << "  pooled:   " << pool_ms << " ms\n"
            << "  speedup:  " << serial_ms / pool_ms << "x\n";
  std::cout << "{\"bench\":\"market.operators\",\"operators\":" << n_operators
            << ",\"cells\":" << profile.cell_count()
            << ",\"serial_ms\":" << serial_ms << ",\"pool_ms\":" << pool_ms
            << ",\"speedup\":" << serial_ms / pool_ms << "}" << std::endl;
  return 0;
}

// The `--graph` harness: K independent scenario chains (synthetic
// generation -> full analysis -> snapshot store) run strictly sequentially,
// vs one K-task batch on a four-thread pool. Every chain stores its blob
// synchronously inside its own task, so in the batch one chain's store
// overlaps the others' compute. Inner stage parallelism is pinned to one
// thread (set_global_threads(1)) so the ratio isolates cross-chain
// overlap. Per-chain serialized results are checked byte-identical between
// the two modes before anything is timed. Like the market bench, the
// >= 1.3x gate needs real hardware threads — on a single-core host the
// ratio degenerates to ~1x (CI-only gate).
int run_graph_harness() {
  bench::banner("micro_perf: chain-parallel pipeline");
  constexpr std::size_t kChains = 4;
  runtime::set_global_threads(1);  // chains overlap; inner stages serial

  const std::filesystem::path cache_dir =
      std::filesystem::temp_directory_path() / "leodivide_graph_bench";
  std::filesystem::remove_all(cache_dir);
  const snapshot::StageCache cache(cache_dir.string());

  demand::GeneratorConfig configs[kChains];
  snapshot::Fingerprint fps[kChains];
  for (std::size_t k = 0; k < kChains; ++k) {
    configs[k] = {.seed = 100 + static_cast<std::uint64_t>(k), .scale = 0.4};
    fps[k] = snapshot::stage_fingerprint("bench.analysis");
    snapshot::mix(fps[k], configs[k]);
  }

  // One chain: generate, analyze, serialize, store.
  const auto run_chain = [&](std::size_t k, std::string& blob_out) {
    const demand::DemandProfile profile =
        demand::SyntheticGenerator(configs[k]).generate_profile();
    const core::AnalysisResults results = core::run_full_analysis(profile);
    blob_out = snapshot::serialize(results);
    cache.store("bench.analysis", fps[k], blob_out);
  };

  std::cout << "  case: " << kChains
            << " generate->analyze->store chains, pool(4), each chain "
               "storing in its own task\n";

  // Byte-identity first: sequential vs batch.
  std::vector<std::string> blobs_seq(kChains), blobs_graph(kChains);
  const auto run_sequential = [&] {
    for (std::size_t k = 0; k < kChains; ++k) run_chain(k, blobs_seq[k]);
  };
  const auto run_graph = [&](runtime::Executor& ex) {
    ex.run_tasks(kChains, [&run_chain, &blobs_graph](std::size_t k) {
      run_chain(k, blobs_graph[k]);
    });
  };

  runtime::ThreadPool pool(4);
  run_sequential();
  run_graph(pool);
  for (std::size_t k = 0; k < kChains; ++k) {
    if (blobs_seq[k] != blobs_graph[k]) {
      std::cerr << "FAIL: chain " << k
                << " serialized results differ between sequential and "
                   "graph runs\n";
      std::filesystem::remove_all(cache_dir);
      return 1;
    }
  }
  std::cout << "  outputs:  byte-identical across modes ("
            << blobs_seq[0].size() << " B/chain)\n";

  const RepTimes seq = timed_reps_ms(5, run_sequential);
  const RepTimes graphed = timed_reps_ms(5, [&] { run_graph(pool); });
  std::filesystem::remove_all(cache_dir);
  std::cout << "  seq:      " << seq.best_ms << " ms\n"
            << "  graph:    " << graphed.best_ms << " ms\n"
            << "  speedup:  " << seq.best_ms / graphed.best_ms << "x (median "
            << seq.median_ms / graphed.median_ms << "x)\n";
  std::cout << "{\"bench\":\"graph\",\"case\":\"pipeline\",\"chains\":"
            << kChains << ",\"seq_ms\":" << seq.best_ms
            << ",\"graph_ms\":" << graphed.best_ms
            << ",\"speedup\":" << seq.best_ms / graphed.best_ms
            << ",\"median_speedup\":" << seq.median_ms / graphed.median_ms
            << "}" << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  namespace obs = leodivide::obs;
  namespace runtime = leodivide::runtime;
  constexpr const char* kUsage =
      "usage: micro_perf --sim-schedule | "
      "--serve-delta [--workers W] | --market | --graph "
      "[--trace FILE] [--metrics[=FILE]]\n";
  obs::Options obs_options = obs::options_from_env();
  bool sim_schedule = false;
  bool serve_delta = false;
  bool market = false;
  bool graph = false;
  std::size_t workers = runtime::worker_count_from_env(4);
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--sim-schedule") {
        sim_schedule = true;
      } else if (arg == "--serve-delta") {
        serve_delta = true;
      } else if (arg == "--market") {
        market = true;
      } else if (arg == "--graph") {
        graph = true;
      } else if (runtime::parse_workers_arg(argc, argv, i, workers)) {
        // Worker-pool flag (serve-delta concurrency smoke); consumed.
      } else if (obs::parse_cli_arg(obs_options, argc, argv, i)) {
        // Observability flag; consumed.
      } else {
        std::cerr << "unknown or malformed flag: " << arg << '\n' << kUsage;
        return 2;
      }
    }
  } catch (const std::runtime_error& e) {
    std::cerr << "unknown or malformed flag: " << e.what() << '\n' << kUsage;
    return 2;
  }
  if (!graph && !market && !serve_delta && !sim_schedule) {
    std::cerr << kUsage;
    return 2;
  }
  obs::apply(obs_options);

  int rc = 0;
  if (graph) {
    rc = run_graph_harness();
  } else if (market) {
    rc = run_market_harness();
  } else if (serve_delta) {
    rc = run_serve_delta_harness(workers);
  } else {
    rc = run_sim_schedule_harness();
  }
  obs::finalize(obs_options);
  return rc;
}
