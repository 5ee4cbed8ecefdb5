// Coverage simulation: propagate a Walker shell over time and watch the
// greedy beam scheduler serve the national demand cells epoch by epoch.
//
//   $ ./coverage_sim [--snapshot-dir DIR] [planes] [sats_per_plane]
//                    [minutes] [beamspread]
//
// Defaults: Starlink shell 1 (72 x 22 at 53 deg / 550 km), 10 minutes,
// beamspread 5, one epoch per minute. Counts are whole unsigned numbers
// above zero, the shell at most orbit::kMaxShellSatellites satellites, and
// minutes a finite number above zero; any other value exits 2 with the
// usage line. With `--snapshot-dir DIR` (or
// LEODIVIDE_SNAPSHOT_DIR) the generated demand profile and the epoch
// trace are cached as LDSNAP blobs keyed by their exact inputs, so a
// rerun with the same shell and horizon skips both generation and
// propagation.

#include <cstdint>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "leodivide/demand/generator.hpp"
#include "leodivide/io/cli.hpp"
#include "leodivide/io/table.hpp"
#include "leodivide/runtime/executor.hpp"
#include "leodivide/orbit/footprint.hpp"
#include "leodivide/orbit/walker.hpp"
#include "leodivide/sim/handover.hpp"
#include "leodivide/sim/simulation.hpp"
#include "leodivide/snapshot/snapshot.hpp"

namespace {

constexpr const char* kUsage =
    "usage: coverage_sim [--snapshot-dir DIR] [planes] [sats_per_plane] "
    "[minutes] [beamspread]\n";

}  // namespace

int main(int argc, char** argv) {
  using namespace leodivide;

  sim::SimulationConfig config;
  config.step_s = 60.0;
  double minutes = 10.0;
  try {
    std::vector<std::string> positional;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (snapshot::parse_cli_arg(argc, argv, i)) {
        // Snapshot cache flag; consumed.
      } else if (arg.rfind("--", 0) == 0) {
        std::cerr << "unknown or malformed flag: " << arg << '\n' << kUsage;
        return 2;
      } else {
        positional.push_back(arg);
      }
    }
    if (positional.size() > 4) {
      throw std::runtime_error("unexpected argument '" + positional[4] + "'");
    }
    if (positional.size() > 0) {
      config.shell.planes =
          io::parse_positive<std::uint32_t>("planes", positional[0]);
      if (config.shell.planes <= config.shell.phasing) {
        throw std::runtime_error("invalid planes value '" + positional[0] +
                                 "': must exceed the shell's phasing");
      }
    }
    if (positional.size() > 1) {
      config.shell.sats_per_plane =
          io::parse_positive<std::uint32_t>("sats_per_plane", positional[1]);
    }
    // The library's bound on a shell, checked before any work starts.
    orbit::check_shell(config.shell);
    if (positional.size() > 2) {
      minutes = io::parse_positive<double>("minutes", positional[2]);
      // The clock rejects a horizon with more epochs than it can count.
      (void)sim::SimClock(minutes * 60.0, config.step_s);
    }
    if (positional.size() > 3) {
      config.scheduler.beamspread =
          io::parse_positive<std::uint32_t>("beamspread", positional[3]);
    }
  } catch (const std::exception& e) {
    // e.g. --snapshot-dir with no value, or a malformed positional number.
    std::cerr << "unknown or malformed argument: " << e.what() << '\n'
              << kUsage;
    return 2;
  }
  config.duration_s = minutes * 60.0;

  std::cout << "shell: " << config.shell.to_string() << " ("
            << io::fmt_count(config.shell.total_sats()) << " satellites)\n"
            << "footprint radius at 25 deg mask: "
            << io::fmt(orbit::footprint_radius_km(config.shell.altitude_km,
                                                  25.0),
                       0)
            << " km\nbeamspread: " << config.scheduler.beamspread
            << ", scheduling horizon: " << minutes << " min\n\n"
            << "generating national demand profile...\n";

  snapshot::StageCache* cache = snapshot::global_cache();
  const demand::DemandProfile profile = snapshot::run_stage(
      cache, snapshot::demand_profile_stage(demand::GeneratorConfig{}));
  std::cout << "  " << profile.cell_count() << " demand cells, "
            << io::fmt_count(static_cast<long long>(
                   profile.total_locations()))
            << " un(der)served locations\n\n";

  const std::vector<sim::EpochCoverage> trace =
      snapshot::run_stage(cache, snapshot::sim_epochs_stage(config, profile));

  // Handover churn between the first two epochs (satellites move ~450 km
  // per minute, forcing cells to switch serving satellites).
  {
    const core::SatelliteCapacityModel capacity;
    const auto cells = sim::BeamScheduler::cells_from_profile(
        profile, capacity, config.oversub_target);
    const sim::BeamScheduler scheduler(cells, config.scheduler);
    const auto orbits = orbit::make_constellation(config.shell);
    const auto r0 = scheduler.schedule(orbit::propagate_all(orbits, 0.0));
    const auto r1 =
        scheduler.schedule(orbit::propagate_all(orbits, config.step_s));
    const sim::HandoverStats churn =
        sim::compare_schedules(r0, r1, cells.size());
    std::cout << "handover churn over one step (" << config.step_s
              << " s): " << io::fmt_pct(churn.handover_rate(), 1) << " of "
              << churn.cells_tracked << " tracked cells switched satellites ("
              << churn.cells_dropped << " dropped, " << churn.cells_acquired
              << " acquired)\n\n";
  }

  io::TextTable table;
  table.set_header({"t (min)", "cells served", "cell coverage",
                    "location coverage", "sats serving US",
                    "mean beam util"});
  for (const auto& epoch : trace) {
    table.add_row({io::fmt(epoch.time_s / 60.0, 1),
                   io::fmt_count(static_cast<long long>(epoch.cells_served)),
                   io::fmt_pct(epoch.cell_coverage(), 1),
                   io::fmt_pct(epoch.location_coverage(), 1),
                   io::fmt_count(static_cast<long long>(
                       epoch.satellites_in_view)),
                   io::fmt_pct(epoch.mean_beam_utilization, 1)});
  }
  std::cout << table.render() << '\n';

  const sim::SimulationReport report = sim::summarize(trace);
  std::cout << "summary over " << report.epochs
            << " epochs: mean cell coverage "
            << io::fmt_pct(report.mean_cell_coverage, 1) << " (min "
            << io::fmt_pct(report.min_cell_coverage, 1) << ", max "
            << io::fmt_pct(report.max_cell_coverage, 1)
            << "), mean location coverage "
            << io::fmt_pct(report.mean_location_coverage, 1) << '\n';
  if (report.mean_cell_coverage < 0.999) {
    std::cout << "\nThe shell cannot keep a beam on every demand cell — the "
                 "paper's capacity argument (P1/P2) in action. Try more "
                 "planes/satellites or higher beamspread.\n";
  }
  return 0;
}
