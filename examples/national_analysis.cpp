// National analysis: the full paper pipeline with dataset persistence.
//
//   $ ./national_analysis [--threads N] [--trace FILE] [--metrics[=FILE]]
//                         [--snapshot-dir DIR] [output_dir]
//
// Generates the calibrated national profile, saves it as CSV (cells +
// counties) so it can be inspected or replaced with a real FCC Broadband
// Data Collection extract, reloads it, runs the complete analysis, and
// writes a machine-readable JSON summary next to the CSVs. The pipeline
// (generate -> CSV round trip -> analysis) runs straight-line, each stage
// parallel inside on the process-global executor, which `--threads N` sizes
// (results are identical for every N). `--trace FILE` / `--metrics[=FILE]`
// (or LEODIVIDE_TRACE / LEODIVIDE_METRICS) write a Chrome trace and a metrics
// dump (see README.md, "Observability"). `--snapshot-dir DIR` (or
// LEODIVIDE_SNAPSHOT_DIR) caches the generated profile and the analysis
// results as LDSNAP blobs keyed by their exact inputs, so a rerun with
// unchanged inputs skips generation and sizing while producing
// byte-identical outputs (see README.md, "Snapshots & incremental
// re-runs"). The run ends with one machine-readable bench line carrying
// wall time, stage breakdown and snapshot hit/miss counts.

#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include "leodivide/core/report.hpp"
#include "leodivide/demand/generator.hpp"
#include "leodivide/demand/geojson.hpp"
#include "leodivide/io/json.hpp"
#include "leodivide/obs/obs.hpp"
#include "leodivide/runtime/executor.hpp"
#include "leodivide/snapshot/snapshot.hpp"

int main(int argc, char** argv) {
  using namespace leodivide;
  namespace fs = std::filesystem;

  // Wall time feeds the reporting-only bench line; it never enters results.
  // leolint:allow(no-wallclock): reporting-only bench-line wall time
  const auto wall_start = std::chrono::steady_clock::now();

  obs::Options obs_options = obs::options_from_env();
  fs::path out_dir = "national_analysis_out";
  try {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (runtime::parse_threads_arg(argc, argv, i)) {
      // Executor size; consumed.
    } else if (obs::parse_cli_arg(obs_options, argc, argv, i)) {
      // Observability flag; consumed.
    } else if (snapshot::parse_cli_arg(argc, argv, i)) {
      // Snapshot cache flag; consumed.
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "unknown or malformed flag: " << arg
                << "\nusage: national_analysis [--threads N] [--trace FILE]"
                   " [--metrics[=FILE]] [--snapshot-dir DIR] [output_dir]\n";
      return 2;
    } else {
      out_dir = arg;
    }
  }
  } catch (const std::runtime_error& e) {
    // e.g. --snapshot-dir with no value, or an invalid --threads count.
    std::cerr << "unknown or malformed flag: " << e.what() << '\n';
    return 2;
  }
  obs::apply(obs_options);
  std::cout << "using " << runtime::global_executor().concurrency()
            << " thread(s)\n";
  fs::create_directories(out_dir);
  snapshot::StageCache* cache = snapshot::global_cache();
  if (cache != nullptr) {
    std::cout << "snapshot cache: " << cache->dir() << '\n';
  }

  std::cout << "[1/2] generate -> CSV round trip -> analysis...\n\n";
  const demand::DemandProfile profile = snapshot::run_stage(
      cache, snapshot::demand_profile_stage(demand::GeneratorConfig{}));
  // The reload is the path a user with real BDC data would take.
  demand::DemandProfile loaded;
  {
    const obs::Span span("example.csv_roundtrip");
    {
      std::ofstream cells(out_dir / "cells.csv");
      std::ofstream counties(out_dir / "counties.csv");
      profile.save_csv(cells, counties);
    }
    std::ifstream cells_in(out_dir / "cells.csv");
    std::ifstream counties_in(out_dir / "counties.csv");
    loaded = demand::DemandProfile::load_csv(cells_in, counties_in);
  }
  // Keyed on the reloaded bytes, not the generated profile: the CSV round
  // trip rounds coordinates, and the analysis reads them.
  const core::AnalysisResults results =
      snapshot::run_stage(cache, snapshot::analysis_stage(loaded));
  std::cout << "      wrote " << (out_dir / "cells.csv") << " ("
            << profile.cell_count() << " cells) and "
            << (out_dir / "counties.csv") << " ("
            << profile.counties().size() << " counties)\n";
  std::cout << core::render_report(results) << "\n";

  // Export machine-readable results.
  std::cout << "[2/2] writing JSON summary...\n";
  std::ofstream json_out(out_dir / "results.json");
  io::JsonWriter json(json_out);
  json.begin_object();
  json.value("total_locations",
             static_cast<long long>(loaded.total_locations()));
  json.value("peak_cell_locations",
             static_cast<long long>(loaded.peak_cell_count()));
  json.value("peak_oversubscription", results.f1.peak_oversubscription);
  json.value("locations_above_20to1",
             static_cast<long long>(results.f1.locations_above_cap));
  json.value("unservable_at_20to1",
             static_cast<long long>(results.f1.locations_unservable_at_cap));
  json.begin_array("table2");
  for (const auto& row : results.table2) {
    json.begin_object();
    json.value("beamspread", row.beamspread);
    json.value("satellites_full_service", row.satellites_full_service);
    json.value("satellites_capped_20to1", row.satellites_capped);
    json.end_object();
  }
  json.end_array();
  json.begin_array("affordability");
  for (const auto& p : results.fig4) {
    json.begin_object();
    json.value("plan", p.plan.name);
    json.value("monthly_usd", p.plan.monthly_usd);
    json.value("locations_unable", p.locations_unable);
    json.value("fraction_unable", p.fraction_unable);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  json_out << '\n';
  std::cout << "      wrote " << (out_dir / "results.json") << '\n';

  // Bonus: the densest cells as GeoJSON for any GIS viewer.
  {
    std::ofstream geo_out(out_dir / "dense_cells.geojson");
    demand::write_geojson(geo_out, loaded, hex::HexGrid(),
                          /*min_locations=*/1000);
    std::cout << "      wrote " << (out_dir / "dense_cells.geojson")
              << " (cells with >= 1000 un(der)served locations)\n";
  }

  // leolint:allow(no-wallclock): reporting-only bench-line wall time
  const auto wall_end = std::chrono::steady_clock::now();
  const double wall_ms =
      std::chrono::duration<double, std::milli>(wall_end - wall_start).count();
  std::cout << snapshot::bench_line("national_analysis", wall_ms, cache) << '\n';

  obs::finalize(obs_options);
  return 0;
}
