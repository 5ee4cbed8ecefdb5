// Market comparison: the multi-operator market simulator across sharing
// regimes.
//
//   $ ./market_compare [--threads N] [--scale S] [--seed N] [--trace FILE]
//                      [--metrics[=FILE]] [--snapshot-dir DIR] [output_dir]
//
// Generates the calibrated national demand profile once, then runs the
// three-operator market (Starlink, OneWeb, Kuiper — market::default_market)
// under each spectrum-sharing policy (exclusive, proportional, fairshare)
// and writes:
//
//   operators.csv   one row per (policy, operator): sized fleets, served
//                   fractions, $/location-year, affordability
//   fairness.csv    one row per policy: Jain index, unserved attribution
//   market.json     the same results as one machine-readable document
//   market_<policy>.ldsnap   the full MarketReport snapshot per policy
//                   (when --snapshot-dir names a cache, the demand profile
//                   and the reports are also cached there, keyed by their
//                   exact inputs)
//
// Results are byte-identical for every --threads value. `--scale S` shrinks
// the synthetic demand profile (1.0 = the paper's 4.67M locations) and
// `--seed N` reseeds it; both enter the generator config only, so two runs
// with equal flags produce identical files.

#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "leodivide/demand/generator.hpp"
#include "leodivide/io/csv.hpp"
#include "leodivide/io/json.hpp"
#include "leodivide/market/market.hpp"
#include "leodivide/obs/obs.hpp"
#include "leodivide/runtime/executor.hpp"
#include "leodivide/snapshot/snapshot.hpp"

namespace {

constexpr const char* kUsage =
    "usage: market_compare [--threads N] [--scale S] [--seed N]"
    " [--trace FILE] [--metrics[=FILE]] [--snapshot-dir DIR] [output_dir]\n";

}  // namespace

int main(int argc, char** argv) {
  using namespace leodivide;
  namespace fs = std::filesystem;

  // Wall time feeds the reporting-only bench line; it never enters results.
  // leolint:allow(no-wallclock): reporting-only bench-line wall time
  const auto wall_start = std::chrono::steady_clock::now();

  obs::Options obs_options = obs::options_from_env();
  fs::path out_dir = "market_compare_out";
  demand::GeneratorConfig gen_config{};
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (runtime::parse_threads_arg(argc, argv, i)) {
        // Executor size; consumed.
      } else if (demand::parse_cli_arg(argc, argv, i, gen_config)) {
        // --scale / --seed; consumed.
      } else if (obs::parse_cli_arg(obs_options, argc, argv, i)) {
        // Observability flag; consumed.
      } else if (snapshot::parse_cli_arg(argc, argv, i)) {
        // Snapshot cache flag; consumed.
      } else if (arg.rfind("--", 0) == 0) {
        std::cerr << "unknown or malformed flag: " << arg << '\n' << kUsage;
        return 2;
      } else {
        out_dir = arg;
      }
    }
  } catch (const std::exception& e) {
    // e.g. --snapshot-dir with no value, or a malformed --scale/--seed.
    std::cerr << "unknown or malformed flag: " << e.what() << '\n' << kUsage;
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

  // 1. One demand profile shared by every market run.
  std::cout << "[1/3] generating demand profile (scale "
            << gen_config.scale << ", seed " << gen_config.seed << ")...\n";
  const demand::DemandProfile profile =
      snapshot::run_stage(cache, snapshot::demand_profile_stage(gen_config));
  std::cout << "      " << profile.cell_count() << " cells, "
            << profile.total_locations() << " locations\n";

  // 2. The three-operator market under each sharing regime.
  const std::vector<market::SplitPolicy> policies = {
      market::SplitPolicy::kExclusive, market::SplitPolicy::kProportional,
      market::SplitPolicy::kFairShare};
  std::vector<market::MarketReport> reports;
  for (const market::SplitPolicy policy : policies) {
    std::cout << "[2/3] running market under " << to_string(policy)
              << "...\n";
    market::MarketConfig config;
    config.operators = market::default_market();
    config.split.policy = policy;
    const market::MarketSimulation simulation(std::move(config));

    market::MarketReport report = snapshot::run_stage(
        cache,
        snapshot::market_report_stage(gen_config, simulation, profile));
    std::cout << market::render_market_report(report) << '\n';

    const fs::path snap_path =
        out_dir / ("market_" + std::string(to_string(policy)) + ".ldsnap");
    std::ofstream snap_out(snap_path, std::ios::binary);
    snap_out << snapshot::serialize(report);
    reports.push_back(std::move(report));
  }

  // 3. Machine-readable exports.
  std::cout << "[3/3] writing CSV + JSON...\n";
  {
    std::ofstream ops_out(out_dir / "operators.csv");
    io::CsvWriter csv(ops_out);
    csv.write_row({"policy", "operator", "economic_share", "sats_full",
                   "sats_capped", "served_cell_fraction",
                   "served_location_fraction", "cost_per_location_year_usd",
                   "fraction_unable_to_afford"});
    for (const market::MarketReport& report : reports) {
      for (const market::OperatorOutcome& op : report.operators) {
        csv.write_row({std::string(to_string(report.policy)), op.name,
                       std::to_string(op.economic_share),
                       std::to_string(op.full.satellites),
                       std::to_string(op.capped.satellites),
                       std::to_string(op.served_cell_fraction),
                       std::to_string(op.served_location_fraction),
                       std::to_string(op.cost_per_location_year_usd),
                       std::to_string(op.affordability.fraction_unable)});
      }
    }
  }
  {
    std::ofstream fair_out(out_dir / "fairness.csv");
    io::CsvWriter csv(fair_out);
    csv.write_row({"policy", "jain_served_locations", "unserved_cells",
                   "unserved_locations", "capacity_limited_cells",
                   "split_limited_cells"});
    for (const market::MarketReport& report : reports) {
      const market::FairnessReport& f = report.fairness;
      csv.write_row({std::string(to_string(report.policy)),
                     std::to_string(f.jain_served_locations),
                     std::to_string(f.unserved_cells),
                     std::to_string(f.unserved_locations),
                     std::to_string(f.capacity_limited_cells),
                     std::to_string(f.split_limited_cells)});
    }
  }
  {
    std::ofstream json_out(out_dir / "market.json");
    io::JsonWriter json(json_out);
    json.begin_object();
    json.begin_array("policies");
    for (const market::MarketReport& report : reports) {
      json.begin_object();
      json.value("policy", to_string(report.policy));
      json.value("jain_served_locations",
                 report.fairness.jain_served_locations);
      json.value("unserved_locations",
                 static_cast<long long>(report.fairness.unserved_locations));
      json.begin_array("operators");
      for (const market::OperatorOutcome& op : report.operators) {
        json.begin_object();
        json.value("name", op.name);
        json.value("economic_share", op.economic_share);
        json.value("satellites_full_service", op.full.satellites);
        json.value("satellites_capped", op.capped.satellites);
        json.value("served_location_fraction", op.served_location_fraction);
        json.value("fraction_unable_to_afford",
                   op.affordability.fraction_unable);
        json.end_object();
      }
      json.end_array();
      json.end_object();
    }
    json.end_array();
    json.end_object();
    json_out << '\n';
  }
  std::cout << "      wrote " << (out_dir / "operators.csv") << ", "
            << (out_dir / "fairness.csv") << " and "
            << (out_dir / "market.json") << '\n';

  // leolint:allow(no-wallclock): reporting-only bench-line wall time
  const auto wall_end = std::chrono::steady_clock::now();
  const double wall_ms =
      std::chrono::duration<double, std::milli>(wall_end - wall_start).count();
  std::cout << snapshot::bench_line("market_compare", wall_ms, cache) << '\n';

  obs::finalize(obs_options);
  return 0;
}
