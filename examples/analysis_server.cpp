// Analysis server: the always-on LSRV analysis service over a synthetic
// national baseline.
//
//   $ ./analysis_server [--port N] [--port-file FILE] [--workers N]
//                       [--scale S] [--seed N] [--paranoid] [--threads N]
//                       [--trace FILE] [--metrics[=FILE]] [--snapshot-dir DIR]
//
// Generates (or restores, with --snapshot-dir) the calibrated demand
// profile at the requested scale, loads it into the incremental engine and
// listens on loopback for LSRV clients (see analysis_client.cpp and
// README.md, "Analysis service"). `--port 0` (default) binds an ephemeral
// port; `--port-file FILE` writes the bound port so scripts can find it.
// `--workers N` (or LEODIVIDE_WORKERS) sizes the connection worker pool;
// `--paranoid` cross-checks every incremental answer against a full
// recompute. The process exits when a client sends a shutdown request.

#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>

#include "leodivide/demand/generator.hpp"
#include "leodivide/io/cli.hpp"
#include "leodivide/obs/obs.hpp"
#include "leodivide/runtime/executor.hpp"
#include "leodivide/serve/server.hpp"
#include "leodivide/snapshot/snapshot.hpp"

namespace {

constexpr const char* kUsage =
    "usage: analysis_server [--port N] [--port-file FILE] [--workers N]\n"
    "                       [--scale S] [--seed N] [--paranoid] [--threads N]\n"
    "                       [--trace FILE] [--metrics[=FILE]]"
    " [--snapshot-dir DIR]\n";

}  // namespace

int main(int argc, char** argv) {
  using namespace leodivide;

  obs::Options obs_options = obs::options_from_env();
  demand::GeneratorConfig gen_config{};
  serve::ServiceConfig service_config{};
  serve::ServerConfig server_config{};
  server_config.workers = runtime::worker_count_from_env(2);
  std::string port_file;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (const auto port = io::flag_value(argc, argv, i, "--port")) {
        server_config.port = io::parse_flag<std::uint16_t>("--port", *port);
      } else if (arg == "--port-file" && i + 1 < argc) {
        port_file = argv[++i];
      } else if (demand::parse_cli_arg(argc, argv, i, gen_config)) {
        // --scale / --seed; consumed.
      } else if (arg == "--paranoid") {
        service_config.engine.paranoid = true;
      } else if (runtime::parse_threads_arg(argc, argv, i)) {
        // Executor size; consumed.
      } else if (runtime::parse_workers_arg(argc, argv, i,
                                            server_config.workers)) {
        // Worker-pool flag; consumed.
      } else if (obs::parse_cli_arg(obs_options, argc, argv, i)) {
        // Observability flag; consumed.
      } else if (snapshot::parse_cli_arg(argc, argv, i)) {
        // Snapshot cache flag; consumed.
      } else {
        std::cerr << "unknown or malformed flag: " << arg << '\n' << kUsage;
        return 2;
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "bad flag: " << e.what() << '\n' << kUsage;
    return 2;
  }
  obs::apply(obs_options);
  snapshot::StageCache* cache = snapshot::global_cache();
  if (cache != nullptr) {
    std::cout << "snapshot cache: " << cache->dir() << '\n';
  }

  // Baseline profile: generated, or restored from the stage cache when the
  // exact same generator config was cached by a previous run.
  std::cout << "generating baseline profile (scale " << gen_config.scale
            << ", seed " << gen_config.seed << ")...\n";
  demand::DemandProfile baseline =
      snapshot::run_stage(cache, snapshot::demand_profile_stage(gen_config));
  std::cout << "baseline: " << baseline.cell_count() << " cells, "
            << baseline.counties().size() << " counties\n";

  serve::ServiceState state(std::move(baseline), service_config);
  serve::Server server(state, server_config);
  try {
    server.start();
  } catch (const std::exception& e) {
    std::cerr << e.what() << '\n';
    return 1;
  }
  if (!port_file.empty()) {
    std::ofstream out(port_file);
    out << server.port() << '\n';
  }
  std::cout << "listening on " << server_config.host << ":" << server.port()
            << " (" << server_config.workers << " worker(s)"
            << (service_config.engine.paranoid ? ", paranoid" : "") << ")\n"
            << std::flush;

  state.wait_for_shutdown();
  server.stop();

  const serve::EngineStats stats = state.engine_stats();
  std::cout << "shutdown: " << stats.deltas_applied << " delta(s), "
            << stats.region_recomputes << " region recompute(s), "
            << stats.partial_hits << " partial hit(s)\n";
  obs::finalize(obs_options);
  return 0;
}
