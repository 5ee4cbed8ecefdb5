#pragma once
// Shared plumbing for the per-table/per-figure bench binaries: the national
// calibrated profile (generated once), paper-vs-measured row helpers, and
// the observability session every bench main opens (env vars
// LEODIVIDE_TRACE/LEODIVIDE_METRICS plus --trace/--metrics flags).

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>

#include "leodivide/core/scenario.hpp"
#include "leodivide/demand/generator.hpp"
#include "leodivide/io/table.hpp"
#include "leodivide/obs/obs.hpp"
#include "leodivide/runtime/executor.hpp"
#include "leodivide/snapshot/snapshot.hpp"

namespace leodivide::bench {

/// RAII observability session for a bench binary: reads the env vars,
/// consumes the --trace/--metrics/--snapshot-dir argv flags, enables the
/// requested facilities, and writes the trace/metrics files when the bench
/// exits. Any other argument, or one of those flags without its value,
/// ends the process with exit code 2 and a usage line naming the argument.
///
///   int main(int argc, char** argv) {
///     leodivide::bench::ObsGuard obs_guard(argc, argv);
///     ...
///   }
class ObsGuard {
 public:
  ObsGuard(int argc, char** argv) : options_(obs::options_from_env()) {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      try {
        if (obs::parse_cli_arg(options_, argc, argv, i) ||
            snapshot::parse_cli_arg(argc, argv, i)) {
          continue;
        }
      } catch (const std::runtime_error& e) {
        usage_exit(argv[0], e.what());  // a flag without its value
      }
      usage_exit(argv[0], arg);
    }
    obs::apply(options_);
  }
  ~ObsGuard() { obs::finalize(options_); }
  ObsGuard(const ObsGuard&) = delete;
  ObsGuard& operator=(const ObsGuard&) = delete;

 private:
  [[noreturn]] static void usage_exit(std::string_view program,
                                      const std::string& what) {
    std::cerr << "unknown or malformed flag: " << what << "\nusage: "
              << program.substr(program.rfind('/') + 1)
              << " [--trace FILE] [--metrics[=FILE]] [--snapshot-dir DIR]\n";
    std::exit(2);
  }

  obs::Options options_;
};

/// Monotonic wall-clock timer for whole-bench timing.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}

  [[nodiscard]] double elapsed_ms() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Keeps `value` observable, so the optimizer cannot drop the work that
/// produced it: the empty-asm barrier Google Benchmark's DoNotOptimize uses
/// for a const reference on GCC, a register-or-memory operand for small
/// trivially copyable values and a memory operand for the rest.
template <typename T>
inline void keep(const T& value) {
  if constexpr (std::is_trivially_copyable_v<T> && sizeof(T) <= sizeof(T*)) {
    asm volatile("" : : "r,m"(value) : "memory");
  } else {
    asm volatile("" : : "m"(value) : "memory");
  }
}

/// Emits the machine-readable result line every bench binary ends with:
///   {"bench":"<name>","threads":N,"wall_ms":X}
/// plus a `"stages":{...}` per-stage wall-time breakdown when metrics are
/// enabled. `threads` defaults to the process-global executor's concurrency,
/// so the line reflects LEODIVIDE_THREADS / --threads without extra plumbing.
/// Built via the obs JSON emitter, so arbitrarily long names and embedded
/// quotes are escaped instead of truncated.
inline void emit_json_line(const std::string& bench, double wall_ms,
                           std::size_t threads =
                               runtime::global_executor().concurrency()) {
  std::cout << obs::bench_line_json(bench, threads, wall_ms) << std::endl;
}

/// The full-scale calibrated national demand profile (deterministic).
/// Restored from the snapshot cache when one is configured
/// (--snapshot-dir / LEODIVIDE_SNAPSHOT_DIR), generated otherwise.
inline const demand::DemandProfile& national_profile() {
  static const demand::DemandProfile profile = snapshot::run_stage(
      snapshot::global_cache(),
      snapshot::demand_profile_stage(demand::GeneratorConfig{}));
  return profile;
}

/// Relative error rendered as a percentage string ("+0.05%").
inline std::string rel_err(double measured, double paper) {
  // leolint:allow(float-eq): exact-zero guard before relative error
  if (paper == 0.0) return "n/a";
  const double e = (measured - paper) / paper * 100.0;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%+.2f%%", e);
  return buf;
}

/// Standard bench banner.
inline void banner(const std::string& title) {
  std::cout << "==================================================\n"
            << title << '\n'
            << "==================================================\n";
}

}  // namespace leodivide::bench
