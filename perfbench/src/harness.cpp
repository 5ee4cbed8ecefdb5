// Entry point and shared helpers of the leodivide benchmark harness.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--scale X] [--corrupt-cache]
//
// Workloads: paper_cold, paper_warm, serve_mix, coverage_epoch (see
// perfbench/README.md). With --trace 0 the run measures the named workload
// with obs off and prints the end-to-end metrics. With --trace 1 it runs a
// traced measurement of every workload, splitting the time budget between
// them, and prints the per-layer metrics, each named after its workload.
// The last stdout line is always the JSON result; the exit code is 0
// whenever that line was printed, and 2 on a usage error.

#include "harness.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <exception>
#include <iostream>
#include <sstream>
#include <thread>

#include <unistd.h>

#include "leodivide/obs/obs.hpp"
#include "leodivide/runtime/executor.hpp"

namespace perfbench {

void Tally::record(bool ok, std::string_view what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::cerr << "perfbench: FAILED: " << what << '\n';
  }
}

double Layers::ms(const std::string& name) const {
  const auto it = ms_.find(name);
  return it == ms_.end() ? kNotMeasured : it->second;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty() || std::any_of(v.begin(), v.end(), [](double x) {
        return !std::isfinite(x);
      })) {
    return kNotMeasured;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double histogram_quantile_us(const leodivide::obs::HistogramSnapshot& h,
                             double q) {
  if (h.count == 0) return kNotMeasured;
  const double rank = q * static_cast<double>(h.count);
  double seen = 0.0;
  for (std::size_t b = 0; b < h.buckets.size(); ++b) {
    const auto n = static_cast<double>(h.buckets[b]);
    if (n == 0.0 || seen + n < rank) {
      seen += n;
      continue;
    }
    const double lower = b == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(b) - 1);
    const double upper = b == 0 ? 1.0 : std::ldexp(1.0, static_cast<int>(b));
    return lower + (upper - lower) * (rank - seen) / n;
  }
  return std::ldexp(1.0, static_cast<int>(h.buckets.size()) - 1);
}

double timer_ms(const leodivide::obs::MetricsSnapshot& snap,
                std::string_view name) {
  for (const auto& [k, t] : snap.timers) {
    if (k == name) return static_cast<double>(t.total_ns) / 1e6;
  }
  return kNotMeasured;
}

double counter(const leodivide::obs::MetricsSnapshot& snap,
               std::string_view name) {
  for (const auto& [k, v] : snap.counters) {
    if (k == name) return static_cast<double>(v);
  }
  return kNotMeasured;
}

void record_runtime(const leodivide::obs::MetricsSnapshot& snap,
                    double pass_ms, std::size_t threads, Samples& samples,
                    leodivide::obs::HistogramSnapshot& queue_wait) {
  const double task_ms = timer_ms(snap, "runtime.task");
  samples["runtime.task_ms"].push_back(task_ms);
  samples["runtime.busy_frac"].push_back(
      task_ms / (static_cast<double>(threads) * pass_ms));
  for (const auto& [k, h] : snap.histograms) {
    if (k != "runtime.queue_wait_us") continue;
    for (std::size_t b = 0; b < h.buckets.size(); ++b) {
      queue_wait.buckets[b] += h.buckets[b];
    }
    queue_wait.count += h.count;
    queue_wait.sum_us += h.sum_us;
  }
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

std::string unit_of(std::string_view name) {
  if (name.find("_ms") != std::string_view::npos) return "ms";
  if (name.find("_us") != std::string_view::npos) return "us";
  if (name.ends_with("_bytes")) return "bytes";
  if (name.ends_with("sim.epochs") || name.ends_with("_recomputes")) {
    return "count";
  }
  return "ratio";
}

void emit_medians(const std::string& prefix, const Samples& samples,
                  Metrics& out) {
  for (const auto& [name, values] : samples) {
    out.set(prefix + name, median(values), unit_of(name));
  }
}

void set_end_to_end(Metrics& out, const std::vector<double>& setup_s,
                    const std::vector<double>& pass_ms) {
  out.set("setup_s", median(setup_s), "s");
  out.set("pass_ms", median(pass_ms), "ms");
  out.set("peak_rss_mb", peak_rss_mb(), "MB");
}

std::string result_json(const Tally& tally, const Metrics& metrics) {
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (tally.failed() == 0 ? "true" : "false")
     << ", \"attempted\": " << tally.attempted()
     << ", \"failed\": " << tally.failed() << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : metrics.values()) {
    if (!std::isfinite(value.first)) continue;  // failed in check_measured
    os << (first ? "" : ", ") << '"' << name << "\": {\"value\": "
       << value.first << ", \"unit\": \"" << value.second << "\"}";
    first = false;
  }
  os << "}}";
  return os.str();
}

void check_measured(const Metrics& metrics, Tally& tally) {
  for (const auto& [name, value] : metrics.values()) {
    tally.record(std::isfinite(value.first),
                 "metric " + name +
                     " was not measured (missing obs name, empty sample "
                     "or zero denominator)");
  }
}

std::size_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0 && CPU_COUNT(&set) > 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  return std::max(1U, std::thread::hardware_concurrency());
}

void set_observability(bool on) {
  leodivide::obs::set_tracing_enabled(on);
  leodivide::obs::set_metrics_enabled(on);
  leodivide::obs::registry().reset_values();
  leodivide::obs::TraceRecorder::instance().clear();
}

}  // namespace perfbench

namespace {

constexpr const char* kUsage =
    "usage: perfbench --workload paper_cold|paper_warm|serve_mix|"
    "coverage_epoch --seed N --seconds S --trace 0|1 [--scale X]"
    " [--corrupt-cache]\n";

bool parse(int argc, char** argv, perfbench::Options& opt) {
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opt.seed = std::stoull(argv[++i]);
    } else if (arg == "--seconds" && has_value) {
      opt.seconds = std::stod(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      const std::string v = argv[++i];
      if (v != "0" && v != "1") return false;
      opt.trace = v == "1";
      have_trace = true;
    } else if (arg == "--scale" && has_value) {
      opt.scale = std::stod(argv[++i]);
    } else if (arg == "--corrupt-cache") {
      opt.corrupt_cache = true;
    } else {
      return false;
    }
  }
  const bool known = opt.workload == "paper_cold" ||
                     opt.workload == "paper_warm" ||
                     opt.workload == "serve_mix" ||
                     opt.workload == "coverage_epoch";
  return known && have_trace && opt.seconds > 0.0 && opt.scale > 0.0 &&
         opt.scale <= 1.0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  namespace fs = std::filesystem;
  Options opt;
  try {
    if (!parse(argc, argv, opt)) {
      std::cerr << kUsage;
      return 2;
    }
  } catch (const std::exception&) {
    std::cerr << kUsage;
    return 2;
  }
  opt.threads = nproc();
  leodivide::runtime::set_global_threads(opt.threads);
  opt.work_dir = fs::path(".bench_build") / "work" /
                 (opt.workload + "-" + std::to_string(::getpid()));
  fs::remove_all(opt.work_dir);
  fs::create_directories(opt.work_dir);

  Tally tally;
  Metrics metrics;
  try {
    if (!opt.trace) {
      if (opt.workload == "paper_cold" || opt.workload == "paper_warm") {
        paper_run(opt, opt.workload == "paper_warm", tally, metrics);
      } else if (opt.workload == "serve_mix") {
        serve_run(opt, tally, metrics);
      } else {
        coverage_run(opt, tally, metrics);
      }
    } else {
      // Per-layer names carry their workload, so one traced run covers all
      // four and a layer never reports a zero for a workload that skips it.
      const double budget = opt.seconds / 4.0;
      paper_traced(opt, /*warm=*/false, budget, tally, metrics);
      paper_traced(opt, /*warm=*/true, budget, tally, metrics);
      serve_traced(opt, budget, tally, metrics);
      coverage_traced(opt, budget, tally, metrics);
    }
  } catch (const std::exception& e) {
    tally.record(false, std::string("uncaught exception: ") + e.what());
  }
  set_observability(false);
  fs::remove_all(opt.work_dir);
  check_measured(metrics, tally);
  if (tally.attempted() == 0) tally.record(false, "no operation ran");
  std::cout << result_json(tally, metrics) << std::endl;
  return 0;
}
