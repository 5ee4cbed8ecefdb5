#pragma once
// Shared plumbing of the leodivide benchmark harness: options, the tally of
// attempted/failed operations, benchmark-side call timers, order statistics
// and the one-line JSON result. The harness links the library like any
// other client and times every call into a module's public functions from
// the outside; it never relies on obs/ for end-to-end numbers.

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "leodivide/obs/metrics.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Parsed command line. `scale` and `corrupt_cache` exist for the
/// benchmark's own self-test (tiny profiles; a deliberately damaged cache).
struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  double scale = 1.0;
  bool corrupt_cache = false;
  std::size_t threads = 1;  ///< executor threads: nproc on every workload
  std::filesystem::path work_dir;
};

/// Set-up repetitions per run; set-up time is reported as their median.
inline constexpr int kSetupRepeats = 5;

/// The value of a metric that could not be measured: an obs name that was
/// never recorded, an empty sample or a zero denominator. It propagates
/// through arithmetic and medians, and check_measured() turns it into a
/// failed operation instead of a printed placeholder.
inline constexpr double kNotMeasured = std::numeric_limits<double>::quiet_NaN();

/// Operations attempted and failed. A failed operation is one that threw,
/// was refused, or produced an output that differs from its reference.
class Tally {
 public:
  /// Records one operation; prints `what` to stderr when it failed.
  void record(bool ok, std::string_view what);
  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Benchmark-side timer of public library calls, keyed by layer metric
/// name. Every timed call is a flat sibling of the others in a pass, so the
/// part of a pass no timer covers is the pass time minus total_ms().
class Layers {
 public:
  template <typename F>
  decltype(auto) time(const std::string& name, F&& f) {
    const Clock::time_point t0 = Clock::now();
    if constexpr (std::is_void_v<decltype(f())>) {
      f();
      add(name, ms_between(t0, Clock::now()));
    } else {
      decltype(auto) result = f();
      add(name, ms_between(t0, Clock::now()));
      return result;
    }
  }
  [[nodiscard]] double ms(const std::string& name) const;
  [[nodiscard]] double total_ms() const noexcept { return total_ms_; }

 private:
  void add(const std::string& name, double ms) {
    ms_[name] += ms;
    total_ms_ += ms;
  }

  std::map<std::string, double> ms_;
  double total_ms_ = 0.0;
};

/// Per-layer samples of a traced run, by metric name.
using Samples = std::map<std::string, std::vector<double>>;

/// Linear-interpolated quantile (q in [0, 1]) of unsorted samples; the
/// values are copied and sorted. kNotMeasured for an empty input or one
/// that holds a non-finite value.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// Quantile of an obs latency histogram, interpolated linearly inside the
/// bucket that holds the rank (bucket 0 spans [0, 1) µs, bucket i spans
/// [2^(i-1), 2^i) µs).
[[nodiscard]] double histogram_quantile_us(
    const leodivide::obs::HistogramSnapshot& h, double q);

/// Total of a stage timer, or a counter, in one registry snapshot
/// (kNotMeasured when absent). An empty histogram has no quantile either.
[[nodiscard]] double timer_ms(const leodivide::obs::MetricsSnapshot& snap,
                              std::string_view name);
[[nodiscard]] double counter(const leodivide::obs::MetricsSnapshot& snap,
                             std::string_view name);

/// Executor accounting of one traced pass: runtime.task_ms and
/// runtime.busy_frac (task time over threads x pass time) go to `samples`;
/// the pass's queue waits are added to `queue_wait`, whose median becomes
/// runtime.queue_wait_us_p50 once all passes ran.
void record_runtime(const leodivide::obs::MetricsSnapshot& snap,
                    double pass_ms, std::size_t threads, Samples& samples,
                    leodivide::obs::HistogramSnapshot& queue_wait);

/// Peak resident set size of this process so far [MB].
[[nodiscard]] double peak_rss_mb();

/// Name-ordered metric values with their units.
class Metrics {
 public:
  void set(const std::string& name, double value, std::string unit) {
    values_[name] = {value, std::move(unit)};
  }
  [[nodiscard]] const std::map<std::string, std::pair<double, std::string>>&
  values() const noexcept {
    return values_;
  }

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
};

/// Unit of a per-layer metric, read from its name: "_ms", "_us" and
/// "_bytes" name their unit, counts are named explicitly, the rest are
/// ratios.
[[nodiscard]] std::string unit_of(std::string_view name);

/// Sets "<prefix><name>" to the median of each sample list.
void emit_medians(const std::string& prefix, const Samples& samples,
                  Metrics& out);

/// The end-to-end metrics of every workload, tracing off: the median set-up
/// time, the median correct pass and the process's peak resident set.
void set_end_to_end(Metrics& out, const std::vector<double>& setup_s,
                    const std::vector<double>& pass_ms);

/// Records one failed operation for every metric that is not finite.
void check_measured(const Metrics& metrics, Tally& tally);

/// The result line: {"correct", "attempted", "failed", "metrics"}. Metrics
/// that are not finite are left out.
[[nodiscard]] std::string result_json(const Tally& tally,
                                      const Metrics& metrics);

/// Each workload's end-to-end run (tracing off) and traced run. A traced
/// run adds per-layer metrics named "<workload>.<layer metric>".
void paper_run(const Options& opt, bool warm, Tally& tally, Metrics& out);
void paper_traced(const Options& opt, bool warm, double budget_s,
                  Tally& tally, Metrics& out);
void serve_run(const Options& opt, Tally& tally, Metrics& out);
void serve_traced(const Options& opt, double budget_s, Tally& tally,
                  Metrics& out);
void coverage_run(const Options& opt, Tally& tally, Metrics& out);
void coverage_traced(const Options& opt, double budget_s, Tally& tally,
                     Metrics& out);

/// CPUs this process may run on (its affinity mask, as `nproc` counts
/// them); the hardware thread count when the mask cannot be read.
[[nodiscard]] std::size_t nproc();

/// Turns obs tracing + metrics on or off and clears recorded values.
void set_observability(bool on);

}  // namespace perfbench
