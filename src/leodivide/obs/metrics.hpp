#pragma once
// Process-wide metrics registry: monotonic counters, stage timers
// and fixed-bucket latency histograms. Sharded like runtime/map_reduce:
// every thread writes to its own cache-line-padded shard slot (assigned in
// first-use order) and reads merge the shards *in shard-index order*. All
// merge algebras are unsigned addition, so totals are identical for every
// thread count and schedule — the same determinism contract the runtime
// engine gives the pipeline itself.
//
// Handles returned by the registry stay valid for the life of the process
// (reset_values() zeroes values but never invalidates a handle), so hot
// call sites cache them in function-local statics:
//
//   static obs::Counter& c = obs::registry().counter("demand.locations");
//   c.add(n);   // one relaxed load + branch when metrics are off

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "leodivide/obs/gate.hpp"

namespace leodivide::obs {

/// Number of per-metric shard slots. Threads beyond this many share slots
/// (relaxed fetch_add keeps that correct; sharding is only contention
/// avoidance).
inline constexpr std::size_t kMetricShards = 16;

/// Stable shard index of the calling thread, assigned round-robin on first
/// use.
[[nodiscard]] std::size_t metric_shard_index() noexcept;

namespace detail {
struct alignas(64) ShardSlot {
  std::atomic<std::uint64_t> value{0};
};
}  // namespace detail

/// Counter (sharded unsigned sum). It only grows, except where retract()
/// takes back a count found wrong after the fact.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    if (!metrics_enabled()) return;
    slots_[metric_shard_index()].value.fetch_add(n,
                                                 std::memory_order_relaxed);
  }
  /// Takes back `n` of an earlier add() (say, a cache hit whose blob then
  /// failed validation). A slot may wrap, but the total is an unsigned sum
  /// mod 2^64 and so stays exact; retract only what was added.
  void retract(std::uint64_t n = 1) noexcept {
    if (!metrics_enabled()) return;
    slots_[metric_shard_index()].value.fetch_sub(n,
                                                 std::memory_order_relaxed);
  }
  /// Shard-index-order merge of the slots.
  [[nodiscard]] std::uint64_t total() const noexcept;
  void reset() noexcept;

 private:
  std::array<detail::ShardSlot, kMetricShards> slots_;
};

/// Accumulated duration of a named pipeline stage: total nanoseconds plus
/// invocation count. Spans feed these; bench JSON "stages" breakdowns read
/// them.
class Timer {
 public:
  void record_ns(std::uint64_t ns) noexcept {
    if (!metrics_enabled()) return;
    const std::size_t s = metric_shard_index();
    total_ns_[s].value.fetch_add(ns, std::memory_order_relaxed);
    count_[s].value.fetch_add(1, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t count() const noexcept;
  [[nodiscard]] std::uint64_t total_ns() const noexcept;
  [[nodiscard]] double total_ms() const noexcept {
    return static_cast<double>(total_ns()) / 1e6;
  }
  void reset() noexcept;

 private:
  std::array<detail::ShardSlot, kMetricShards> total_ns_;
  std::array<detail::ShardSlot, kMetricShards> count_;
};

/// Fixed-bucket latency histogram over microseconds. Bucket 0 holds 0 µs,
/// bucket i (1 <= i < kBuckets-1) holds [2^(i-1), 2^i) µs and the last
/// bucket is the overflow. Power-of-two bounds keep record() branch-free
/// past the enabled gate.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 28;

  void record_us(std::uint64_t us) noexcept {
    if (!metrics_enabled()) return;
    record_always_us(us);
  }
  /// Unconditional record, for call sites that already checked the gate.
  void record_always_us(std::uint64_t us) noexcept;

  [[nodiscard]] static std::size_t bucket_of(std::uint64_t us) noexcept;
  /// Inclusive upper bound of bucket b in µs (the overflow bucket returns
  /// UINT64_MAX).
  [[nodiscard]] static std::uint64_t bucket_upper_us(std::size_t b) noexcept;

  [[nodiscard]] std::array<std::uint64_t, kBuckets> bucket_counts()
      const noexcept;
  [[nodiscard]] std::uint64_t count() const noexcept;
  [[nodiscard]] std::uint64_t sum_us() const noexcept;
  void reset() noexcept;

 private:
  std::array<std::array<std::atomic<std::uint64_t>, kBuckets>, kMetricShards>
      buckets_{};
  std::array<detail::ShardSlot, kMetricShards> sum_us_;
};

/// RAII latency probe: on destruction, records the scope's elapsed wall
/// time into a Histogram in microseconds. The clock reads live here in
/// obs/ (the one module the determinism lint exempts from its no-wallclock
/// rule), so deterministic call sites — e.g. the serve session's request
/// handler — can take per-scope latency without touching a clock themselves.
/// With metrics off, both constructor and destructor reduce to a relaxed
/// load + branch.
class ScopedLatency {
 public:
  explicit ScopedLatency(Histogram& hist) noexcept;
  ~ScopedLatency();
  ScopedLatency(const ScopedLatency&) = delete;
  ScopedLatency& operator=(const ScopedLatency&) = delete;

 private:
  Histogram* hist_;         ///< null when metrics were off at entry
  std::uint64_t start_ns_;
};

/// Immutable snapshot of every registered metric, in name order.
struct TimerSnapshot {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
};
struct HistogramSnapshot {
  std::array<std::uint64_t, Histogram::kBuckets> buckets{};
  std::uint64_t count = 0;
  std::uint64_t sum_us = 0;
};
struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, TimerSnapshot>> timers;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;
};

/// The process-wide registry. Creation is mutex-protected; recording goes
/// straight to the returned handle with no registry involvement.
class MetricsRegistry {
 public:
  static MetricsRegistry& instance();

  Counter& counter(std::string_view name);
  Timer& timer(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Zeroes every metric value. Handles stay valid.
  void reset_values();

  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Flat JSON dump of the snapshot (counters/timers/histograms).
  void write_json(std::ostream& out, bool pretty = true) const;

  /// Per-stage totals in milliseconds, name-sorted: the bench "stages"
  /// breakdown.
  [[nodiscard]] std::vector<std::pair<std::string, double>> stage_totals_ms()
      const;

 private:
  MetricsRegistry() = default;
  mutable std::mutex m_;
  // std::map: deterministic name-ordered export; unique_ptr: stable handle
  // addresses across rehash-free growth.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Timer>, std::less<>> timers_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// Shorthand for MetricsRegistry::instance().
[[nodiscard]] MetricsRegistry& registry();

}  // namespace leodivide::obs
