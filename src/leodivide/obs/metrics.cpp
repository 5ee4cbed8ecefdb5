#include "leodivide/obs/metrics.hpp"

#include <bit>
#include <ostream>

#include "leodivide/io/json.hpp"
#include "leodivide/obs/trace.hpp"

namespace leodivide::obs {

std::size_t metric_shard_index() noexcept {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t idx =
      next.fetch_add(1, std::memory_order_relaxed) % kMetricShards;
  return idx;
}

// ----------------------------------------------------------------- Counter --

std::uint64_t Counter::total() const noexcept {
  std::uint64_t sum = 0;
  for (const auto& s : slots_) sum += s.value.load(std::memory_order_relaxed);
  return sum;
}

void Counter::reset() noexcept {
  for (auto& s : slots_) s.value.store(0, std::memory_order_relaxed);
}

// ------------------------------------------------------------------- Timer --

std::uint64_t Timer::count() const noexcept {
  std::uint64_t sum = 0;
  for (const auto& s : count_) sum += s.value.load(std::memory_order_relaxed);
  return sum;
}

std::uint64_t Timer::total_ns() const noexcept {
  std::uint64_t sum = 0;
  for (const auto& s : total_ns_) {
    sum += s.value.load(std::memory_order_relaxed);
  }
  return sum;
}

void Timer::reset() noexcept {
  for (auto& s : total_ns_) s.value.store(0, std::memory_order_relaxed);
  for (auto& s : count_) s.value.store(0, std::memory_order_relaxed);
}

// --------------------------------------------------------------- Histogram --

std::size_t Histogram::bucket_of(std::uint64_t us) noexcept {
  if (us == 0) return 0;
  const auto width = static_cast<std::size_t>(std::bit_width(us));
  return width < kBuckets - 1 ? width : kBuckets - 1;
}

std::uint64_t Histogram::bucket_upper_us(std::size_t b) noexcept {
  if (b == 0) return 0;
  if (b >= kBuckets - 1) return UINT64_MAX;
  return (std::uint64_t{1} << b) - 1;
}

void Histogram::record_always_us(std::uint64_t us) noexcept {
  const std::size_t s = metric_shard_index();
  buckets_[s][bucket_of(us)].fetch_add(1, std::memory_order_relaxed);
  sum_us_[s].value.fetch_add(us, std::memory_order_relaxed);
}

std::array<std::uint64_t, Histogram::kBuckets> Histogram::bucket_counts()
    const noexcept {
  std::array<std::uint64_t, kBuckets> out{};
  for (const auto& shard : buckets_) {
    for (std::size_t b = 0; b < kBuckets; ++b) {
      out[b] += shard[b].load(std::memory_order_relaxed);
    }
  }
  return out;
}

std::uint64_t Histogram::count() const noexcept {
  std::uint64_t sum = 0;
  for (std::uint64_t c : bucket_counts()) sum += c;
  return sum;
}

std::uint64_t Histogram::sum_us() const noexcept {
  std::uint64_t sum = 0;
  for (const auto& s : sum_us_) sum += s.value.load(std::memory_order_relaxed);
  return sum;
}

void Histogram::reset() noexcept {
  for (auto& shard : buckets_) {
    for (auto& b : shard) b.store(0, std::memory_order_relaxed);
  }
  for (auto& s : sum_us_) s.value.store(0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------- Registry --

MetricsRegistry& MetricsRegistry::instance() {
  static MetricsRegistry r;
  return r;
}

MetricsRegistry& registry() { return MetricsRegistry::instance(); }

namespace {

template <typename Map>
auto& find_or_create(Map& map, std::string_view name) {
  auto it = map.find(name);
  if (it == map.end()) {
    it = map.emplace(std::string(name),
                     std::make_unique<typename Map::mapped_type::element_type>())
             .first;
  }
  return *it->second;
}

}  // namespace

Counter& MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lk(m_);
  return find_or_create(counters_, name);
}

Timer& MetricsRegistry::timer(std::string_view name) {
  std::lock_guard<std::mutex> lk(m_);
  return find_or_create(timers_, name);
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lk(m_);
  return find_or_create(histograms_, name);
}

void MetricsRegistry::reset_values() {
  std::lock_guard<std::mutex> lk(m_);
  for (auto& [_, c] : counters_) c->reset();
  for (auto& [_, t] : timers_) t->reset();
  for (auto& [_, h] : histograms_) h->reset();
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lk(m_);
  MetricsSnapshot s;
  s.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    s.counters.emplace_back(name, c->total());
  }
  s.timers.reserve(timers_.size());
  for (const auto& [name, t] : timers_) {
    s.timers.emplace_back(name, TimerSnapshot{t->count(), t->total_ns()});
  }
  s.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    s.histograms.emplace_back(
        name, HistogramSnapshot{h->bucket_counts(), h->count(), h->sum_us()});
  }
  return s;
}

void MetricsRegistry::write_json(std::ostream& out, bool pretty) const {
  const MetricsSnapshot s = snapshot();
  io::JsonWriter json(out, pretty);
  json.begin_object();
  json.begin_object("counters");
  for (const auto& [name, v] : s.counters) {
    json.value(name, static_cast<long long>(v));
  }
  json.end_object();
  json.begin_object("timers");
  for (const auto& [name, t] : s.timers) {
    json.begin_object(name);
    json.value("count", static_cast<long long>(t.count));
    json.value("total_ms", static_cast<double>(t.total_ns) / 1e6);
    json.end_object();
  }
  json.end_object();
  json.begin_object("histograms");
  for (const auto& [name, h] : s.histograms) {
    json.begin_object(name);
    json.value("count", static_cast<long long>(h.count));
    json.value("sum_us", static_cast<long long>(h.sum_us));
    json.begin_array("bucket_upper_us");
    for (std::size_t b = 0; b + 1 < Histogram::kBuckets; ++b) {
      json.element(static_cast<long long>(Histogram::bucket_upper_us(b)));
    }
    json.element("inf");
    json.end_array();
    json.begin_array("buckets");
    for (std::uint64_t c : h.buckets) {
      json.element(static_cast<long long>(c));
    }
    json.end_array();
    json.end_object();
  }
  json.end_object();
  json.end_object();
  out << '\n';
}

std::vector<std::pair<std::string, double>> MetricsRegistry::stage_totals_ms()
    const {
  const MetricsSnapshot s = snapshot();
  std::vector<std::pair<std::string, double>> out;
  out.reserve(s.timers.size());
  for (const auto& [name, t] : s.timers) {
    out.emplace_back(name, static_cast<double>(t.total_ns) / 1e6);
  }
  return out;
}

ScopedLatency::ScopedLatency(Histogram& hist) noexcept
    : hist_(metrics_enabled() ? &hist : nullptr),
      start_ns_(hist_ != nullptr ? now_ns() : 0) {}

ScopedLatency::~ScopedLatency() {
  if (hist_ == nullptr) return;
  hist_->record_always_us((now_ns() - start_ns_) / 1000);
}

}  // namespace leodivide::obs
