// Tests for the obs/ observability subsystem: the zero-overhead gate, the
// sharded metrics registry (thread-count-invariant merges), RAII spans,
// the Chrome trace-event exporter — and the load-bearing property that
// turning observability on does not change a single byte of pipeline
// output at any thread count.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <sstream>
#include <string>
#include <vector>

#include "leodivide/core/sizing.hpp"
#include "leodivide/demand/generator.hpp"
#include "leodivide/obs/obs.hpp"
#include "leodivide/orbit/walker.hpp"
#include "leodivide/runtime/executor.hpp"
#include "leodivide/runtime/parallel_for.hpp"
#include "leodivide/runtime/thread_pool.hpp"
#include "leodivide/sim/simulation.hpp"
#include "oracles/json.hpp"

namespace {

using namespace leodivide;

// Every test starts and ends with observability fully off and all values
// zeroed, so tests are order-independent (the registry and recorder are
// process-wide singletons).
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override { reset_observability(); }
  void TearDown() override { reset_observability(); }

  static void reset_observability() {
    obs::set_tracing_enabled(false);
    obs::set_metrics_enabled(false);
    obs::registry().reset_values();
    obs::TraceRecorder::instance().clear();
  }
};

// ---------------------------------------------------------------------------
// Gate: everything off by default, hooks record nothing when disabled
// ---------------------------------------------------------------------------

TEST_F(ObsTest, DisabledByDefault) {
  EXPECT_FALSE(obs::tracing_enabled());
  EXPECT_FALSE(obs::metrics_enabled());
  EXPECT_FALSE(obs::observability_enabled());
  obs::set_tracing_enabled(true);
  EXPECT_TRUE(obs::tracing_enabled());
  EXPECT_FALSE(obs::metrics_enabled());
  EXPECT_TRUE(obs::observability_enabled());
  obs::set_metrics_enabled(true);
  obs::set_tracing_enabled(false);
  EXPECT_TRUE(obs::metrics_enabled());
  EXPECT_FALSE(obs::tracing_enabled());
  EXPECT_TRUE(obs::observability_enabled());
}

TEST_F(ObsTest, DisabledHooksRecordNothing) {
  obs::Counter& c = obs::registry().counter("test.off.counter");
  c.add(5);
  EXPECT_EQ(c.total(), 0U);

  obs::Histogram& h = obs::registry().histogram("test.off.hist");
  h.record_us(10);
  EXPECT_EQ(h.count(), 0U);

  obs::Timer& t = obs::registry().timer("test.off.timer");
  t.record_ns(1000);
  EXPECT_EQ(t.count(), 0U);

  { const obs::Span span("test.off.span"); }
  EXPECT_EQ(obs::TraceRecorder::instance().event_count(), 0U);
  EXPECT_EQ(obs::registry().timer("test.off.span").count(), 0U);
}

// ---------------------------------------------------------------------------
// Metrics: sharded merges are identical for every thread count
// ---------------------------------------------------------------------------

TEST_F(ObsTest, CounterAndHistogramMergeDeterministically) {
  obs::set_metrics_enabled(true);
  obs::Counter& c = obs::registry().counter("test.merge.counter");
  obs::Histogram& h = obs::registry().histogram("test.merge.hist");
  obs::Timer& t = obs::registry().timer("test.merge.timer");

  constexpr std::size_t kN = 10000;
  constexpr std::uint64_t kSum = kN * (kN - 1) / 2;
  std::array<std::uint64_t, obs::Histogram::kBuckets> baseline_buckets{};
  bool have_baseline = false;

  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    c.reset();
    h.reset();
    t.reset();
    runtime::ThreadPool pool(threads);
    runtime::parallel_for_each(pool, 0, kN, [&](std::size_t i) {
      c.add(i);
      h.record_us(i);
      t.record_ns(i * 10);
    });
    EXPECT_EQ(c.total(), kSum) << "threads=" << threads;
    EXPECT_EQ(h.count(), kN) << "threads=" << threads;
    EXPECT_EQ(h.sum_us(), kSum) << "threads=" << threads;
    EXPECT_EQ(t.count(), kN) << "threads=" << threads;
    EXPECT_EQ(t.total_ns(), kSum * 10) << "threads=" << threads;
    const auto buckets = h.bucket_counts();
    if (!have_baseline) {
      baseline_buckets = buckets;
      have_baseline = true;
    } else {
      EXPECT_EQ(buckets, baseline_buckets) << "threads=" << threads;
    }
  }
}

TEST_F(ObsTest, HistogramBucketPlacement) {
  using H = obs::Histogram;
  EXPECT_EQ(H::bucket_of(0), 0U);
  EXPECT_EQ(H::bucket_of(1), 1U);
  EXPECT_EQ(H::bucket_of(2), 2U);
  EXPECT_EQ(H::bucket_of(3), 2U);
  EXPECT_EQ(H::bucket_of(4), 3U);
  EXPECT_EQ(H::bucket_of(1023), 10U);
  EXPECT_EQ(H::bucket_of(1024), 11U);
  EXPECT_EQ(H::bucket_of(UINT64_MAX), H::kBuckets - 1);
  EXPECT_EQ(H::bucket_upper_us(0), 0U);
  EXPECT_EQ(H::bucket_upper_us(1), 1U);
  EXPECT_EQ(H::bucket_upper_us(2), 3U);
  EXPECT_EQ(H::bucket_upper_us(10), 1023U);
  EXPECT_EQ(H::bucket_upper_us(H::kBuckets - 1), UINT64_MAX);
}

TEST_F(ObsTest, ResetValuesKeepsHandlesValid) {
  obs::set_metrics_enabled(true);
  obs::Counter& c = obs::registry().counter("test.reset.counter");
  c.add(3);
  EXPECT_EQ(c.total(), 3U);
  obs::registry().reset_values();
  EXPECT_EQ(c.total(), 0U);
  c.add(2);  // the cached reference still points at the live metric
  EXPECT_EQ(c.total(), 2U);
  EXPECT_EQ(obs::registry().counter("test.reset.counter").total(), 2U);
}

// ---------------------------------------------------------------------------
// Spans: trace events + stage timers, properly nested
// ---------------------------------------------------------------------------

TEST_F(ObsTest, SpanFeedsTraceAndStageTimer) {
  obs::set_tracing_enabled(true);
  obs::set_metrics_enabled(true);
  {
    const obs::Span outer("test.span.outer");
    const obs::Span inner("test.span.inner");
  }
  EXPECT_EQ(obs::TraceRecorder::instance().event_count(), 2U);
  EXPECT_EQ(obs::registry().timer("test.span.outer").count(), 1U);
  EXPECT_EQ(obs::registry().timer("test.span.inner").count(), 1U);

  const auto events = obs::TraceRecorder::instance().events();
  ASSERT_EQ(events.size(), 2U);
  const obs::TraceEvent* outer_ev = nullptr;
  const obs::TraceEvent* inner_ev = nullptr;
  for (const auto& e : events) {
    if (std::string(e.name) == "test.span.outer") outer_ev = &e;
    if (std::string(e.name) == "test.span.inner") inner_ev = &e;
  }
  ASSERT_NE(outer_ev, nullptr);
  ASSERT_NE(inner_ev, nullptr);
  EXPECT_EQ(outer_ev->tid, inner_ev->tid);
  EXPECT_GE(inner_ev->start_ns, outer_ev->start_ns);
  EXPECT_LE(inner_ev->start_ns + inner_ev->dur_ns,
            outer_ev->start_ns + outer_ev->dur_ns);
}

// ---------------------------------------------------------------------------
// The acceptance property: observability never changes pipeline output
// ---------------------------------------------------------------------------

constexpr demand::GeneratorConfig kSmallConfig{.seed = 11, .scale = 0.01};

// Runs the full instrumented pipeline (polyfill -> generate -> sizing ->
// simulation) and serialises every output to one byte string.
std::string run_pipeline_bytes(runtime::Executor& executor) {
  const demand::SyntheticGenerator gen(kSmallConfig);
  const auto profile = gen.generate_profile(executor);

  std::ostringstream out;
  profile.save_csv(out, out);

  const core::SizingModel model;
  const auto sizing = core::size_with_cap(profile, model, 5.0, 20.0, executor);
  out << sizing.satellites << '|' << sizing.binding_lat_deg << '|'
      << sizing.beams_on_binding << '|' << sizing.binding_cell_index << '\n';

  sim::SimulationConfig config;
  config.shell = orbit::WalkerShell{53.0, 550.0, 8, 6, 1};  // tiny shell
  config.duration_s = 180.0;
  config.step_s = 60.0;
  const sim::Simulation simulation(config, profile);
  for (const auto& e : simulation.run(executor)) {
    out << e.time_s << '|' << e.cells_served << '|' << e.locations_served
        << '|' << e.mean_beam_utilization << '|' << e.satellites_in_view
        << '\n';
  }
  return out.str();
}

TEST_F(ObsTest, PipelineByteIdenticalWithObservabilityOnOrOff) {
  const std::string baseline = run_pipeline_bytes(runtime::serial_executor());
  ASSERT_FALSE(baseline.empty());

  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    // Observability fully on.
    reset_observability();
    obs::set_tracing_enabled(true);
    obs::set_metrics_enabled(true);
    {
      runtime::ThreadPool pool(threads);
      EXPECT_EQ(run_pipeline_bytes(pool), baseline)
          << "obs on, threads=" << threads;
    }
    // Spans actually fired while producing identical bytes.
    EXPECT_GT(obs::TraceRecorder::instance().event_count(), 0U);

    // Observability fully off.
    reset_observability();
    {
      runtime::ThreadPool pool(threads);
      EXPECT_EQ(run_pipeline_bytes(pool), baseline)
          << "obs off, threads=" << threads;
    }
    EXPECT_EQ(obs::TraceRecorder::instance().event_count(), 0U);
  }
}

TEST_F(ObsTest, PipelineMetricsIdenticalAcrossThreadCounts) {
  std::vector<std::pair<std::string, std::uint64_t>> baseline;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    reset_observability();
    obs::set_metrics_enabled(true);
    runtime::ThreadPool pool(threads);
    (void)run_pipeline_bytes(pool);
    const auto snap = obs::registry().snapshot();
    // Keep the pipeline's own counters (test.* ones are zeroed by reset).
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    for (const auto& [name, value] : snap.counters) {
      if (value != 0) counters.emplace_back(name, value);
    }
    ASSERT_FALSE(counters.empty());
    if (baseline.empty()) {
      baseline = counters;
    } else {
      EXPECT_EQ(counters, baseline) << "threads=" << threads;
    }
  }
  // Every instrumented stage produced a timer.
  const auto stages = obs::registry().stage_totals_ms();
  const auto has_stage = [&](const std::string& name) {
    for (const auto& [n, ms] : stages) {
      if (n == name) return true;
    }
    return false;
  };
  EXPECT_TRUE(has_stage("hex.polyfill"));
  EXPECT_TRUE(has_stage("demand.generate_profile"));
  EXPECT_TRUE(has_stage("core.size_with_cap"));
  EXPECT_TRUE(has_stage("sim.run"));
}

// ---------------------------------------------------------------------------
// Chrome trace export
// ---------------------------------------------------------------------------

TEST_F(ObsTest, ChromeTraceExportsNestedPipelineStages) {
  obs::set_tracing_enabled(true);
  {
    runtime::ThreadPool pool(4);
    (void)run_pipeline_bytes(pool);
  }
  std::ostringstream out;
  obs::TraceRecorder::instance().write_chrome_trace(out);

  const oracle::JsonValue doc = oracle::json_parse(out.str());
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.at("displayTimeUnit").str_v, "ms");
  const oracle::JsonValue& events = doc.at("traceEvents");
  ASSERT_TRUE(events.is_array());

  struct Complete {
    std::string name;
    double ts = 0.0;
    double dur = 0.0;
    double tid = 0.0;
  };
  std::vector<Complete> spans;
  bool saw_process_meta = false;
  for (const auto& e : events.items) {
    ASSERT_TRUE(e.is_object());
    const std::string& ph = e.at("ph").str_v;
    if (ph == "M") {
      saw_process_meta |= (e.at("name").str_v == "process_name");
      continue;
    }
    ASSERT_EQ(ph, "X");
    ASSERT_TRUE(e.at("ts").is_number());
    ASSERT_TRUE(e.at("dur").is_number());
    spans.push_back({e.at("name").str_v, e.at("ts").num_v, e.at("dur").num_v,
                     e.at("tid").num_v});
  }
  EXPECT_TRUE(saw_process_meta);

  const auto spans_named = [&](const std::string& name) {
    std::vector<Complete> out_spans;
    for (const auto& s : spans) {
      if (s.name == name) out_spans.push_back(s);
    }
    return out_spans;
  };
  for (const char* stage :
       {"hex.polyfill", "demand.generate_profile", "core.size_with_cap",
        "sim.run", "sim.epoch"}) {
    EXPECT_FALSE(spans_named(stage).empty()) << "missing stage " << stage;
  }

  // Nesting: hex.polyfill runs inside demand.generate_profile on the same
  // thread (chrome://tracing infers the hierarchy from ts/dur containment).
  const auto polyfills = spans_named("hex.polyfill");
  const auto generates = spans_named("demand.generate_profile");
  ASSERT_FALSE(polyfills.empty());
  ASSERT_FALSE(generates.empty());
  bool nested = false;
  for (const auto& p : polyfills) {
    for (const auto& g : generates) {
      // leolint:allow(float-eq): tids are integers carried in doubles
      if (p.tid == g.tid && p.ts >= g.ts &&
          p.ts + p.dur <= g.ts + g.dur + 1e-3) {
        nested = true;
      }
    }
  }
  EXPECT_TRUE(nested);
}

// ---------------------------------------------------------------------------
// Metrics export + bench JSON lines
// ---------------------------------------------------------------------------

TEST_F(ObsTest, MetricsJsonExport) {
  obs::set_metrics_enabled(true);
  obs::registry().counter("test.export.counter").add(3);
  obs::registry().timer("test.export.timer").record_ns(1500000);
  obs::registry().histogram("test.export.hist").record_us(5);

  std::ostringstream json_out;
  obs::registry().write_json(json_out);
  const oracle::JsonValue doc = oracle::json_parse(json_out.str());
  EXPECT_DOUBLE_EQ(doc.at("counters").at("test.export.counter").num_v, 3.0);
  EXPECT_DOUBLE_EQ(doc.at("timers").at("test.export.timer").at("count").num_v,
                   1.0);
  const oracle::JsonValue& hist = doc.at("histograms").at("test.export.hist");
  EXPECT_DOUBLE_EQ(hist.at("count").num_v, 1.0);
  EXPECT_DOUBLE_EQ(hist.at("sum_us").num_v, 5.0);
  ASSERT_EQ(hist.at("buckets").items.size(), obs::Histogram::kBuckets);
}

TEST_F(ObsTest, BenchLineJsonNeverTruncates) {
  // Long and quote-laden names would have overflowed the old fixed
  // 256-byte snprintf buffer; the obs emitter escapes and grows instead.
  obs::set_metrics_enabled(true);
  obs::registry().timer("stage.alpha").record_ns(2000000);
  obs::registry().timer("stage.beta").record_ns(500000);

  const std::string long_name = std::string(300, 'x') + " \"quoted\"";
  const std::string line = obs::bench_line_json(long_name, 4, 12.5);
  const oracle::JsonValue v = oracle::json_parse(line);
  EXPECT_EQ(v.at("bench").str_v, long_name);
  EXPECT_DOUBLE_EQ(v.at("threads").num_v, 4.0);
  EXPECT_DOUBLE_EQ(v.at("wall_ms").num_v, 12.5);
  const oracle::JsonValue& stages = v.at("stages");
  ASSERT_TRUE(stages.is_object());
  EXPECT_GT(stages.at("stage.alpha").num_v, 0.0);
  EXPECT_GT(stages.at("stage.beta").num_v, 0.0);
}

TEST_F(ObsTest, BenchLineJsonOmitsStagesWhenMetricsOff) {
  const std::string line = obs::bench_line_json("plain", 1, 3.25);
  const oracle::JsonValue v = oracle::json_parse(line);
  EXPECT_EQ(v.at("bench").str_v, "plain");
  EXPECT_EQ(v.find("stages"), nullptr);
}

// ---------------------------------------------------------------------------
// Session plumbing: env vars, CLI flags, finalize
// ---------------------------------------------------------------------------

TEST_F(ObsTest, OptionsFromEnv) {
  ::setenv("LEODIVIDE_TRACE", "my_trace.json", 1);
  ::setenv("LEODIVIDE_METRICS", "1", 1);
  obs::Options opts = obs::options_from_env();
  EXPECT_TRUE(opts.trace);
  EXPECT_EQ(opts.trace_path, "my_trace.json");
  EXPECT_TRUE(opts.metrics);
  EXPECT_TRUE(opts.metrics_path.empty());

  ::setenv("LEODIVIDE_TRACE", "1", 1);
  ::setenv("LEODIVIDE_METRICS", "metrics.json", 1);
  opts = obs::options_from_env();
  EXPECT_TRUE(opts.trace);
  EXPECT_EQ(opts.trace_path, "trace.json");
  EXPECT_EQ(opts.metrics_path, "metrics.json");

  ::setenv("LEODIVIDE_TRACE", "0", 1);
  ::unsetenv("LEODIVIDE_METRICS");
  opts = obs::options_from_env();
  EXPECT_FALSE(opts.trace);
  EXPECT_FALSE(opts.metrics);

  ::unsetenv("LEODIVIDE_TRACE");
}

TEST_F(ObsTest, ParseCliArgConsumesObservabilityFlags) {
  std::vector<std::string> raw = {"prog",    "--trace", "t.json",
                                  "--metrics=m.json", "out_dir"};
  std::vector<char*> argv;
  argv.reserve(raw.size());
  for (auto& s : raw) argv.push_back(s.data());
  const int argc = static_cast<int>(argv.size());

  obs::Options opts;
  std::vector<std::string> leftover;
  for (int i = 1; i < argc; ++i) {
    if (!obs::parse_cli_arg(opts, argc, argv.data(), i)) {
      leftover.push_back(argv[i]);
    }
  }
  EXPECT_TRUE(opts.trace);
  EXPECT_EQ(opts.trace_path, "t.json");
  EXPECT_TRUE(opts.metrics);
  EXPECT_EQ(opts.metrics_path, "m.json");
  ASSERT_EQ(leftover.size(), 1U);
  EXPECT_EQ(leftover[0], "out_dir");
}

TEST_F(ObsTest, ApplyAndFinalizeWriteRequestedFiles) {
  namespace fs = std::filesystem;
  const std::string trace_path =
      testing::TempDir() + "leodivide_obs_trace_test.json";
  const std::string metrics_path =
      testing::TempDir() + "leodivide_obs_metrics_test.json";

  obs::Options opts;
  opts.trace = true;
  opts.trace_path = trace_path;
  opts.metrics = true;
  opts.metrics_path = metrics_path;
  obs::apply(opts);
  EXPECT_TRUE(obs::tracing_enabled());
  EXPECT_TRUE(obs::metrics_enabled());

  { const obs::Span span("test.finalize.stage"); }
  obs::registry().counter("test.finalize.counter").add(1);
  obs::finalize(opts);

  std::ifstream trace_in(trace_path);
  ASSERT_TRUE(trace_in.good());
  std::stringstream trace_buf;
  trace_buf << trace_in.rdbuf();
  const oracle::JsonValue trace_doc = oracle::json_parse(trace_buf.str());
  ASSERT_TRUE(trace_doc.at("traceEvents").is_array());
  bool found = false;
  for (const auto& e : trace_doc.at("traceEvents").items) {
    if (e.at("name").str_v == "test.finalize.stage") found = true;
  }
  EXPECT_TRUE(found);

  std::ifstream metrics_in(metrics_path);
  ASSERT_TRUE(metrics_in.good());
  std::stringstream metrics_buf;
  metrics_buf << metrics_in.rdbuf();
  const oracle::JsonValue metrics_doc = oracle::json_parse(metrics_buf.str());
  EXPECT_DOUBLE_EQ(
      metrics_doc.at("counters").at("test.finalize.counter").num_v, 1.0);

  fs::remove(trace_path);
  fs::remove(metrics_path);
}

// ---------------------------------------------------------------------------
// ThreadPool instrumentation
// ---------------------------------------------------------------------------

TEST_F(ObsTest, ThreadPoolRecordsTaskSpansAndQueueWait) {
  obs::set_tracing_enabled(true);
  obs::set_metrics_enabled(true);
  {
    runtime::ThreadPool pool(2);
    pool.run_tasks(16, [](std::size_t) {});
  }
  EXPECT_EQ(obs::registry().timer("runtime.task").count(), 16U);
  EXPECT_EQ(obs::registry().histogram("runtime.queue_wait_us").count(), 16U);
  std::size_t task_events = 0;
  for (const auto& e : obs::TraceRecorder::instance().events()) {
    if (std::string(e.name) == "runtime.task") ++task_events;
  }
  EXPECT_EQ(task_events, 16U);
}

}  // namespace
