// Tests for the task-graph runtime and its cache-aware snapshot layer:
// TaskGraph scheduling (graph-run results bit-identical to the serial
// reference at 1/4/8 threads), the error/skip contract, AsyncIo
// store/prefetch/drain semantics, StageGraph cold/warm runs with
// digest-edge invalidation, and the observability hooks (flow events in
// the Chrome trace, per-stage queue-wait histograms).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "leodivide/obs/metrics.hpp"
#include "leodivide/obs/trace.hpp"
#include "leodivide/runtime/executor.hpp"
#include "leodivide/runtime/task_graph.hpp"
#include "leodivide/runtime/thread_pool.hpp"
#include "leodivide/snapshot/async.hpp"
#include "leodivide/snapshot/cache.hpp"
#include "leodivide/snapshot/fingerprint.hpp"
#include "leodivide/snapshot/format.hpp"
#include "leodivide/snapshot/stage_graph.hpp"
#include "leodivide/snapshot/stages.hpp"
#include "oracles/json.hpp"

namespace {

using namespace leodivide;
namespace fs = std::filesystem;
using runtime::TaskGraph;

// ---------------------------------------------------------------------------
// TaskGraph: scheduling and determinism
// ---------------------------------------------------------------------------

TEST(TaskGraphTest, EmptyGraphRunsToCompletion) {
  TaskGraph graph;
  EXPECT_EQ(graph.task_count(), 0U);
  graph.run(runtime::serial_executor());
}

TEST(TaskGraphTest, EveryNodeRunsExactlyOnce) {
  TaskGraph graph;
  std::vector<std::atomic<int>> runs(4);
  const auto a = graph.add_task("tg.a", [&] { ++runs[0]; });
  const auto b = graph.add_task("tg.b", [&] { ++runs[1]; }, {a});
  const auto c = graph.add_task("tg.c", [&] { ++runs[2]; }, {a});
  const auto d = graph.add_task("tg.d", [&] { ++runs[3]; }, {b, c});
  ASSERT_EQ(graph.task_count(), 4U);

  runtime::ThreadPool pool(4);
  graph.run(pool);
  for (const auto& r : runs) EXPECT_EQ(r.load(), 1);
}

TEST(TaskGraphTest, SerialExecutorRunsLowestReadyIdOrder) {
  // Diamond plus an independent tail: the serial reference order is the
  // canonical lowest-ready-id topological order, i.e. ascending ids here
  // (nodes are added in topological order).
  TaskGraph graph;
  std::vector<int> order;
  const auto a = graph.add_task("tg.a", [&] { order.push_back(0); });
  const auto b = graph.add_task("tg.b", [&] { order.push_back(1); }, {a});
  graph.add_task("tg.c", [&] { order.push_back(2); }, {a});
  graph.add_task("tg.d", [&] { order.push_back(3); }, {b});
  graph.add_task("tg.e", [&] { order.push_back(4); });

  graph.run(runtime::serial_executor());
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(TaskGraphTest, DependencyMustNameAnAlreadyAddedNode) {
  TaskGraph graph;
  EXPECT_THROW(graph.add_task("tg.bad", [] {}, {0}), std::invalid_argument);
  const auto a = graph.add_task("tg.a", [] {});
  EXPECT_THROW(graph.add_task("tg.bad", [] {}, {a + 1}),
               std::invalid_argument);
}

// The load-bearing property: a graph whose nodes write disjoint slots
// produces bit-identical floating-point results on the serial executor and
// on pools of 1, 4 and 8 threads.
TEST(TaskGraphTest, ResultsBitIdenticalAcrossExecutors) {
  const auto run_once = [](runtime::Executor& ex) {
    std::vector<double> slot(6, 0.0);
    TaskGraph graph;
    const auto a = graph.add_task("tg.a", [&] { slot[0] = std::sin(1.0); });
    const auto b = graph.add_task("tg.b", [&] { slot[1] = std::cos(2.0); });
    const auto c = graph.add_task(
        "tg.c", [&] { slot[2] = slot[0] * 3.0 + std::exp(0.5); }, {a});
    const auto d = graph.add_task(
        "tg.d", [&] { slot[3] = slot[1] / 7.0 - std::log(3.0); }, {b});
    const auto e = graph.add_task(
        "tg.e", [&] { slot[4] = slot[2] + slot[3]; }, {c, d});
    graph.add_task(
        "tg.f", [&] { slot[5] = std::sqrt(std::abs(slot[4])); }, {e});
    graph.run(ex);
    return slot;
  };

  const std::vector<double> reference = run_once(runtime::serial_executor());
  for (const std::size_t threads : {1U, 4U, 8U}) {
    runtime::ThreadPool pool(threads);
    const std::vector<double> got = run_once(pool);
    ASSERT_EQ(got.size(), reference.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i]),
                std::bit_cast<std::uint64_t>(reference[i]))
          << "slot " << i << " differs at " << threads << " threads";
    }
  }
}

TEST(TaskGraphTest, LowestIdErrorWinsAndDescendantsSkip) {
  TaskGraph graph;
  std::atomic<int> bad_runs{0};
  std::atomic<int> late_runs{0};
  const auto bad1 = graph.add_task("tg.bad1", [&] {
    ++bad_runs;
    throw std::runtime_error("first failure");
  });
  graph.add_task("tg.bad2", [&] {
    ++bad_runs;
    throw std::runtime_error("second failure");
  });
  const auto child = graph.add_task("tg.child", [&] { ++late_runs; }, {bad1});
  graph.add_task("tg.grandchild", [&] { ++late_runs; }, {child});
  graph.add_task("tg.independent", [&] { ++late_runs; });

  runtime::ThreadPool pool(4);
  try {
    graph.run(pool);
    FAIL() << "run() should have rethrown";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "first failure");
  }
  EXPECT_EQ(bad_runs.load(), 2);   // both failing nodes ran
  EXPECT_EQ(late_runs.load(), 1);  // only the independent node ran
}

TEST(TaskGraphTest, GraphIsReusable) {
  TaskGraph graph;
  std::atomic<int> runs{0};
  const auto a = graph.add_task("tg.a", [&] { ++runs; });
  graph.add_task("tg.b", [&] { ++runs; }, {a});

  runtime::ThreadPool pool(2);
  graph.run(pool);
  graph.run(runtime::serial_executor());
  graph.run(pool);
  EXPECT_EQ(runs.load(), 6);
}

// Regression companion to ThreadPool's nested-batch handling: running a
// whole graph from inside a pool task must not deadlock — the pump batch
// runs inline on the calling thread.
TEST(TaskGraphTest, RunsFromInsideAPoolTask) {
  runtime::ThreadPool pool(2);
  std::atomic<int> runs{0};
  pool.run_tasks(2, [&](std::size_t) {
    TaskGraph graph;
    const auto a = graph.add_task("tg.inner_a", [&] { ++runs; });
    graph.add_task("tg.inner_b", [&] { ++runs; }, {a});
    graph.run(pool);
  });
  EXPECT_EQ(runs.load(), 4);
}

// ---------------------------------------------------------------------------
// AsyncIo: stores and prefetches behind compute
// ---------------------------------------------------------------------------

class AsyncIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("ld_async_test_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }
  fs::path dir_;
};

TEST_F(AsyncIoTest, StoreIsOnDiskAfterDrain) {
  snapshot::StageCache cache(dir_.string());
  snapshot::AsyncIo io;
  const snapshot::Fingerprint fp = snapshot::stage_fingerprint("tg.stage");
  io.enqueue_store(cache, "tg.stage", fp, "payload-bytes");
  io.drain();
  EXPECT_EQ(io.stores(), 1U);
  const std::optional<std::string> blob = cache.load("tg.stage", fp);
  ASSERT_TRUE(blob.has_value());
  EXPECT_EQ(*blob, "payload-bytes");
}

TEST_F(AsyncIoTest, DestructorDrainsOutstandingStores) {
  snapshot::StageCache cache(dir_.string());
  const snapshot::Fingerprint fp = snapshot::stage_fingerprint("tg.stage");
  {
    snapshot::AsyncIo io;
    io.enqueue_store(cache, "tg.stage", fp, "flushed-at-destruction");
  }
  const std::optional<std::string> blob = cache.load("tg.stage", fp);
  ASSERT_TRUE(blob.has_value());
  EXPECT_EQ(*blob, "flushed-at-destruction");
}

TEST_F(AsyncIoTest, PrefetchResolvesToBlobOrMiss) {
  snapshot::StageCache cache(dir_.string());
  const snapshot::Fingerprint hit_fp =
      snapshot::stage_fingerprint("tg.stage").mix_u64(1);
  const snapshot::Fingerprint miss_fp =
      snapshot::stage_fingerprint("tg.stage").mix_u64(2);
  cache.store("tg.stage", hit_fp, "prefetched-bytes");

  snapshot::AsyncIo io;
  snapshot::AsyncIo::Ticket hit = io.prefetch(cache, "tg.stage", hit_fp);
  snapshot::AsyncIo::Ticket miss = io.prefetch(cache, "tg.stage", miss_fp);
  EXPECT_EQ(io.prefetches(), 2U);

  const std::optional<std::string> hit_blob = hit->take();
  ASSERT_TRUE(hit_blob.has_value());
  EXPECT_EQ(*hit_blob, "prefetched-bytes");
  EXPECT_FALSE(miss->take().has_value());
}

TEST_F(AsyncIoTest, FifoOrderMakesStoreVisibleToLaterPrefetch) {
  snapshot::StageCache cache(dir_.string());
  const snapshot::Fingerprint fp = snapshot::stage_fingerprint("tg.stage");
  snapshot::AsyncIo io;
  io.enqueue_store(cache, "tg.stage", fp, "store-then-load");
  snapshot::AsyncIo::Ticket ticket = io.prefetch(cache, "tg.stage", fp);
  const std::optional<std::string> blob = ticket->take();
  ASSERT_TRUE(blob.has_value());
  EXPECT_EQ(*blob, "store-then-load");
}

// ---------------------------------------------------------------------------
// staged_compute: the cache-aware building block
// ---------------------------------------------------------------------------

namespace blobs {

// Minimal int codec through the LDSNAP container so deserialize failures
// surface as SnapshotError (the staged_compute recovery path).
std::string serialize_int(int v) {
  snapshot::ByteWriter w;
  w.u64(static_cast<std::uint64_t>(v));
  snapshot::SnapshotWriter sw(snapshot::ArtifactKind::kServePartial);
  sw.add_section("int", std::move(w).take());
  return std::move(sw).finish();
}

int deserialize_int(std::string_view blob) {
  const snapshot::SnapshotReader reader = snapshot::SnapshotReader::parse(blob);
  snapshot::ByteReader r(reader.section("int"));
  const int v = static_cast<int>(r.u64());
  r.expect_exhausted("int blob");
  return v;
}

}  // namespace blobs

TEST_F(AsyncIoTest, StagedComputeWithoutCacheIsPureCompute) {
  int computes = 0;
  const auto staged = snapshot::staged_compute(
      nullptr, nullptr, "tg.stage", snapshot::stage_fingerprint("tg.stage"),
      [&] {
        ++computes;
        return 41;
      },
      blobs::serialize_int, blobs::deserialize_int);
  EXPECT_EQ(staged.value, 41);
  EXPECT_EQ(staged.blob_digest, 0U);
  EXPECT_FALSE(staged.restored);
  EXPECT_EQ(computes, 1);
}

TEST_F(AsyncIoTest, StagedComputeStoresThroughIoAndRestoresWarm) {
  snapshot::StageCache cache(dir_.string());
  const snapshot::Fingerprint fp = snapshot::stage_fingerprint("tg.stage");
  int computes = 0;
  const auto compute = [&] {
    ++computes;
    return 7;
  };

  std::uint64_t cold_digest = 0;
  {
    snapshot::AsyncIo io;
    const auto cold = snapshot::staged_compute(
        &cache, &io, "tg.stage", fp, compute, blobs::serialize_int,
        blobs::deserialize_int);
    EXPECT_EQ(cold.value, 7);
    EXPECT_FALSE(cold.restored);
    EXPECT_NE(cold.blob_digest, 0U);
    cold_digest = cold.blob_digest;
    io.drain();
  }

  const auto warm = snapshot::staged_compute(
      &cache, nullptr, "tg.stage", fp, compute, blobs::serialize_int,
      blobs::deserialize_int);
  EXPECT_EQ(warm.value, 7);
  EXPECT_TRUE(warm.restored);
  EXPECT_EQ(warm.blob_digest, cold_digest);  // digest edges stable
  EXPECT_EQ(computes, 1);                    // warm run never recomputed
}

TEST_F(AsyncIoTest, StagedComputeRecomputesOnCorruptBlob) {
  snapshot::StageCache cache(dir_.string());
  const snapshot::Fingerprint fp = snapshot::stage_fingerprint("tg.stage");
  cache.store("tg.stage", fp, "not an LDSNAP blob");
  int computes = 0;
  const auto staged = snapshot::staged_compute(
      &cache, nullptr, "tg.stage", fp,
      [&] {
        ++computes;
        return 13;
      },
      blobs::serialize_int, blobs::deserialize_int);
  EXPECT_EQ(staged.value, 13);
  EXPECT_FALSE(staged.restored);
  EXPECT_EQ(computes, 1);
  // The recompute overwrote the corrupt blob; the next call restores.
  const auto warm = snapshot::staged_compute(
      &cache, nullptr, "tg.stage", fp,
      [&]() -> int { throw std::logic_error("must not recompute"); },
      blobs::serialize_int, blobs::deserialize_int);
  EXPECT_TRUE(warm.restored);
  EXPECT_EQ(warm.value, 13);
}

// ---------------------------------------------------------------------------
// StageGraph: digest edges drive both scheduling and cache keys
// ---------------------------------------------------------------------------

struct StageGraphRun {
  int value = 0;
  bool a_restored = false;
  bool b_restored = false;
  int a_computes = 0;
  int b_computes = 0;
};

// Two-stage chain a -> b where a's output feeds b through a plain glue
// task as well as through b's digest edge on a.
StageGraphRun run_stage_chain(const snapshot::StageCache* cache,
                              snapshot::AsyncIo* io, int a_config,
                              runtime::Executor& ex) {
  StageGraphRun out;
  snapshot::StageGraph graph(cache, io);
  auto a = graph.add_stage(snapshot::StageDef<int>{
      "tg.stage_a",
      [a_config](snapshot::Fingerprint& fp) { fp.mix_u64(a_config); },
      [&out, a_config] {
        ++out.a_computes;
        return a_config * 10;
      },
      blobs::serialize_int, blobs::deserialize_int});
  int carried = 0;
  const auto glue = graph.add_task(
      "tg.glue", [&carried, a] { carried = a.value() + 1; }, {a.id()});
  auto b = graph.add_stage(
      snapshot::StageDef<int>{"tg.stage_b", [](snapshot::Fingerprint&) {},
                              [&out, &carried] {
                                ++out.b_computes;
                                return carried * 2;
                              },
                              blobs::serialize_int, blobs::deserialize_int},
      {a}, {glue});
  graph.run(ex);
  out.value = b.value();
  out.a_restored = a.restored();
  out.b_restored = b.restored();
  return out;
}

TEST_F(AsyncIoTest, StageGraphColdComputesWarmRestores) {
  snapshot::StageCache cache(dir_.string());
  snapshot::AsyncIo io;
  runtime::ThreadPool pool(4);

  const StageGraphRun cold = run_stage_chain(&cache, &io, 3, pool);
  EXPECT_EQ(cold.value, (3 * 10 + 1) * 2);
  EXPECT_EQ(cold.a_computes, 1);
  EXPECT_EQ(cold.b_computes, 1);
  EXPECT_FALSE(cold.a_restored);
  EXPECT_FALSE(cold.b_restored);

  const StageGraphRun warm = run_stage_chain(&cache, &io, 3, pool);
  EXPECT_EQ(warm.value, cold.value);
  EXPECT_EQ(warm.a_computes, 0);
  EXPECT_EQ(warm.b_computes, 0);
  EXPECT_TRUE(warm.a_restored);
  EXPECT_TRUE(warm.b_restored);
}

TEST_F(AsyncIoTest, StageGraphDigestEdgeInvalidatesDownstream) {
  snapshot::StageCache cache(dir_.string());
  runtime::ThreadPool pool(2);

  const StageGraphRun first = run_stage_chain(&cache, nullptr, 3, pool);
  EXPECT_EQ(first.a_computes, 1);
  EXPECT_EQ(first.b_computes, 1);

  // Changing a's config changes a's blob, so b's upstream digest changes
  // and b recomputes even though b's own config mix is unchanged.
  const StageGraphRun changed = run_stage_chain(&cache, nullptr, 4, pool);
  EXPECT_EQ(changed.value, (4 * 10 + 1) * 2);
  EXPECT_EQ(changed.a_computes, 1);
  EXPECT_EQ(changed.b_computes, 1);
  EXPECT_FALSE(changed.b_restored);

  // And going back to the original config restores both from cache.
  const StageGraphRun back = run_stage_chain(&cache, nullptr, 3, pool);
  EXPECT_EQ(back.value, first.value);
  EXPECT_EQ(back.a_computes, 0);
  EXPECT_EQ(back.b_computes, 0);
}

TEST_F(AsyncIoTest, StageGraphWithoutCacheIsPureCompute) {
  const StageGraphRun run =
      run_stage_chain(nullptr, nullptr, 5, runtime::serial_executor());
  EXPECT_EQ(run.value, (5 * 10 + 1) * 2);
  EXPECT_EQ(run.a_computes, 1);
  EXPECT_FALSE(run.a_restored);
}

TEST(StageGraphTest, ValueBeforeRunThrows) {
  snapshot::StageGraph graph;
  auto a = graph.add_stage(snapshot::StageDef<int>{
      "tg.stage_a", [](snapshot::Fingerprint&) {}, [] { return 1; },
      blobs::serialize_int, blobs::deserialize_int});
  EXPECT_THROW((void)a.value(), std::logic_error);
}

// A stage whose key reads a value set by a plain add_task dependency must
// load under its run-time key. Prefetching it at build time would fetch
// the blob of the stale build-time key and restore the wrong value.
TEST_F(AsyncIoTest, StageGraphKeysTaskFedStageAtRunTime) {
  snapshot::StageCache cache(dir_.string());
  snapshot::AsyncIo io;
  const auto run = [&](int set_to) {
    int input = 0;
    snapshot::StageGraph graph(&cache, &io);
    const auto set = graph.add_task("tg.set_input",
                                    [&input, set_to] { input = set_to; });
    auto stage = graph.add_stage(
        snapshot::StageDef<int>{
            "tg.stage_in",
            [&input](snapshot::Fingerprint& fp) { fp.mix_u64(input); },
            [&input] { return input; }, blobs::serialize_int,
            blobs::deserialize_int},
        {}, {set});
    graph.run(runtime::serial_executor());
    return std::make_pair(stage.value(), stage.restored());
  };
  EXPECT_EQ(run(0), std::make_pair(0, false));
  EXPECT_EQ(run(5), std::make_pair(5, false))
      << "restored the blob stored under the build-time key";
  EXPECT_EQ(run(5), std::make_pair(5, true));
  EXPECT_EQ(run(0), std::make_pair(0, true));
}

// ---------------------------------------------------------------------------
// Observability: flow events on graph edges, per-stage queue-wait
// ---------------------------------------------------------------------------

class TaskGraphObsTest : public ::testing::Test {
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

TEST_F(TaskGraphObsTest, GraphEdgesExportAsChromeFlowEvents) {
  obs::set_tracing_enabled(true);
  TaskGraph graph;
  const auto a = graph.add_task("tg.flow_a", [] {});
  const auto b = graph.add_task("tg.flow_b", [] {}, {a});
  graph.add_task("tg.flow_c", [] {}, {a, b});
  runtime::ThreadPool pool(2);
  graph.run(pool);

  std::ostringstream out;
  obs::TraceRecorder::instance().write_chrome_trace(out);
  const oracle::JsonValue doc = oracle::json_parse(out.str());
  const oracle::JsonValue& events = doc.at("traceEvents");
  ASSERT_TRUE(events.is_array());

  std::vector<double> starts;
  std::vector<double> ends;
  for (const auto& e : events.items) {
    const std::string& ph = e.at("ph").str_v;
    if (ph != "s" && ph != "f") continue;
    EXPECT_EQ(e.at("cat").str_v, "leodivide.flow");
    EXPECT_EQ(e.at("name").str_v, "graph.edge");
    ASSERT_TRUE(e.at("id").is_number());
    if (ph == "s") {
      starts.push_back(e.at("id").num_v);
    } else {
      EXPECT_EQ(e.at("bp").str_v, "e");
      ends.push_back(e.at("id").num_v);
    }
  }
  // Three edges (a->b, a->c, b->c), each with one start and one end
  // carrying the same flow id.
  ASSERT_EQ(starts.size(), 3U);
  ASSERT_EQ(ends.size(), 3U);
  std::sort(starts.begin(), starts.end());
  std::sort(ends.begin(), ends.end());
  EXPECT_EQ(starts, ends);
}

TEST_F(TaskGraphObsTest, QueueWaitHistogramIsPerStageName) {
  obs::set_tracing_enabled(true);
  obs::set_metrics_enabled(true);
  TaskGraph graph;
  const auto a = graph.add_task("tg.wait_a", [] {});
  graph.add_task("tg.wait_b", [] {}, {a});
  graph.run(runtime::serial_executor());

  const obs::MetricsSnapshot snap = obs::registry().snapshot();
  std::uint64_t a_count = 0;
  std::uint64_t b_count = 0;
  for (const auto& [name, hist] : snap.histograms) {
    if (name == "graph.queue_wait_us.tg.wait_a") a_count = hist.count;
    if (name == "graph.queue_wait_us.tg.wait_b") b_count = hist.count;
  }
  EXPECT_EQ(a_count, 1U);
  EXPECT_EQ(b_count, 1U);
}

}  // namespace
