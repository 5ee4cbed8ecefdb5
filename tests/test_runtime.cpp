// Tests for the runtime/ execution engine: thread-pool correctness (every
// task runs exactly once, exceptions propagate deterministically, nested
// batches don't deadlock), the chunking / map-reduce primitives, and —
// the load-bearing property — that the wired pipeline stages produce
// byte-identical output at every thread count.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "leodivide/core/scenario.hpp"
#include "leodivide/core/sizing.hpp"
#include "leodivide/demand/generator.hpp"
#include "leodivide/hex/polyfill.hpp"
#include "leodivide/runtime/executor.hpp"
#include "leodivide/runtime/map_reduce.hpp"
#include "leodivide/runtime/parallel_for.hpp"
#include "leodivide/runtime/thread_pool.hpp"
#include "leodivide/sim/simulation.hpp"

namespace {

using namespace leodivide;

// ---------------------------------------------------------------------------
// LEODIVIDE_THREADS parsing
// ---------------------------------------------------------------------------

TEST(ParseThreadCount, AcceptsPlainIntegers) {
  EXPECT_EQ(runtime::parse_thread_count("1"), 1U);
  EXPECT_EQ(runtime::parse_thread_count("4"), 4U);
  EXPECT_EQ(runtime::parse_thread_count("128"), 128U);
}

TEST(ParseThreadCount, TrimsSurroundingWhitespace) {
  EXPECT_EQ(runtime::parse_thread_count(" 8 "), 8U);
  EXPECT_EQ(runtime::parse_thread_count("\t2\n"), 2U);
}

TEST(ParseThreadCount, RejectsMalformedInput) {
  EXPECT_EQ(runtime::parse_thread_count("abc"), std::nullopt);
  EXPECT_EQ(runtime::parse_thread_count("-3"), std::nullopt);
  EXPECT_EQ(runtime::parse_thread_count("+4"), std::nullopt);
  EXPECT_EQ(runtime::parse_thread_count("1e9"), std::nullopt);
  EXPECT_EQ(runtime::parse_thread_count("4.5"), std::nullopt);
  EXPECT_EQ(runtime::parse_thread_count(""), std::nullopt);
  EXPECT_EQ(runtime::parse_thread_count("   "), std::nullopt);
  EXPECT_EQ(runtime::parse_thread_count("4x"), std::nullopt);
}

TEST(ParseThreadCount, RejectsOutOfRangeValues) {
  EXPECT_EQ(runtime::parse_thread_count("0"), std::nullopt);
  EXPECT_EQ(runtime::parse_thread_count("99999999"), std::nullopt);
  EXPECT_EQ(runtime::parse_thread_count("18446744073709551617"),
            std::nullopt);
  EXPECT_EQ(runtime::parse_thread_count(
                std::to_string(runtime::kMaxThreads)),
            runtime::kMaxThreads);
  EXPECT_EQ(runtime::parse_thread_count(
                std::to_string(runtime::kMaxThreads + 1)),
            std::nullopt);
}

// ---------------------------------------------------------------------------
// Worker-pool sizing (serve/ server, benches): env + CLI flag
// ---------------------------------------------------------------------------

TEST(WorkerCount, EnvOverridesFallback) {
  ASSERT_EQ(setenv("LEODIVIDE_WORKERS", "6", 1), 0);
  EXPECT_EQ(runtime::worker_count_from_env(2), 6U);
  ASSERT_EQ(unsetenv("LEODIVIDE_WORKERS"), 0);
  EXPECT_EQ(runtime::worker_count_from_env(2), 2U);
}

TEST(WorkerCount, MalformedEnvFallsBack) {
  ASSERT_EQ(setenv("LEODIVIDE_WORKERS", "lots", 1), 0);
  EXPECT_EQ(runtime::worker_count_from_env(3), 3U);
  ASSERT_EQ(setenv("LEODIVIDE_WORKERS", "0", 1), 0);
  EXPECT_EQ(runtime::worker_count_from_env(3), 3U);
  ASSERT_EQ(unsetenv("LEODIVIDE_WORKERS"), 0);
}

TEST(ParseWorkersArg, ConsumesSeparateAndInlineValues) {
  std::size_t workers = 0;
  {
    char a0[] = "prog", a1[] = "--workers", a2[] = "5";
    char* argv[] = {a0, a1, a2};
    int i = 1;
    EXPECT_TRUE(runtime::parse_workers_arg(3, argv, i, workers));
    EXPECT_EQ(workers, 5U);
    EXPECT_EQ(i, 2) << "must advance past the value argument";
  }
  {
    char a0[] = "prog", a1[] = "--workers=7";
    char* argv[] = {a0, a1};
    int i = 1;
    EXPECT_TRUE(runtime::parse_workers_arg(2, argv, i, workers));
    EXPECT_EQ(workers, 7U);
    EXPECT_EQ(i, 1) << "inline value consumes only its own argv slot";
  }
}

TEST(ParseWorkersArg, IgnoresOtherFlags) {
  std::size_t workers = 42;
  char a0[] = "prog", a1[] = "--threads";
  char* argv[] = {a0, a1};
  int i = 1;
  EXPECT_FALSE(runtime::parse_workers_arg(2, argv, i, workers));
  EXPECT_EQ(workers, 42U) << "non-matching flag must leave workers alone";
  EXPECT_EQ(i, 1);
}

TEST(ParseWorkersArg, MissingOrInvalidValueThrows) {
  std::size_t workers = 0;
  {
    char a0[] = "prog", a1[] = "--workers";
    char* argv[] = {a0, a1};
    int i = 1;
    EXPECT_THROW((void)runtime::parse_workers_arg(2, argv, i, workers),
                 std::runtime_error);
  }
  {
    char a0[] = "prog", a1[] = "--workers", a2[] = "zero";
    char* argv[] = {a0, a1, a2};
    int i = 1;
    EXPECT_THROW((void)runtime::parse_workers_arg(3, argv, i, workers),
                 std::runtime_error);
  }
  {
    char a0[] = "prog", a1[] = "--workers=";
    char* argv[] = {a0, a1};
    int i = 1;
    EXPECT_THROW((void)runtime::parse_workers_arg(2, argv, i, workers),
                 std::runtime_error);
  }
}

// ---------------------------------------------------------------------------
// ThreadPool / Executor contract
// ---------------------------------------------------------------------------

TEST(ThreadPool, RunsEveryTaskExactlyOnce) {
  runtime::ThreadPool pool(4);
  constexpr std::size_t kTasks = 1000;
  std::vector<std::atomic<int>> hits(kTasks);
  pool.run_tasks(kTasks, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < kTasks; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "task " << i;
  }
}

TEST(ThreadPool, IsReusableAcrossBatches) {
  runtime::ThreadPool pool(3);
  std::atomic<std::uint64_t> sum{0};
  for (int round = 0; round < 20; ++round) {
    pool.run_tasks(100, [&](std::size_t i) { sum += i; });
  }
  EXPECT_EQ(sum.load(), 20ULL * (99ULL * 100ULL / 2ULL));
}

TEST(ThreadPool, EmptyAndSingletonBatches) {
  runtime::ThreadPool pool(2);
  int calls = 0;
  pool.run_tasks(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.run_tasks(1, [&](std::size_t i) {
    ++calls;
    EXPECT_EQ(i, 0U);
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, LowestIndexedExceptionWins) {
  runtime::ThreadPool pool(4);
  // Several tasks throw; regardless of which thread finishes first, the
  // exception from the lowest-indexed failing task must surface.
  for (int round = 0; round < 10; ++round) {
    try {
      pool.run_tasks(64, [](std::size_t i) {
        if (i == 7 || i == 8 || i == 63) {
          throw std::runtime_error(std::to_string(i));
        }
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "7");
    }
  }
}

TEST(ThreadPool, NestedRunTasksDoesNotDeadlock) {
  runtime::ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.run_tasks(4, [&](std::size_t) {
    pool.run_tasks(8, [&](std::size_t) { ++count; });
  });
  EXPECT_EQ(count.load(), 32);
}

// Regression: a batch submitted from inside a pool task must run inline on
// the calling thread (serial, index order), never re-enter the shared
// queue — re-entrant submission could deadlock once every worker was stuck
// waiting on a nested batch.
TEST(ThreadPool, NestedRunTasksRunsInlineInIndexOrder) {
  runtime::ThreadPool pool(2);
  std::atomic<bool> nested_inline{true};
  std::atomic<bool> nested_in_order{true};
  std::atomic<std::uint64_t> nested_runs{0};
  pool.run_tasks(4, [&](std::size_t) {
    const std::thread::id outer = std::this_thread::get_id();
    // Runs inline: strictly sequential on this thread, so a plain local
    // suffices to check index order.
    std::size_t next = 0;
    pool.run_tasks(16, [&](std::size_t i) {
      if (std::this_thread::get_id() != outer) nested_inline = false;
      if (i != next++) nested_in_order = false;
      ++nested_runs;
    });
    if (next != 16) nested_in_order = false;
  });
  EXPECT_TRUE(nested_inline.load());
  EXPECT_TRUE(nested_in_order.load());
  EXPECT_EQ(nested_runs.load(), 64U);
}

// Nested parallel_for over a pool must also degrade to inline execution —
// this is what makes batch task bodies free to call parallel helpers.
TEST(ThreadPool, NestedParallelForWritesEverySlot) {
  runtime::ThreadPool pool(4);
  std::vector<int> out(4 * 64, 0);
  pool.run_tasks(4, [&](std::size_t task) {
    runtime::parallel_for_each(
        pool, 0, 64,
        [&](std::size_t i) { out[task * 64 + i] = static_cast<int>(i) + 1; },
        /*grain=*/8);
  });
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i % 64) + 1) << "slot " << i;
  }
}

TEST(SerialExecutor, RunsInIndexOrder) {
  runtime::Executor& ex = runtime::serial_executor();
  EXPECT_EQ(ex.concurrency(), 1U);
  std::vector<std::size_t> order;
  ex.run_tasks(10, [&](std::size_t i) { order.push_back(i); });
  std::vector<std::size_t> expected(10);
  std::iota(expected.begin(), expected.end(), std::size_t{0});
  EXPECT_EQ(order, expected);
}

TEST(SerialExecutor, StopsAtFirstThrow) {
  runtime::Executor& ex = runtime::serial_executor();
  int executed = 0;
  EXPECT_THROW(ex.run_tasks(10,
                            [&](std::size_t i) {
                              ++executed;
                              if (i == 3) throw std::logic_error("boom");
                            }),
               std::logic_error);
  EXPECT_EQ(executed, 4);
}

TEST(GlobalExecutor, SetGlobalThreadsControlsConcurrency) {
  runtime::set_global_threads(3);
  EXPECT_EQ(runtime::global_executor().concurrency(), 3U);
  runtime::set_global_threads(1);
  EXPECT_EQ(runtime::global_executor().concurrency(), 1U);
  runtime::set_global_threads(0);  // restore the environment default
  EXPECT_EQ(runtime::global_executor().concurrency(),
            runtime::default_thread_count());
}

// ---------------------------------------------------------------------------
// Chunking / parallel_for / map_reduce
// ---------------------------------------------------------------------------

TEST(ChunkRange, PartitionsExactlyAndInOrder) {
  for (std::size_t n : {1UL, 2UL, 7UL, 64UL, 1001UL}) {
    for (std::size_t chunks : {1UL, 2UL, 3UL, 5UL, 8UL}) {
      if (chunks > n) continue;
      std::size_t expected_lo = 100;  // arbitrary non-zero begin
      for (std::size_t i = 0; i < chunks; ++i) {
        const auto r = runtime::chunk_range(100, 100 + n, chunks, i);
        EXPECT_EQ(r.lo, expected_lo);
        EXPECT_GE(r.hi, r.lo + n / chunks);
        expected_lo = r.hi;
      }
      EXPECT_EQ(expected_lo, 100 + n);
    }
  }
}

TEST(ChunkCount, RespectsGrainAndConcurrency) {
  runtime::ThreadPool pool(8);
  EXPECT_EQ(runtime::chunk_count(pool, 0, 1), 0U);
  EXPECT_EQ(runtime::chunk_count(pool, 100, 1), 8U);
  EXPECT_EQ(runtime::chunk_count(pool, 100, 50), 2U);
  EXPECT_EQ(runtime::chunk_count(pool, 100, 1000), 1U);
  EXPECT_EQ(runtime::chunk_count(runtime::serial_executor(), 100, 1), 1U);
}

TEST(ParallelFor, CoversRangeWithDisjointWrites) {
  runtime::ThreadPool pool(4);
  constexpr std::size_t kN = 5000;
  std::vector<int> out(kN, 0);
  runtime::parallel_for_each(pool, 0, kN,
                             [&](std::size_t i) { out[i] = static_cast<int>(i); });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(out[i], static_cast<int>(i));
}

TEST(MapReduce, OrderedConcatenationMatchesSerialOrder) {
  const auto fill = [](std::vector<std::size_t>& shard, std::size_t lo,
                       std::size_t hi, std::size_t) {
    for (std::size_t i = lo; i < hi; ++i) shard.push_back(i * i);
  };
  const auto merge = [](std::vector<std::size_t>& into,
                        std::vector<std::size_t>&& from) {
    into.insert(into.end(), from.begin(), from.end());
  };
  const auto serial = runtime::map_reduce<std::vector<std::size_t>>(
      runtime::serial_executor(), 0, 997, fill, merge);
  runtime::ThreadPool pool(5);
  const auto parallel = runtime::map_reduce<std::vector<std::size_t>>(
      pool, 0, 997, fill, merge);
  EXPECT_EQ(serial, parallel);
  ASSERT_EQ(serial.size(), 997U);
  EXPECT_EQ(serial[31], 31U * 31U);
}

// ---------------------------------------------------------------------------
// Pipeline determinism: byte-identical output at threads in {1, 2, 8}
// ---------------------------------------------------------------------------

std::string profile_bytes(const demand::DemandProfile& profile) {
  std::ostringstream cells, counties;
  profile.save_csv(cells, counties);
  return cells.str() + '\x1f' + counties.str();
}

constexpr demand::GeneratorConfig kSmallConfig{.seed = 42, .scale = 0.002};

TEST(PipelineDeterminism, GenerateAcrossThreadCounts) {
  const demand::SyntheticGenerator gen(kSmallConfig);
  const auto profile1 = gen.generate_profile(runtime::serial_executor());
  for (std::size_t threads : {2UL, 8UL}) {
    runtime::ThreadPool pool(threads);
    EXPECT_EQ(profile_bytes(gen.generate_profile(pool)),
              profile_bytes(profile1))
        << "generate_profile at threads=" << threads;
  }
}

TEST(PipelineDeterminism, CsvRoundTripAcrossThreadCounts) {
  const demand::SyntheticGenerator gen(kSmallConfig);
  const auto profile = gen.generate_profile(runtime::serial_executor());
  const auto save = [&profile](runtime::Executor& executor) {
    std::ostringstream cells, counties;
    profile.save_csv(cells, counties, executor);
    return std::pair{cells.str(), counties.str()};
  };
  const auto profile_csv = save(runtime::serial_executor());
  for (std::size_t threads : {2UL, 8UL}) {
    runtime::ThreadPool pool(threads);
    EXPECT_EQ(save(pool), profile_csv) << "threads=" << threads;
    std::istringstream cells(profile_csv.first), counties(profile_csv.second);
    EXPECT_EQ(profile_bytes(demand::DemandProfile::load_csv(cells, counties,
                                                            pool)),
              profile_bytes(profile))
        << "threads=" << threads;
  }
}

TEST(PipelineDeterminism, SameSeedTwiceIsByteIdentical) {
  runtime::ThreadPool pool(4);
  const demand::SyntheticGenerator gen(kSmallConfig);
  EXPECT_EQ(profile_bytes(gen.generate_profile(pool)),
            profile_bytes(gen.generate_profile(pool)));
}

TEST(PipelineDeterminism, PolyfillMatchesSerialScanOrder) {
  const hex::HexGrid grid;
  const geo::Polygon box(
      {{36.0, -104.0}, {42.0, -104.0}, {42.0, -94.0}, {36.0, -94.0}});
  const auto serial = hex::polyfill(grid, box, 5, runtime::serial_executor());
  runtime::ThreadPool pool(8);
  EXPECT_EQ(hex::polyfill(grid, box, 5, pool), serial);
}

TEST(PipelineDeterminism, SizingSweepMatchesSerial) {
  const demand::SyntheticGenerator gen(kSmallConfig);
  const auto profile = gen.generate_profile(runtime::serial_executor());
  const core::SizingModel model;
  const auto serial = core::size_with_cap(profile, model, 5.0, 20.0,
                                          runtime::serial_executor());
  runtime::ThreadPool pool(8);
  const auto parallel = core::size_with_cap(profile, model, 5.0, 20.0, pool);
  EXPECT_EQ(parallel.satellites, serial.satellites);
  EXPECT_EQ(parallel.binding_lat_deg, serial.binding_lat_deg);
  EXPECT_EQ(parallel.beams_on_binding, serial.beams_on_binding);
  EXPECT_EQ(parallel.binding_cell_index, serial.binding_cell_index);
}

TEST(PipelineDeterminism, FullAnalysisMatchesSerial) {
  const demand::SyntheticGenerator gen(kSmallConfig);
  const auto profile = gen.generate_profile(runtime::serial_executor());
  runtime::set_global_threads(1);
  const core::AnalysisResults serial = core::run_full_analysis(profile);
  for (const std::size_t threads : {2UL, 8UL}) {
    runtime::set_global_threads(threads);
    EXPECT_TRUE(core::run_full_analysis(profile) == serial)
        << "run_full_analysis at threads=" << threads;
  }
  runtime::set_global_threads(0);  // restore the environment default
}

TEST(PipelineDeterminism, SimulationTraceMatchesSerial) {
  const demand::SyntheticGenerator gen(kSmallConfig);
  const auto profile = gen.generate_profile(runtime::serial_executor());
  sim::SimulationConfig config;
  config.shell = orbit::WalkerShell{53.0, 550.0, 8, 6, 1};  // tiny shell
  config.duration_s = 240.0;
  config.step_s = 60.0;
  const sim::Simulation simulation(config, profile);
  const auto serial = simulation.run(runtime::serial_executor());
  runtime::ThreadPool pool(4);
  const auto parallel = simulation.run(pool);
  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t e = 0; e < serial.size(); ++e) {
    EXPECT_EQ(parallel[e].time_s, serial[e].time_s);
    EXPECT_EQ(parallel[e].cells_served, serial[e].cells_served);
    EXPECT_EQ(parallel[e].locations_served, serial[e].locations_served);
    EXPECT_EQ(parallel[e].mean_beam_utilization,
              serial[e].mean_beam_utilization);
    EXPECT_EQ(parallel[e].satellites_in_view, serial[e].satellites_in_view);
  }
}

}  // namespace
