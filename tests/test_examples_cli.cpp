// Example binaries must reject unknown `--flags` with a nonzero exit and
// name the offending flag — a typo'd `--snapshot-dri` must never silently
// run a full (uncached) analysis — and must reject malformed flag values
// instead of truncating or wrapping them. Each case spawns the real binary
// via popen and inspects its exit status and output. The cache cases run a
// CLI cold at 4 threads and warm at 1 thread on one snapshot dir: the warm
// run must restore every stage and write byte-identical output files.
//
// Binary locations come from the LEODIVIDE_EXAMPLES_DIR compile definition
// (the build's examples/ output directory, set in tests/CMakeLists.txt).
// The bench binaries follow the same flag rules; their cases use
// LEODIVIDE_BENCH_DIR, defined only when the benches are built.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "leodivide/io/fileio.hpp"
#include "oracles/json.hpp"

namespace {

namespace fs = std::filesystem;
namespace io = leodivide::io;
namespace oracle = leodivide::oracle;

struct RunResult {
  int exit_code = -1;
  std::string output;
};

/// Runs `command` with stderr folded into stdout; returns exit code and
/// combined output.
RunResult run_command(const std::string& command) {
  RunResult result;
  FILE* pipe = ::popen((command + " 2>&1").c_str(), "r");
  if (pipe == nullptr) {
    return result;
  }
  std::array<char, 4096> chunk{};
  while (std::fgets(chunk.data(), static_cast<int>(chunk.size()), pipe) !=
         nullptr) {
    result.output += chunk.data();
  }
  const int status = ::pclose(pipe);
  if (WIFEXITED(status)) {
    result.exit_code = WEXITSTATUS(status);
  }
  return result;
}

std::string example_path(const std::string& name) {
  return (fs::path(LEODIVIDE_EXAMPLES_DIR) / name).string();
}

/// A bench binary's path, or "" when the benches are not built.
std::string bench_path(const std::string& name) {
#ifdef LEODIVIDE_BENCH_DIR
  return (fs::path(LEODIVIDE_BENCH_DIR) / name).string();
#else
  (void)name;
  return "";
#endif
}

class ExamplesCli : public ::testing::TestWithParam<const char*> {};

TEST_P(ExamplesCli, RejectsUnknownFlagNonzeroAndNamesIt) {
  const std::string binary = example_path(GetParam());
  if (!fs::exists(binary)) {
    GTEST_SKIP() << binary << " not built";
  }
  // The timeout turns a binary that starts anyway (a server) into a prompt
  // failure.
  const RunResult r =
      run_command("timeout 60 " + binary + " --definitely-not-a-flag");
  EXPECT_NE(r.exit_code, 0) << "unknown flag accepted by " << GetParam()
                            << "\noutput:\n"
                            << r.output;
  EXPECT_NE(r.output.find("--definitely-not-a-flag"), std::string::npos)
      << GetParam() << " did not name the offending flag:\n"
      << r.output;
}

INSTANTIATE_TEST_SUITE_P(AllExamples, ExamplesCli,
                         ::testing::Values("national_analysis",
                                           "coverage_sim",
                                           "affordability_report",
                                           "constellation_planner",
                                           "quickstart",
                                           "market_compare",
                                           "region_study",
                                           "analysis_server",
                                           "analysis_client"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

TEST(ExamplesCli, MarketCompareBadScaleRejected) {
  const std::string binary = example_path("market_compare");
  if (!fs::exists(binary)) {
    GTEST_SKIP() << binary << " not built";
  }
  // Each value is a whole field that is not a valid scale or seed: trailing
  // garbage, a negative seed, scales outside (0, 1] including NaN, and a
  // scale whose 4,672,500 x 1e-9 locations round to zero, a total no cell
  // count can reach (generation once spun on it; the timeout turns such a
  // hang into a prompt failure).
  const std::pair<const char*, const char*> cases[] = {
      {"--scale=not-a-number", "--scale"}, {"--scale 0.01x", "--scale"},
      {"--scale -1", "--scale"},           {"--scale 0", "--scale"},
      {"--scale nan", "--scale"},          {"--scale 1e-9", "--scale"},
      {"--seed -1", "--seed"}};
  for (const auto& [args, flag] : cases) {
    SCOPED_TRACE(args);
    const RunResult r = run_command("timeout 10 " + binary + " " + args);
    EXPECT_EQ(r.exit_code, 2) << "bad value accepted:\n" << r.output;
    EXPECT_NE(r.output.find(flag), std::string::npos) << r.output;
    EXPECT_NE(r.output.find("usage: market_compare"), std::string::npos)
        << r.output;
  }
}

TEST(ExamplesCli, AnalysisServerBadPortRejected) {
  const std::string binary = example_path("analysis_server");
  if (!fs::exists(binary)) {
    GTEST_SKIP() << binary << " not built";
  }
  // A wrapped port would start a server that never exits; the timeout
  // turns that failure into a prompt one.
  const RunResult r = run_command("timeout 60 " + binary + " --port 70000");
  EXPECT_EQ(r.exit_code, 2) << "--port 70000 accepted:\n" << r.output;
  EXPECT_NE(r.output.find("--port"), std::string::npos) << r.output;
}

TEST(ExamplesCli, MarketCompareBadThreadsRejected) {
  const std::string binary = example_path("market_compare");
  if (!fs::exists(binary)) {
    GTEST_SKIP() << binary << " not built";
  }
  const RunResult r = run_command(binary + " --threads zero");
  EXPECT_EQ(r.exit_code, 2) << "bad --threads accepted:\n" << r.output;
  EXPECT_NE(r.output.find("--threads"), std::string::npos) << r.output;
}

TEST(ExamplesCli, BadPositionalNumbersRejected) {
  // Each value is a whole positional field that is not a valid count or
  // real: a negative count (once wrapped to 2^32 - 3), NaN and infinite
  // reals (once uncaught exceptions), trailing garbage (once truncated), a
  // zero, a plane count the shell's phasing cannot take, shells past the
  // library's satellite bound (2^32 - 1 satellites once aborted on a
  // ~137 GB reserve; 2^32 once wrapped to 0), a horizon with too many
  // epochs, a scale too small to give one location and a stray
  // extra argument. Each must exit 2 with the usage line, before any work;
  // the timeout turns a run that starts anyway into a prompt failure.
  struct Case {
    const char* binary;
    const char* args;
    const char* field;
  };
  const Case cases[] = {
      {"coverage_sim", "72 -3 10 5", "sats_per_plane"},
      {"coverage_sim", "72 22 nan 5", "minutes"},
      {"coverage_sim", "72 22 inf 5", "minutes"},
      {"coverage_sim", "72 22 1e300 5", "epochs"},
      {"coverage_sim", "72 22 10 -1", "beamspread"},
      {"coverage_sim", "72 22 10 0", "beamspread"},
      {"coverage_sim", "72x", "planes"},
      {"coverage_sim", "1 22", "planes"},
      {"coverage_sim", "65535 65537", "satellites"},
      {"coverage_sim", "65536 65536", "satellites"},
      {"coverage_sim", "1001 1000 10 5", "satellites"},
      {"coverage_sim", "72 22 10 5 9", "'9'"},
      {"constellation_planner", "nan", "satellite_budget"},
      {"constellation_planner", "8000 nan", "oversub_cap"},
      {"constellation_planner", "8000 20x", "oversub_cap"},
      {"constellation_planner", "-1", "satellite_budget"},
      {"quickstart", "nan", "scale"},
      {"quickstart", "0.01x", "scale"},
      {"quickstart", "1e-9", "scale"},
      {"quickstart", "1.5", "scale"}};
  for (const Case& c : cases) {
    const std::string binary = example_path(c.binary);
    if (!fs::exists(binary)) {
      GTEST_SKIP() << binary << " not built";
    }
    SCOPED_TRACE(std::string(c.binary) + " " + c.args);
    const RunResult r = run_command("timeout 10 " + binary + " " + c.args);
    EXPECT_EQ(r.exit_code, 2) << "bad value accepted:\n" << r.output;
    EXPECT_NE(r.output.find(c.field), std::string::npos) << r.output;
    EXPECT_NE(r.output.find(std::string("usage: ") + c.binary),
              std::string::npos)
        << r.output;
  }
}

TEST(ExamplesCli, SnapshotDirWithoutValueRejected) {
  const std::string binary = example_path("national_analysis");
  if (!fs::exists(binary)) {
    GTEST_SKIP() << binary << " not built";
  }
  const RunResult r = run_command(binary + " --snapshot-dir");
  EXPECT_NE(r.exit_code, 0) << "bare --snapshot-dir accepted:\n" << r.output;
}

class BenchCli : public ::testing::TestWithParam<const char*> {};

TEST_P(BenchCli, RejectsBadFlagsWithUsage) {
  const std::string binary = bench_path(GetParam());
  if (binary.empty() || !fs::exists(binary)) {
    GTEST_SKIP() << GetParam() << " not built";
  }
  // An unknown flag and a value flag without its value must each stop the
  // bench before it runs; the timeout turns a bench that starts anyway
  // into a prompt failure.
  const std::pair<const char*, const char*> cases[] = {
      {"--metrics-typo=x", "--metrics-typo=x"},
      {"--snapshot-dir", "--snapshot-dir"}};
  for (const auto& [args, expected] : cases) {
    SCOPED_TRACE(args);
    const RunResult r = run_command("timeout 60 " + binary + " " + args);
    EXPECT_EQ(r.exit_code, 2) << "bad flags accepted:\n" << r.output;
    EXPECT_NE(r.output.find(expected), std::string::npos) << r.output;
    EXPECT_NE(r.output.find("usage: "), std::string::npos) << r.output;
  }
}

INSTANTIATE_TEST_SUITE_P(AllBenches, BenchCli,
                         ::testing::Values("fig1_cell_distribution",
                                           "table1_satellite_capacity",
                                           "fig2_beamspread_oversub",
                                           "table2_constellation_size",
                                           "fig3_diminishing_returns",
                                           "fig4_affordability",
                                           "ablation_beam_scheduler",
                                           "ablation_shell_design",
                                           "ablation_sensitivity",
                                           "extension_uplink_backhaul",
                                           "extension_isl_latency",
                                           "extension_economics"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

TEST(ExamplesCli, MicroPerfBadFlagsRejected) {
  const std::string binary = bench_path("micro_perf");
  if (binary.empty() || !fs::exists(binary)) {
    GTEST_SKIP() << "micro_perf not built";
  }
  // A zero worker count, an unknown flag and a missing mode must each stop
  // the harness before it runs; the timeout turns a harness that starts
  // anyway into a prompt failure.
  const std::pair<const char*, const char*> cases[] = {
      {"--workers 0", "--workers"},
      {"--definitely-not-a-flag", "--definitely-not-a-flag"},
      {"", "usage: micro_perf"}};
  for (const auto& [args, expected] : cases) {
    SCOPED_TRACE(args);
    const RunResult r = run_command("timeout 60 " + binary + " " + args);
    EXPECT_EQ(r.exit_code, 2) << "bad flags accepted:\n" << r.output;
    EXPECT_NE(r.output.find(expected), std::string::npos) << r.output;
  }
}

/// The JSON bench line a CLI run ends with.
oracle::JsonValue bench_line(const std::string& output) {
  const std::size_t at = output.rfind("{\"bench\"");
  if (at == std::string::npos) return {};
  return oracle::json_parse(output.substr(at, output.find('\n', at) - at));
}

/// Every regular file under `root`, relative to it, in sorted order.
std::vector<fs::path> files_under(const fs::path& root) {
  std::vector<fs::path> files;
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    if (entry.is_regular_file()) {
      files.push_back(fs::relative(entry.path(), root));
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

/// Runs `name args` cold at 4 threads, then warm at 1 thread on the same
/// snapshot dir, and checks the warm run restored every stage and wrote
/// the same bytes.
void expect_warm_run_restores_cold_bytes(const std::string& name,
                                         const std::string& args) {
  const std::string binary = example_path(name);
  if (!fs::exists(binary)) {
    GTEST_SKIP() << binary << " not built";
  }
  const fs::path root = fs::temp_directory_path() / ("ld_cli_cache_" + name);
  fs::remove_all(root);
  const std::string common =
      binary + " " + args + " --snapshot-dir " + (root / "cache").string();
  const RunResult cold =
      run_command(common + " --threads 4 " + (root / "cold").string());
  ASSERT_EQ(cold.exit_code, 0) << cold.output;
  const RunResult warm =
      run_command(common + " --threads 1 " + (root / "warm").string());
  ASSERT_EQ(warm.exit_code, 0) << warm.output;

  const oracle::JsonValue cold_line = bench_line(cold.output);
  const oracle::JsonValue warm_line = bench_line(warm.output);
  ASSERT_TRUE(cold_line.is_object()) << cold.output;
  ASSERT_TRUE(warm_line.is_object()) << warm.output;
  EXPECT_GT(cold_line.at("snapshot_misses").num_v, 0.0) << cold.output;
  EXPECT_EQ(warm_line.at("snapshot_misses").num_v, 0.0) << warm.output;
  EXPECT_EQ(warm_line.at("snapshot_hits").num_v,
            cold_line.at("snapshot_misses").num_v)
      << warm.output;

  const std::vector<fs::path> files = files_under(root / "cold");
  ASSERT_FALSE(files.empty());
  EXPECT_EQ(files_under(root / "warm"), files);
  for (const fs::path& file : files) {
    EXPECT_EQ(io::read_text_file((root / "warm" / file).string()),
              io::read_text_file((root / "cold" / file).string()))
        << file << " differs between the cold and warm runs";
  }
  fs::remove_all(root);
}

TEST(ExamplesCli, NationalAnalysisWarmRunRestoresColdBytes) {
  expect_warm_run_restores_cold_bytes("national_analysis", "");
}

TEST(ExamplesCli, MarketCompareWarmRunRestoresColdBytes) {
  expect_warm_run_restores_cold_bytes("market_compare", "--scale 0.05");
}

}  // namespace
