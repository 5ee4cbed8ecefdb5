#include "leodivide/runtime/executor.hpp"

#include <cstdlib>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>

#include "leodivide/io/cli.hpp"
#include "leodivide/runtime/thread_pool.hpp"

namespace leodivide::runtime {

namespace {

class SerialExecutor final : public Executor {
 public:
  [[nodiscard]] std::size_t concurrency() const noexcept override { return 1; }

  void run_tasks(std::size_t n,
                 const std::function<void(std::size_t)>& task) override {
    // In-order inline execution; a throwing task aborts the batch exactly
    // like the pre-runtime serial loops did (the first throw is necessarily
    // the lowest-indexed one).
    for (std::size_t i = 0; i < n; ++i) task(i);
  }
};

struct GlobalState {
  std::mutex m;
  std::unique_ptr<ThreadPool> pool;
  std::size_t threads = 0;  // 0 = not yet resolved
};

GlobalState& global_state() {
  static GlobalState state;
  return state;
}

}  // namespace

Executor& serial_executor() {
  static SerialExecutor exec;
  return exec;
}

std::optional<std::size_t> parse_thread_count(std::string_view text) noexcept {
  const auto is_space = [](char c) {
    return c == ' ' || c == '\t' || c == '\n' || c == '\r';
  };
  while (!text.empty() && is_space(text.front())) text.remove_prefix(1);
  while (!text.empty() && is_space(text.back())) text.remove_suffix(1);
  if (text.empty()) return std::nullopt;
  std::size_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return std::nullopt;  // rejects "-3", "1e9", "+4"
    value = value * 10 + static_cast<std::size_t>(c - '0');
    if (value > kMaxThreads) return std::nullopt;
  }
  if (value < 1) return std::nullopt;
  return value;
}

std::size_t default_thread_count() {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read once at pool init; the
  // process never calls setenv, so there is no racing writer.
  if (const char* env = std::getenv("LEODIVIDE_THREADS")) {
    if (const auto parsed = parse_thread_count(env)) return *parsed;
  }
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : hc;
}

std::size_t worker_count_from_env(std::size_t fallback) {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read at startup; the process
  // never calls setenv, so there is no racing writer.
  if (const char* env = std::getenv("LEODIVIDE_WORKERS")) {
    if (const auto parsed = parse_thread_count(env)) return *parsed;
  }
  return fallback;
}

namespace {

/// `--flag N` / `--flag=N` at argv[i], validated by parse_thread_count.
std::optional<std::size_t> parse_count_arg(int argc, char** argv, int& i,
                                           std::string_view flag) {
  const auto value = io::flag_value(argc, argv, i, flag);
  if (!value) return std::nullopt;
  const auto parsed = parse_thread_count(*value);
  if (!parsed) {
    throw std::runtime_error("invalid " + std::string(flag) + " value '" +
                             std::string(*value) + "'");
  }
  return parsed;
}

}  // namespace

bool parse_workers_arg(int argc, char** argv, int& i, std::size_t& workers) {
  const auto parsed = parse_count_arg(argc, argv, i, "--workers");
  if (parsed) workers = *parsed;
  return parsed.has_value();
}

bool parse_threads_arg(int argc, char** argv, int& i) {
  const auto parsed = parse_count_arg(argc, argv, i, "--threads");
  if (parsed) set_global_threads(*parsed);
  return parsed.has_value();
}

Executor& global_executor() {
  GlobalState& state = global_state();
  std::lock_guard<std::mutex> lk(state.m);
  if (state.threads == 0) state.threads = default_thread_count();
  if (state.threads == 1) return serial_executor();
  if (!state.pool || state.pool->concurrency() != state.threads) {
    state.pool = std::make_unique<ThreadPool>(state.threads);
  }
  return *state.pool;
}

void set_global_threads(std::size_t threads) {
  GlobalState& state = global_state();
  std::lock_guard<std::mutex> lk(state.m);
  state.threads = threads == 0 ? default_thread_count() : threads;
  if (state.pool && state.pool->concurrency() != state.threads) {
    state.pool.reset();
  }
}

}  // namespace leodivide::runtime
