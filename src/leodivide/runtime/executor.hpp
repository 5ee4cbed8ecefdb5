#pragma once
// Execution substrate for the demand→sizing pipeline. Every hot loop in the
// library (location→cell aggregation, synthetic generation, polyfill, the
// sizing sweep, per-epoch simulation) runs through an Executor so the same
// code serves both the exact serial path (threads = 1) and a fixed-size
// thread pool — with bit-identical results either way (see map_reduce.hpp
// for the determinism contract).

#include <cstddef>
#include <functional>
#include <optional>
#include <string_view>

namespace leodivide::runtime {

/// Upper bound on an explicitly requested thread count. Requests above this
/// are treated as malformed (fall back to the hardware default) rather than
/// clamped — a 1e9-thread request is a configuration bug, not a wish.
inline constexpr std::size_t kMaxThreads = 4096;

/// Strict thread-count parser for LEODIVIDE_THREADS / --threads values.
/// Accepts a decimal integer in [1, kMaxThreads] with optional surrounding
/// whitespace; anything else — empty, non-numeric, trailing garbage
/// ("1e9"), zero, negative, or out of range — returns std::nullopt so the
/// caller falls back to the hardware default.
[[nodiscard]] std::optional<std::size_t> parse_thread_count(
    std::string_view text) noexcept;

/// Abstract batch executor. run_tasks blocks until every task has finished,
/// so callers never observe partially-completed batches.
class Executor {
 public:
  virtual ~Executor() = default;

  /// Number of workers that may run tasks concurrently (always >= 1).
  [[nodiscard]] virtual std::size_t concurrency() const noexcept = 0;

  /// Runs task(0) .. task(n-1), possibly concurrently, and returns once the
  /// batch has completed. On failure the exception from the *lowest-indexed*
  /// failing task is rethrown — a deterministic choice regardless of thread
  /// scheduling. (The serial executor stops at the first throw, which is by
  /// construction the lowest-indexed one; pools run every task.)
  virtual void run_tasks(std::size_t n,
                         const std::function<void(std::size_t)>& task) = 0;
};

/// Inline executor: concurrency() == 1; run_tasks executes tasks in index
/// order on the calling thread. This is exactly the pre-runtime serial code
/// path of every wired algorithm.
[[nodiscard]] Executor& serial_executor();

/// Process-global executor, created lazily. Thread count comes from the
/// LEODIVIDE_THREADS environment variable when it parses per
/// parse_thread_count, otherwise std::thread::hardware_concurrency(). A
/// count of 1 yields the serial executor — no pool threads are ever
/// started.
[[nodiscard]] Executor& global_executor();

/// Replaces the process-global executor with one of `threads` workers
/// (0 restores the environment/hardware default). Must not be called while
/// another thread is using global_executor().
void set_global_threads(std::size_t threads);

/// The thread count global_executor() uses before any set_global_threads
/// override: LEODIVIDE_THREADS if set, else hardware concurrency.
[[nodiscard]] std::size_t default_thread_count();

/// Worker-pool sizing for serving binaries: LEODIVIDE_WORKERS if it parses
/// per parse_thread_count, else `fallback`. Same hardening as
/// LEODIVIDE_THREADS — malformed values fall back, never clamp.
[[nodiscard]] std::size_t worker_count_from_env(std::size_t fallback);

/// Each consumes its flag (`--workers <n>` / `--threads <n>`, or
/// `--flag=<n>`) at argv[i], advancing i past a separate value argument:
/// the workers count is written to `workers`, the threads count sizes the
/// process-global executor. Returns false when argv[i] is another
/// argument. Throws std::runtime_error naming the flag when its value is
/// missing or fails parse_thread_count — an invalid explicit request is a
/// configuration bug, not a wish.
bool parse_workers_arg(int argc, char** argv, int& i, std::size_t& workers);
bool parse_threads_arg(int argc, char** argv, int& i);

}  // namespace leodivide::runtime
