#pragma once
// Fixed-size thread pool with a shared work queue and clean shutdown. The
// pool satisfies the Executor batch contract: run_tasks enqueues the batch,
// the calling thread helps drain it, and the lowest-indexed task exception
// is rethrown once the batch has fully completed.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "leodivide/runtime/executor.hpp"

namespace leodivide::runtime {

class ThreadPool final : public Executor {
 public:
  /// Starts `threads` workers (clamped to >= 1). With one worker the pool
  /// still runs tasks on the calling thread via the helping loop, so a
  /// ThreadPool(1) batch is executed in index order like serial_executor().
  explicit ThreadPool(std::size_t threads);

  /// Signals shutdown, wakes every worker, and joins them. Pending batches
  /// are drained before the workers exit (run_tasks blocks its caller, so a
  /// well-formed program never destroys a pool mid-batch from another
  /// thread).
  ~ThreadPool() override;

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t concurrency() const noexcept override;

  /// Batch execution per the Executor contract. Re-entrant calls from
  /// inside a pool task (worker or helping caller, any pool) detect the
  /// nesting and run the batch inline on the current thread in index order
  /// with serial semantics — never enqueued, never deadlocked, stack
  /// bounded by the nesting depth rather than the queue contents.
  void run_tasks(std::size_t n,
                 const std::function<void(std::size_t)>& task) override;

 private:
  struct Batch;  // one run_tasks invocation's shared state

  void worker_loop();
  static void run_one(Batch& batch, std::size_t index);

  mutable std::mutex mutex_;
  std::condition_variable work_ready_;
  std::deque<std::pair<Batch*, std::size_t>> queue_;
  std::vector<std::thread> workers_;
  bool stopping_ = false;
};

}  // namespace leodivide::runtime
