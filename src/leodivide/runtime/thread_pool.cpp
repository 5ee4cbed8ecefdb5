#include "leodivide/runtime/thread_pool.hpp"

#include <exception>
#include <utility>

#include "leodivide/obs/metrics.hpp"
#include "leodivide/obs/trace.hpp"

namespace leodivide::runtime {

// Shared state of one run_tasks batch. Lives on the caller's stack; workers
// never touch it after the final remaining-count decrement they perform
// under the batch mutex, so stack lifetime is safe.
struct ThreadPool::Batch {
  const std::function<void(std::size_t)>* task = nullptr;
  std::mutex m;
  std::condition_variable done;
  std::size_t remaining = 0;
  std::exception_ptr error;
  std::size_t error_index = 0;
  std::uint64_t enqueue_ns = 0;  ///< set only while observability is on
};

namespace {

// True while the current thread is executing a pool task (any pool). Set by
// run_one around the task body so a nested run_tasks can detect re-entrancy
// and run its batch inline instead of enqueuing behind unrelated work —
// helping blindly from inside a task can adopt entire foreign batches,
// growing the stack without bound and serialising behind long tasks.
thread_local bool tl_in_pool_task = false;

// Observability slow path: queue-wait accounting plus a per-worker span
// around the task body. Runs the task exactly like the fast path — spans
// only read the clock and append to thread-local buffers, so the batch
// result is untouched.
void run_task_instrumented(const std::function<void(std::size_t)>& task,
                           std::uint64_t enqueue_ns, std::size_t index) {
  if (obs::metrics_enabled() && enqueue_ns != 0) {
    static obs::Histogram& queue_wait =
        obs::registry().histogram("runtime.queue_wait_us");
    const std::uint64_t now = obs::now_ns();
    queue_wait.record_always_us(now > enqueue_ns ? (now - enqueue_ns) / 1000
                                                 : 0);
  }
  obs::Span span("runtime.task");
  task(index);
}

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  const std::size_t n = threads < 1 ? 1 : threads;
  // The run_tasks caller always helps drain the queue, so n-way concurrency
  // needs n - 1 pool workers; ThreadPool(1) starts none and runs batches
  // inline on the caller in index order.
  workers_.reserve(n - 1);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mutex_);
    stopping_ = true;
  }
  work_ready_.notify_all();
  for (auto& w : workers_) w.join();
}

std::size_t ThreadPool::concurrency() const noexcept {
  return workers_.size() + 1;
}

void ThreadPool::run_one(Batch& batch, std::size_t index) {
  const bool outer = tl_in_pool_task;
  tl_in_pool_task = true;
  try {
    if (obs::observability_enabled()) [[unlikely]] {
      run_task_instrumented(*batch.task, batch.enqueue_ns, index);
    } else {
      (*batch.task)(index);
    }
    tl_in_pool_task = outer;
    std::lock_guard<std::mutex> lk(batch.m);
    if (--batch.remaining == 0) batch.done.notify_all();
  } catch (...) {
    tl_in_pool_task = outer;
    std::lock_guard<std::mutex> lk(batch.m);
    if (!batch.error || index < batch.error_index) {
      batch.error = std::current_exception();
      batch.error_index = index;
    }
    if (--batch.remaining == 0) batch.done.notify_all();
  }
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::pair<Batch*, std::size_t> item;
    {
      std::unique_lock<std::mutex> lk(mutex_);
      work_ready_.wait(lk, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and fully drained
      item = queue_.front();
      queue_.pop_front();
    }
    run_one(*item.first, item.second);
  }
}


void ThreadPool::run_tasks(std::size_t n,
                           const std::function<void(std::size_t)>& task) {
  if (n == 0) return;
  if (tl_in_pool_task) {
    // Re-entrant call from inside a pool task: run the nested batch inline
    // on this thread, in index order with serial semantics (the first throw
    // propagates, which is by construction the lowest-indexed one). This
    // keeps nested parallel_for calls deadlock-free and bounds the stack —
    // the old path enqueued the chunks and helped drain the shared queue,
    // which could pick up whole unrelated batches before its own.
    for (std::size_t i = 0; i < n; ++i) task(i);
    return;
  }
  Batch batch;
  batch.task = &task;
  batch.remaining = n;
  if (obs::observability_enabled()) [[unlikely]] {
    batch.enqueue_ns = obs::now_ns();
  }
  {
    std::lock_guard<std::mutex> lk(mutex_);
    for (std::size_t i = 0; i < n; ++i) queue_.emplace_back(&batch, i);
  }
  if (!workers_.empty() && n > 1) work_ready_.notify_all();

  // Help drain the queue until this batch completes. Helping (rather than
  // blocking immediately) keeps nested run_tasks calls from worker tasks
  // deadlock-free and makes the caller a full participant, so a pool of
  // concurrency k really applies k threads to the batch.
  for (;;) {
    {
      std::unique_lock<std::mutex> bl(batch.m);
      if (batch.remaining == 0) break;
    }
    std::pair<Batch*, std::size_t> item{nullptr, 0};
    {
      std::lock_guard<std::mutex> lk(mutex_);
      if (!queue_.empty()) {
        item = queue_.front();
        queue_.pop_front();
      }
    }
    if (item.first != nullptr) {
      run_one(*item.first, item.second);
      continue;
    }
    std::unique_lock<std::mutex> bl(batch.m);
    batch.done.wait(bl, [&batch] { return batch.remaining == 0; });
    break;
  }
  if (batch.error) std::rethrow_exception(batch.error);
}

}  // namespace leodivide::runtime
