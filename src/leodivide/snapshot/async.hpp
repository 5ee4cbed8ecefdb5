#pragma once
// Asynchronous snapshot stores: a single background thread that runs
// StageCache stores behind compute, so a caller never barriers on the
// filesystem. Determinism is untouched by design — the cache is
// content-addressed, stores are atomic temp+rename and idempotent per
// (stage, fingerprint), and nothing schedule-dependent can enter a blob —
// so moving stores off the compute thread changes *when* bytes reach disk,
// never what any stage computes.
//
// Ordering: stores execute FIFO in enqueue order on one thread. drain() is
// the visibility barrier: once it returns, every store enqueued before the
// call is on disk. The destructor drains.

#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>

#include "leodivide/snapshot/cache.hpp"

namespace leodivide::snapshot {

class AsyncIo {
 public:
  /// Starts the I/O thread.
  AsyncIo();

  /// Drains outstanding stores, then joins the I/O thread.
  ~AsyncIo();

  AsyncIo(const AsyncIo&) = delete;
  AsyncIo& operator=(const AsyncIo&) = delete;

  /// Fire-and-forget store of `blob` under (stage, fp) in `cache`, which
  /// must outlive this AsyncIo (or at least the next drain()). Failures
  /// degrade exactly like the synchronous path — StageCache::store warns
  /// once and never throws.
  void enqueue_store(const StageCache& cache, std::string stage,
                     const Fingerprint& fp, std::string blob);

  /// Blocks until every store enqueued before this call has completed.
  void drain();

 private:
  struct Job {
    const StageCache* cache = nullptr;
    std::string stage;
    Fingerprint fp;
    std::string blob;
  };

  void io_loop();

  std::mutex m_;
  std::condition_variable work_cv_;   ///< signals the I/O thread
  std::condition_variable idle_cv_;   ///< signals drain() waiters
  std::deque<Job> queue_;
  bool busy_ = false;     ///< a job is executing right now
  bool stopping_ = false;
  std::thread io_thread_;
};

/// The stage cache's one restore-or-compute path: returns the valid blob
/// stored under (stage, fp), deserialized, or runs `compute` and stores
/// `serialize(result)`. A blob failing deserialization (SnapshotError)
/// counts as a miss and is overwritten. A non-null `io` takes the store
/// off-thread. A null `cache` only computes.
template <typename Compute, typename Serialize, typename Deserialize>
auto staged_compute(const StageCache* cache, AsyncIo* io,
                    std::string_view stage, const Fingerprint& fp,
                    Compute&& compute, Serialize&& serialize,
                    Deserialize&& deserialize) -> decltype(compute()) {
  using T = decltype(compute());
  if (cache == nullptr) return compute();
  if (std::optional<std::string> blob = cache->load(stage, fp)) {
    try {
      return deserialize(std::string_view(*blob));
    } catch (const SnapshotError&) {
      // Invalid blob: recompute below; the store replaces it.
      cache->note_bad_blob();
    }
  }
  T value = compute();
  std::string bytes = serialize(value);
  if (io != nullptr) {
    io->enqueue_store(*cache, std::string(stage), fp, std::move(bytes));
  } else {
    cache->store(stage, fp, bytes);
  }
  return value;
}

}  // namespace leodivide::snapshot
