#pragma once
// Asynchronous snapshot I/O: a single background thread that runs
// StageCache loads (prefetch) and stores behind compute, so the pipeline
// never barriers on the filesystem. Determinism is untouched by design —
// the cache is content-addressed, stores are atomic temp+rename and
// idempotent per (stage, fingerprint), and nothing schedule-dependent can
// enter a blob — so moving I/O off the compute thread changes *when* bytes
// reach disk, never what any stage computes.
//
// Ordering: jobs execute FIFO in enqueue order on one thread, so a
// prefetch enqueued after a store of the same key observes that store.
// drain() is the visibility barrier: once it returns, every job enqueued
// before the call has completed (every store is on disk). The destructor
// drains.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
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
  /// Completion handle for one prefetch. take() blocks until the load has
  /// run and yields the blob (or std::nullopt on a cache miss); it may be
  /// called once — the blob is moved out.
  class LoadTicket {
   public:
    [[nodiscard]] std::optional<std::string> take();

   private:
    friend class AsyncIo;
    std::mutex m_;
    std::condition_variable done_cv_;
    bool done_ = false;
    std::optional<std::string> blob_;
  };
  using Ticket = std::shared_ptr<LoadTicket>;

  /// Starts the I/O thread.
  AsyncIo();

  /// Drains outstanding jobs, then joins the I/O thread.
  ~AsyncIo();

  AsyncIo(const AsyncIo&) = delete;
  AsyncIo& operator=(const AsyncIo&) = delete;

  /// Fire-and-forget store of `blob` under (stage, fp) in `cache`, which
  /// must outlive this AsyncIo (or at least the next drain()). Failures
  /// degrade exactly like the synchronous path — StageCache::store warns
  /// once and never throws.
  void enqueue_store(const StageCache& cache, std::string stage,
                     const Fingerprint& fp, std::string blob);

  /// Starts loading (stage, fp) from `cache` in the background; the ticket
  /// resolves to the blob bytes or std::nullopt on a miss.
  [[nodiscard]] Ticket prefetch(const StageCache& cache, std::string stage,
                                const Fingerprint& fp);

  /// Blocks until every job enqueued before this call has completed.
  void drain();

  /// Jobs accepted since construction.
  [[nodiscard]] std::uint64_t stores() const noexcept {
    return stores_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t prefetches() const noexcept {
    return prefetches_.load(std::memory_order_relaxed);
  }

 private:
  struct Job {
    const StageCache* cache = nullptr;
    std::string stage;
    Fingerprint fp;
    std::string blob;    ///< store payload (unused for loads)
    Ticket ticket;       ///< load completion (null for stores)
  };

  void io_loop();

  std::mutex m_;
  std::condition_variable work_cv_;   ///< signals the I/O thread
  std::condition_variable idle_cv_;   ///< signals drain() waiters
  std::deque<Job> queue_;
  bool busy_ = false;     ///< a job is executing right now
  bool stopping_ = false;
  std::atomic<std::uint64_t> stores_{0};
  std::atomic<std::uint64_t> prefetches_{0};
  std::thread io_thread_;
};

/// Result of one cache-aware stage execution (see staged_compute).
template <typename T>
struct Staged {
  T value;
  std::uint64_t blob_digest = 0;  ///< FNV-1a digest of the serialized
                                  ///< bytes; 0 when caching is off
  bool restored = false;          ///< true when `value` came from a blob
};

/// FNV-1a digest of a serialized blob — the "upstream digest" a dependent
/// stage mixes into its own fingerprint (the same edge the snapshot
/// fingerprints have always encoded; see stage_graph.hpp).
[[nodiscard]] inline std::uint64_t blob_digest(std::string_view blob) {
  return Fingerprint().mix(blob).digest();
}

/// The stage cache's one restore-or-compute path: returns the valid blob
/// stored under (stage, fp), deserialized, or runs `compute` and stores
/// `serialize(result)`. A blob failing deserialization (SnapshotError)
/// counts as a miss and is overwritten. A non-null `io` takes the store
/// off-thread; the result carries the blob digest for downstream
/// fingerprint edges and whether the value was restored. A null `cache`
/// only computes (digest 0). A `prefetched` ticket (AsyncIo::prefetch of
/// the same stage and fp) replaces the synchronous load.
template <typename Compute, typename Serialize, typename Deserialize>
auto staged_compute(const StageCache* cache, AsyncIo* io,
                    std::string_view stage, const Fingerprint& fp,
                    Compute&& compute, Serialize&& serialize,
                    Deserialize&& deserialize,
                    AsyncIo::Ticket prefetched = nullptr)
    -> Staged<decltype(compute())> {
  using T = decltype(compute());
  if (cache == nullptr) return Staged<T>{compute(), 0, false};
  std::optional<std::string> blob =
      prefetched != nullptr ? prefetched->take() : cache->load(stage, fp);
  if (blob) {
    try {
      T value = deserialize(std::string_view(*blob));
      return Staged<T>{std::move(value), blob_digest(*blob), true};
    } catch (const SnapshotError&) {
      // Invalid blob: recompute below; the store replaces it.
      cache->note_bad_blob();
    }
  }
  T value = compute();
  std::string bytes = serialize(value);
  const std::uint64_t digest = blob_digest(bytes);
  if (io != nullptr) {
    io->enqueue_store(*cache, std::string(stage), fp, std::move(bytes));
  } else {
    cache->store(stage, fp, bytes);
  }
  return Staged<T>{std::move(value), digest, false};
}

}  // namespace leodivide::snapshot
