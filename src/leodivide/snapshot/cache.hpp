#pragma once
// Content-addressed stage cache: skips recomputation of a pipeline stage
// when a snapshot of its output already exists for the exact inputs.
//
// A blob lives at <dir>/<stage>/<fingerprint-hex>.ldsnap, where the
// fingerprint hashes everything the stage's output depends on (config
// fields, seeds, upstream artifact digests, the LDSNAP format version —
// see fingerprint.hpp). Lookups are pure functions of the fingerprint, so
// hit/miss behaviour is identical at every thread count; nothing
// schedule-dependent ever enters a cache key.
//
// A corrupted or truncated blob is never trusted: deserialization failures
// (SnapshotError) count as a miss, the stage recomputes, and the fresh
// blob atomically replaces the bad one. Stores go through
// io::write_text_file (write-temp-then-rename), so a crashed writer can't
// leave a half-written blob behind for the next run to trip over.

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "leodivide/snapshot/fingerprint.hpp"
#include "leodivide/snapshot/format.hpp"

namespace leodivide::snapshot {

/// Largest blob StageCache::load reads; a larger file is a bad blob. The
/// biggest blob the CLIs write at scale 1 is ~1.1 MB (a market report), so
/// this leaves room for far larger profiles while refusing to pull an
/// arbitrary file into memory.
inline constexpr std::uintmax_t kMaxBlobBytes = std::uintmax_t{256} << 20;

class StageCache {
 public:
  /// Binds the cache to `dir` (created, with parents, if absent). Throws
  /// std::runtime_error when the directory cannot be created.
  explicit StageCache(std::string dir);

  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }

  /// Path of the blob for (stage, fingerprint).
  [[nodiscard]] std::string blob_path(std::string_view stage,
                                      const Fingerprint& fp) const;

  /// Raw blob bytes if present, std::nullopt on a miss. Counts the
  /// hit/miss and records load bytes + latency in obs. A file larger than
  /// kMaxBlobBytes, or one that reads back short, is a bad blob: a miss,
  /// counted as note_bad_blob() counts one. The registry's snapshot.hits
  /// and snapshot.misses always equal hits() and misses(), and
  /// snapshot.load_bytes counts only blobs no note_bad_blob() took back.
  [[nodiscard]] std::optional<std::string> load(std::string_view stage,
                                                const Fingerprint& fp) const;

  /// Atomically stores a blob for (stage, fingerprint). A cache directory
  /// that exists but cannot be written (read-only mount, a stray file where
  /// the stage directory should be) degrades to recompute-without-store:
  /// the first failure prints one warning to stderr and disables further
  /// stores for this cache; it never throws. This matches the corrupt-blob
  /// philosophy — a broken cache costs recomputation, never the run.
  void store(std::string_view stage, const Fingerprint& fp,
             std::string_view blob) const;

  /// Validated hits / misses since construction. A blob that existed but
  /// failed deserialization counts as a miss, not a hit.
  [[nodiscard]] std::uint64_t hits() const noexcept {
    return hits_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t misses() const noexcept {
    return misses_.load(std::memory_order_relaxed);
  }

  /// Stores that failed (and were swallowed) since construction. Nonzero
  /// means the cache has degraded to recompute-without-store.
  [[nodiscard]] std::uint64_t store_failures() const noexcept {
    return store_failures_.load(std::memory_order_relaxed);
  }

  /// Reclassifies the last load() hit as a miss (blob failed validation),
  /// here and in the obs registry, taking that blob's bytes back out of
  /// snapshot.load_bytes when this thread's last load() handed it out.
  /// Call after a load()ed blob fails deserialization — run_stage
  /// (stages.hpp), the cache's one restore-or-compute path, uses this to
  /// keep the hit/miss counters truthful.
  void note_bad_blob() const noexcept;

 private:
  std::string dir_;
  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
  mutable std::atomic<std::uint64_t> store_failures_{0};
  mutable std::atomic<bool> store_disabled_{false};
};

/// Process-global cache, for CLI/env wiring.
///
/// The first global_cache() call initialises it from the
/// LEODIVIDE_SNAPSHOT_DIR environment variable (unset or empty = caching
/// off); set_global_dir() overrides that — an empty dir disables caching.
/// Returns nullptr when caching is off.
[[nodiscard]] StageCache* global_cache();
void set_global_dir(std::string dir);

/// Consumes `--snapshot-dir <dir>` / `--snapshot-dir=<dir>` at argv[i]
/// (advancing i past a separate value argument) and routes it to
/// set_global_dir. Returns false when argv[i] is not a snapshot flag.
/// Throws std::runtime_error when the flag is present but the value is
/// missing.
bool parse_cli_arg(int argc, char** argv, int& i);

/// obs::bench_line_json for `bench` on the global executor, with
/// "snapshot_hits" and "snapshot_misses" appended (0 when `cache` is null).
[[nodiscard]] std::string bench_line(std::string_view bench, double wall_ms,
                                     const StageCache* cache);

}  // namespace leodivide::snapshot
