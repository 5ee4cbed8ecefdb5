#include "leodivide/snapshot/cache.hpp"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "leodivide/io/cli.hpp"
#include "leodivide/io/fileio.hpp"
#include "leodivide/obs/metrics.hpp"
#include "leodivide/obs/obs.hpp"
#include "leodivide/obs/trace.hpp"
#include "leodivide/runtime/executor.hpp"

namespace leodivide::snapshot {

namespace fs = std::filesystem;

StageCache::StageCache(std::string dir) : dir_(std::move(dir)) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) {
    throw std::runtime_error("StageCache: cannot create '" + dir_ +
                             "': " + ec.message());
  }
}

std::string StageCache::blob_path(std::string_view stage,
                                  const Fingerprint& fp) const {
  std::string path = dir_;
  path += '/';
  path += stage;
  path += '/';
  path += fp.hex();
  path += ".ldsnap";
  return path;
}

namespace {

// The last blob load() handed out on this thread, so note_bad_blob() can
// take its hit and bytes back out of the registry. `counted` records
// whether metrics were on when they went in.
struct LastHit {
  const StageCache* cache = nullptr;
  std::uint64_t bytes = 0;
  bool counted = false;
};
thread_local LastHit t_last_hit;

}  // namespace

std::optional<std::string> StageCache::load(std::string_view stage,
                                            const Fingerprint& fp) const {
  obs::Span span("snapshot.load");
  t_last_hit = {};
  const std::string path = blob_path(stage, fp);
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    obs::registry().counter("snapshot.misses").add();
    return std::nullopt;
  }
  // Size the blob from the open file (not the path, which a concurrent
  // store may have renamed over) and read it in one call. An oversized or
  // short file is a bad blob, exactly like one that fails to deserialize.
  const std::streamoff size = in.tellg();
  std::string blob;
  bool read = size >= 0 && static_cast<std::uintmax_t>(size) <= kMaxBlobBytes;
  if (read) {
    blob.resize(static_cast<std::size_t>(size));
    in.seekg(0);
    read = static_cast<bool>(in.read(blob.data(), size));
  }
  if (!read) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    obs::registry().counter("snapshot.misses").add();
    obs::registry().counter("snapshot.bad_blobs").add();
    return std::nullopt;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  obs::registry().counter("snapshot.hits").add();
  obs::registry().counter("snapshot.load_bytes").add(blob.size());
  t_last_hit = {this, blob.size(), obs::metrics_enabled()};
  return blob;
}

void StageCache::store(std::string_view stage, const Fingerprint& fp,
                       std::string_view blob) const {
  if (store_disabled_.load(std::memory_order_relaxed)) {
    store_failures_.fetch_add(1, std::memory_order_relaxed);
    obs::registry().counter("snapshot.store_failures").add();
    return;
  }
  obs::Span span("snapshot.store");
  const std::string path = blob_path(stage, fp);
  std::error_code ec;
  fs::create_directories(fs::path(path).parent_path(), ec);
  std::string failure;
  if (ec) {
    failure = "cannot create stage dir for '" + path + "': " + ec.message();
  } else {
    try {
      io::write_text_file(path, blob);
    } catch (const std::exception& e) {
      failure = e.what();
    }
  }
  if (!failure.empty()) {
    // Degrade to recompute-without-store: warn once, count every skipped
    // store, and keep serving loads (the directory may still be readable).
    store_failures_.fetch_add(1, std::memory_order_relaxed);
    obs::registry().counter("snapshot.store_failures").add();
    if (!store_disabled_.exchange(true, std::memory_order_relaxed)) {
      std::fprintf(stderr,
                   "leodivide: warning: snapshot cache '%s' is not writable "
                   "(%s); continuing without storing\n",
                   dir_.c_str(), failure.c_str());
    }
    return;
  }
  obs::registry().counter("snapshot.store_bytes").add(blob.size());
}

void StageCache::note_bad_blob() const noexcept {
  hits_.fetch_sub(1, std::memory_order_relaxed);
  misses_.fetch_add(1, std::memory_order_relaxed);
  if (t_last_hit.cache == this && t_last_hit.counted) {
    obs::registry().counter("snapshot.hits").retract();
    obs::registry().counter("snapshot.load_bytes").retract(t_last_hit.bytes);
  }
  t_last_hit = {};
  obs::registry().counter("snapshot.misses").add();
  obs::registry().counter("snapshot.bad_blobs").add();
}

namespace {

std::mutex g_mutex;
std::unique_ptr<StageCache> g_cache;
bool g_initialized = false;

void set_global_dir_locked(std::string dir) {
  if (dir.empty()) {
    g_cache.reset();
  } else {
    g_cache = std::make_unique<StageCache>(std::move(dir));
  }
  g_initialized = true;
}

}  // namespace

StageCache* global_cache() {
  std::lock_guard<std::mutex> lock(g_mutex);
  if (!g_initialized) {
    const char* env = std::getenv("LEODIVIDE_SNAPSHOT_DIR");
    set_global_dir_locked(env != nullptr ? std::string(env) : std::string());
  }
  return g_cache.get();
}

void set_global_dir(std::string dir) {
  std::lock_guard<std::mutex> lock(g_mutex);
  set_global_dir_locked(std::move(dir));
}

bool parse_cli_arg(int argc, char** argv, int& i) {
  const auto dir = io::flag_value(argc, argv, i, "--snapshot-dir");
  if (dir) set_global_dir(std::string(*dir));
  return dir.has_value();
}

std::string bench_line(std::string_view bench, double wall_ms,
                       const StageCache* cache) {
  std::string line = obs::bench_line_json(
      bench, runtime::global_executor().concurrency(), wall_ms);
  line.pop_back();  // the closing '}'
  line += ",\"snapshot_hits\":";
  line += std::to_string(cache != nullptr ? cache->hits() : 0);
  line += ",\"snapshot_misses\":";
  line += std::to_string(cache != nullptr ? cache->misses() : 0);
  line += '}';
  return line;
}

}  // namespace leodivide::snapshot
