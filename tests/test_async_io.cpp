// Tests for the asynchronous snapshot store thread (AsyncIo: stores on disk
// after drain() and after destruction) and staged_compute, the stage
// cache's one restore-or-compute path (pure compute without a cache, cold
// store through AsyncIo then warm restore, recompute over a corrupt blob).

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

#include "leodivide/snapshot/async.hpp"
#include "leodivide/snapshot/cache.hpp"
#include "leodivide/snapshot/fingerprint.hpp"
#include "leodivide/snapshot/format.hpp"

namespace {

using namespace leodivide;
namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// AsyncIo: stores behind compute
// ---------------------------------------------------------------------------

class AsyncIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("ld_async_test_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }
  fs::path dir_;
};

TEST_F(AsyncIoTest, StoreIsOnDiskAfterDrain) {
  snapshot::StageCache cache(dir_.string());
  snapshot::AsyncIo io;
  const snapshot::Fingerprint fp = snapshot::stage_fingerprint("tg.stage");
  io.enqueue_store(cache, "tg.stage", fp, "payload-bytes");
  io.drain();
  const std::optional<std::string> blob = cache.load("tg.stage", fp);
  ASSERT_TRUE(blob.has_value());
  EXPECT_EQ(*blob, "payload-bytes");
}

TEST_F(AsyncIoTest, DestructorDrainsOutstandingStores) {
  snapshot::StageCache cache(dir_.string());
  const snapshot::Fingerprint fp = snapshot::stage_fingerprint("tg.stage");
  {
    snapshot::AsyncIo io;
    io.enqueue_store(cache, "tg.stage", fp, "flushed-at-destruction");
  }
  const std::optional<std::string> blob = cache.load("tg.stage", fp);
  ASSERT_TRUE(blob.has_value());
  EXPECT_EQ(*blob, "flushed-at-destruction");
}

// ---------------------------------------------------------------------------
// staged_compute: the cache-aware building block
// ---------------------------------------------------------------------------

namespace blobs {

// Minimal int codec through the LDSNAP container so deserialize failures
// surface as SnapshotError (the staged_compute recovery path).
std::string serialize_int(int v) {
  snapshot::ByteWriter w;
  w.u64(static_cast<std::uint64_t>(v));
  snapshot::SnapshotWriter sw(snapshot::ArtifactKind::kServePartial);
  sw.add_section("int", std::move(w).take());
  return std::move(sw).finish();
}

int deserialize_int(std::string_view blob) {
  const snapshot::SnapshotReader reader = snapshot::SnapshotReader::parse(blob);
  snapshot::ByteReader r(reader.section("int"));
  const int v = static_cast<int>(r.u64());
  r.expect_exhausted("int blob");
  return v;
}

}  // namespace blobs

TEST_F(AsyncIoTest, StagedComputeWithoutCacheIsPureCompute) {
  int computes = 0;
  const int value = snapshot::staged_compute(
      nullptr, nullptr, "tg.stage", snapshot::stage_fingerprint("tg.stage"),
      [&] {
        ++computes;
        return 41;
      },
      blobs::serialize_int, blobs::deserialize_int);
  EXPECT_EQ(value, 41);
  EXPECT_EQ(computes, 1);
}

TEST_F(AsyncIoTest, StagedComputeStoresThroughIoAndRestoresWarm) {
  snapshot::StageCache cache(dir_.string());
  const snapshot::Fingerprint fp = snapshot::stage_fingerprint("tg.stage");
  int computes = 0;
  const auto compute = [&] {
    ++computes;
    return 7;
  };

  {
    snapshot::AsyncIo io;
    EXPECT_EQ(snapshot::staged_compute(&cache, &io, "tg.stage", fp, compute,
                                       blobs::serialize_int,
                                       blobs::deserialize_int),
              7);
    EXPECT_EQ(computes, 1);
    io.drain();
  }
  const std::optional<std::string> blob = cache.load("tg.stage", fp);
  ASSERT_TRUE(blob.has_value());
  EXPECT_EQ(*blob, blobs::serialize_int(7));

  EXPECT_EQ(snapshot::staged_compute(&cache, nullptr, "tg.stage", fp, compute,
                                     blobs::serialize_int,
                                     blobs::deserialize_int),
            7);
  EXPECT_EQ(computes, 1);  // warm run never recomputed
}

TEST_F(AsyncIoTest, StagedComputeRecomputesOnCorruptBlob) {
  snapshot::StageCache cache(dir_.string());
  const snapshot::Fingerprint fp = snapshot::stage_fingerprint("tg.stage");
  cache.store("tg.stage", fp, "not an LDSNAP blob");
  int computes = 0;
  const int value = snapshot::staged_compute(
      &cache, nullptr, "tg.stage", fp,
      [&] {
        ++computes;
        return 13;
      },
      blobs::serialize_int, blobs::deserialize_int);
  EXPECT_EQ(value, 13);
  EXPECT_EQ(computes, 1);
  // The recompute overwrote the corrupt blob; the next call restores.
  EXPECT_EQ(snapshot::staged_compute(
                &cache, nullptr, "tg.stage", fp,
                []() -> int { throw std::logic_error("must not recompute"); },
                blobs::serialize_int, blobs::deserialize_int),
            13);
}

}  // namespace
