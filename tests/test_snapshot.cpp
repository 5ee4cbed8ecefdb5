// snapshot/ — LDSNAP container, artifact round trips, adversarial inputs,
// fingerprints, and the content-addressed stage cache.
//
// The adversarial cases are the load-bearing ones: every way a snapshot
// file can be malformed (truncation, bit flips, wrong version, wrong
// endianness, dangling indices) must surface as a typed SnapshotError —
// never UB — which the ASan CI job double-checks.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <typeinfo>
#include <utility>
#include <vector>

#include "leodivide/core/scenario.hpp"
#include "leodivide/demand/generator.hpp"
#include "leodivide/demand/geojson.hpp"
#include "leodivide/io/csv.hpp"
#include "leodivide/io/fileio.hpp"
#include "leodivide/io/json.hpp"
#include "leodivide/market/market.hpp"
#include "leodivide/obs/metrics.hpp"
#include "leodivide/orbit/propagate.hpp"
#include "leodivide/runtime/executor.hpp"
#include "leodivide/runtime/thread_pool.hpp"
#include "leodivide/sim/clock.hpp"
#include "leodivide/sim/simulation.hpp"
#include "leodivide/sim/workspace.hpp"
#include "leodivide/snapshot/snapshot.hpp"

namespace {

using namespace leodivide;
namespace fs = std::filesystem;

// ------------------------------------------------------------ fixtures --

demand::CountyTable small_counties() {
  std::vector<demand::County> counties;
  counties.push_back({"10001", {39.0, -75.5}, 52000.0, 120});
  counties.push_back({"10003", {39.7, -75.6}, 71000.0, 45});
  return demand::CountyTable(std::move(counties));
}

demand::DemandProfile small_profile() {
  std::vector<demand::CellDemand> cells;
  cells.push_back({hex::CellId(3, {10, -4}), {39.1, -75.4}, 820, 0});
  cells.push_back({hex::CellId(3, {11, -4}), {39.6, -75.7}, 61, 1});
  cells.push_back({hex::CellId(3, {12, -5}), {39.9, -75.2}, 0, 1});
  return demand::DemandProfile(std::move(cells), small_counties());
}

core::AnalysisResults small_analysis() {
  // A tiny but fully-populated AnalysisResults: every field participates
  // in the round trip.
  core::AnalysisResults r;
  r.table1 = {3850.0, 8850.0, 24, 28, 4.5, 17.325, 5998, 100.0, 20.0,
              599.8, 34.62};
  r.f1 = {17.325, 34.62, 3465, 2357212, 22428, 5103, 5, 0.99883};
  r.table2 = {{1.0, 9563.0, 9621.0}, {5.0, 1913.0, 1925.0}};
  r.fig2_beamspreads = {2.0, 4.0};
  r.fig2_oversubs = {5.0, 10.0};
  r.fig2_grid = {{10.0, 20.0}, {30.0, 40.0}};
  r.fig3 = {{5.0, 20.0, {{5103, 1925.0, 4, 36.9}, {9000, 1800.0, 3, 38.2}}}};
  r.fig4 = {{{"Starlink Residential", 120.0, {100.0, 20.0}}, 72000.0,
             1327000.0, 0.563}};
  r.fig4_lifeline_threshold_income = 66450.0;
  r.fig4_starlink_threshold_income = 72000.0;
  return r;
}

std::vector<sim::EpochCoverage> small_epochs() {
  return {{0.0, 100, 97, 50000, 48000, 0.83, 41},
          {60.0, 100, 99, 50000, 49800, 0.86, 43}};
}

market::MarketReport small_market_report() {
  // Two fully-populated operator outcomes: every field participates in the
  // round trip.
  market::MarketReport r;
  r.policy = market::SplitPolicy::kFairShare;
  r.beamspread = 10.0;
  r.oversub_cap = 20.0;
  market::OperatorOutcome a;
  a.name = "starlink";
  a.economic_share = 0.85;
  a.full = {9563.0, 36.9, 4, 2};
  a.capped = {9621.0, 37.1, 3, 1};
  a.served_cell_fraction = 0.97;
  a.served_location_fraction = 0.74;
  a.cost_per_location_year_usd = 10975.6;
  a.affordability = {{"Starlink Residential", 120.0, {100.0, 20.0}},
                     72000.0, 1327000.0, 0.563};
  market::OperatorOutcome b;
  b.name = "oneweb";
  b.economic_share = 0.5;
  b.full = {17937.0, 49.0, 2, 0};
  b.capped = {19811.0, 48.5, 2, 0};
  b.served_cell_fraction = 0.38;
  b.served_location_fraction = 0.02;
  b.cost_per_location_year_usd = 30000.0;
  b.affordability = {{"oneweb_community", 99.0, {150.0, 20.0}},
                     59400.0, 900000.0, 0.42};
  r.operators = {std::move(a), std::move(b)};
  r.fairness.operators = {{2, 3, 881}, {1, 1, 61}};
  r.fairness.jain_served_locations = 0.69;
  r.fairness.unserved_cells = 1;
  r.fairness.unserved_locations = 120;
  r.fairness.capacity_limited_cells = 1;
  r.fairness.split_limited_cells = 0;
  return r;
}

// ------------------------------------------------------- byte primitives --

TEST(ByteFormat, WriterReaderRoundTrip) {
  snapshot::ByteWriter w;
  w.u8(0x7F);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEFU);
  w.u64(0x0123456789ABCDEFULL);
  w.f64(-1234.5678);
  w.str("hello, snapshot");
  const std::string buf = std::move(w).take();

  snapshot::ByteReader r(buf);
  EXPECT_EQ(r.u8(), 0x7F);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFU);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.f64(), -1234.5678);
  EXPECT_EQ(r.str(), "hello, snapshot");
  EXPECT_TRUE(r.exhausted());
  EXPECT_NO_THROW(r.expect_exhausted("test"));
}

TEST(ByteFormat, LittleEndianOnTheWire) {
  snapshot::ByteWriter w;
  w.u32(0x01020304U);
  const std::string buf = w.buffer();
  ASSERT_EQ(buf.size(), 4U);
  EXPECT_EQ(static_cast<unsigned char>(buf[0]), 0x04);
  EXPECT_EQ(static_cast<unsigned char>(buf[3]), 0x01);
}

TEST(ByteFormat, ReaderUnderRunThrowsTyped) {
  snapshot::ByteWriter w;
  w.u16(7);
  const std::string buf = w.buffer();
  snapshot::ByteReader r(buf);
  EXPECT_THROW((void)r.u32(), snapshot::SnapshotError);
}

TEST(ByteFormat, StringLengthGuard) {
  snapshot::ByteWriter w;
  w.u32(0xFFFFFFFFU);  // absurd length prefix from "corrupted" input
  const std::string buf = w.buffer();
  snapshot::ByteReader r(buf);
  EXPECT_THROW((void)r.str(), snapshot::SnapshotError);
}

TEST(ByteFormat, TrailingBytesRejected) {
  snapshot::ByteWriter w;
  w.u8(1);
  w.u8(2);
  const std::string buf = w.buffer();
  snapshot::ByteReader r(buf);
  (void)r.u8();
  EXPECT_THROW(r.expect_exhausted("test"), snapshot::SnapshotError);
}

// The byte-loop encoding the bulk ByteWriter/ByteReader fields must match
// on every host: `v`'s low `n` bytes, least significant first.
std::string le_oracle(std::uint64_t v, std::size_t n) {
  std::string out;
  for (std::size_t b = 0; b < n; ++b) {
    out.push_back(static_cast<char>(v >> (8 * b)));
  }
  return out;
}

TEST(ByteFormat, BulkFieldsMatchByteLoopOracle) {
  std::vector<std::uint64_t> values = {0,
                                       1,
                                       0xFF,
                                       0x100,
                                       0x8000000000000000ULL,
                                       0xFFFFFFFFFFFFFFFFULL,
                                       std::bit_cast<std::uint64_t>(-0.0),
                                       std::bit_cast<std::uint64_t>(5e-324)};
  std::mt19937_64 rng(20240617);
  for (int i = 0; i < 4096; ++i) values.push_back(rng());

  // Each value as one record of every field width: u8 u16 u32 u64 f64.
  constexpr std::size_t kRecordBytes = 1 + 2 + 4 + 8 + 8;
  snapshot::ByteWriter w;
  std::string oracle;
  for (std::uint64_t v : values) {
    w.u8(static_cast<std::uint8_t>(v));
    w.u16(static_cast<std::uint16_t>(v));
    w.u32(static_cast<std::uint32_t>(v));
    w.u64(v);
    w.f64(std::bit_cast<double>(v));
    for (std::size_t n : {1, 2, 4, 8, 8}) oracle += le_oracle(v, n);
  }
  ASSERT_EQ(w.buffer(), oracle);

  // Checked reads and one-check record reads decode the oracle's bytes.
  snapshot::ByteReader checked(oracle);
  snapshot::ByteReader bulk(oracle);
  snapshot::RecordReader records = bulk.records(values.size(), kRecordBytes);
  EXPECT_TRUE(bulk.exhausted());
  for (std::uint64_t v : values) {
    EXPECT_EQ(checked.u8(), static_cast<std::uint8_t>(v));
    EXPECT_EQ(checked.u16(), static_cast<std::uint16_t>(v));
    EXPECT_EQ(checked.u32(), static_cast<std::uint32_t>(v));
    EXPECT_EQ(checked.u64(), v);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(checked.f64()), v);
    EXPECT_EQ(records.u8(), static_cast<std::uint8_t>(v));
    EXPECT_EQ(records.u16(), static_cast<std::uint16_t>(v));
    EXPECT_EQ(records.u32(), static_cast<std::uint32_t>(v));
    EXPECT_EQ(records.u64(), v);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(records.f64()), v);
  }
  EXPECT_TRUE(checked.exhausted());
  EXPECT_TRUE(records.exhausted());
}

TEST(ByteFormat, CountsAndRecordRunsAreBoundedByTheBytesLeft) {
  snapshot::ByteWriter w;
  w.count(3, 4);
  for (std::uint32_t v : {7U, 8U, 9U}) w.u32(v);
  const std::string buf = w.buffer();

  snapshot::ByteReader r(buf);
  EXPECT_THROW((void)r.count(5), snapshot::SnapshotError);  // 15 > 12 left
  snapshot::ByteReader ok(buf);
  ASSERT_EQ(ok.count(4), 3U);
  EXPECT_THROW((void)ok.records(4, 4), snapshot::SnapshotError);
  snapshot::RecordReader records = ok.records(3, 4);
  EXPECT_EQ(records.u32(), 7U);
  EXPECT_EQ(records.u32(), 8U);
  EXPECT_FALSE(records.exhausted());
  EXPECT_EQ(records.u32(), 9U);
  EXPECT_TRUE(records.exhausted());
  EXPECT_TRUE(ok.exhausted());
}

TEST(ByteFormat, WriterRejectsAStringNoReaderAccepts) {
  snapshot::ByteWriter w;
  const std::string longest(snapshot::ByteReader::kMaxStringLen, 'x');
  w.str(longest);
  EXPECT_THROW(w.str(longest + 'x'), snapshot::SnapshotError);
  EXPECT_EQ(w.size(), 4 + longest.size()) << "the rejected string wrote bytes";
  snapshot::ByteReader r(w.buffer());
  EXPECT_EQ(r.str(), longest);
}

// -------------------------------------------------------------- checksums --

TEST(Checksum, Fnv1a64KnownVectors) {
  // Standard FNV-1a test vectors.
  EXPECT_EQ(snapshot::fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(snapshot::fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(snapshot::fnv1a64("foobar"), 0x85944171f73967e8ULL);
}

TEST(Checksum, ChunkedChecksumThreadCountInvariant) {
  // > 2 chunks so the parallel fold actually spans tasks.
  std::string big(5 * (1 << 20) / 2, 'x');
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<char>(i * 131 + 7);
  }
  const std::uint64_t serial =
      snapshot::chunked_checksum(big, runtime::serial_executor());
  runtime::ThreadPool pool4(4);
  EXPECT_EQ(snapshot::chunked_checksum(big, pool4), serial);
  runtime::ThreadPool pool3(3);
  EXPECT_EQ(snapshot::chunked_checksum(big, pool3), serial);

  // A batch hashes every payload's chunks together and still gives each
  // payload its own digest: its chunk digests folded as little-endian
  // bytes through FNV-1a. An empty payload keeps fnv1a64("").
  const std::string_view batch[] = {big, "", "small",
                                    std::string_view(big).substr(1)};
  const std::vector<std::uint64_t> digests =
      snapshot::chunked_checksums(batch, pool3);
  ASSERT_EQ(digests.size(), 4U);
  EXPECT_EQ(digests[0], serial);
  EXPECT_EQ(digests[1], snapshot::fnv1a64(""));
  EXPECT_EQ(digests[2],
            snapshot::fnv1a64(le_oracle(snapshot::fnv1a64("small"), 8)));
  EXPECT_EQ(digests[3], snapshot::chunked_checksum(batch[3],
                                                   runtime::serial_executor()));
}

// ------------------------------------------------------- container format --

TEST(Container, HeaderAndSectionsRoundTrip) {
  snapshot::SnapshotWriter w(snapshot::ArtifactKind::kProfile);
  w.add_section("alpha", "payload-a");
  w.add_section("beta", std::string("\x00\x01\x02", 3));
  const std::string file = std::move(w).finish();

  const auto reader = snapshot::SnapshotReader::parse(file);
  EXPECT_EQ(reader.kind(), snapshot::ArtifactKind::kProfile);
  EXPECT_EQ(reader.version(), snapshot::kFormatVersion);
  ASSERT_EQ(reader.sections().size(), 2U);
  EXPECT_EQ(reader.section("alpha"), "payload-a");
  EXPECT_EQ(reader.section("beta"), std::string_view("\x00\x01\x02", 3));
  EXPECT_THROW((void)reader.section("gamma"), snapshot::SnapshotError);
}

TEST(Container, MagicStartsTheFile) {
  snapshot::SnapshotWriter w(snapshot::ArtifactKind::kEpochs);
  w.add_section("s", "x");
  const std::string file = std::move(w).finish();
  ASSERT_GE(file.size(), 6U);
  EXPECT_EQ(file.substr(0, 6), "LDSNAP");
}

// ------------------------------------------------------ artifact round trips

TEST(Artifacts, ProfileRoundTripExact) {
  const demand::DemandProfile profile = small_profile();
  const std::string blob = snapshot::serialize(profile);
  const demand::DemandProfile back = snapshot::deserialize_profile(blob);
  EXPECT_EQ(back.cells(), profile.cells());
  EXPECT_EQ(back.counties().all(), profile.counties().all());
}

TEST(Artifacts, GeneratedProfileRoundTripExact) {
  // A real (scaled-down) generator output: thousands of cells with
  // full-precision doubles, not hand-picked values.
  demand::GeneratorConfig config;
  config.scale = 0.02;
  const demand::DemandProfile profile =
      demand::SyntheticGenerator{config}.generate_profile();
  ASSERT_GT(profile.cell_count(), 0U);
  const demand::DemandProfile back =
      snapshot::deserialize_profile(snapshot::serialize(profile));
  EXPECT_EQ(back.cells(), profile.cells());
  EXPECT_EQ(back.counties().all(), profile.counties().all());
}

TEST(Artifacts, AnalysisRoundTripExact) {
  const core::AnalysisResults results = small_analysis();
  const std::string blob = snapshot::serialize(results);
  EXPECT_EQ(snapshot::deserialize_analysis(blob), results);
}

TEST(Artifacts, EpochsRoundTripExact) {
  const std::vector<sim::EpochCoverage> epochs = small_epochs();
  const std::string blob = snapshot::serialize(epochs);
  EXPECT_EQ(snapshot::deserialize_epochs(blob), epochs);
}

TEST(Artifacts, MarketReportRoundTripExact) {
  const market::MarketReport report = small_market_report();
  const std::string blob = snapshot::serialize(report);
  const snapshot::SnapshotReader reader =
      snapshot::SnapshotReader::parse(blob);
  EXPECT_EQ(reader.kind(), snapshot::ArtifactKind::kMarketReport);
  EXPECT_EQ(to_string(reader.kind()), "market_report");
  EXPECT_EQ(snapshot::deserialize_market_report(blob), report);
}

TEST(Artifacts, SerializationIsDeterministic) {
  EXPECT_EQ(snapshot::serialize(small_profile()),
            snapshot::serialize(small_profile()));
  EXPECT_EQ(snapshot::serialize(small_analysis()),
            snapshot::serialize(small_analysis()));
  EXPECT_EQ(snapshot::serialize(small_epochs()),
            snapshot::serialize(small_epochs()));
  EXPECT_EQ(snapshot::serialize(small_market_report()),
            snapshot::serialize(small_market_report()));
}

// -------------------------------------------------------- adversarial input

TEST(Adversarial, EveryTruncationFailsTyped) {
  const std::string blob = snapshot::serialize(small_profile());
  // Every strict prefix must fail with SnapshotError — never crash, never
  // parse. Step keeps the loop fast on the larger payloads.
  for (std::size_t len = 0; len < blob.size();
       len += (len < 64 ? 1 : 37)) {
    EXPECT_THROW((void)snapshot::deserialize_profile(blob.substr(0, len)),
                 snapshot::SnapshotError)
        << "prefix length " << len << " parsed";
  }
}

TEST(Adversarial, BitFlipFailsChecksumTyped) {
  const std::string blob = snapshot::serialize(small_profile());
  // Flip one bit in every region of the file: header flips fail header
  // validation, payload flips fail the section checksum.
  for (std::size_t pos = 0; pos < blob.size(); pos += 41) {
    std::string bad = blob;
    bad[pos] = static_cast<char>(bad[pos] ^ 0x10);
    EXPECT_THROW((void)snapshot::deserialize_profile(bad),
                 snapshot::SnapshotError)
        << "bit flip at " << pos << " parsed";
  }
}

TEST(Adversarial, WrongVersionRejected) {
  std::string blob = snapshot::serialize(small_profile());
  blob[8] = static_cast<char>(snapshot::kFormatVersion + 1);  // version LSB
  EXPECT_THROW((void)snapshot::deserialize_profile(blob),
               snapshot::SnapshotError);
}

TEST(Adversarial, ByteSwappedEndianMarkerRejected) {
  std::string blob = snapshot::serialize(small_profile());
  std::swap(blob[6], blob[7]);  // 0xFEFF -> big-endian byte order
  try {
    (void)snapshot::deserialize_profile(blob);
    FAIL() << "byte-swapped endian marker parsed";
  } catch (const snapshot::SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("endian"), std::string::npos);
  }
}

TEST(Adversarial, BadMagicRejected) {
  std::string blob = snapshot::serialize(small_profile());
  blob[0] = 'X';
  EXPECT_THROW((void)snapshot::deserialize_profile(blob),
               snapshot::SnapshotError);
  EXPECT_THROW((void)snapshot::SnapshotReader::parse("not a snapshot"),
               snapshot::SnapshotError);
  EXPECT_THROW((void)snapshot::SnapshotReader::parse(""),
               snapshot::SnapshotError);
}

TEST(Adversarial, TrailingGarbageRejected) {
  const std::string blob = snapshot::serialize(small_profile()) + "junk";
  EXPECT_THROW((void)snapshot::deserialize_profile(blob),
               snapshot::SnapshotError);
}

TEST(Adversarial, KindMismatchRejected) {
  const std::string blob = snapshot::serialize(small_epochs());
  EXPECT_THROW((void)snapshot::deserialize_profile(blob),
               snapshot::SnapshotError);
  EXPECT_THROW((void)snapshot::deserialize_analysis(blob),
               snapshot::SnapshotError);
}

// Kind 1 held location-level records, kind 5 event-engine traces, kind 6
// serve's delta journal and kind 7 serve's on-disk region partials; all
// are gone, and old cache dirs may still hold kind-7 files. Rebuild one
// blob of each as it was written (a "counties" and an empty "locations"
// section; an empty "events" or "ops" section; a "served" section of two
// u64 counts) and check the container refuses its kind by name.
TEST(Adversarial, RetiredServePartialKindRejected) {
  snapshot::ByteWriter counties;
  counties.u64(0);
  snapshot::ByteWriter locations;
  locations.u64(0);
  snapshot::SnapshotWriter locations_blob(
      static_cast<snapshot::ArtifactKind>(1));
  locations_blob.add_section("counties", std::move(counties).take());
  locations_blob.add_section("locations", std::move(locations).take());
  snapshot::ByteWriter served;
  served.u64(36);
  served.u64(1234);
  snapshot::SnapshotWriter partial_blob(static_cast<snapshot::ArtifactKind>(7));
  partial_blob.add_section("served", std::move(served).take());
  snapshot::ByteWriter events;
  events.u64(0);
  snapshot::SnapshotWriter event_blob(static_cast<snapshot::ArtifactKind>(5));
  event_blob.add_section("events", std::move(events).take());
  snapshot::ByteWriter ops;
  ops.u64(0);
  snapshot::SnapshotWriter journal_blob(static_cast<snapshot::ArtifactKind>(6));
  journal_blob.add_section("ops", std::move(ops).take());
  const std::pair<std::string, const char*> retired[] = {
      {std::move(locations_blob).finish(), "retired artifact kind 1"},
      {std::move(event_blob).finish(), "retired artifact kind 5 (event trace"},
      {std::move(journal_blob).finish(),
       "retired artifact kind 6 (delta journal"},
      {std::move(partial_blob).finish(), "retired artifact kind 7"}};
  for (const auto& [blob, expected] : retired) {
    try {
      (void)snapshot::SnapshotReader::parse(blob);
      ADD_FAILURE() << "a snapshot of " << expected << " parsed";
    } catch (const snapshot::SnapshotError& e) {
      EXPECT_NE(std::string(e.what()).find(expected), std::string::npos)
          << e.what();
    }
  }
}

TEST(Adversarial, DanglingCountyIndexRejected) {
  // Hand-build a profile blob whose cell references county 9 of 2. The
  // container checksums are valid, so only the semantic validation can
  // catch it.
  snapshot::ByteWriter counties;
  counties.u64(1);
  counties.str("10001");
  counties.f64(39.0);
  counties.f64(-75.5);
  counties.f64(52000.0);
  counties.u64(120);
  snapshot::ByteWriter cells;
  cells.u64(1);
  cells.u64(hex::CellId(3, {10, -4}).bits());
  cells.f64(39.1);
  cells.f64(-75.4);
  cells.u32(820);
  cells.u32(9);  // dangling
  snapshot::SnapshotWriter w(snapshot::ArtifactKind::kProfile);
  w.add_section("counties", std::move(counties).take());
  w.add_section("cells", std::move(cells).take());
  EXPECT_THROW((void)snapshot::deserialize_profile(std::move(w).finish()),
               snapshot::SnapshotError);
}

TEST(Adversarial, MarketEveryTruncationFailsTyped) {
  const std::string blob = snapshot::serialize(small_market_report());
  for (std::size_t len = 0; len < blob.size();
       len += (len < 64 ? 1 : 37)) {
    EXPECT_THROW(
        (void)snapshot::deserialize_market_report(blob.substr(0, len)),
        snapshot::SnapshotError)
        << "prefix length " << len << " parsed";
  }
}

TEST(Adversarial, MarketBitFlipFailsChecksumTyped) {
  const std::string blob = snapshot::serialize(small_market_report());
  for (std::size_t pos = 0; pos < blob.size(); pos += 41) {
    std::string bad = blob;
    bad[pos] = static_cast<char>(bad[pos] ^ 0x10);
    EXPECT_THROW((void)snapshot::deserialize_market_report(bad),
                 snapshot::SnapshotError)
        << "bit flip at " << pos << " parsed";
  }
}

TEST(Adversarial, MarketUnknownPolicyRejected) {
  // A container-valid snapshot whose policy byte is out of range must fail
  // the semantic re-validation, not produce a bogus enum value.
  market::MarketReport report = small_market_report();
  report.policy = static_cast<market::SplitPolicy>(9);
  EXPECT_THROW(
      (void)snapshot::deserialize_market_report(snapshot::serialize(report)),
      snapshot::SnapshotError);
}

TEST(Adversarial, MarketFairnessRowCountMismatchRejected) {
  market::MarketReport report = small_market_report();
  report.fairness.operators.pop_back();  // 1 row for 2 operators
  EXPECT_THROW(
      (void)snapshot::deserialize_market_report(snapshot::serialize(report)),
      snapshot::SnapshotError);
}

TEST(Adversarial, MarketKindMismatchRejected) {
  EXPECT_THROW((void)snapshot::deserialize_market_report(
                   snapshot::serialize(small_profile())),
               snapshot::SnapshotError);
  EXPECT_THROW((void)snapshot::deserialize_profile(
                   snapshot::serialize(small_market_report())),
               snapshot::SnapshotError);
}

// Overwrites every 8-byte window of every section of `blob` with a count of
// 2^50 and re-seals the file with valid checksums. Wherever that lands,
// `decode` must decode or fail typed — a count must be refused against the
// bytes left, never reserved (std::bad_alloc). `counts` lists the
// (section, offset) of each vector count in the fixture; each of those
// patches must be refused.
template <typename Decode>
void expect_huge_counts_fail_typed(
    const std::string& blob, Decode decode,
    const std::vector<std::pair<std::string, std::size_t>>& counts) {
  const snapshot::SnapshotReader reader = snapshot::SnapshotReader::parse(blob);
  const auto& sections = reader.sections();
  snapshot::ByteWriter huge;
  huge.u64(std::uint64_t{1} << 50);
  std::vector<std::pair<std::string, std::size_t>> refused;
  for (std::size_t s = 0; s < sections.size(); ++s) {
    for (std::size_t at = 0; at + 8 <= sections[s].payload.size(); ++at) {
      snapshot::SnapshotWriter w(reader.kind());
      for (std::size_t k = 0; k < sections.size(); ++k) {
        std::string payload(sections[k].payload);
        if (k == s) payload.replace(at, 8, huge.buffer());
        w.add_section(sections[k].name, std::move(payload));
      }
      try {
        (void)decode(std::move(w).finish());
      } catch (const snapshot::SnapshotError&) {
        refused.emplace_back(sections[s].name, at);
      } catch (const std::exception& e) {
        ADD_FAILURE() << "count 2^50 at " << sections[s].name << "+" << at
                      << " escaped as " << typeid(e).name() << ": "
                      << e.what();
      }
    }
  }
  for (const auto& count : counts) {
    EXPECT_NE(std::find(refused.begin(), refused.end(), count), refused.end())
        << "count at " << count.first << "+" << count.second << " accepted";
  }
}

TEST(Adversarial, ProfileHugeCountFailsTyped) {
  expect_huge_counts_fail_typed(
      snapshot::serialize(small_profile()),
      [](std::string_view b) { return snapshot::deserialize_profile(b); },
      {{"counties", 0}, {"cells", 0}});
}

TEST(Adversarial, AnalysisHugeCountFailsTyped) {
  // Table 1 and F1 take 76 + 56 bytes; every offset below follows from
  // small_analysis()'s vector sizes.
  expect_huge_counts_fail_typed(
      snapshot::serialize(small_analysis()),
      [](std::string_view b) { return snapshot::deserialize_analysis(b); },
      {{"analysis", 132},    // table2
       {"analysis", 188},    // fig2 beamspreads
       {"analysis", 212},    // fig2 oversubs
       {"analysis", 236},    // fig2 grid rows
       {"analysis", 244},    // fig2 grid row 0
       {"analysis", 268},    // fig2 grid row 1
       {"analysis", 292},    // fig3 curves
       {"analysis", 316},    // fig3 curve 0 points
       {"analysis", 380}});  // fig4 plans
}

TEST(Adversarial, EpochsHugeCountFailsTyped) {
  expect_huge_counts_fail_typed(
      snapshot::serialize(small_epochs()),
      [](std::string_view b) { return snapshot::deserialize_epochs(b); },
      {{"epochs", 0}});
}

TEST(Adversarial, MarketHugeCountFailsTyped) {
  // Policy, beamspread and cap take 17 bytes before the operator count; the
  // fairness section opens with its row count.
  expect_huge_counts_fail_typed(
      snapshot::serialize(small_market_report()),
      [](std::string_view b) {
        return snapshot::deserialize_market_report(b);
      },
      {{"operators", 17},  // operators
       {"fairness", 0}});  // fairness rows
}

TEST(Adversarial, SectionHugeCountFailsTyped) {
  std::string blob = snapshot::serialize(small_profile());
  // The u32 section count sits at offset 12. The header carries no
  // checksum, so the patched file needs no re-sealing.
  for (int b = 0; b < 4; ++b) blob[12 + b] = static_cast<char>(0xFF);
  EXPECT_THROW((void)snapshot::deserialize_profile(blob),
               snapshot::SnapshotError);
}

// ------------------------------------------------------------ fingerprints --

TEST(Fingerprints, TypeTagsSeparateMixes) {
  snapshot::Fingerprint a;
  a.mix_u64(0);
  snapshot::Fingerprint b;
  b.mix_f64(0.0);
  EXPECT_NE(a.digest(), b.digest());

  snapshot::Fingerprint c;
  c.mix("ab").mix("c");
  snapshot::Fingerprint d;
  d.mix("a").mix("bc");
  EXPECT_NE(c.digest(), d.digest());
}

TEST(Fingerprints, StageNameAndVersionSeedTheHash) {
  EXPECT_NE(snapshot::stage_fingerprint("demand.profile").digest(),
            snapshot::stage_fingerprint("core.analysis").digest());
}

TEST(Fingerprints, ConfigFieldsChangeTheDigest) {
  demand::GeneratorConfig a;
  demand::GeneratorConfig b;
  b.seed = a.seed + 1;
  snapshot::Fingerprint fa = snapshot::stage_fingerprint("demand.profile");
  snapshot::mix(fa, a);
  snapshot::Fingerprint fb = snapshot::stage_fingerprint("demand.profile");
  snapshot::mix(fb, b);
  EXPECT_NE(fa.digest(), fb.digest());

  demand::GeneratorConfig c;
  c.scale = 0.5;
  snapshot::Fingerprint fc = snapshot::stage_fingerprint("demand.profile");
  snapshot::mix(fc, c);
  EXPECT_NE(fa.digest(), fc.digest());
}

TEST(Fingerprints, MarketConfigFieldsChangeTheDigest) {
  market::MarketConfig base;
  base.operators = market::default_market();
  snapshot::Fingerprint fa = snapshot::stage_fingerprint("market.report");
  snapshot::mix(fa, base);

  // The same config hashes the same...
  {
    market::MarketConfig again;
    again.operators = market::default_market();
    snapshot::Fingerprint fp = snapshot::stage_fingerprint("market.report");
    snapshot::mix(fp, again);
    EXPECT_EQ(fa.digest(), fp.digest());
  }
  // ...and every kind of field change lands in the digest: a plan price,
  // a band edge, a cost input, the sharing policy, a sweep parameter.
  {
    market::MarketConfig c = base;
    c.operators[0].plan.monthly_usd += 1.0;
    snapshot::Fingerprint fp = snapshot::stage_fingerprint("market.report");
    snapshot::mix(fp, c);
    EXPECT_NE(fa.digest(), fp.digest());
  }
  {
    market::MarketConfig c = base;
    c.operators[1].bands[0].hi_ghz += 0.1;
    snapshot::Fingerprint fp = snapshot::stage_fingerprint("market.report");
    snapshot::mix(fp, c);
    EXPECT_NE(fa.digest(), fp.digest());
  }
  {
    market::MarketConfig c = base;
    c.operators[2].costs.annual_opex_fraction += 0.01;
    snapshot::Fingerprint fp = snapshot::stage_fingerprint("market.report");
    snapshot::mix(fp, c);
    EXPECT_NE(fa.digest(), fp.digest());
  }
  {
    market::MarketConfig c = base;
    c.split.policy = market::SplitPolicy::kFairShare;
    snapshot::Fingerprint fp = snapshot::stage_fingerprint("market.report");
    snapshot::mix(fp, c);
    EXPECT_NE(fa.digest(), fp.digest());
  }
  {
    market::MarketConfig c = base;
    c.beamspread = 5.0;
    snapshot::Fingerprint fp = snapshot::stage_fingerprint("market.report");
    snapshot::mix(fp, c);
    EXPECT_NE(fa.digest(), fp.digest());
  }
}

// The stage definitions' key recipes, pinned at the defaults of the CLIs
// that cache them. These are the blob file names existing cache
// directories hold: a change here orphans every cached artifact, so it
// needs a kFormatVersion bump and a stated reason.
TEST(StageKeys, GoldenAtDefaultConfig) {
  const demand::GeneratorConfig gen{};
  EXPECT_EQ(snapshot::demand_profile_stage(gen).key().hex(),
            "cdea1a547951efb0");

  const demand::DemandProfile profile =
      demand::SyntheticGenerator{gen}.generate_profile();
  std::stringstream cells;
  std::stringstream counties;
  profile.save_csv(cells, counties);
  const demand::DemandProfile loaded =
      demand::DemandProfile::load_csv(cells, counties);
  EXPECT_EQ(snapshot::analysis_stage(loaded).key().hex(), "a6e789579e341b60");

  const std::pair<market::SplitPolicy, const char*> markets[] = {
      {market::SplitPolicy::kExclusive, "896026f3b9f4a917"},
      {market::SplitPolicy::kProportional, "e8e728eb753f3c72"},
      {market::SplitPolicy::kFairShare, "72aa606ba5b6c5d1"}};
  for (const auto& [policy, hex] : markets) {
    market::MarketConfig config;
    config.operators = market::default_market();
    config.split.policy = policy;
    const market::MarketSimulation simulation(std::move(config));
    EXPECT_EQ(
        snapshot::market_report_stage(gen, simulation, profile).key().hex(),
        hex)
        << to_string(policy);
  }

  // coverage_sim's defaults: Starlink shell 1, 10 minutes, beamspread 5.
  sim::SimulationConfig config;
  config.shell.planes = 72U;
  config.shell.sats_per_plane = 22U;
  config.scheduler.beamspread = 5U;
  config.duration_s = 600.0;
  config.step_s = 60.0;
  EXPECT_EQ(snapshot::sim_epochs_stage(config, profile).key().hex(),
            "65d956d326d4509e");
}

// The analysis reads cell latitudes (K(phi) depends on them), so its key
// must see a one-ulp latitude change in the profile it is handed.
TEST(StageKeys, AnalysisKeyCoversEveryLatitudeBit) {
  const demand::DemandProfile profile = small_profile();
  demand::DemandProfile nudged = small_profile();
  double& lat = nudged.cell_at(1).center.lat_deg;
  lat = std::nextafter(lat, 90.0);
  EXPECT_NE(snapshot::analysis_stage(profile).key().digest(),
            snapshot::analysis_stage(nudged).key().digest());
  EXPECT_EQ(snapshot::analysis_stage(profile).key().digest(),
            snapshot::analysis_stage(small_profile()).key().digest());
}

TEST(Fingerprints, HexIs16LowercaseDigits) {
  const std::string hex = snapshot::stage_fingerprint("x").hex();
  ASSERT_EQ(hex.size(), 16U);
  for (char ch : hex) {
    EXPECT_TRUE((ch >= '0' && ch <= '9') || (ch >= 'a' && ch <= 'f'));
  }
}

// -------------------------------------------------------------- stage cache

class StageCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("ldsnap_test_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }
  fs::path dir_;
};

// A stage named `name` whose key is stage_fingerprint(name) alone and whose
// compute returns small_profile(), counting each call in `computes`.
snapshot::StageDef<demand::DemandProfile> counted_profile_stage(
    const char* name, int& computes) {
  return {name, [](snapshot::Fingerprint&) {},
          [&computes] {
            ++computes;
            return small_profile();
          },
          [](const demand::DemandProfile& p) { return snapshot::serialize(p); },
          snapshot::deserialize_profile};
}

TEST_F(StageCacheTest, RunStageWithoutCacheIsPureCompute) {
  int computes = 0;
  snapshot::StageDef<demand::DemandProfile> def =
      counted_profile_stage("stage", computes);
  bool keyed = false;
  def.mix = [&keyed](snapshot::Fingerprint&) { keyed = true; };
  const demand::DemandProfile profile = snapshot::run_stage(nullptr, def);
  EXPECT_EQ(computes, 1);
  EXPECT_FALSE(keyed) << "a null cache must not build the key";
  EXPECT_EQ(profile.cells(), small_profile().cells());
}

TEST_F(StageCacheTest, MissComputesAndStoresThenHits) {
  snapshot::StageCache cache(dir_.string());
  const demand::DemandProfile profile = small_profile();
  int computes = 0;
  const auto def = counted_profile_stage("demand.profile", computes);
  const snapshot::Fingerprint fp = def.key();

  const demand::DemandProfile first = snapshot::run_stage(&cache, def);
  EXPECT_EQ(computes, 1);
  EXPECT_EQ(cache.hits(), 0U);
  EXPECT_EQ(cache.misses(), 1U);
  EXPECT_TRUE(fs::exists(cache.blob_path("demand.profile", fp)));

  const demand::DemandProfile second = snapshot::run_stage(&cache, def);
  EXPECT_EQ(computes, 1) << "hit must not recompute";
  EXPECT_EQ(cache.hits(), 1U);
  EXPECT_EQ(second.cells(), profile.cells());
}

TEST_F(StageCacheTest, DifferentFingerprintsDifferentBlobs) {
  snapshot::StageCache cache(dir_.string());
  snapshot::Fingerprint a = snapshot::stage_fingerprint("s");
  a.mix_u64(1);
  snapshot::Fingerprint b = snapshot::stage_fingerprint("s");
  b.mix_u64(2);
  EXPECT_NE(cache.blob_path("s", a), cache.blob_path("s", b));
}

TEST_F(StageCacheTest, CorruptBlobRecomputesAndRepairs) {
  snapshot::StageCache cache(dir_.string());
  int computes = 0;
  const auto def = counted_profile_stage("demand.profile", computes);
  const snapshot::Fingerprint fp = def.key();
  (void)snapshot::run_stage(&cache, def);
  ASSERT_EQ(computes, 1);

  // Corrupt the stored blob; the next lookup must detect it, recompute,
  // and leave a valid blob behind.
  const std::string path = cache.blob_path("demand.profile", fp);
  std::string blob = io::read_text_file(path);
  blob[blob.size() / 2] = static_cast<char>(blob[blob.size() / 2] ^ 0x40);
  io::write_text_file(path, blob);

  const demand::DemandProfile back = snapshot::run_stage(&cache, def);
  EXPECT_EQ(computes, 2) << "corrupt blob must recompute";
  EXPECT_EQ(cache.misses(), 2U);
  EXPECT_EQ(cache.hits(), 0U);
  EXPECT_EQ(back.cells(), small_profile().cells());
  EXPECT_NO_THROW(
      (void)snapshot::deserialize_profile(io::read_text_file(path)));
}

// The obs registry's snapshot counters must tell the same story as the
// cache's own: a blob that fails deserialization, or is too large to read,
// is a miss in both, and its bytes are not load bytes.
TEST_F(StageCacheTest, RegistryAgreesWithCacheOnBadBlobs) {
  obs::set_metrics_enabled(true);
  obs::registry().reset_values();
  snapshot::StageCache cache(dir_.string());
  const auto fp = [](const char* stage) {
    return snapshot::stage_fingerprint(stage);
  };
  const std::string good = snapshot::serialize(small_profile());
  for (const char* stage : {"good", "flipped", "oversized"}) {
    cache.store(stage, fp(stage), good);
  }
  std::string flipped = good;
  flipped[flipped.size() / 2] =
      static_cast<char>(flipped[flipped.size() / 2] ^ 0x40);
  io::write_text_file(cache.blob_path("flipped", fp("flipped")), flipped);
  fs::resize_file(cache.blob_path("oversized", fp("oversized")),
                  snapshot::kMaxBlobBytes + 1);

  int computes = 0;
  const auto run_all = [&] {
    for (const char* stage : {"good", "flipped", "oversized"}) {
      (void)snapshot::run_stage(&cache,
                                counted_profile_stage(stage, computes));
    }
  };
  const auto counter = [](const char* name) {
    return obs::registry().counter(name).total();
  };
  run_all();
  EXPECT_EQ(computes, 2);
  EXPECT_EQ(cache.hits(), 1U);
  EXPECT_EQ(cache.misses(), 2U);
  EXPECT_EQ(counter("snapshot.hits"), cache.hits());
  EXPECT_EQ(counter("snapshot.misses"), cache.misses());
  EXPECT_EQ(counter("snapshot.bad_blobs"), 2U);
  EXPECT_EQ(counter("snapshot.load_bytes"), good.size());

  // The recomputes repaired both blobs: every lookup now hits.
  run_all();
  EXPECT_EQ(counter("snapshot.hits"), 4U);
  EXPECT_EQ(counter("snapshot.hits"), cache.hits());
  EXPECT_EQ(counter("snapshot.misses"), cache.misses());
  EXPECT_EQ(counter("snapshot.load_bytes"), 4 * good.size());
  obs::set_metrics_enabled(false);
  obs::registry().reset_values();
}

TEST_F(StageCacheTest, CacheRestoreIsByteIdenticalAcrossThreadCounts) {
  // The acceptance property in miniature: a blob written under one
  // executor is bit-identical to one written under another, so a warm run
  // at any thread count restores the cold run's bytes.
  demand::GeneratorConfig config;
  config.scale = 0.02;
  const demand::DemandProfile profile =
      demand::SyntheticGenerator{config}.generate_profile();
  const std::string blob_serial = snapshot::serialize(profile);
  runtime::ThreadPool pool(4);
  // Checksums are the only executor-dependent part of the writer path.
  EXPECT_EQ(snapshot::chunked_checksum(blob_serial, pool),
            snapshot::chunked_checksum(blob_serial,
                                       runtime::serial_executor()));
  const demand::DemandProfile back =
      snapshot::deserialize_profile(blob_serial);
  EXPECT_EQ(snapshot::serialize(back), blob_serial);
}

TEST(SnapshotCli, ParseCliArgForms) {
  // Restore the global to "off" afterwards so other tests are unaffected.
  struct Restore {
    ~Restore() { snapshot::set_global_dir(""); }
  } restore;

  const fs::path dir = fs::temp_directory_path() / "ldsnap_cli_test";
  fs::remove_all(dir);
  const std::string eq_arg = "--snapshot-dir=" + dir.string();
  std::string flag = "--snapshot-dir";
  std::string val = dir.string();
  char* argv_pair[] = {flag.data(), flag.data(), val.data()};
  int i = 1;
  EXPECT_TRUE(snapshot::parse_cli_arg(3, argv_pair, i));
  EXPECT_EQ(i, 2) << "separate value argument must be consumed";
  ASSERT_NE(snapshot::global_cache(), nullptr);
  EXPECT_EQ(snapshot::global_cache()->dir(), dir.string());

  std::string eq = eq_arg;
  char* argv_eq[] = {flag.data(), eq.data()};
  i = 1;
  EXPECT_TRUE(snapshot::parse_cli_arg(2, argv_eq, i));
  EXPECT_EQ(i, 1);

  std::string other = "--threads";
  char* argv_other[] = {flag.data(), other.data()};
  i = 1;
  EXPECT_FALSE(snapshot::parse_cli_arg(2, argv_other, i));

  std::string bare = "--snapshot-dir";
  char* argv_bare[] = {flag.data(), bare.data()};
  i = 1;
  EXPECT_THROW((void)snapshot::parse_cli_arg(2, argv_bare, i),
               std::runtime_error);
  fs::remove_all(dir);
}

// --------------------------------------------------------------- io layer --

TEST(FileIo, WriteTextFileRoundTripsBinary) {
  const fs::path path = fs::temp_directory_path() / "ldsnap_io_test.bin";
  const std::string payload("\x00\x01LDSNAP\r\n\xFF", 11);
  io::write_text_file(path.string(), payload);
  EXPECT_EQ(io::read_text_file(path.string()), payload);
  EXPECT_FALSE(fs::exists(path.string() + ".tmp"))
      << "temp file must not survive a successful write";
  // Overwrite is atomic-replace, not append.
  io::write_text_file(path.string(), "short");
  EXPECT_EQ(io::read_text_file(path.string()), "short");
  fs::remove(path);
}

TEST(FileIo, WriteTextFileFailurePathThrows) {
  EXPECT_THROW(
      io::write_text_file("/nonexistent-dir-xyz/file.txt", "payload"),
      std::runtime_error);
}

TEST(FileIo, CsvWriterPropagatesStreamFailure) {
  std::ofstream out("/nonexistent-dir-xyz/out.csv");
  io::CsvWriter w(out);
  EXPECT_THROW(w.write_row({"a", "b"}), std::runtime_error);
}

TEST(FileIo, JsonWriterPropagatesStreamFailure) {
  std::ofstream out("/nonexistent-dir-xyz/out.json");
  io::JsonWriter json(out);
  EXPECT_THROW(json.begin_object(), std::runtime_error);
}

}  // namespace

// Appended: indexed-kernel compatibility. The scheduling kernel was swapped
// from a naive full scan to the VisIndex-pruned one; snapshots written by
// pre-index builds must keep working — same stage fingerprints (no silent
// cache invalidation) and byte-identical trace payloads.
namespace {

sim::SimulationConfig golden_sim_config() {
  sim::SimulationConfig config;
  config.duration_s = 300.0;
  config.step_s = 100.0;
  config.scheduler.beamspread = 5;
  return config;
}

TEST(IndexedKernelCompat, SimEpochsFingerprintIsStable) {
  snapshot::Fingerprint fp = snapshot::stage_fingerprint("sim.epochs");
  snapshot::mix(fp, golden_sim_config());
  // Captured from the pre-index build. The fingerprint mixes config fields
  // only, so swapping the kernel must not move it — a change here silently
  // invalidates every existing ldsnap cache entry.
  EXPECT_EQ(fp.hex(), "fef47cc646ddcf3e");
}

TEST(IndexedKernelCompat, TraceBlobMatchesPreIndexBuildByteForByte) {
  const auto profile =
      demand::SyntheticGenerator({.seed = 17, .scale = 0.01})
          .generate_profile();
  const sim::Simulation simulation(golden_sim_config(), profile);
  const auto trace = simulation.run(runtime::serial_executor());
  const std::string blob = snapshot::serialize(trace);
  // Size and digest of the blob the pre-index build serialized for this
  // exact scenario: a trace cached by an old build deserializes equal to a
  // fresh indexed-kernel run, so warm caches survive the kernel swap.
  EXPECT_EQ(blob.size(), 274U);
  snapshot::Fingerprint digest;
  digest.mix(blob);
  EXPECT_EQ(digest.hex(), "2b5efa2983576320");
  EXPECT_TRUE(snapshot::deserialize_epochs(blob) == trace);
}

TEST_F(StageCacheTest, UnwritableDirDegradesToRecomputeWithOneWarning) {
  // A stray regular file where the stage directory should be makes every
  // store fail (the test runs as root, so a read-only directory would not).
  // The cache must degrade to recompute-without-store: one stderr warning,
  // every store counted as a failure, every run_stage still answering.
  fs::create_directories(dir_);
  io::write_text_file((dir_ / "stage").string(), "not a directory");

  snapshot::StageCache cache(dir_.string());
  int computes = 0;
  const auto def = counted_profile_stage("stage", computes);

  ::testing::internal::CaptureStderr();
  const demand::DemandProfile first = snapshot::run_stage(&cache, def);
  const demand::DemandProfile second = snapshot::run_stage(&cache, def);
  const std::string warnings = ::testing::internal::GetCapturedStderr();

  EXPECT_EQ(computes, 2) << "nothing was stored, so nothing can hit";
  EXPECT_EQ(first.cells(), second.cells());
  EXPECT_EQ(cache.store_failures(), 2U);
  EXPECT_EQ(cache.hits(), 0U);
  const std::string needle = "is not writable";
  std::size_t count = 0;
  for (std::size_t pos = warnings.find(needle); pos != std::string::npos;
       pos = warnings.find(needle, pos + needle.size())) {
    ++count;
  }
  EXPECT_EQ(count, 1U) << "exactly one warning expected, got:\n" << warnings;
}

TEST_F(StageCacheTest, OversizedBlobIsABadBlobNotALoad) {
  snapshot::StageCache cache(dir_.string());
  const snapshot::Fingerprint fp = snapshot::stage_fingerprint("stage");
  cache.store("stage", fp, snapshot::serialize(small_profile()));
  ASSERT_TRUE(cache.load("stage", fp).has_value());
  ASSERT_EQ(cache.hits(), 1U);

  // A sparse file one byte over the cap: no disk, and never read.
  fs::resize_file(cache.blob_path("stage", fp), snapshot::kMaxBlobBytes + 1);
  EXPECT_FALSE(cache.load("stage", fp).has_value());
  EXPECT_EQ(cache.hits(), 1U);
  EXPECT_EQ(cache.misses(), 1U);

  // run_stage recomputes and the fresh store repairs the blob.
  int computes = 0;
  const demand::DemandProfile restored =
      snapshot::run_stage(&cache, counted_profile_stage("stage", computes));
  EXPECT_EQ(computes, 1);
  EXPECT_EQ(restored.cells(), small_profile().cells());
  EXPECT_EQ(fs::file_size(cache.blob_path("stage", fp)),
            snapshot::serialize(small_profile()).size());
}

}  // namespace

// ------------------------------------------------------------ golden bytes
//
// FNV-1a digests of every artifact kind's encoding and of the two text
// exports, over small seeded inputs. The codecs and the JSON writer may be
// rewritten for speed, but the bytes they produce are a file format: these
// digests must not move without a kFormatVersion bump (blobs) or a stated
// output change (exports).
namespace {

struct GoldenInputs {
  demand::DemandProfile profile;
  core::AnalysisResults analysis;
};

const GoldenInputs& golden_inputs() {
  static const GoldenInputs inputs = [] {
    const demand::SyntheticGenerator gen({.seed = 17, .scale = 0.01});
    GoldenInputs in;
    in.profile = gen.generate_profile();
    in.analysis = core::run_full_analysis(in.profile);
    return in;
  }();
  return inputs;
}

// "<size>:<fnv1a64 as 16 hex digits>".
std::string digest_of(std::string_view bytes) {
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(snapshot::fnv1a64(bytes)));
  return std::to_string(bytes.size()) + ":" + hex;
}

// national_analysis's results.json document, over `results`.
std::string results_json(const demand::DemandProfile& profile,
                         const core::AnalysisResults& results) {
  std::ostringstream out;
  io::JsonWriter json(out);
  json.begin_object();
  json.value("total_locations",
             static_cast<long long>(profile.total_locations()));
  json.value("peak_cell_locations",
             static_cast<long long>(profile.peak_cell_count()));
  json.value("peak_oversubscription", results.f1.peak_oversubscription);
  json.value("locations_above_20to1",
             static_cast<long long>(results.f1.locations_above_cap));
  json.value("unservable_at_20to1",
             static_cast<long long>(results.f1.locations_unservable_at_cap));
  json.begin_array("table2");
  for (const auto& row : results.table2) {
    json.begin_object();
    json.value("beamspread", row.beamspread);
    json.value("satellites_full_service", row.satellites_full_service);
    json.value("satellites_capped_20to1", row.satellites_capped);
    json.end_object();
  }
  json.end_array();
  json.begin_array("affordability");
  for (const auto& p : results.fig4) {
    json.begin_object();
    json.value("plan", p.plan.name);
    json.value("monthly_usd", p.plan.monthly_usd);
    json.value("locations_unable", p.locations_unable);
    json.value("fraction_unable", p.fraction_unable);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  out << '\n';
  return std::move(out).str();
}

TEST(GoldenBytes, EveryArtifactKind) {
  const GoldenInputs& in = golden_inputs();
  EXPECT_EQ(digest_of(snapshot::serialize(in.profile)), "7828:83ddf70c7dcce4da");
  EXPECT_EQ(digest_of(snapshot::serialize(in.analysis)), "5132:a296864a7f455966");

  const std::pair<market::SplitPolicy, const char*> markets[] = {
      {market::SplitPolicy::kExclusive, "724:d29ea17a4a85ac99"},
      {market::SplitPolicy::kProportional, "724:2b8c73830dd18942"},
      {market::SplitPolicy::kFairShare, "724:27313ead1e8c9fa4"}};
  for (const auto& [policy, golden] : markets) {
    market::MarketConfig config;
    config.operators = market::default_market();
    config.split.policy = policy;
    const market::MarketReport report =
        market::MarketSimulation(std::move(config))
            .run(in.profile, runtime::serial_executor());
    EXPECT_EQ(digest_of(snapshot::serialize(report)), golden)
        << to_string(policy);
  }

  const sim::Simulation simulation(golden_sim_config(), in.profile);
  EXPECT_EQ(digest_of(snapshot::serialize(
                simulation.run(runtime::serial_executor()))),
            "274:1472a28b86a64996");
}

// The analysis and market bytes at the paper's own scale (seed 42, scale 1),
// where the long-tail sweeps shed thousands of beams per curve rather than
// the handful the scale-0.01 inputs above reach.
TEST(GoldenBytes, FullScaleAnalysisAndMarkets) {
  const demand::DemandProfile profile =
      demand::SyntheticGenerator(demand::GeneratorConfig{}).generate_profile();
  EXPECT_EQ(digest_of(snapshot::serialize(core::run_full_analysis(profile))),
            "252680:9e7ab773a0b2d4d2");

  const std::pair<market::SplitPolicy, const char*> markets[] = {
      {market::SplitPolicy::kExclusive, "724:8502d03aa9a10f17"},
      {market::SplitPolicy::kProportional, "724:a625028a61853c48"},
      {market::SplitPolicy::kFairShare, "724:01a4f1641ecf20a4"}};
  for (const auto& [policy, golden] : markets) {
    market::MarketConfig config;
    config.operators = market::default_market();
    config.split.policy = policy;
    const market::MarketReport report =
        market::MarketSimulation(std::move(config))
            .run(profile, runtime::serial_executor());
    EXPECT_EQ(digest_of(snapshot::serialize(report)), golden)
        << to_string(policy);
  }
}

// The coverage_epoch benchmark's run at the paper's scale: the national
// profile at seed 42, shell 1, beamspread 5, 31 epochs at 60 s. Pins the
// stored trace and, since a trace keeps only per-epoch totals, every epoch's
// assignments and unassigned cells as well.
TEST(GoldenBytes, FullScaleEpochTrace) {
  const demand::DemandProfile profile =
      demand::SyntheticGenerator(demand::GeneratorConfig{}).generate_profile();
  sim::SimulationConfig config;
  config.scheduler.beamspread = 5;
  config.duration_s = 30.0 * 60.0;
  config.step_s = 60.0;
  const sim::Simulation simulation(config, profile);
  const std::vector<sim::EpochCoverage> trace =
      simulation.run(runtime::serial_executor());
  ASSERT_EQ(trace.size(), 31U);
  EXPECT_EQ(digest_of(snapshot::serialize(trace)), "1786:187695e467eab035");

  // Each epoch as little-endian u32s: assignment count, then (cell, sat,
  // beams) per assignment; unassigned count, then the cell indices.
  std::string bytes;
  const auto put = [&bytes](std::uint32_t v) {
    for (int b = 0; b < 4; ++b) {
      bytes.push_back(static_cast<char>(v >> (8 * b)));
    }
  };
  const sim::SimClock clock(config.duration_s, config.step_s);
  sim::ScheduleWorkspace ws;
  sim::ScheduleResult schedule;
  for (std::size_t e = 0; e < clock.epochs(); ++e) {
    orbit::propagate_all(simulation.orbits(), clock.time_at(e), ws.states);
    simulation.scheduler().schedule(ws.states, ws, schedule);
    put(static_cast<std::uint32_t>(schedule.assignments.size()));
    for (const sim::Assignment& a : schedule.assignments) {
      put(a.cell);
      put(a.sat);
      put(a.beams);
    }
    put(static_cast<std::uint32_t>(schedule.unassigned_cells.size()));
    for (const std::uint32_t ci : schedule.unassigned_cells) put(ci);
  }
  EXPECT_EQ(digest_of(bytes), "3322916:bc193a78059b1a4b");
}

TEST(GoldenBytes, GeoJsonAndResultsJson) {
  const GoldenInputs& in = golden_inputs();
  std::ostringstream geojson;
  demand::write_geojson(geojson, in.profile, hex::HexGrid());
  EXPECT_EQ(digest_of(geojson.str()), "42776:81b7d68b0bcb8a07");
  EXPECT_EQ(digest_of(results_json(in.profile, in.analysis)), "1459:3f5f793ef4a0e88d");
}

}  // namespace
