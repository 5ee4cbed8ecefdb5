#pragma once
// LDSNAP — the library's versioned little-endian binary snapshot container.
// A snapshot file holds one serialized pipeline artifact (see
// artifacts.hpp) as named sections, each carried with its own FNV-1a
// checksum so corruption is detected section-by-section:
//
//   offset 0 : char[6]  magic "LDSNAP"
//   offset 6 : u16      endian marker 0xFEFF (bytes FF FE when little-endian)
//   offset 8 : u16      format version (kFormatVersion)
//   offset 10: u16      artifact kind (ArtifactKind)
//   offset 12: u32      section count
//   then per section:
//     u32 name length, name bytes,
//     u64 payload length, payload bytes,
//     u64 chunked FNV-1a checksum of the payload
//
// All multi-byte integers are little-endian regardless of host order;
// doubles travel as the little-endian bytes of their IEEE-754 bit pattern
// (std::bit_cast). A fixed-width field is written and read in one step: on
// little-endian hosts its value is std::memcpy'd to or from the buffer
// (the object representation already is the wire order), elsewhere a shift
// loop assembles it byte by byte. No pointer punning anywhere, and never a
// raw cast of untrusted bytes. Readers are bounds-checked: every malformed
// input — truncation, bad magic, wrong endianness, unknown version,
// checksum mismatch, a vector count larger than the bytes left, trailing
// garbage — surfaces as a typed SnapshotError, not UB or std::bad_alloc.

#include <bit>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace leodivide::runtime {
class Executor;
}

namespace leodivide::snapshot {

/// Current LDSNAP format version. Bump on any layout change; readers
/// reject every version they do not know.
inline constexpr std::uint16_t kFormatVersion = 1;

/// The endianness canary written at offset 6. A snapshot produced by a
/// hypothetical big-endian writer reads back as 0xFFFE and is rejected.
inline constexpr std::uint16_t kEndianMarker = 0xFEFF;

/// The file magic ("LDSNAP", no terminator).
inline constexpr std::string_view kMagic{"LDSNAP"};

/// Which pipeline artifact a snapshot holds.
enum class ArtifactKind : std::uint16_t {
  // 1 is retired (it held location-level records): never reuse it.
  kProfile = 2,    ///< demand::DemandProfile (per-cell aggregates)
  kAnalysis = 3,   ///< core::AnalysisResults (sizing/affordability results)
  kEpochs = 4,     ///< std::vector<sim::EpochCoverage> (sim epoch summaries)
  // 5 is retired (it held event-engine traces): never reuse it.
  // 6 is retired (it held serve/'s delta journal): never reuse it.
  // 7 is retired (it held serve/'s on-disk region partials): never reuse it.
  kMarketReport = 8,  ///< market::MarketReport (multi-operator market run)
};

/// Human-readable artifact-kind name ("profile", "analysis", ...).
[[nodiscard]] std::string_view to_string(ArtifactKind kind) noexcept;

/// Typed error for every malformed, truncated or corrupted snapshot.
class SnapshotError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// 64-bit FNV-1a over a byte range, continuing from `seed` (pass the
/// default to start a fresh hash).
inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnvPrime = 0x00000100000001b3ULL;
[[nodiscard]] std::uint64_t fnv1a64(std::string_view bytes,
                                    std::uint64_t seed = kFnvOffset);

/// Section-payload checksum: the payload is split at fixed 1 MiB
/// boundaries, each chunk is FNV-1a hashed independently (in parallel over
/// `executor` — chunk boundaries are fixed, so the digest is identical for
/// every thread count), and the per-chunk digests are folded in chunk
/// order.
[[nodiscard]] std::uint64_t chunked_checksum(std::string_view bytes,
                                             runtime::Executor& executor);

/// chunked_checksum of every payload, hashed as one parallel batch over
/// all their chunks — the digests equal one chunked_checksum call each.
/// Snapshot writers and readers checksum all of a file's sections at once.
[[nodiscard]] std::vector<std::uint64_t> chunked_checksums(
    std::span<const std::string_view> payloads, runtime::Executor& executor);

namespace detail {

/// `v`'s little-endian bytes, written to `out` in one step.
template <typename U>
void store_le(char* out, U v) noexcept {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(out, &v, sizeof(U));
  } else {
    for (std::size_t b = 0; b < sizeof(U); ++b) {
      out[b] = static_cast<char>(v >> (8 * b));
    }
  }
}

/// The value whose little-endian bytes start at `in`.
template <typename U>
[[nodiscard]] U load_le(const char* in) noexcept {
  U v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, in, sizeof(U));
  } else {
    for (std::size_t b = 0; b < sizeof(U); ++b) {
      v |= static_cast<U>(static_cast<U>(static_cast<std::uint8_t>(in[b]))
                          << (8 * b));
    }
  }
  return v;
}

}  // namespace detail

/// Little-endian byte-buffer writer. Appends primitives to an owned
/// string, each fixed-width field in one append.
class ByteWriter {
 public:
  /// Makes room for `n` more bytes, so an encoder that knows its section
  /// size grows the buffer once.
  void reserve(std::size_t n) { buf_.reserve(buf_.size() + n); }

  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void u16(std::uint16_t v) { put(v); }
  void u32(std::uint32_t v) { put(v); }
  void u64(std::uint64_t v) { put(v); }
  void f64(double v) { put(std::bit_cast<std::uint64_t>(v)); }
  void bytes(std::string_view b) { buf_.append(b); }
  /// A u64 vector count, reserving room for `n` records of (at least)
  /// `record_bytes` each to follow.
  void count(std::size_t n, std::size_t record_bytes) {
    u64(n);
    reserve(n * record_bytes);
  }
  /// Length-prefixed string: u32 length + bytes. Throws SnapshotError for
  /// a string longer than ByteReader::kMaxStringLen, which no reader would
  /// accept back.
  void str(std::string_view s);

  [[nodiscard]] const std::string& buffer() const noexcept { return buf_; }
  [[nodiscard]] std::string take() && noexcept { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }

  /// Overwrite a field already written at byte `offset`.
  void u32_at(std::size_t offset, std::uint32_t v) { put_at(offset, v); }
  void u64_at(std::size_t offset, std::uint64_t v) { put_at(offset, v); }

 private:
  template <typename U>
  void put_at(std::size_t offset, U v) {
    assert(offset + sizeof(U) <= buf_.size());
    detail::store_le(buf_.data() + offset, v);
  }
  template <typename U>
  void put(U v) {
    char le[sizeof(U)];
    detail::store_le(le, v);
    buf_.append(le, sizeof(U));
  }

  std::string buf_;
};

/// Reads a run of fixed-size records whose total length ByteReader::records
/// has already checked, so no read here is bounds-checked again (a Debug
/// build asserts it). Holds a view into the reader's buffer.
class RecordReader {
 public:
  [[nodiscard]] std::uint8_t u8() noexcept {
    return static_cast<std::uint8_t>(*take(1));
  }
  [[nodiscard]] std::uint16_t u16() noexcept { return get<std::uint16_t>(); }
  [[nodiscard]] std::uint32_t u32() noexcept { return get<std::uint32_t>(); }
  [[nodiscard]] std::uint64_t u64() noexcept { return get<std::uint64_t>(); }
  [[nodiscard]] double f64() noexcept {
    return std::bit_cast<double>(get<std::uint64_t>());
  }
  /// True once every record byte has been read.
  [[nodiscard]] bool exhausted() const noexcept { return pos_ == end_; }

 private:
  friend class ByteReader;
  RecordReader(const char* begin, const char* end) noexcept
      : pos_(begin), end_(end) {}

  const char* take(std::size_t n) noexcept {
    assert(static_cast<std::size_t>(end_ - pos_) >= n &&
           "record layout longer than its declared size");
    const char* at = pos_;
    pos_ += n;
    return at;
  }
  template <typename U>
  [[nodiscard]] U get() noexcept {
    return detail::load_le<U>(take(sizeof(U)));
  }

  const char* pos_;
  const char* end_;
};

/// Bounds-checked little-endian reader over a borrowed byte range. Every
/// read validates the remaining length first and throws SnapshotError
/// (with the byte offset) on under-run.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) noexcept : data_(data) {}

  [[nodiscard]] std::uint8_t u8() {
    require(1);
    return static_cast<std::uint8_t>(data_[pos_++]);
  }
  [[nodiscard]] std::uint16_t u16() { return get<std::uint16_t>(); }
  [[nodiscard]] std::uint32_t u32() { return get<std::uint32_t>(); }
  [[nodiscard]] std::uint64_t u64() { return get<std::uint64_t>(); }
  [[nodiscard]] double f64() { return std::bit_cast<double>(u64()); }
  [[nodiscard]] std::string_view bytes(std::size_t n);
  /// Length-prefixed string written by ByteWriter::str. `max_len` guards
  /// against absurd lengths decoded from corrupted input.
  [[nodiscard]] std::string str(std::size_t max_len = kMaxStringLen);

  /// Reads a u64 vector count and checks that that many records of at
  /// least `min_record_bytes` each fit in the bytes left, so reserving
  /// `count` elements is bounded by the input's size. Throws SnapshotError
  /// otherwise.
  [[nodiscard]] std::size_t count(std::size_t min_record_bytes);

  /// Takes the next `n * record_bytes` bytes — checked once, here — as a
  /// RecordReader for `n` records of exactly `record_bytes` each.
  [[nodiscard]] RecordReader records(std::size_t n, std::size_t record_bytes);

  [[nodiscard]] std::size_t offset() const noexcept { return pos_; }
  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - pos_;
  }
  [[nodiscard]] bool exhausted() const noexcept { return pos_ == data_.size(); }
  /// Throws SnapshotError unless every byte has been consumed.
  void expect_exhausted(std::string_view what) const;

  static constexpr std::size_t kMaxStringLen = 1 << 20;

 private:
  void require(std::size_t n) const {
    if (n > data_.size() - pos_) truncated(n);
  }
  [[noreturn]] void truncated(std::size_t n) const;
  template <typename U>
  [[nodiscard]] U get() {
    require(sizeof(U));
    const U v = detail::load_le<U>(data_.data() + pos_);
    pos_ += sizeof(U);
    return v;
  }

  std::string_view data_;
  std::size_t pos_ = 0;
};

/// Builds one LDSNAP file in a single buffer. Each section's payload is
/// encoded in place, in add order; finish() fills in the section count and
/// every section's length and checksum (one parallel batch).
class SnapshotWriter {
 public:
  /// Sizes the buffer for `payload_bytes` of section payloads, so an
  /// artifact that knows its size grows it once.
  explicit SnapshotWriter(ArtifactKind kind, std::size_t payload_bytes = 0);

  /// Starts section `name` with room reserved for a `payload_bytes`
  /// payload, and returns the writer its payload goes to. The payload ends
  /// where the next section starts, or at finish().
  [[nodiscard]] ByteWriter& section(std::string_view name,
                                    std::size_t payload_bytes = 0);

  /// A section whose payload is already encoded.
  void add_section(std::string_view name, std::string_view payload) {
    section(name, payload.size()).bytes(payload);
  }

  /// Completes the file; the writer is spent afterwards.
  [[nodiscard]] std::string finish() &&;

 private:
  void end_section();

  struct Section {
    std::size_t length_at;   ///< offset of the u64 payload length
    std::size_t payload_at;  ///< offset of the first payload byte
    std::size_t length;      ///< payload bytes, set when the section ends
  };
  ByteWriter file_;
  std::vector<Section> sections_;
  bool open_ = false;  ///< the last section's payload is still being written
};

/// Parses and validates one LDSNAP file (header, bounds, per-section
/// checksums, no trailing garbage). Holds views into the caller's buffer,
/// which must outlive the reader.
class SnapshotReader {
 public:
  struct Section {
    std::string name;
    std::string_view payload;
    std::uint64_t checksum = 0;
  };

  /// Throws SnapshotError on any malformation.
  [[nodiscard]] static SnapshotReader parse(std::string_view file);

  [[nodiscard]] ArtifactKind kind() const noexcept { return kind_; }
  [[nodiscard]] std::uint16_t version() const noexcept { return version_; }
  [[nodiscard]] const std::vector<Section>& sections() const noexcept {
    return sections_;
  }
  /// Payload of the section named `name`; throws SnapshotError if absent.
  [[nodiscard]] std::string_view section(std::string_view name) const;

 private:
  SnapshotReader() = default;
  ArtifactKind kind_ = ArtifactKind::kProfile;
  std::uint16_t version_ = 0;
  std::vector<Section> sections_;
};

}  // namespace leodivide::snapshot
