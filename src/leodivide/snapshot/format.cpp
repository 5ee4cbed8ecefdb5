#include "leodivide/snapshot/format.hpp"

#include <utility>

#include "leodivide/runtime/executor.hpp"

namespace leodivide::snapshot {

namespace {

// Fixed chunk size for chunked_checksum. Boundaries must not depend on the
// executor's concurrency or the digest would vary with the thread count.
constexpr std::size_t kChecksumChunk = 1 << 20;

// What a retired ArtifactKind value held, or null for a kind never
// retired. Retired values are never reused: kind 1 held location-level
// records, kind 5 event-engine traces, kind 6 serve/'s delta journal,
// kind 7 serve/'s on-disk region partials (old cache dirs still hold such
// files). parse rejects them by name rather than handing a reader a kind
// it has no case for.
const char* retired_kind(std::uint16_t kind) noexcept {
  switch (kind) {
    case 1: return "locations";
    case 5: return "event trace";
    case 6: return "delta journal";
    case 7: return "serve partial";
    default: return nullptr;
  }
}

[[noreturn]] void fail(std::string_view what, std::size_t offset) {
  throw SnapshotError("LDSNAP: " + std::string(what) + " at byte offset " +
                      std::to_string(offset));
}

}  // namespace

std::string_view to_string(ArtifactKind kind) noexcept {
  switch (kind) {
    case ArtifactKind::kProfile: return "profile";
    case ArtifactKind::kAnalysis: return "analysis";
    case ArtifactKind::kEpochs: return "epochs";
    case ArtifactKind::kMarketReport: return "market_report";
  }
  return "unknown";
}

std::uint64_t fnv1a64(std::string_view bytes, std::uint64_t seed) {
  std::uint64_t h = seed;
  for (char c : bytes) {
    h ^= static_cast<std::uint8_t>(c);
    h *= kFnvPrime;
  }
  return h;
}

std::vector<std::uint64_t> chunked_checksums(
    std::span<const std::string_view> payloads, runtime::Executor& executor) {
  // One task per (payload, chunk) across the whole batch.
  struct Chunk {
    std::size_t payload;
    std::size_t offset;
  };
  std::vector<Chunk> chunks;
  for (std::size_t p = 0; p < payloads.size(); ++p) {
    for (std::size_t lo = 0; lo < payloads[p].size(); lo += kChecksumChunk) {
      chunks.push_back({p, lo});
    }
  }
  std::vector<std::uint64_t> digests(chunks.size());
  // leolint:allow(parallel-capture): tasks only read chunks and each writes only its own digests[i] slot
  executor.run_tasks(chunks.size(), [payloads, &chunks, &digests](std::size_t i) {
    digests[i] = fnv1a64(
        payloads[chunks[i].payload].substr(chunks[i].offset, kChecksumChunk));
  });
  // Fold each payload's chunk digests in chunk order: feed each digest's
  // eight little-endian bytes through the running FNV-1a state. An empty
  // payload folds nothing and keeps fnv1a64("") = kFnvOffset.
  std::vector<std::uint64_t> out(payloads.size(), kFnvOffset);
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    std::uint64_t& h = out[chunks[i].payload];
    for (int b = 0; b < 8; ++b) {
      h ^= static_cast<std::uint8_t>(digests[i] >> (8 * b));
      h *= kFnvPrime;
    }
  }
  return out;
}

std::uint64_t chunked_checksum(std::string_view bytes,
                               runtime::Executor& executor) {
  return chunked_checksums({&bytes, 1}, executor).front();
}

// ------------------------------------------------------------ ByteWriter --

void ByteWriter::str(std::string_view s) {
  if (s.size() > ByteReader::kMaxStringLen) {
    throw SnapshotError("LDSNAP: cannot write a " + std::to_string(s.size()) +
                        "-byte string (limit " +
                        std::to_string(ByteReader::kMaxStringLen) + ")");
  }
  u32(static_cast<std::uint32_t>(s.size()));
  bytes(s);
}

// ------------------------------------------------------------ ByteReader --

void ByteReader::truncated(std::size_t n) const {
  fail("truncated input (need " + std::to_string(n) + " more byte(s), have " +
           std::to_string(data_.size() - pos_) + ")",
       pos_);
}

std::string_view ByteReader::bytes(std::size_t n) {
  require(n);
  const std::string_view out = data_.substr(pos_, n);
  pos_ += n;
  return out;
}

std::string ByteReader::str(std::size_t max_len) {
  const std::uint32_t n = u32();
  if (n > max_len) {
    fail("string length " + std::to_string(n) + " exceeds limit " +
             std::to_string(max_len),
         pos_ - 4);
  }
  return std::string(bytes(n));
}

std::size_t ByteReader::count(std::size_t min_record_bytes) {
  const std::uint64_t n = u64();
  if (n > remaining() / min_record_bytes) {
    fail("count " + std::to_string(n) + " of " +
             std::to_string(min_record_bytes) + "-byte record(s) exceeds the " +
             std::to_string(remaining()) + " byte(s) left",
         pos_ - 8);
  }
  return static_cast<std::size_t>(n);
}

RecordReader ByteReader::records(std::size_t n, std::size_t record_bytes) {
  if (n > remaining() / record_bytes) {
    fail(std::to_string(n) + " record(s) of " + std::to_string(record_bytes) +
             " byte(s) exceed the " + std::to_string(remaining()) +
             " byte(s) left",
         pos_);
  }
  const char* begin = data_.data() + pos_;
  pos_ += n * record_bytes;
  return RecordReader(begin, data_.data() + pos_);
}

void ByteReader::expect_exhausted(std::string_view what) const {
  if (!exhausted()) {
    fail(std::string(what) + ": " + std::to_string(remaining()) +
             " trailing byte(s)",
         pos_);
  }
}

// --------------------------------------------------------- writer/reader --

// The u32 section count follows the magic and three u16 header fields.
constexpr std::size_t kSectionCountAt = kMagic.size() + 2 + 2 + 2;

// Header, plus name, length and checksum fields for a few sections.
constexpr std::size_t kFramingBytes = kSectionCountAt + 4 + 4 * (4 + 32 + 16);

SnapshotWriter::SnapshotWriter(ArtifactKind kind, std::size_t payload_bytes) {
  file_.reserve(kFramingBytes + payload_bytes);
  file_.bytes(kMagic);
  file_.u16(kEndianMarker);
  file_.u16(kFormatVersion);
  file_.u16(static_cast<std::uint16_t>(kind));
  file_.u32(0);  // section count, filled in by finish()
}

ByteWriter& SnapshotWriter::section(std::string_view name,
                                    std::size_t payload_bytes) {
  end_section();
  file_.reserve(4 + name.size() + 8 + payload_bytes + 8);
  file_.str(name);
  sections_.push_back({file_.size(), file_.size() + 8, 0});
  file_.u64(0);  // payload length, filled in by end_section()
  open_ = true;
  return file_;
}

void SnapshotWriter::end_section() {
  if (!open_) return;
  Section& s = sections_.back();
  s.length = file_.size() - s.payload_at;
  file_.u64_at(s.length_at, s.length);
  file_.u64(0);  // checksum, filled in by finish()
  open_ = false;
}

std::string SnapshotWriter::finish() && {
  end_section();
  file_.u32_at(kSectionCountAt, static_cast<std::uint32_t>(sections_.size()));
  const std::string_view file = file_.buffer();
  std::vector<std::string_view> payloads;
  payloads.reserve(sections_.size());
  for (const Section& s : sections_) {
    payloads.push_back(file.substr(s.payload_at, s.length));
  }
  const std::vector<std::uint64_t> checksums =
      chunked_checksums(payloads, runtime::global_executor());
  for (std::size_t i = 0; i < sections_.size(); ++i) {
    const Section& s = sections_[i];
    file_.u64_at(s.payload_at + s.length, checksums[i]);
  }
  return std::move(file_).take();
}

SnapshotReader SnapshotReader::parse(std::string_view file) {
  ByteReader r(file);
  if (std::string_view magic = r.bytes(kMagic.size()); magic != kMagic) {
    fail("bad magic (not an LDSNAP file)", 0);
  }
  if (const std::uint16_t endian = r.u16(); endian != kEndianMarker) {
    if (endian == 0xFFFE) {
      fail("byte-swapped endian marker (snapshot written on a big-endian "
           "host)",
           kMagic.size());
    }
    fail("bad endian marker", kMagic.size());
  }
  SnapshotReader out;
  out.version_ = r.u16();
  if (out.version_ != kFormatVersion) {
    fail("unsupported format version " + std::to_string(out.version_) +
             " (reader understands " + std::to_string(kFormatVersion) + ")",
         kMagic.size() + 2);
  }
  const std::uint16_t kind = r.u16();
  if (const char* retired = retired_kind(kind)) {
    fail("retired artifact kind " + std::to_string(kind) + " (" + retired +
             "; no reader decodes it)",
         kMagic.size() + 4);
  }
  if (kind < static_cast<std::uint16_t>(ArtifactKind::kProfile) ||
      kind > static_cast<std::uint16_t>(ArtifactKind::kMarketReport)) {
    fail("unknown artifact kind " + std::to_string(kind), kMagic.size() + 4);
  }
  out.kind_ = static_cast<ArtifactKind>(kind);
  // Each section costs at least its name length, payload length and
  // checksum fields.
  const std::uint32_t n_sections = r.u32();
  if (n_sections > r.remaining() / (4 + 8 + 8)) {
    fail("section count " + std::to_string(n_sections) + " exceeds the " +
             std::to_string(r.remaining()) + " byte(s) left",
         r.offset() - 4);
  }
  out.sections_.reserve(n_sections);
  for (std::uint32_t i = 0; i < n_sections; ++i) {
    Section s;
    s.name = r.str();
    const std::uint64_t len = r.u64();
    if (len > r.remaining()) {
      fail("section '" + s.name + "' claims " + std::to_string(len) +
               " byte(s) but only " + std::to_string(r.remaining()) +
               " remain",
           r.offset() - 8);
    }
    s.payload = r.bytes(static_cast<std::size_t>(len));
    s.checksum = r.u64();
    out.sections_.push_back(std::move(s));
  }
  r.expect_exhausted("after last section");
  std::vector<std::string_view> payloads;
  payloads.reserve(out.sections_.size());
  for (const Section& s : out.sections_) payloads.push_back(s.payload);
  const std::vector<std::uint64_t> checksums =
      chunked_checksums(payloads, runtime::global_executor());
  for (std::size_t i = 0; i < out.sections_.size(); ++i) {
    const Section& s = out.sections_[i];
    if (checksums[i] != s.checksum) {
      throw SnapshotError("LDSNAP: checksum mismatch in section '" + s.name +
                          "' (stored " + std::to_string(s.checksum) +
                          ", computed " + std::to_string(checksums[i]) + ")");
    }
  }
  return out;
}

std::string_view SnapshotReader::section(std::string_view name) const {
  for (const Section& s : sections_) {
    if (s.name == name) return s.payload;
  }
  throw SnapshotError("LDSNAP: missing section '" + std::string(name) + "'");
}

}  // namespace leodivide::snapshot
