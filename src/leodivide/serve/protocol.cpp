#include "leodivide/serve/protocol.hpp"

#include <utility>

#include "leodivide/runtime/executor.hpp"

namespace leodivide::serve::protocol {

namespace {

using snapshot::ByteReader;
using snapshot::ByteWriter;

// Body checksums run on the serial executor: frames are small (one chunk),
// and sessions checksum concurrently — the global pool must not be a
// hidden serialization point (or a reentrancy hazard) here. The digest is
// identical either way; chunk boundaries are fixed.
[[nodiscard]] std::uint64_t body_checksum(std::string_view body) {
  return snapshot::chunked_checksum(body, runtime::serial_executor());
}

// Smallest wire size of one DeltaOp (an empty plan name): the bound the
// ApplyDelta decoder checks its op count against before reserving.
constexpr std::size_t kDeltaOpMinBytes = 1 + 8 + 8 + 4 + 4 + 4 + 8;

void write_delta_op(ByteWriter& w, const demand::DeltaOp& op) {
  w.u8(static_cast<std::uint8_t>(op.kind));
  w.f64(op.position.lat_deg);
  w.f64(op.position.lon_deg);
  w.u32(op.count);
  w.u32(op.county_index);
  w.str(op.plan_name);
  w.f64(op.value);
}

// Throws SnapshotError on an unknown kind code, as ByteReader does on a
// short read, so decode_payload names the payload either way.
demand::DeltaOp read_delta_op(ByteReader& r) {
  demand::DeltaOp op;
  const std::uint8_t kind = r.u8();
  if (kind < static_cast<std::uint8_t>(demand::DeltaKind::kAddLocations) ||
      kind > static_cast<std::uint8_t>(demand::DeltaKind::kSetCountyIncome)) {
    throw snapshot::SnapshotError("delta op: unknown kind code " +
                                  std::to_string(kind));
  }
  op.kind = static_cast<demand::DeltaKind>(kind);
  op.position.lat_deg = r.f64();
  op.position.lon_deg = r.f64();
  op.count = r.u32();
  op.county_index = r.u32();
  op.plan_name = r.str();
  op.value = r.f64();
  return op;
}

[[noreturn]] void fail(const std::string& what) {
  throw ProtocolError("LSRV: " + what);
}

// Runs a payload decoder, converting ByteReader's SnapshotError (bounds,
// string limits) into the protocol's typed error.
template <typename Fn>
auto decode_payload(std::string_view what, Fn&& fn) {
  try {
    return fn();
  } catch (const snapshot::SnapshotError& e) {
    throw ProtocolError("LSRV: bad " + std::string(what) + " payload: " +
                        e.what());
  }
}

}  // namespace

std::string_view to_string(MsgType type) noexcept {
  switch (type) {
    case MsgType::kHello: return "hello";
    case MsgType::kApplyDelta: return "apply_delta";
    case MsgType::kQueryResize: return "query_resize";
    case MsgType::kQueryAffordability: return "query_affordability";
    case MsgType::kQueryServedFraction: return "query_served_fraction";
    case MsgType::kStats: return "stats";
    case MsgType::kShutdown: return "shutdown";
    case MsgType::kHelloReply: return "hello_reply";
    case MsgType::kDeltaApplied: return "delta_applied";
    case MsgType::kResizeResult: return "resize_result";
    case MsgType::kAffordabilityResult: return "affordability_result";
    case MsgType::kServedFractionResult: return "served_fraction_result";
    case MsgType::kStatsReply: return "stats_reply";
    case MsgType::kShutdownAck: return "shutdown_ack";
    case MsgType::kError: return "error";
  }
  return "unknown";
}

std::string encode_frame(MsgType type, std::string_view payload) {
  ByteWriter body;
  body.u16(static_cast<std::uint16_t>(type));
  body.u16(0);  // reserved
  body.bytes(payload);
  const std::string body_bytes = std::move(body).take();

  const std::uint64_t frame_len = kHeaderBytes + body_bytes.size();
  if (frame_len > kMaxFrameBytes) {
    fail("frame of " + std::to_string(frame_len) + " byte(s) exceeds the " +
         std::to_string(kMaxFrameBytes) + "-byte limit");
  }

  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(frame_len));
  w.bytes(kFrameMagic);
  w.u16(snapshot::kEndianMarker);
  w.u16(kProtocolVersion);
  w.u64(body_checksum(body_bytes));
  w.bytes(body_bytes);
  return std::move(w).take();
}

void FrameDecoder::feed(std::string_view bytes) {
  // Compact consumed bytes before growing; a long-lived session must not
  // accumulate every frame it ever decoded.
  if (pos_ > 0 && (pos_ >= buf_.size() || pos_ > (64u << 10))) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  buf_.append(bytes);
}

std::optional<Frame> FrameDecoder::next() {
  const std::string_view avail = std::string_view(buf_).substr(pos_);
  if (avail.size() < 4) return std::nullopt;

  ByteReader len_reader(avail);
  const std::uint32_t frame_len = len_reader.u32();
  // An impossible length prefix is provable malformation right now; do not
  // wait for (or worse, allocate) the claimed bytes.
  if (frame_len < kMinFrameLen) {
    fail("frame length " + std::to_string(frame_len) + " below the " +
         std::to_string(kMinFrameLen) + "-byte minimum");
  }
  if (frame_len > kMaxFrameBytes) {
    fail("frame length " + std::to_string(frame_len) + " exceeds the " +
         std::to_string(kMaxFrameBytes) + "-byte limit");
  }

  // Validate the header eagerly, as soon as its bytes are in: a client
  // that is not speaking LSRV should be rejected on its first bytes.
  if (avail.size() >= 4 + kFrameMagic.size()) {
    const std::string_view magic = avail.substr(4, kFrameMagic.size());
    if (magic != kFrameMagic) fail("bad magic (not an LSRV frame)");
  }
  if (avail.size() >= 4 + kFrameMagic.size() + 2) {
    ByteReader hdr(avail.substr(4 + kFrameMagic.size()));
    const std::uint16_t endian = hdr.u16();
    if (endian != snapshot::kEndianMarker) {
      if (endian == 0xFFFE) {
        fail("byte-swapped endian marker (frame written on a big-endian "
             "host)");
      }
      fail("bad endian marker");
    }
    if (avail.size() >= 4 + kFrameMagic.size() + 4) {
      const std::uint16_t version = hdr.u16();
      if (version != kProtocolVersion) {
        fail("unsupported protocol version " + std::to_string(version) +
             " (decoder understands " + std::to_string(kProtocolVersion) +
             ")");
      }
    }
  }

  if (avail.size() < 4u + frame_len) return std::nullopt;

  ByteReader r(avail.substr(4, frame_len));
  (void)r.bytes(kFrameMagic.size());  // validated above
  (void)r.u16();
  (void)r.u16();
  const std::uint64_t stored = r.u64();
  const std::string_view body = r.bytes(frame_len - kHeaderBytes);
  if (const std::uint64_t got = body_checksum(body); got != stored) {
    fail("body checksum mismatch (stored " + std::to_string(stored) +
         ", computed " + std::to_string(got) + ")");
  }

  ByteReader b(body);
  Frame frame;
  frame.type = static_cast<MsgType>(b.u16());
  if (const std::uint16_t reserved = b.u16(); reserved != 0) {
    fail("nonzero reserved field " + std::to_string(reserved));
  }
  frame.payload = std::string(b.bytes(b.remaining()));
  pos_ += 4u + frame_len;
  return frame;
}

// ------------------------------------------------------------- messages --

std::string encode(const HelloRequest& m) {
  ByteWriter w;
  w.str(m.client);
  return std::move(w).take();
}

HelloRequest decode_hello_request(std::string_view payload) {
  return decode_payload("hello", [&] {
    ByteReader r(payload);
    HelloRequest m;
    m.client = r.str();
    r.expect_exhausted("hello payload");
    return m;
  });
}

std::string encode(const HelloReply& m) {
  ByteWriter w;
  w.u16(m.protocol_version);
  w.str(m.server);
  w.u64(m.cells);
  w.u64(m.counties);
  w.u64(m.regions);
  w.u8(m.paranoid ? 1 : 0);
  return std::move(w).take();
}

HelloReply decode_hello_reply(std::string_view payload) {
  return decode_payload("hello_reply", [&] {
    ByteReader r(payload);
    HelloReply m;
    m.protocol_version = r.u16();
    m.server = r.str();
    m.cells = r.u64();
    m.counties = r.u64();
    m.regions = r.u64();
    m.paranoid = r.u8() != 0;
    r.expect_exhausted("hello_reply payload");
    return m;
  });
}

std::string encode(const ApplyDeltaRequest& m) {
  ByteWriter w;
  w.u64(m.ops.size());
  for (const demand::DeltaOp& op : m.ops) write_delta_op(w, op);
  return std::move(w).take();
}

ApplyDeltaRequest decode_apply_delta_request(std::string_view payload) {
  return decode_payload("apply_delta", [&] {
    ByteReader r(payload);
    ApplyDeltaRequest m;
    const std::size_t n = r.count(kDeltaOpMinBytes);
    m.ops.reserve(n);
    for (std::size_t i = 0; i < n; ++i) m.ops.push_back(read_delta_op(r));
    r.expect_exhausted("apply_delta payload");
    return m;
  });
}

std::string encode(const DeltaAppliedReply& m) {
  ByteWriter w;
  w.u64(m.ops_applied);
  w.u64(m.dirty_regions);
  w.u64(m.cells_touched);
  w.u64(m.journal_length);
  return std::move(w).take();
}

DeltaAppliedReply decode_delta_applied_reply(std::string_view payload) {
  return decode_payload("delta_applied", [&] {
    ByteReader r(payload);
    DeltaAppliedReply m;
    m.ops_applied = r.u64();
    m.dirty_regions = r.u64();
    m.cells_touched = r.u64();
    m.journal_length = r.u64();
    r.expect_exhausted("delta_applied payload");
    return m;
  });
}

std::string encode(const QueryResizeRequest& m) {
  ByteWriter w;
  w.f64(m.beamspread);
  w.f64(m.oversub_cap);
  return std::move(w).take();
}

QueryResizeRequest decode_query_resize_request(std::string_view payload) {
  return decode_payload("query_resize", [&] {
    ByteReader r(payload);
    QueryResizeRequest m;
    m.beamspread = r.f64();
    m.oversub_cap = r.f64();
    r.expect_exhausted("query_resize payload");
    return m;
  });
}

std::string encode(const ResizeReply& m) {
  ByteWriter w;
  w.f64(m.full_satellites);
  w.f64(m.full_binding_lat_deg);
  w.u32(m.full_beams);
  w.u64(m.full_cell_index);
  w.f64(m.capped_satellites);
  w.f64(m.capped_binding_lat_deg);
  w.u32(m.capped_beams);
  w.u64(m.capped_cell_index);
  return std::move(w).take();
}

ResizeReply decode_resize_reply(std::string_view payload) {
  return decode_payload("resize_result", [&] {
    ByteReader r(payload);
    ResizeReply m;
    m.full_satellites = r.f64();
    m.full_binding_lat_deg = r.f64();
    m.full_beams = r.u32();
    m.full_cell_index = r.u64();
    m.capped_satellites = r.f64();
    m.capped_binding_lat_deg = r.f64();
    m.capped_beams = r.u32();
    m.capped_cell_index = r.u64();
    r.expect_exhausted("resize_result payload");
    return m;
  });
}

std::string encode(const QueryAffordabilityRequest& m) {
  ByteWriter w;
  w.str(m.plan_name);
  w.f64(m.threshold);
  return std::move(w).take();
}

QueryAffordabilityRequest decode_query_affordability_request(
    std::string_view payload) {
  return decode_payload("query_affordability", [&] {
    ByteReader r(payload);
    QueryAffordabilityRequest m;
    m.plan_name = r.str();
    m.threshold = r.f64();
    r.expect_exhausted("query_affordability payload");
    return m;
  });
}

std::string encode(const AffordabilityReply& m) {
  ByteWriter w;
  w.str(m.plan_name);
  w.f64(m.monthly_usd);
  w.f64(m.income_required_usd);
  w.f64(m.locations_unable);
  w.f64(m.fraction_unable);
  return std::move(w).take();
}

AffordabilityReply decode_affordability_reply(std::string_view payload) {
  return decode_payload("affordability_result", [&] {
    ByteReader r(payload);
    AffordabilityReply m;
    m.plan_name = r.str();
    m.monthly_usd = r.f64();
    m.income_required_usd = r.f64();
    m.locations_unable = r.f64();
    m.fraction_unable = r.f64();
    r.expect_exhausted("affordability_result payload");
    return m;
  });
}

std::string encode(const QueryServedFractionRequest& m) {
  ByteWriter w;
  w.f64(m.beamspread);
  w.f64(m.oversub);
  return std::move(w).take();
}

QueryServedFractionRequest decode_query_served_fraction_request(
    std::string_view payload) {
  return decode_payload("query_served_fraction", [&] {
    ByteReader r(payload);
    QueryServedFractionRequest m;
    m.beamspread = r.f64();
    m.oversub = r.f64();
    r.expect_exhausted("query_served_fraction payload");
    return m;
  });
}

std::string encode(const ServedFractionReply& m) {
  ByteWriter w;
  w.f64(m.cell_fraction);
  w.f64(m.location_fraction);
  w.u64(m.served_cells);
  w.u64(m.total_cells);
  w.u64(m.served_locations);
  w.u64(m.total_locations);
  return std::move(w).take();
}

ServedFractionReply decode_served_fraction_reply(std::string_view payload) {
  return decode_payload("served_fraction_result", [&] {
    ByteReader r(payload);
    ServedFractionReply m;
    m.cell_fraction = r.f64();
    m.location_fraction = r.f64();
    m.served_cells = r.u64();
    m.total_cells = r.u64();
    m.served_locations = r.u64();
    m.total_locations = r.u64();
    r.expect_exhausted("served_fraction_result payload");
    return m;
  });
}

std::string encode(const StatsReply& m) {
  ByteWriter w;
  w.u64(m.counters.size());
  for (const auto& [name, value] : m.counters) {
    w.str(name);
    w.u64(value);
  }
  return std::move(w).take();
}

StatsReply decode_stats_reply(std::string_view payload) {
  return decode_payload("stats_reply", [&] {
    ByteReader r(payload);
    StatsReply m;
    // Each counter costs at least a name length prefix plus the value.
    const std::size_t n = r.count(4 + 8);
    m.counters.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      std::string name = r.str();
      const std::uint64_t value = r.u64();
      m.counters.emplace_back(std::move(name), value);
    }
    r.expect_exhausted("stats_reply payload");
    return m;
  });
}

std::string encode(const ErrorReply& m) {
  ByteWriter w;
  w.str(m.message);
  return std::move(w).take();
}

ErrorReply decode_error_reply(std::string_view payload) {
  return decode_payload("error", [&] {
    ByteReader r(payload);
    ErrorReply m;
    m.message = r.str();
    r.expect_exhausted("error payload");
    return m;
  });
}

}  // namespace leodivide::serve::protocol
