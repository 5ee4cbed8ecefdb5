// Adversarial and round-trip coverage for the LSRV wire protocol
// (serve/protocol), in the spirit of test_io_adversarial.cpp: every
// malformed input — truncation at every byte, oversized/undersized length
// prefixes, header corruption, checksum bit flips, random garbage — must
// surface as a typed ProtocolError or a clean "need more bytes", never a
// crash, hang, allocation blow-up, or foreign exception. CI runs this
// suite under ASan/UBSan.

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "leodivide/runtime/executor.hpp"
#include "leodivide/serve/protocol.hpp"
#include "leodivide/snapshot/format.hpp"
#include "leodivide/stats/rng.hpp"

namespace {

using namespace leodivide;
using namespace leodivide::serve::protocol;

demand::DeltaOp sample_op() {
  demand::DeltaOp op;
  op.kind = demand::DeltaKind::kAddLocations;
  op.position = {40.25, -101.5};
  op.count = 120;
  op.county_index = 7;
  op.value = 0.0;
  return op;
}

// One valid frame with a nontrivial payload, used as the mutation corpus.
std::string valid_frame() {
  ApplyDeltaRequest req;
  req.ops = {sample_op(), sample_op()};
  return encode_frame(MsgType::kApplyDelta, encode(req));
}

// ------------------------------------------------------- message codecs --

TEST(ServeProtocolCodec, HelloRoundTrip) {
  const HelloRequest req{"client-x"};
  EXPECT_EQ(decode_hello_request(encode(req)), req);

  HelloReply reply;
  reply.server = "unit-test";
  reply.cells = 914;
  reply.counties = 741;
  reply.regions = 33;
  reply.paranoid = true;
  EXPECT_EQ(decode_hello_reply(encode(reply)), reply);
}

// One op of every DeltaKind; the plan name's spaces must survive the trip.
ApplyDeltaRequest every_kind_request() {
  ApplyDeltaRequest req;
  demand::DeltaOp add;
  add.kind = demand::DeltaKind::kAddLocations;
  add.position = {39.1, -75.4};
  add.count = 37;
  add.county_index = 1;
  req.ops.push_back(add);
  demand::DeltaOp remove = add;
  remove.kind = demand::DeltaKind::kRemoveLocations;
  remove.count = 12;
  req.ops.push_back(remove);
  demand::DeltaOp upgrade = add;
  upgrade.kind = demand::DeltaKind::kUpgradeLocations;
  upgrade.count = 3;
  req.ops.push_back(upgrade);
  demand::DeltaOp price;
  price.kind = demand::DeltaKind::kSetPlanPrice;
  price.plan_name = "Starlink Residential";
  price.value = 95.0;
  req.ops.push_back(price);
  demand::DeltaOp income;
  income.kind = demand::DeltaKind::kSetCountyIncome;
  income.county_index = 0;
  income.value = 48213.5;
  req.ops.push_back(income);
  return req;
}

// A delta journal (the ops a service has applied, in order) has no
// artifact kind of its own; its bytes are an ApplyDelta request's op list.
TEST(Artifacts, DeltaJournalRoundTripExact) {
  const ApplyDeltaRequest req = every_kind_request();
  ASSERT_EQ(req.ops.back().kind, demand::DeltaKind::kSetCountyIncome);
  for (std::size_t k = 0; k < req.ops.size(); ++k) {
    EXPECT_EQ(static_cast<std::size_t>(req.ops[k].kind), k + 1);
  }
  EXPECT_EQ(decode_apply_delta_request(encode(req)), req);
}

TEST(Artifacts, EmptyDeltaJournalRoundTrips) {
  EXPECT_TRUE(decode_apply_delta_request(encode(ApplyDeltaRequest{}))
                  .ops.empty());
}

TEST(ServeProtocolCodec, ApplyDeltaEveryTruncationThrows) {
  const std::string payload = encode(every_kind_request());
  for (std::size_t len = 0; len < payload.size(); ++len) {
    EXPECT_THROW((void)decode_apply_delta_request(payload.substr(0, len)),
                 ProtocolError)
        << "prefix length " << len << " decoded";
  }
}

TEST(ServeProtocolCodec, ApplyDeltaRoundTrip) {
  ApplyDeltaRequest req;
  demand::DeltaOp price;
  price.kind = demand::DeltaKind::kSetPlanPrice;
  price.plan_name = "Starlink Residential";
  price.value = 95.0;
  req.ops = {sample_op(), price};
  EXPECT_EQ(decode_apply_delta_request(encode(req)), req);

  const DeltaAppliedReply reply{2, 1, 1, 17};
  EXPECT_EQ(decode_delta_applied_reply(encode(reply)), reply);
}

TEST(ServeProtocolCodec, QueryAndReplyRoundTrips) {
  const QueryResizeRequest resize{10.0, 20.0};
  EXPECT_EQ(decode_query_resize_request(encode(resize)), resize);

  ResizeReply rr;
  rr.full_satellites = 8287.6866502182111;
  rr.full_binding_lat_deg = 36.949308008585838;
  rr.full_beams = 4;
  rr.full_cell_index = 12;
  rr.capped_satellites = 8430.5056443500562;
  rr.capped_binding_lat_deg = 36.374430579709426;
  rr.capped_beams = 4;
  rr.capped_cell_index = 99;
  EXPECT_EQ(decode_resize_reply(encode(rr)), rr);

  const QueryAffordabilityRequest aff{"Starlink Residential", 0.03};
  EXPECT_EQ(decode_query_affordability_request(encode(aff)), aff);

  AffordabilityReply ar;
  ar.plan_name = "Starlink Residential";
  ar.monthly_usd = 120.0;
  ar.income_required_usd = 72000.0;
  ar.locations_unable = 173958.0;
  ar.fraction_unable = 0.7446;
  EXPECT_EQ(decode_affordability_reply(encode(ar)), ar);

  const QueryServedFractionRequest served{10.0, 20.0};
  EXPECT_EQ(decode_query_served_fraction_request(encode(served)), served);

  ServedFractionReply sr;
  sr.cell_fraction = 0.78;
  sr.location_fraction = 0.29;
  sr.served_cells = 714;
  sr.total_cells = 914;
  sr.served_locations = 68821;
  sr.total_locations = 233625;
  EXPECT_EQ(decode_served_fraction_reply(encode(sr)), sr);

  StatsReply stats;
  stats.counters = {{"serve.cells", 914}, {"serve.requests", 3}};
  EXPECT_EQ(decode_stats_reply(encode(stats)), stats);

  const ErrorReply err{"plan table: unknown plan 'nope'"};
  EXPECT_EQ(decode_error_reply(encode(err)), err);
}

TEST(ServeProtocolCodec, TruncatedPayloadsThrow) {
  const std::string hello = encode(HelloReply{});
  for (std::size_t n = 0; n < hello.size(); ++n) {
    EXPECT_THROW((void)decode_hello_reply(hello.substr(0, n)), ProtocolError)
        << "prefix length " << n;
  }
  const std::string delta = encode([] {
    ApplyDeltaRequest r;
    r.ops = {sample_op()};
    return r;
  }());
  for (std::size_t n = 0; n < delta.size(); ++n) {
    EXPECT_THROW((void)decode_apply_delta_request(delta.substr(0, n)),
                 ProtocolError)
        << "prefix length " << n;
  }
}

TEST(ServeProtocolCodec, TrailingGarbageAfterPayloadThrows) {
  const std::string ok = encode(QueryResizeRequest{10.0, 20.0});
  EXPECT_THROW((void)decode_query_resize_request(ok + "x"), ProtocolError);
}

TEST(ServeProtocolCodec, OversizedOpCountIsRejectedBeforeAllocation) {
  // Claim 2^60 ops in a payload with room for none: must throw the typed
  // error immediately instead of reserving petabytes.
  snapshot::ByteWriter w;
  w.u64(1ULL << 60);
  EXPECT_THROW((void)decode_apply_delta_request(std::move(w).take()),
               ProtocolError);
}

TEST(ServeProtocolCodec, UnknownDeltaKindCodeThrows) {
  ApplyDeltaRequest req;
  req.ops = {sample_op()};
  std::string payload = encode(req);
  payload[8] = '\x09';  // first op's kind byte: 9 is not a DeltaKind
  EXPECT_THROW((void)decode_apply_delta_request(payload), ProtocolError);
}

TEST(Adversarial, DeltaJournalUnknownKindRejected) {
  // A hand-built one-op journal whose op carries kind byte 9: every other
  // field is well formed, so only read_delta_op's kind validation can
  // refuse it.
  snapshot::ByteWriter ops;
  ops.u64(1);
  ops.u8(9);  // no such DeltaKind
  ops.f64(39.1);
  ops.f64(-75.4);
  ops.u32(5);
  ops.u32(0);
  ops.str("");
  ops.f64(0.0);
  EXPECT_THROW((void)decode_apply_delta_request(std::move(ops).take()),
               ProtocolError);
}

// ------------------------------------------------------------- framing --

TEST(ServeProtocolFrame, FrameRoundTrip) {
  const std::string payload = encode(QueryResizeRequest{10.0, 20.0});
  FrameDecoder decoder;
  decoder.feed(encode_frame(MsgType::kQueryResize, payload));
  const std::optional<Frame> frame = decoder.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, MsgType::kQueryResize);
  EXPECT_EQ(frame->payload, payload);
  EXPECT_FALSE(decoder.next().has_value());
  EXPECT_EQ(decoder.buffered(), 0U);
}

TEST(ServeProtocolFrame, MultipleFramesInOneFeed) {
  const std::string a = encode_frame(MsgType::kHello, encode(HelloRequest{"a"}));
  const std::string b = encode_frame(MsgType::kStats, "");
  FrameDecoder decoder;
  decoder.feed(a + b);
  ASSERT_TRUE(decoder.next().has_value());
  const std::optional<Frame> second = decoder.next();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->type, MsgType::kStats);
  EXPECT_FALSE(decoder.next().has_value());
}

TEST(ServeProtocolFrame, ByteAtATimeFeedingDecodes) {
  const std::string wire = valid_frame();
  FrameDecoder decoder;
  for (std::size_t i = 0; i + 1 < wire.size(); ++i) {
    decoder.feed(std::string_view(wire).substr(i, 1));
    EXPECT_FALSE(decoder.next().has_value()) << "byte " << i;
  }
  decoder.feed(std::string_view(wire).substr(wire.size() - 1, 1));
  EXPECT_TRUE(decoder.next().has_value());
}

TEST(ServeProtocolFrame, EveryPrefixTruncationNeedsMoreBytesNeverThrows) {
  const std::string wire = valid_frame();
  for (std::size_t n = 0; n < wire.size(); ++n) {
    FrameDecoder decoder;
    decoder.feed(std::string_view(wire).substr(0, n));
    std::optional<Frame> frame;
    EXPECT_NO_THROW(frame = decoder.next()) << "prefix length " << n;
    EXPECT_FALSE(frame.has_value()) << "prefix length " << n;
  }
}

TEST(ServeProtocolFrame, UndersizedLengthPrefixThrows) {
  std::string wire = valid_frame();
  // Length prefix below kMinFrameLen (little-endian u32 at offset 0).
  wire[0] = static_cast<char>(kMinFrameLen - 1);
  wire[1] = wire[2] = wire[3] = 0;
  FrameDecoder decoder;
  decoder.feed(wire);
  EXPECT_THROW((void)decoder.next(), ProtocolError);
}

TEST(ServeProtocolFrame, OversizedLengthPrefixThrowsBeforeBuffering) {
  std::string prefix(4, '\0');
  prefix[3] = '\x7f';  // ~2 GiB claimed length, only 4 bytes fed
  FrameDecoder decoder;
  decoder.feed(prefix);
  EXPECT_THROW((void)decoder.next(), ProtocolError);
}

TEST(ServeProtocolFrame, BadMagicThrowsEagerly) {
  std::string wire = valid_frame();
  wire[4] = 'X';
  FrameDecoder decoder;
  // Feed only the length prefix + magic: rejection must not wait for the
  // rest of the frame.
  decoder.feed(std::string_view(wire).substr(0, 8));
  EXPECT_THROW((void)decoder.next(), ProtocolError);
}

TEST(ServeProtocolFrame, ByteSwappedEndianMarkerThrowsEagerly) {
  std::string wire = valid_frame();
  std::swap(wire[8], wire[9]);  // 0xFEFF -> 0xFFFE
  FrameDecoder decoder;
  decoder.feed(std::string_view(wire).substr(0, 10));
  try {
    (void)decoder.next();
    FAIL() << "expected ProtocolError";
  } catch (const ProtocolError& e) {
    EXPECT_NE(std::string(e.what()).find("byte-swapped"), std::string::npos);
  }
}

TEST(ServeProtocolFrame, UnknownVersionThrowsEagerly) {
  std::string wire = valid_frame();
  wire[10] = '\x63';  // version 99
  FrameDecoder decoder;
  decoder.feed(std::string_view(wire).substr(0, 12));
  EXPECT_THROW((void)decoder.next(), ProtocolError);
}

TEST(ServeProtocolFrame, NonzeroReservedFieldThrows) {
  // Rebuild a frame whose body carries a nonzero reserved field, with a
  // correct checksum so only the reserved check can object.
  snapshot::ByteWriter body;
  body.u16(static_cast<std::uint16_t>(MsgType::kStats));
  body.u16(1);  // reserved must be zero
  const std::string body_bytes = std::move(body).take();
  snapshot::ByteWriter w;
  w.u32(static_cast<std::uint32_t>(kHeaderBytes + body_bytes.size()));
  w.bytes(kFrameMagic);
  w.u16(snapshot::kEndianMarker);
  w.u16(kProtocolVersion);
  w.u64(snapshot::chunked_checksum(body_bytes,
                                   runtime::serial_executor()));
  w.bytes(body_bytes);
  FrameDecoder decoder;
  decoder.feed(std::move(w).take());
  EXPECT_THROW((void)decoder.next(), ProtocolError);
}

TEST(ServeProtocolFrame, EveryBodyBitFlipIsDetected) {
  const std::string wire = valid_frame();
  // Flipping any bit anywhere past the header must be caught by the body
  // checksum (bits in the header itself are caught by the header checks or
  // the checksum-comparison failing the other way).
  for (std::size_t byte = 4 + kHeaderBytes; byte < wire.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutated = wire;
      mutated[byte] = static_cast<char>(mutated[byte] ^ (1 << bit));
      FrameDecoder decoder;
      decoder.feed(mutated);
      EXPECT_THROW((void)decoder.next(), ProtocolError)
          << "byte " << byte << " bit " << bit;
    }
  }
}

TEST(ServeProtocolFrame, ChecksumFieldBitFlipIsDetected) {
  const std::string wire = valid_frame();
  for (std::size_t byte = 12; byte < 20; ++byte) {
    std::string mutated = wire;
    mutated[byte] = static_cast<char>(mutated[byte] ^ 0x40);
    FrameDecoder decoder;
    decoder.feed(mutated);
    EXPECT_THROW((void)decoder.next(), ProtocolError) << "byte " << byte;
  }
}

TEST(ServeProtocolFrame, UnknownMessageTypeFlowsThroughTheDecoder) {
  // Type 77 is not a MsgType we know; the decoder must still deliver it
  // (checksummed) so the dispatcher can answer kError.
  FrameDecoder decoder;
  decoder.feed(encode_frame(static_cast<MsgType>(77), "payload"));
  const std::optional<Frame> frame = decoder.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(static_cast<std::uint16_t>(frame->type), 77);
  EXPECT_EQ(frame->payload, "payload");
}

TEST(ServeProtocolFrame, OverlongEncodeIsRejected) {
  EXPECT_THROW(
      (void)encode_frame(MsgType::kError, std::string(kMaxFrameBytes, 'x')),
      ProtocolError);
}

TEST(ServeProtocolFrame, DecoderRecoversAfterReset) {
  FrameDecoder decoder;
  decoder.feed("garbage that is certainly not an LSRV frame!");
  EXPECT_THROW((void)decoder.next(), ProtocolError);
  decoder.reset();
  decoder.feed(valid_frame());
  EXPECT_TRUE(decoder.next().has_value());
}

TEST(ServeProtocolFrame, RandomBytesFuzzNeverCrashes) {
  // Deterministic fuzz loop: random chunks of random lengths into a
  // decoder; every outcome must be a frame, a need-more-bytes, or a
  // ProtocolError (after which the decoder is reset, as a server session
  // would drop the connection). Run under ASan/UBSan in CI.
  stats::Pcg32 rng(20250808);
  FrameDecoder decoder;
  std::size_t frames = 0;
  std::size_t errors = 0;
  for (int iter = 0; iter < 5000; ++iter) {
    const std::size_t len = 1 + rng.next_below(64);
    std::string chunk(len, '\0');
    for (char& c : chunk) {
      c = static_cast<char>(rng.next_below(256));
    }
    // Bias the stream toward plausible prefixes so the fuzz reaches the
    // deeper checks too, not just the length-prefix guard.
    if (rng.next_below(8) == 0) {
      chunk = valid_frame().substr(0, 1 + rng.next_below(24));
    }
    decoder.feed(chunk);
    try {
      while (decoder.next().has_value()) ++frames;
    } catch (const ProtocolError&) {
      ++errors;
      decoder.reset();
    }
  }
  // The garbage stream must have tripped the validator at least once; a
  // zero count would mean the fuzz never exercised anything.
  EXPECT_GT(errors, 0U);
  SUCCEED() << frames << " frame(s), " << errors << " error(s)";
}

}  // namespace
