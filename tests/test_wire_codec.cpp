// Wire-format tests: round-trip encode/decode of every message type the
// protocols in net/protocol_ids.hpp send, plus a deterministic corrupt-frame
// fuzz (truncation, bit flips, bad version/magic) pinning the codec's
// reject-don't-crash contract.
#include "wire/codec.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "broadcast/reliable_broadcast.hpp"
#include "consensus/bodies.hpp"
#include "fd/ring_fd.hpp"
#include "kv/command.hpp"
#include "net/process_set.hpp"
#include "net/protocol_ids.hpp"
#include "sim/rng.hpp"
#include "wire/crc32.hpp"

namespace ecfd::wire {
namespace {

using broadcast::RbEnvelope;

Message base(ProtocolId protocol, int type, const char* label) {
  Message m = Message::make_empty(protocol, type, label);
  m.src = 1;
  m.dst = 2;
  return m;
}

std::vector<std::uint8_t> encode_ok(const Message& m) {
  std::vector<std::uint8_t> frame;
  std::string error;
  EXPECT_TRUE(encode_message(m, &frame, &error)) << error;
  return frame;
}

Message roundtrip(const Message& m) {
  std::string error;
  auto decoded = decode_message(encode_ok(m), &error);
  EXPECT_TRUE(decoded.has_value()) << error;
  EXPECT_EQ(decoded->src, m.src);
  EXPECT_EQ(decoded->dst, m.dst);
  EXPECT_EQ(decoded->protocol, m.protocol);
  EXPECT_EQ(decoded->type, m.type);
  EXPECT_STREQ(decoded->label, m.label);
  return *decoded;
}

ProcessSet sample_set() {
  ProcessSet s(7);
  s.add(0);
  s.add(3);
  s.add(6);
  return s;
}

TEST(WireCodec, EmptyBodies) {
  // heartbeat_p alive, heartbeat_counter beat, leader_candidate beat,
  // c_to_p / efficient_p I-AM-ALIVE: all payload-less.
  for (const auto& [proto, label] :
       std::vector<std::pair<ProtocolId, const char*>>{
           {protocol_ids::kHeartbeatP, "hb_p.alive"},
           {protocol_ids::kHeartbeatCounter, "hbc.beat"},
           {protocol_ids::kLeaderCandidate, "lc.leader"},
           {protocol_ids::kCToP, "ctp.alive"},
           {protocol_ids::kEfficientP, "effp.alive"}}) {
    const Message out = roundtrip(base(proto, 1, label));
    EXPECT_FALSE(out.has_payload());
  }
}

TEST(WireCodec, ProcessSetBodies) {
  // c_to_p list, efficient_p leader list, w_to_s suspects.
  for (const auto& [proto, type, label] :
       std::vector<std::tuple<ProtocolId, int, const char*>>{
           {protocol_ids::kCToP, 2, "ctp.list"},
           {protocol_ids::kEfficientP, 1, "effp.leader"},
           {protocol_ids::kWToS, 1, "wts.suspects"}}) {
    Message m = base(proto, type, label);
    m = Message::make(proto, type, label, sample_set());
    m.src = 0;
    m.dst = 1;
    const Message out = roundtrip(m);
    EXPECT_EQ(out.as<ProcessSet>(), sample_set());
  }

  // Degenerate sets survive too.
  Message empty = Message::make(protocol_ids::kWToS, 1, "wts.suspects",
                                ProcessSet(5));
  EXPECT_EQ(roundtrip(empty).as<ProcessSet>(), ProcessSet(5));
  Message full = Message::make(protocol_ids::kWToS, 1, "wts.suspects",
                               ProcessSet::full(64));
  EXPECT_EQ(roundtrip(full).as<ProcessSet>(), ProcessSet::full(64));
}

TEST(WireCodec, U64VectorBodies) {
  // stable_leader ok/accuse counter vectors, omega_from_s count rows.
  const std::vector<std::uint64_t> counters{0, 41, 0xFFFFFFFFFFFFFFFFull, 7};
  for (const auto& [proto, type, label] :
       std::vector<std::tuple<ProtocolId, int, const char*>>{
           {protocol_ids::kStableLeader, 1, "sl.ok"},
           {protocol_ids::kStableLeader, 2, "sl.accuse"},
           {protocol_ids::kOmegaFromS, 1, "ofs.counts"}}) {
    const Message out =
        roundtrip(Message::make(proto, type, label, counters));
    EXPECT_EQ(out.as<std::vector<std::uint64_t>>(), counters);
  }
}

TEST(WireCodec, RingBodies) {
  fd::RingFd::Body body;
  body.seq = {9, 8, 7, 6, 5};
  body.susp = ProcessSet(5);
  body.susp.add(2);
  for (const auto& [type, label] :
       std::vector<std::pair<int, const char*>>{{1, "ring.query"},
                                                {2, "ring.reply"}}) {
    const Message out = roundtrip(
        Message::make(protocol_ids::kRingFd, type, label, body));
    const auto& b = out.as<fd::RingFd::Body>();
    EXPECT_EQ(b.seq, body.seq);
    EXPECT_EQ(b.susp, body.susp);
  }
}

TEST(WireCodec, ConsensusBodies) {
  // Every body shape of consensus_c (ids 1..7) and chandra_toueg.
  const Message est = roundtrip(Message::make(
      protocol_ids::kConsensusC, 2, "cons_c.estimate",
      consensus::EstimateBody{4, -123456789012345ll, 3}));
  EXPECT_EQ(est.as<consensus::EstimateBody>().round, 4);
  EXPECT_EQ(est.as<consensus::EstimateBody>().value, -123456789012345ll);
  EXPECT_EQ(est.as<consensus::EstimateBody>().ts, 3);

  const Message prop = roundtrip(Message::make(
      protocol_ids::kConsensusCT, 2, "ct.propose",
      consensus::ProposeBody{2, 99}));
  EXPECT_EQ(prop.as<consensus::ProposeBody>().round, 2);
  EXPECT_EQ(prop.as<consensus::ProposeBody>().value, 99);

  for (const auto& [type, label] : std::vector<std::pair<int, const char*>>{
           {1, "cons_c.coord"},
           {3, "cons_c.null_est"},
           {5, "cons_c.null_prop"},
           {6, "cons_c.ack"},
           {7, "cons_c.nack"}}) {
    const Message out = roundtrip(Message::make(
        protocol_ids::kConsensusC, type, label, consensus::RoundOnly{17}));
    EXPECT_EQ(out.as<consensus::RoundOnly>().round, 17);
  }
}

TEST(WireCodec, RbEnvelopeWithNestedDecide) {
  // The rb.relay frame: an envelope carrying a consensus decision — the
  // message that actually terminates a run.
  RbEnvelope env;
  env.origin = 3;
  env.seq = 12;
  env.tag = 1;
  auto body = std::make_shared<const consensus::DecideBody>(
      consensus::DecideBody{5, 4242});
  env.body_type = &typeid(consensus::DecideBody);
  env.body = body;

  const Message out = roundtrip(Message::make(
      protocol_ids::kReliableBroadcast, 1, "rb.relay", env));
  const auto& e = out.as<RbEnvelope>();
  EXPECT_EQ(e.origin, 3);
  EXPECT_EQ(e.seq, 12u);
  EXPECT_EQ(e.tag, 1);
  EXPECT_EQ(e.as<consensus::DecideBody>().round, 5);
  EXPECT_EQ(e.as<consensus::DecideBody>().value, 4242);
}

TEST(WireCodec, RbEnvelopeWithScalarAndEmptyBody) {
  RbEnvelope env;
  env.origin = 0;
  env.seq = 1;
  env.tag = 7;
  auto body = std::make_shared<const std::int64_t>(31337);
  env.body_type = &typeid(std::int64_t);
  env.body = body;
  const Message out = roundtrip(Message::make(
      protocol_ids::kReliableBroadcast, 1, "rb.relay", env));
  EXPECT_EQ(out.as<RbEnvelope>().as<std::int64_t>(), 31337);

  RbEnvelope bare;
  bare.origin = 2;
  bare.seq = 9;
  bare.tag = 0;
  const Message out2 = roundtrip(Message::make(
      protocol_ids::kReliableBroadcast, 1, "rb.relay", bare));
  EXPECT_EQ(out2.as<RbEnvelope>().body, nullptr);
}

TEST(WireCodec, UnknownPayloadTypeIsAnEncodeError) {
  struct NotRegistered {
    int x{0};
  };
  const Message m = Message::make(protocol_ids::kTesting, 1, "t.msg",
                                  NotRegistered{1});
  std::vector<std::uint8_t> frame;
  std::string error;
  EXPECT_FALSE(encode_message(m, &frame, &error));
  EXPECT_FALSE(error.empty());
}

/// Re-stamps the trailing CRC so decode failures exercise the *structural*
/// checks, not just the checksum.
void fix_crc(std::vector<std::uint8_t>& f) {
  const std::uint32_t c = crc32(f.data(), f.size() - 4);
  f[f.size() - 4] = static_cast<std::uint8_t>(c);
  f[f.size() - 3] = static_cast<std::uint8_t>(c >> 8);
  f[f.size() - 2] = static_cast<std::uint8_t>(c >> 16);
  f[f.size() - 1] = static_cast<std::uint8_t>(c >> 24);
}

// --- kv payloads ----------------------------------------------------------

kv::Request sample_kv_request() {
  kv::Request req;
  req.version = kv::kProtoVersion;
  req.flags = kv::kFlagLeaseRead;
  req.session = 0xDEADBEEF12345678ull;
  req.tag = 42;
  kv::Op put;
  put.op = kv::OpKind::kPut;
  put.seq = 7;
  put.key = "user/alice";
  put.value = std::string(kv::kMaxValueBytes, 'v');
  req.ops.push_back(put);
  kv::Op cas;
  cas.op = kv::OpKind::kCas;
  cas.seq = 8;
  cas.key = std::string(kv::kMaxKeyBytes, 'k');
  cas.value = "new";
  cas.expected = "old";
  req.ops.push_back(cas);
  kv::Op get;  // reads carry seq 0 and empty value/expected
  req.ops.push_back(get);
  return req;
}

TEST(WireCodec, KvRequestRoundTrip) {
  const kv::Request req = sample_kv_request();
  const Message out = roundtrip(Message::make(
      protocol_ids::kKvService, kv::kMsgClientRequest, "kv.request", req));
  const auto& d = out.as<kv::Request>();
  EXPECT_EQ(d.version, req.version);
  EXPECT_EQ(d.flags, req.flags);
  EXPECT_EQ(d.session, req.session);
  EXPECT_EQ(d.tag, req.tag);
  ASSERT_EQ(d.ops.size(), 3u);
  EXPECT_EQ(d.ops[0].op, kv::OpKind::kPut);
  EXPECT_EQ(d.ops[0].seq, 7u);
  EXPECT_EQ(d.ops[0].key, "user/alice");
  EXPECT_EQ(d.ops[0].value, std::string(kv::kMaxValueBytes, 'v'));
  EXPECT_EQ(d.ops[1].op, kv::OpKind::kCas);
  EXPECT_EQ(d.ops[1].key, std::string(kv::kMaxKeyBytes, 'k'));
  EXPECT_EQ(d.ops[1].expected, "old");
  EXPECT_EQ(d.ops[2].op, kv::OpKind::kGet);
  EXPECT_EQ(d.ops[2].seq, 0u);
}

TEST(WireCodec, KvReplyRoundTrip) {
  kv::Reply rep;
  rep.session = 99;
  rep.tag = 43;
  rep.status = kv::Status::kOk;
  rep.leader_hint = 2;
  rep.applied_slot = 17;
  rep.results.push_back({kv::Status::kOk, "value"});
  rep.results.push_back({kv::Status::kNotFound, ""});
  rep.results.push_back({kv::Status::kCasMismatch, "current"});
  const Message out = roundtrip(Message::make(
      protocol_ids::kKvService, kv::kMsgClientReply, "kv.reply", rep));
  const auto& d = out.as<kv::Reply>();
  EXPECT_EQ(d.session, 99u);
  EXPECT_EQ(d.tag, 43u);
  EXPECT_EQ(d.status, kv::Status::kOk);
  EXPECT_EQ(d.leader_hint, 2);
  EXPECT_EQ(d.applied_slot, 17);
  ASSERT_EQ(d.results.size(), 3u);
  EXPECT_EQ(d.results[0], (kv::OpResult{kv::Status::kOk, "value"}));
  EXPECT_EQ(d.results[1], (kv::OpResult{kv::Status::kNotFound, ""}));
  EXPECT_EQ(d.results[2], (kv::OpResult{kv::Status::kCasMismatch, "current"}));

  // A redirect reply: no results at all.
  kv::Reply redirect;
  redirect.status = kv::Status::kNotLeader;
  redirect.leader_hint = 0;
  const Message out2 = roundtrip(Message::make(
      protocol_ids::kKvService, kv::kMsgClientReply, "kv.reply", redirect));
  EXPECT_EQ(out2.as<kv::Reply>().status, kv::Status::kNotLeader);
  EXPECT_TRUE(out2.as<kv::Reply>().results.empty());
}

TEST(WireCodec, KvBatchRoundTripIncludingNestedRbEnvelope) {
  kv::BatchBody body;
  body.id = kv::make_batch_id(2, 514);
  for (std::uint64_t q = 1; q <= 5; ++q) {
    kv::Cmd c;
    c.session = 7;
    c.seq = q;
    c.op = kv::OpKind::kPut;
    c.key = "k" + std::to_string(q);
    c.value = "v" + std::to_string(q);
    body.cmds.push_back(c);
  }
  const Message out = roundtrip(Message::make(
      protocol_ids::kKvBatchRb, 2, "kv.batch", body));
  const auto& d = out.as<kv::BatchBody>();
  EXPECT_EQ(d.id, body.id);
  ASSERT_EQ(d.cmds.size(), 5u);
  EXPECT_EQ(d.cmds[4].key, "k5");
  EXPECT_EQ(d.cmds[4].seq, 5u);

  // And as it actually travels: nested inside an RB envelope (the batch
  // dissemination path).
  RbEnvelope env;
  env.origin = 2;
  env.seq = 514;
  env.tag = kv::kRbTagBatch;
  env.body_type = &typeid(kv::BatchBody);
  env.body = std::make_shared<const kv::BatchBody>(body);
  const Message out2 = roundtrip(Message::make(
      protocol_ids::kKvBatchRb, 1, "rb.relay", env));
  const auto& e = out2.as<RbEnvelope>();
  EXPECT_EQ(e.tag, kv::kRbTagBatch);
  EXPECT_EQ(e.as<kv::BatchBody>().id, body.id);
  EXPECT_EQ(e.as<kv::BatchBody>().cmds.size(), 5u);
}

TEST(WireCodec, KvSnapshotChunkRoundTrip) {
  kv::SnapshotChunk chunk;
  chunk.snap_id = 3;
  chunk.upto_slot = 128;
  chunk.index = 1;
  chunk.total = 4;
  chunk.bytes.resize(kv::kMaxSnapshotChunkBytes);
  for (std::size_t i = 0; i < chunk.bytes.size(); ++i) {
    chunk.bytes[i] = static_cast<std::uint8_t>(i * 31);
  }
  const Message out = roundtrip(Message::make(
      protocol_ids::kKvService, kv::kMsgSnapshotChunk, "kv.snap", chunk));
  const auto& d = out.as<kv::SnapshotChunk>();
  EXPECT_EQ(d.snap_id, 3u);
  EXPECT_EQ(d.upto_slot, 128);
  EXPECT_EQ(d.index, 1u);
  EXPECT_EQ(d.total, 4u);
  EXPECT_EQ(d.bytes, chunk.bytes);
}

TEST(WireCodec, KvSnapshotChunkTotalIsBoundedOnDecode) {
  // `total` sizes the receiver's reassembly table: one 66-byte datagram
  // claiming 2^32 - 1 chunks would make KvService allocate ~100 GB. The
  // cap is kMaxElements (65,536 chunks of 32 KiB, a 2 GiB image).
  kv::SnapshotChunk chunk;
  chunk.snap_id = 9;
  chunk.upto_slot = 1;
  chunk.index = 0;
  chunk.bytes = {1, 2, 3};
  for (const std::uint32_t total : {kMaxElements + 1, 0xFFFFFFFFu}) {
    chunk.total = total;
    const auto frame = encode_ok(Message::make(
        protocol_ids::kKvService, kv::kMsgSnapshotChunk, "kv.snap", chunk));
    EXPECT_FALSE(decode_message(frame).has_value()) << "total " << total;
  }
  chunk.total = kMaxElements;
  chunk.index = kMaxElements - 1;
  const Message out = roundtrip(Message::make(
      protocol_ids::kKvService, kv::kMsgSnapshotChunk, "kv.snap", chunk));
  EXPECT_EQ(out.as<kv::SnapshotChunk>().total, kMaxElements);
  EXPECT_EQ(out.as<kv::SnapshotChunk>().index, kMaxElements - 1);
}

TEST(WireCodec, KvBoundsAreEnforcedOnDecode) {
  // An op-count beyond kMaxOpsPerRequest, an out-of-range op kind, an
  // out-of-range status, and a chunk with index >= total must all be
  // rejected even under a valid CRC. Encode a valid frame, then corrupt
  // the specific field and refit the checksum.
  kv::Request req = sample_kv_request();
  req.ops.resize(1);
  req.ops[0].value = "v";  // keep the frame small and offsets simple
  auto f = encode_ok(Message::make(protocol_ids::kKvService,
                                   kv::kMsgClientRequest, "kv.request", req));
  // Brute-force the field offsets: flip every byte to 0xFF one at a time;
  // no mutation may crash, and every decode either fails or returns a
  // within-bounds request.
  for (std::size_t i = 0; i < f.size() - 4; ++i) {
    auto g = f;
    g[i] = 0xFF;
    fix_crc(g);
    if (auto decoded = decode_message(g)) {
      if (decoded->has_payload() &&
          decoded->protocol == protocol_ids::kKvService &&
          decoded->type == kv::kMsgClientRequest) {
        const auto& d = decoded->as<kv::Request>();
        EXPECT_LE(d.ops.size(), kv::kMaxOpsPerRequest);
        for (const auto& op : d.ops) {
          EXPECT_LE(op.key.size(), kv::kMaxKeyBytes);
          EXPECT_LE(op.value.size(), kv::kMaxValueBytes);
          EXPECT_LE(static_cast<int>(op.op),
                    static_cast<int>(kv::OpKind::kCloseSession));
        }
      }
    }
  }
}

TEST(WireCodec, KvRequestFrameSurvivesCorruptionFuzz) {
  // The client-facing frame is the one attackers reach; give it the same
  // treatment as sample_frame(): truncations, bit flips, random garbage.
  const auto f = encode_ok(Message::make(protocol_ids::kKvService,
                                         kv::kMsgClientRequest, "kv.request",
                                         sample_kv_request()));
  for (std::size_t len = 0; len < f.size(); ++len) {
    auto cut = std::vector<std::uint8_t>(f.begin(), f.begin() + len);
    EXPECT_FALSE(decode_message(cut).has_value()) << "length " << len;
    if (len >= 4) {
      fix_crc(cut);
      EXPECT_FALSE(decode_message(cut).has_value()) << "refit length " << len;
    }
  }
  Rng rng(20260808);
  for (int iter = 0; iter < 2000; ++iter) {
    auto g = f;
    const int flips = 1 + static_cast<int>(rng.below(8));
    for (int k = 0; k < flips; ++k) {
      g[rng.below(g.size() - 4)] ^=
          static_cast<std::uint8_t>(1u << rng.below(8));
    }
    fix_crc(g);
    (void)decode_message(g);  // must not crash / OOB (ASan job)
  }
}

// --- corrupt-frame handling ----------------------------------------------

std::vector<std::uint8_t> sample_frame() {
  Message m = Message::make(protocol_ids::kCToP, 2, "ctp.list", sample_set());
  m.src = 1;
  m.dst = 2;
  return encode_ok(m);
}

TEST(WireCodec, RejectsBadMagicAndVersion) {
  auto f = sample_frame();
  f[0] ^= 0xFF;  // magic
  fix_crc(f);
  EXPECT_FALSE(decode_message(f).has_value());

  f = sample_frame();
  f[2] = kVersion + 1;  // version
  fix_crc(f);
  EXPECT_FALSE(decode_message(f).has_value());

  f = sample_frame();
  f[3] = 0x80;  // reserved flags must be zero
  fix_crc(f);
  EXPECT_FALSE(decode_message(f).has_value());
}

TEST(WireCodec, RejectsEveryTruncation) {
  const auto f = sample_frame();
  for (std::size_t len = 0; len < f.size(); ++len) {
    auto cut = std::vector<std::uint8_t>(f.begin(), f.begin() + len);
    EXPECT_FALSE(decode_message(cut).has_value()) << "length " << len;
    if (len >= 4) {
      // Even with a freshly valid checksum, a truncated body must fail on
      // structure (length mismatch / bounds), not crash.
      fix_crc(cut);
      EXPECT_FALSE(decode_message(cut).has_value()) << "refit length " << len;
    }
  }
}

TEST(WireCodec, RejectsTrailingGarbage) {
  auto f = sample_frame();
  f.insert(f.end() - 4, {0xAA, 0xBB, 0xCC});
  fix_crc(f);
  EXPECT_FALSE(decode_message(f).has_value());
}

TEST(WireCodec, SingleBitFlipsNeverDecodeDifferently) {
  // Deterministic fuzz: every single-bit flip either fails the checksum
  // (the overwhelmingly common case) or — never — silently yields a frame.
  const auto f = sample_frame();
  for (std::size_t byte = 0; byte < f.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      auto g = f;
      g[byte] ^= static_cast<std::uint8_t>(1u << bit);
      EXPECT_FALSE(decode_message(g).has_value())
          << "byte " << byte << " bit " << bit;
    }
  }
}

TEST(WireCodec, RandomGarbageFuzz) {
  // Deterministic random frames: none may crash, read OOB (ASan job), or
  // produce a payload with a huge allocation.
  Rng rng(20260805);
  for (int iter = 0; iter < 2000; ++iter) {
    const std::size_t len = rng.below(256);
    std::vector<std::uint8_t> junk(len);
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.below(256));
    (void)decode_message(junk);
  }
  // And mutated real frames with refit checksums, which reach the payload
  // decoders rather than dying at the CRC gate.
  const auto f = sample_frame();
  for (int iter = 0; iter < 2000; ++iter) {
    auto g = f;
    const int flips = 1 + static_cast<int>(rng.below(8));
    for (int k = 0; k < flips; ++k) {
      g[rng.below(g.size() - 4)] ^= static_cast<std::uint8_t>(1u << rng.below(8));
    }
    fix_crc(g);
    if (auto decoded = decode_message(g)) {
      // A surviving frame must at least be structurally sane.
      EXPECT_GE(decoded->src, kNoProcess);
      EXPECT_GE(decoded->dst, kNoProcess);
    }
  }
}

TEST(WireCodec, RejectsOversizedLengthFieldsWithoutAllocating) {
  // A frame claiming a 2^31-element vector must be rejected by the bounds
  // checks before any reserve() happens (would OOM / be caught by ASan).
  Message m = Message::make(protocol_ids::kStableLeader, 1, "sl.ok",
                            std::vector<std::uint64_t>{1, 2, 3});
  auto f = encode_ok(m);
  // The u64-vector length field sits right after the u16 kind + u32 len of
  // the payload section; locate it by re-encoding knowledge: payload starts
  // at (frame size - 4 crc - payload), payload = 4 len + 3*8. Overwrite the
  // element count with a huge value.
  const std::size_t payload_start = f.size() - 4 - (4 + 24);
  f[payload_start] = 0xFF;
  f[payload_start + 1] = 0xFF;
  f[payload_start + 2] = 0xFF;
  f[payload_start + 3] = 0x7F;
  fix_crc(f);
  EXPECT_FALSE(decode_message(f).has_value());
}

// --- causal sequence tagging ----------------------------------------------
//
// The kFlagCausalSeq flags bit inserts a u64 send sequence right after the
// flags byte, letting ecfd_trace stitch exact send->deliver edges across
// processes. The tag is only ever emitted while a recorder is attached, so
// untraced frames must stay byte-identical to the pre-flag format.

TEST(WireCodec, CausalSeqRoundTrips) {
  Message m = base(protocol_ids::kCToP, 1, "ctp.alive");
  std::vector<std::uint8_t> frame;
  std::string error;
  ASSERT_TRUE(encode_message(m, &frame, &error, /*causal_seq=*/0xABCDEF12345ULL))
      << error;
  EXPECT_EQ(frame[3], kFlagCausalSeq);

  std::uint64_t seq = 0;
  auto decoded = decode_message(frame.data(), frame.size(), &error, &seq);
  ASSERT_TRUE(decoded.has_value()) << error;
  EXPECT_EQ(seq, 0xABCDEF12345ULL);
  EXPECT_EQ(decoded->src, m.src);
  EXPECT_STREQ(decoded->label, m.label);

  // A decoder that doesn't care about the tag still accepts the frame.
  EXPECT_TRUE(decode_message(frame).has_value());
}

TEST(WireCodec, UntaggedFramesAreByteIdenticalToLegacy) {
  const Message m = base(protocol_ids::kCToP, 1, "ctp.alive");
  std::vector<std::uint8_t> plain;
  std::vector<std::uint8_t> explicit_zero;
  std::string error;
  ASSERT_TRUE(encode_message(m, &plain, &error));
  ASSERT_TRUE(encode_message(m, &explicit_zero, &error, /*causal_seq=*/0));
  EXPECT_EQ(plain, explicit_zero);
  EXPECT_EQ(plain[3], 0);  // flags byte stays zero

  std::vector<std::uint8_t> tagged;
  ASSERT_TRUE(encode_message(m, &tagged, &error, /*causal_seq=*/1));
  EXPECT_EQ(tagged.size(), plain.size() + 8);  // exactly the u64 tag

  // Decoding an untagged frame reports seq 0 ("no tag").
  std::uint64_t seq = 99;
  ASSERT_TRUE(decode_message(plain.data(), plain.size(), &error, &seq));
  EXPECT_EQ(seq, 0u);
}

TEST(WireCodec, RejectsAZeroCausalSeqOnTheWire) {
  // seq 0 means "untagged" and must never appear in a flagged frame; a
  // frame carrying it is structurally invalid. Seq bytes sit at [4, 12).
  Message m = base(protocol_ids::kCToP, 1, "ctp.alive");
  std::vector<std::uint8_t> frame;
  std::string error;
  ASSERT_TRUE(encode_message(m, &frame, &error, /*causal_seq=*/7));
  for (std::size_t i = 4; i < 12; ++i) frame[i] = 0;
  fix_crc(frame);
  EXPECT_FALSE(decode_message(frame).has_value());
}

TEST(WireCodec, TaggedFrameRejectsEveryTruncation) {
  Message m = base(protocol_ids::kCToP, 1, "ctp.alive");
  std::vector<std::uint8_t> frame;
  std::string error;
  ASSERT_TRUE(encode_message(m, &frame, &error, /*causal_seq=*/42));
  for (std::size_t len = 0; len < frame.size(); ++len) {
    auto cut = std::vector<std::uint8_t>(frame.begin(), frame.begin() + len);
    EXPECT_FALSE(decode_message(cut).has_value()) << "length " << len;
    if (len >= 4) {
      fix_crc(cut);
      EXPECT_FALSE(decode_message(cut).has_value()) << "refit length " << len;
    }
  }
}

}  // namespace
}  // namespace ecfd::wire
