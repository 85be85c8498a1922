// Wire-format tests: round-trip encode/decode of every message type the
// protocols in net/protocol_ids.hpp send, plus a deterministic corrupt-frame
// fuzz (truncation, bit flips, bad version/magic) pinning the codec's
// reject-don't-crash contract.
#include "wire/codec.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "broadcast/reliable_broadcast.hpp"
#include "consensus/bodies.hpp"
#include "fd/hier_c.hpp"
#include "fd/ring_fd.hpp"
#include "fd/swim.hpp"
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
  EXPECT_EQ(decoded->payload_kind, m.payload_kind);
  EXPECT_STREQ(decoded->label, "");  // frames carry no label
  return *decoded;
}

/// The body of \p holder (a Message or an RbEnvelope) as a T; a body of
/// another kind fails the test.
template <class T, class Holder>
const T& body_of(const Holder& holder) {
  static const T kMissing{};
  const T* body = holder.template as<T>();
  if (body == nullptr) ADD_FAILURE() << "body of another kind";
  return body != nullptr ? *body : kMissing;
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
    EXPECT_EQ(out.payload, nullptr);
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
    EXPECT_EQ(body_of<ProcessSet>(out), sample_set());
  }

  // Degenerate sets survive too.
  Message empty = Message::make(protocol_ids::kWToS, 1, "wts.suspects",
                                ProcessSet(5));
  EXPECT_EQ(body_of<ProcessSet>(roundtrip(empty)), ProcessSet(5));
  Message full = Message::make(protocol_ids::kWToS, 1, "wts.suspects",
                               ProcessSet::full(64));
  EXPECT_EQ(body_of<ProcessSet>(roundtrip(full)), ProcessSet::full(64));
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
    EXPECT_EQ(body_of<std::vector<std::uint64_t>>(out), counters);
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
    const auto& b = body_of<fd::RingFd::Body>(out);
    EXPECT_EQ(b.seq, body.seq);
    EXPECT_EQ(b.susp, body.susp);
  }
}

TEST(WireCodec, ConsensusBodies) {
  // Every body shape of consensus_c (ids 1..7) and chandra_toueg.
  const Message est = roundtrip(Message::make(
      protocol_ids::kConsensusC, 2, "cons_c.estimate",
      consensus::EstimateBody{4, -123456789012345ll, 3}));
  EXPECT_EQ(body_of<consensus::EstimateBody>(est).round, 4);
  EXPECT_EQ(body_of<consensus::EstimateBody>(est).value, -123456789012345ll);
  EXPECT_EQ(body_of<consensus::EstimateBody>(est).ts, 3);

  const Message prop = roundtrip(Message::make(
      protocol_ids::kConsensusCT, 2, "ct.propose",
      consensus::ProposeBody{2, 99}));
  EXPECT_EQ(body_of<consensus::ProposeBody>(prop).round, 2);
  EXPECT_EQ(body_of<consensus::ProposeBody>(prop).value, 99);

  for (const auto& [type, label] : std::vector<std::pair<int, const char*>>{
           {1, "cons_c.coord"},
           {3, "cons_c.null_est"},
           {5, "cons_c.null_prop"},
           {6, "cons_c.ack"},
           {7, "cons_c.nack"}}) {
    const Message out = roundtrip(Message::make(
        protocol_ids::kConsensusC, type, label, consensus::RoundOnly{17}));
    EXPECT_EQ(body_of<consensus::RoundOnly>(out).round, 17);
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
  env.body_kind = PayloadKind::kDecide;
  env.body = body;

  const Message out = roundtrip(Message::make(
      protocol_ids::kReliableBroadcast, 1, "rb.relay", env));
  const auto& e = body_of<RbEnvelope>(out);
  EXPECT_EQ(e.origin, 3);
  EXPECT_EQ(e.seq, 12u);
  EXPECT_EQ(e.tag, 1);
  EXPECT_EQ(body_of<consensus::DecideBody>(e).round, 5);
  EXPECT_EQ(body_of<consensus::DecideBody>(e).value, 4242);
}

TEST(WireCodec, RbEnvelopeWithScalarAndEmptyBody) {
  RbEnvelope env;
  env.origin = 0;
  env.seq = 1;
  env.tag = 7;
  auto body = std::make_shared<const std::int64_t>(31337);
  env.body_kind = PayloadKind::kI64;
  env.body = body;
  const Message out = roundtrip(Message::make(
      protocol_ids::kReliableBroadcast, 1, "rb.relay", env));
  EXPECT_EQ(body_of<std::int64_t>(body_of<RbEnvelope>(out)), 31337);

  RbEnvelope bare;
  bare.origin = 2;
  bare.seq = 9;
  bare.tag = 0;
  const Message out2 = roundtrip(Message::make(
      protocol_ids::kReliableBroadcast, 1, "rb.relay", bare));
  EXPECT_EQ(body_of<RbEnvelope>(out2).body, nullptr);
}

TEST(WireCodec, UnknownPayloadTypeIsAnEncodeError) {
  // Every PayloadKind encodes; a kind value outside the enum cannot leave
  // the process, alone or nested in a broadcast.
  const auto unknown = static_cast<PayloadKind>(99);
  Message m = Message::make(protocol_ids::kTesting, 1, "t.unknown",
                            std::int64_t{7});
  m.payload_kind = unknown;
  std::vector<std::uint8_t> frame;
  std::string error;
  EXPECT_FALSE(encode_message(m, &frame, &error));
  EXPECT_FALSE(error.empty());

  RbEnvelope env;
  env.body_kind = unknown;
  env.body = m.payload;
  error.clear();
  EXPECT_FALSE(encode_message(
      Message::make(protocol_ids::kReliableBroadcast, 1, "rb.relay", env),
      &frame, &error));
  EXPECT_FALSE(error.empty());
}

// --- golden frames ----------------------------------------------------------
//
// Version 2's bytes, pinned: one frame per body shape, with a non-default
// value in every field. A changed row is a wire-format change, which needs
// a kVersion bump.

std::string hex(const std::vector<std::uint8_t>& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t b : bytes) {
    out += kDigits[b >> 4];
    out += kDigits[b & 15];
  }
  return out;
}

template <class T>
Message framed(ProtocolId protocol, int type, T body) {
  Message m = Message::make(protocol, type, "golden", std::move(body));
  m.src = 1;
  m.dst = 2;
  return m;
}

template <class T>
RbEnvelope envelope_of(ProcessId origin, std::uint64_t seq, int tag, T body) {
  RbEnvelope env;
  env.origin = origin;
  env.seq = seq;
  env.tag = tag;
  env.body_kind = kind_of<T>;
  env.body = std::make_shared<const T>(std::move(body));
  return env;
}

TEST(WireCodec, GoldenFramesPinVersion2) {
  fd::RingFd::Body ring;
  ring.seq = {9, 8, 7};
  ring.susp = ProcessSet(3);
  ring.susp.add(2);

  kv::Request request;
  request.flags = kv::kFlagLeaseRead;
  request.session = 0x1122334455667788ull;
  request.tag = 42;
  request.ops.push_back(kv::Op{kv::OpKind::kPut, 7, "k", "v", ""});
  request.ops.push_back(kv::Op{kv::OpKind::kCas, 8, "c", "new", "old"});

  kv::Reply reply;
  reply.session = 99;
  reply.tag = 43;
  reply.status = kv::Status::kCasMismatch;
  reply.leader_hint = 2;
  reply.applied_slot = 17;
  reply.results.push_back({kv::Status::kOk, "a"});
  reply.results.push_back({kv::Status::kNotFound, ""});

  kv::BatchBody batch;
  batch.id = kv::make_batch_id(2, 514);
  batch.cmds.push_back(kv::Cmd{5, 1, kv::OpKind::kPut, "k", "v", ""});
  batch.cmds.push_back(kv::Cmd{5, 2, kv::OpKind::kDel, "k", "", ""});

  kv::SnapshotChunk chunk;
  chunk.snap_id = 3;
  chunk.upto_slot = 128;
  chunk.index = 1;
  chunk.total = 4;
  chunk.bytes = {1, 2, 3};

  RbEnvelope bare;
  bare.origin = 2;
  bare.seq = 9;
  bare.tag = 3;

  fd::HierDigest digest{ProcessSet(4), 2};
  digest.susp.add(1);
  digest.susp.add(3);

  const fd::SwimBody swim{
      77, 1, 3, {{2, 5, fd::SwimFd::kSuspect}, {3, 1, fd::SwimFd::kAlive}}};

  struct Row {
    const char* name;
    Message m;
    std::uint64_t causal_seq;
    const char* hex;
  };
  const std::vector<Row> rows = {
      {"empty", base(protocol_ids::kHeartbeatP, 1, "hb_p.alive"), 0,
       "fdec020001000000020000000100000001000000000000000000f493414c"},
      {"process set", framed(protocol_ids::kCToP, 2, sample_set()), 0,
       "fdec020001000000020000000600000002000000010014000000070000000300"
       "0000000000000300000006000000265ab97b"},
      {"u64 vector",
       framed(protocol_ids::kStableLeader, 1,
              std::vector<std::uint64_t>{0, 41, ~std::uint64_t{0}}),
       0,
       "fdec020001000000020000000d0000000100000002001c000000030000000000"
       "0000000000002900000000000000ffffffffffffffff17d09d8a"},
      {"ring body", framed(protocol_ids::kRingFd, 1, ring), 0,
       "fdec020001000000020000000200000001000000030028000000030000000900"
       "0000000000000800000000000000070000000000000003000000010000000200"
       "00004a0c955e"},
      {"estimate",
       framed(protocol_ids::kConsensusC, 2,
              consensus::EstimateBody{4, -123456789012345ll, 3}),
       0,
       "fdec020001000000020000000800000002000000040010000000040000008720"
       "f279b78fffff03000000afa01d81"},
      {"propose",
       framed(protocol_ids::kConsensusCT, 2, consensus::ProposeBody{2, 99}),
       0,
       "fdec02000100000002000000090000000200000005000c000000020000006300"
       "000000000000c813a3a8"},
      {"round only",
       framed(protocol_ids::kConsensusC, 6, consensus::RoundOnly{17}), 0,
       "fdec02000100000002000000080000000600000006000400000011000000d0d7"
       "22bd"},
      {"decide",
       framed(protocol_ids::kConsensusC, 8, consensus::DecideBody{5, -4242}),
       0,
       "fdec02000100000002000000080000000800000007000c000000050000006eef"
       "ffffffffffff5f571737"},
      {"i64",
       framed(protocol_ids::kKvService, kv::kMsgApplied, std::int64_t{31337}),
       0,
       "fdec020001000000020000000f00000003000000090008000000697a00000000"
       "0000b16fa478"},
      {"kv request",
       framed(protocol_ids::kKvService, kv::kMsgClientRequest, request), 0,
       "fdec020001000000020000000f000000010000000a003d000000010188776655"
       "443322112a000000000000000200000001070000000000000001006b01007600"
       "0003080000000000000001006303006e657703006f6c6434c82ca8"},
      {"kv reply", framed(protocol_ids::kKvService, kv::kMsgClientReply, reply),
       0,
       "fdec020001000000020000000f000000020000000b0024000000630000000000"
       "00002b0000000000000002020000001100000002000000000100610100001166"
       "30de"},
      {"kv batch", framed(protocol_ids::kKvBatchRb, 2, batch), 0,
       "fdec0200010000000200000010000000020000000c003d000000020200000003"
       "000002000000050000000000000001010000000000000001006b010076000005"
       "0000000000000002020000000000000001006b000000002a980ad3"},
      {"kv snapshot",
       framed(protocol_ids::kKvService, kv::kMsgSnapshotChunk, chunk), 0,
       "fdec020001000000020000000f000000040000000d001b000000030000000000"
       "0000800000000100000004000000030000000102039c18bd42"},
      {"rb decide",
       framed(protocol_ids::kReliableBroadcast, 1,
              envelope_of(3, 12, 1, consensus::DecideBody{5, 4242})),
       0,
       "fdec020001000000020000000700000001000000080022000000030000000c00"
       "0000000000000100000007000c000000050000009210000000000000dc0ea100"},
      {"rb batch",
       framed(protocol_ids::kKvBatchRb, 1,
              envelope_of(2, 514, kv::kRbTagBatch, batch)),
       0,
       "fdec020001000000020000001000000001000000080053000000020000000202"
       "000000000000010000000c003d00000002020000000300000200000005000000"
       "0000000001010000000000000001006b01007600000500000000000000020200"
       "00000000000001006b0000000093c3e4fd"},
      {"rb empty", framed(protocol_ids::kReliableBroadcast, 1, bare), 0,
       "fdec020001000000020000000700000001000000080016000000020000000900"
       "000000000000030000000000000000006a01d3c3"},
      {"causal seq", base(protocol_ids::kCToP, 1, "ctp.alive"), 0xABCDEF12345,
       "fdec02014523f1debc0a00000100000002000000060000000100000000000000"
       "00006e26d9d6"},
      {"hier digest", framed(protocol_ids::kHierC, 1, digest), 0,
       "fdec0200010000000200000012000000010000000e0014000000040000000200"
       "0000010000000300000002000000bc734b10"},
      {"swim body", framed(protocol_ids::kSwim, 1, swim), 0,
       "fdec0200010000000200000013000000010000000f00260000004d0000000000"
       "0000010000000300000002000000020000000500000001030000000100000000"
       "9b0ad4ec"},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(row.name);
    std::vector<std::uint8_t> frame;
    std::string error;
    ASSERT_TRUE(encode_message(row.m, &frame, &error, row.causal_seq))
        << error;
    EXPECT_EQ(hex(frame), row.hex);
    // Decoding and re-encoding gives back the same bytes.
    std::uint64_t causal_seq = 0;
    const auto decoded = decode_message(frame, &error, &causal_seq);
    ASSERT_TRUE(decoded.has_value()) << error;
    std::vector<std::uint8_t> again;
    ASSERT_TRUE(encode_message(*decoded, &again, &error, causal_seq)) << error;
    EXPECT_EQ(again, frame);
  }
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
  const auto& d = body_of<kv::Request>(out);
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
  const auto& d = body_of<kv::Reply>(out);
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
  EXPECT_EQ(body_of<kv::Reply>(out2).status, kv::Status::kNotLeader);
  EXPECT_TRUE(body_of<kv::Reply>(out2).results.empty());
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
  const auto& d = body_of<kv::BatchBody>(out);
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
  env.body_kind = PayloadKind::kKvBatch;
  env.body = std::make_shared<const kv::BatchBody>(body);
  const Message out2 = roundtrip(Message::make(
      protocol_ids::kKvBatchRb, 1, "rb.relay", env));
  const auto& e = body_of<RbEnvelope>(out2);
  EXPECT_EQ(e.tag, kv::kRbTagBatch);
  EXPECT_EQ(body_of<kv::BatchBody>(e).id, body.id);
  EXPECT_EQ(body_of<kv::BatchBody>(e).cmds.size(), 5u);
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
  const auto& d = body_of<kv::SnapshotChunk>(out);
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
  EXPECT_EQ(body_of<kv::SnapshotChunk>(out).total, kMaxElements);
  EXPECT_EQ(body_of<kv::SnapshotChunk>(out).index, kMaxElements - 1);
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
      const auto* d = decoded->as<kv::Request>();
      if (d != nullptr && decoded->protocol == protocol_ids::kKvService &&
          decoded->type == kv::kMsgClientRequest) {
        EXPECT_LE(d->ops.size(), kv::kMaxOpsPerRequest);
        for (const auto& op : d->ops) {
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

  for (const std::uint8_t version : {kVersion - 1, kVersion + 1}) {
    f = sample_frame();
    f[2] = version;  // v1 frames (which carried a label) are rejected too
    fix_crc(f);
    EXPECT_FALSE(decode_message(f).has_value());
  }

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

TEST(WireCodec, RejectsANestedLengthThatDisagreesWithItsBody) {
  // An envelope states the length of its nested body; the body must fill
  // exactly that many bytes. The frame ends with the u32 length, the
  // 12-byte DecideBody and the CRC.
  const auto f = encode_ok(
      framed(protocol_ids::kReliableBroadcast, 1,
             envelope_of(3, 12, 1, consensus::DecideBody{5, 4242})));
  const std::size_t len_at = f.size() - 4 - 12 - 4;
  ASSERT_EQ(f[len_at], 12);
  for (const std::uint8_t len : {0, 4, 11, 13}) {
    auto g = f;
    g[len_at] = len;
    fix_crc(g);
    EXPECT_FALSE(decode_message(g).has_value()) << "length " << int{len};
  }
  EXPECT_TRUE(decode_message(f).has_value());
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

// --- CRC-32 ---------------------------------------------------------------

/// The textbook bit-at-a-time CRC-32 (reflected 0xEDB88320), kept here as
/// the reference crc32's slicing-by-8 must reproduce.
std::uint32_t crc32_reference(const std::uint8_t* data, std::size_t len,
                              std::uint32_t seed) {
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < len; ++i) {
    c ^= data[i];
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32, MatchesTheBytewiseReferenceAtEveryLengthAndOffset) {
  const std::uint8_t check[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc32(check, sizeof check), 0xCBF43926u);  // the IEEE check value

  constexpr std::size_t kMaxLen = 2048;
  Rng rng(31);
  std::vector<std::uint8_t> buf(kMaxLen + 8);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next());
  int mismatches = 0;
  for (std::size_t offset = 0; offset < 8; ++offset) {
    const std::uint8_t* data = buf.data() + offset;
    for (std::size_t len = 0; len <= kMaxLen; ++len) {
      const std::uint32_t seed = static_cast<std::uint32_t>(rng.next());
      if (crc32(data, len) != crc32_reference(data, len, 0) ||
          crc32(data, len, seed) != crc32_reference(data, len, seed)) {
        ADD_FAILURE() << "offset " << offset << " length " << len;
        if (++mismatches == 10) return;
      }
    }
  }
}

TEST(Crc32, ChainedSeedsContinueTheSameChecksum) {
  Rng rng(32);
  std::vector<std::uint8_t> buf(1500);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next());
  const std::uint32_t whole = crc32(buf.data(), buf.size());
  EXPECT_EQ(whole, crc32_reference(buf.data(), buf.size(), 0));
  // Split at every point of the first 40 bytes and at random points after.
  for (int i = 0; i < 200; ++i) {
    const std::size_t cut = i < 40 ? static_cast<std::size_t>(i)
                                   : rng.below(buf.size() + 1);
    const std::uint32_t head = crc32(buf.data(), cut);
    EXPECT_EQ(crc32(buf.data() + cut, buf.size() - cut, head), whole)
        << "cut " << cut;
  }
  // Three pieces, each continuing from the last.
  std::uint32_t c = 0;
  for (const auto& [from, to] : {std::pair<std::size_t, std::size_t>{0, 7},
                                 {7, 700},
                                 {700, 1500}}) {
    c = crc32(buf.data() + from, to - from, c);
  }
  EXPECT_EQ(c, whole);
}

}  // namespace
}  // namespace ecfd::wire
