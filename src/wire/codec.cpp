#include "wire/codec.hpp"

#include <memory>
#include <vector>

#include "broadcast/reliable_broadcast.hpp"
#include "consensus/bodies.hpp"
#include "fd/ring_fd.hpp"
#include "kv/command.hpp"
#include "net/process_set.hpp"
#include "wire/buffer.hpp"
#include "wire/crc32.hpp"

namespace ecfd::wire {

namespace {

using broadcast::RbEnvelope;
using consensus::DecideBody;
using consensus::EstimateBody;
using consensus::ProposeBody;
using consensus::RoundOnly;
using RingBody = fd::RingFd::Body;

constexpr int kMaxNesting = 4;  ///< RbEnvelope payloads nest one level deep

bool set_error(std::string* error, const char* reason) {
  if (error) *error = reason;
  return false;
}

// --- payload encoders -----------------------------------------------------

void encode_process_set(const ProcessSet& s, WireWriter& w) {
  w.i32(s.universe_size());
  const auto members = s.members();
  w.u32(static_cast<std::uint32_t>(members.size()));
  for (const ProcessId p : members) w.i32(p);
}

void encode_u64_vector(const std::vector<std::uint64_t>& v, WireWriter& w) {
  w.u32(static_cast<std::uint32_t>(v.size()));
  for (const std::uint64_t x : v) w.u64(x);
}

// --- kv payloads ----------------------------------------------------------
//
// One shared shape for client Ops and replicated Cmds (an op plus its
// session), so request decode and batch decode enforce identical bounds.

void encode_kv_op(kv::OpKind op, std::uint64_t seq, const std::string& key,
                  const std::string& value, const std::string& expected,
                  WireWriter& w) {
  w.u8(static_cast<std::uint8_t>(op));
  w.u64(seq);
  w.str(key);
  w.str(value);
  w.str(expected);
}

bool decode_kv_op(WireReader& r, kv::OpKind* op, std::uint64_t* seq,
                  std::string* key, std::string* value, std::string* expected,
                  std::string* error) {
  const std::uint8_t raw = r.u8();
  if (raw > static_cast<std::uint8_t>(kv::OpKind::kCloseSession)) {
    return set_error(error, "bad kv op kind");
  }
  *op = static_cast<kv::OpKind>(raw);
  *seq = r.u64();
  *key = r.str();
  *value = r.str();
  *expected = r.str();
  if (!r.ok() || key->size() > kv::kMaxKeyBytes ||
      value->size() > kv::kMaxValueBytes ||
      expected->size() > kv::kMaxValueBytes) {
    return set_error(error, "bad kv op");
  }
  return true;
}

void encode_kv_request(const kv::Request& b, WireWriter& w) {
  w.u8(b.version);
  w.u8(b.flags);
  w.u64(b.session);
  w.u64(b.tag);
  w.u32(static_cast<std::uint32_t>(b.ops.size()));
  for (const kv::Op& op : b.ops) {
    encode_kv_op(op.op, op.seq, op.key, op.value, op.expected, w);
  }
}

bool decode_kv_request(WireReader& r, kv::Request* out, std::string* error) {
  out->version = r.u8();
  out->flags = r.u8();
  out->session = r.u64();
  out->tag = r.u64();
  const std::uint32_t count = r.u32();
  if (!r.ok() || count > kv::kMaxOpsPerRequest) {
    return set_error(error, "bad kv request header");
  }
  out->ops.clear();
  out->ops.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    kv::Op op;
    if (!decode_kv_op(r, &op.op, &op.seq, &op.key, &op.value, &op.expected,
                      error)) {
      return false;
    }
    out->ops.push_back(std::move(op));
  }
  return true;
}

void encode_kv_reply(const kv::Reply& b, WireWriter& w) {
  w.u64(b.session);
  w.u64(b.tag);
  w.u8(static_cast<std::uint8_t>(b.status));
  w.i32(b.leader_hint);
  w.i32(b.applied_slot);
  w.u32(static_cast<std::uint32_t>(b.results.size()));
  for (const kv::OpResult& res : b.results) {
    w.u8(static_cast<std::uint8_t>(res.status));
    w.str(res.value);
  }
}

bool decode_kv_reply(WireReader& r, kv::Reply* out, std::string* error) {
  out->session = r.u64();
  out->tag = r.u64();
  const std::uint8_t status = r.u8();
  out->leader_hint = r.i32();
  out->applied_slot = r.i32();
  const std::uint32_t count = r.u32();
  if (!r.ok() || status > static_cast<std::uint8_t>(kv::Status::kTimeout) ||
      count > kv::kMaxOpsPerRequest) {
    return set_error(error, "bad kv reply header");
  }
  out->status = static_cast<kv::Status>(status);
  out->results.clear();
  out->results.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    kv::OpResult res;
    const std::uint8_t rs = r.u8();
    res.value = r.str();
    if (!r.ok() || rs > static_cast<std::uint8_t>(kv::Status::kTimeout) ||
        res.value.size() > kv::kMaxValueBytes) {
      return set_error(error, "bad kv reply result");
    }
    res.status = static_cast<kv::Status>(rs);
    out->results.push_back(std::move(res));
  }
  return true;
}

void encode_kv_batch(const kv::BatchBody& b, WireWriter& w) {
  w.i64(b.id);
  w.u32(static_cast<std::uint32_t>(b.cmds.size()));
  for (const kv::Cmd& c : b.cmds) {
    w.u64(c.session);
    encode_kv_op(c.op, c.seq, c.key, c.value, c.expected, w);
  }
}

bool decode_kv_batch(WireReader& r, kv::BatchBody* out, std::string* error) {
  out->id = r.i64();
  const std::uint32_t count = r.u32();
  if (!r.ok() || out->id <= 0 || count > kv::kMaxOpsPerBatch) {
    return set_error(error, "bad kv batch header");
  }
  out->cmds.clear();
  out->cmds.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    kv::Cmd c;
    c.session = r.u64();
    if (!r.ok()) return set_error(error, "truncated kv batch");
    if (!decode_kv_op(r, &c.op, &c.seq, &c.key, &c.value, &c.expected,
                      error)) {
      return false;
    }
    out->cmds.push_back(std::move(c));
  }
  return true;
}

void encode_kv_snapshot(const kv::SnapshotChunk& b, WireWriter& w) {
  w.u64(b.snap_id);
  w.i32(b.upto_slot);
  w.u32(b.index);
  w.u32(b.total);
  w.u32(static_cast<std::uint32_t>(b.bytes.size()));
  w.bytes(b.bytes.data(), b.bytes.size());
}

bool decode_kv_snapshot(WireReader& r, kv::SnapshotChunk* out,
                        std::string* error) {
  out->snap_id = r.u64();
  out->upto_slot = r.i32();
  out->index = r.u32();
  out->total = r.u32();
  const std::uint32_t len = r.u32();
  // total sizes the receiver's reassembly table, so it is capped like every
  // other element count: 65,536 chunks of 32 KiB, a 2 GiB image.
  if (!r.ok() || out->upto_slot < 0 || out->total == 0 ||
      out->total > kMaxElements || out->index >= out->total ||
      len > kv::kMaxSnapshotChunkBytes || len > r.remaining()) {
    return set_error(error, "bad kv snapshot chunk");
  }
  out->bytes.resize(len);
  for (std::uint32_t i = 0; i < len; ++i) out->bytes[i] = r.u8();
  return r.ok();
}

/// Flattens one payload by its kind; returns false for a kind with no wire
/// encoding.
bool encode_payload(PayloadKind kind, const void* body, WireWriter& w,
                    std::string* error) {
  switch (kind) {
    case PayloadKind::kNone:
      return true;
    case PayloadKind::kProcessSet:
      encode_process_set(*static_cast<const ProcessSet*>(body), w);
      return true;
    case PayloadKind::kU64Vector:
      encode_u64_vector(*static_cast<const std::vector<std::uint64_t>*>(body),
                        w);
      return true;
    case PayloadKind::kRingBody: {
      const auto& b = *static_cast<const RingBody*>(body);
      encode_u64_vector(b.seq, w);
      encode_process_set(b.susp, w);
      return true;
    }
    case PayloadKind::kEstimate: {
      const auto& b = *static_cast<const EstimateBody*>(body);
      w.i32(b.round);
      w.i64(b.value);
      w.i32(b.ts);
      return true;
    }
    case PayloadKind::kPropose: {
      const auto& b = *static_cast<const ProposeBody*>(body);
      w.i32(b.round);
      w.i64(b.value);
      return true;
    }
    case PayloadKind::kRoundOnly:
      w.i32(static_cast<const RoundOnly*>(body)->round);
      return true;
    case PayloadKind::kDecide: {
      const auto& b = *static_cast<const DecideBody*>(body);
      w.i32(b.round);
      w.i64(b.value);
      return true;
    }
    case PayloadKind::kI64:
      w.i64(*static_cast<const std::int64_t*>(body));
      return true;
    case PayloadKind::kKvRequest:
      encode_kv_request(*static_cast<const kv::Request*>(body), w);
      return true;
    case PayloadKind::kKvReply:
      encode_kv_reply(*static_cast<const kv::Reply*>(body), w);
      return true;
    case PayloadKind::kKvBatch:
      encode_kv_batch(*static_cast<const kv::BatchBody*>(body), w);
      return true;
    case PayloadKind::kKvSnapshot:
      encode_kv_snapshot(*static_cast<const kv::SnapshotChunk*>(body), w);
      return true;
    case PayloadKind::kRbEnvelope: {
      const auto& e = *static_cast<const RbEnvelope*>(body);
      w.i32(e.origin);
      w.u64(e.seq);
      w.i32(e.tag);
      WireWriter nested;
      if (!encode_payload(e.body_kind, e.body.get(), nested, error)) {
        return false;
      }
      w.u16(static_cast<std::uint16_t>(e.body_kind));
      w.u32(static_cast<std::uint32_t>(nested.size()));
      w.bytes(nested.data().data(), nested.size());
      return true;
    }
    case PayloadKind::kHierDigest:
    case PayloadKind::kSwimBody:
      break;
  }
  return set_error(error, "payload kind has no wire encoding");
}

// --- payload decoders -----------------------------------------------------

/// Decoded payload: an owning pointer plus the kind Message::as<T> checks.
struct DecodedPayload {
  std::shared_ptr<const void> body;
  PayloadKind kind{PayloadKind::kNone};
};

bool decode_payload(PayloadKind kind, WireReader& r, int depth,
                    DecodedPayload* out, std::string* error);

bool decode_process_set(WireReader& r, ProcessSet* out, std::string* error) {
  const std::int32_t n = r.i32();
  const std::uint32_t count = r.u32();
  if (!r.ok() || n < 0 || n > kMaxUniverse || count > kMaxElements ||
      count > static_cast<std::uint32_t>(n)) {
    return set_error(error, "bad process set header");
  }
  ProcessSet s(n);
  ProcessId prev = kNoProcess;
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::int32_t p = r.i32();
    if (!r.ok() || p < 0 || p >= n || p <= prev) {
      return set_error(error, "bad process set member");
    }
    s.add(p);
    prev = p;
  }
  *out = std::move(s);
  return true;
}

bool decode_u64_vector(WireReader& r, std::vector<std::uint64_t>* out,
                       std::string* error) {
  const std::uint32_t len = r.u32();
  // A u64 element needs 8 bytes on the wire, so a huge length field on a
  // short frame is caught here before any allocation.
  if (!r.ok() || len > kMaxElements || r.remaining() < 8u * len) {
    return set_error(error, "bad u64 vector length");
  }
  out->clear();
  out->reserve(len);
  for (std::uint32_t i = 0; i < len; ++i) out->push_back(r.u64());
  return r.ok();
}

template <class T>
void emplace_payload(DecodedPayload* out, T body) {
  out->body = std::make_shared<const T>(std::move(body));
  out->kind = kind_of<T>;
}

bool decode_payload(PayloadKind kind, WireReader& r, int depth,
                    DecodedPayload* out, std::string* error) {
  if (depth > kMaxNesting) return set_error(error, "payload nesting too deep");
  switch (kind) {
    case PayloadKind::kNone:
      return true;
    case PayloadKind::kProcessSet: {
      ProcessSet s;
      if (!decode_process_set(r, &s, error)) return false;
      emplace_payload(out, std::move(s));
      return true;
    }
    case PayloadKind::kU64Vector: {
      std::vector<std::uint64_t> v;
      if (!decode_u64_vector(r, &v, error)) return false;
      emplace_payload(out, std::move(v));
      return true;
    }
    case PayloadKind::kRingBody: {
      RingBody b;
      if (!decode_u64_vector(r, &b.seq, error)) return false;
      if (!decode_process_set(r, &b.susp, error)) return false;
      emplace_payload(out, std::move(b));
      return true;
    }
    case PayloadKind::kEstimate: {
      EstimateBody b;
      b.round = r.i32();
      b.value = r.i64();
      b.ts = r.i32();
      if (!r.ok()) return set_error(error, "truncated estimate body");
      emplace_payload(out, b);
      return true;
    }
    case PayloadKind::kPropose: {
      ProposeBody b;
      b.round = r.i32();
      b.value = r.i64();
      if (!r.ok()) return set_error(error, "truncated propose body");
      emplace_payload(out, b);
      return true;
    }
    case PayloadKind::kRoundOnly: {
      RoundOnly b;
      b.round = r.i32();
      if (!r.ok()) return set_error(error, "truncated round body");
      emplace_payload(out, b);
      return true;
    }
    case PayloadKind::kDecide: {
      DecideBody b;
      b.round = r.i32();
      b.value = r.i64();
      if (!r.ok()) return set_error(error, "truncated decide body");
      emplace_payload(out, b);
      return true;
    }
    case PayloadKind::kI64: {
      const std::int64_t v = r.i64();
      if (!r.ok()) return set_error(error, "truncated i64 body");
      emplace_payload(out, v);
      return true;
    }
    case PayloadKind::kKvRequest: {
      kv::Request b;
      if (!decode_kv_request(r, &b, error)) return false;
      emplace_payload(out, std::move(b));
      return true;
    }
    case PayloadKind::kKvReply: {
      kv::Reply b;
      if (!decode_kv_reply(r, &b, error)) return false;
      emplace_payload(out, std::move(b));
      return true;
    }
    case PayloadKind::kKvBatch: {
      kv::BatchBody b;
      if (!decode_kv_batch(r, &b, error)) return false;
      emplace_payload(out, std::move(b));
      return true;
    }
    case PayloadKind::kKvSnapshot: {
      kv::SnapshotChunk b;
      if (!decode_kv_snapshot(r, &b, error)) return false;
      emplace_payload(out, std::move(b));
      return true;
    }
    case PayloadKind::kRbEnvelope: {
      RbEnvelope e;
      e.origin = r.i32();
      e.seq = r.u64();
      e.tag = r.i32();
      const auto inner = static_cast<PayloadKind>(r.u16());
      const std::uint32_t inner_len = r.u32();
      if (!r.ok() || inner_len > r.remaining()) {
        return set_error(error, "truncated rb envelope");
      }
      DecodedPayload nested;
      if (!decode_payload(inner, r, depth + 1, &nested, error)) return false;
      e.body = std::move(nested.body);
      e.body_kind = nested.kind;
      emplace_payload(out, std::move(e));
      return true;
    }
    case PayloadKind::kHierDigest:
    case PayloadKind::kSwimBody:
      return set_error(error, "payload kind has no wire encoding");
  }
  return set_error(error, "unknown payload kind");
}

}  // namespace

bool encode_message(const Message& m, std::vector<std::uint8_t>* out,
                    std::string* error, std::uint64_t causal_seq) {
  WireWriter w;
  w.u16(kMagic);
  w.u8(kVersion);
  w.u8(causal_seq != 0 ? kFlagCausalSeq : 0);
  if (causal_seq != 0) w.u64(causal_seq);
  w.i32(m.src);
  w.i32(m.dst);
  w.i32(m.protocol);
  w.i32(m.type);

  WireWriter payload;
  if (!encode_payload(m.payload_kind, m.payload.get(), payload, error)) {
    return false;
  }
  w.u16(static_cast<std::uint16_t>(m.payload_kind));
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.bytes(payload.data().data(), payload.size());

  w.u32(crc32(w.data().data(), w.size()));
  if (w.size() > kMaxFrameBytes) {
    return set_error(error, "frame exceeds kMaxFrameBytes");
  }
  *out = w.take();
  return true;
}

std::optional<Message> decode_message(const std::uint8_t* data,
                                      std::size_t len, std::string* error,
                                      std::uint64_t* causal_seq) {
  const auto fail = [&](const char* reason) -> std::optional<Message> {
    set_error(error, reason);
    return std::nullopt;
  };
  if (causal_seq != nullptr) *causal_seq = 0;

  if (len < 4 || len > kMaxFrameBytes) return fail("bad frame size");
  if (crc32(data, len - 4) !=
      (static_cast<std::uint32_t>(data[len - 4]) |
       static_cast<std::uint32_t>(data[len - 3]) << 8 |
       static_cast<std::uint32_t>(data[len - 2]) << 16 |
       static_cast<std::uint32_t>(data[len - 1]) << 24)) {
    return fail("checksum mismatch");
  }

  WireReader r(data, len - 4);  // the checksum itself is not re-read
  if (r.u16() != kMagic) return fail("bad magic");
  if (r.u8() != kVersion) return fail("unsupported version");
  const std::uint8_t flags = r.u8();
  if ((flags & ~kKnownFlags) != 0) return fail("nonzero reserved flags");
  if ((flags & kFlagCausalSeq) != 0) {
    const std::uint64_t seq = r.u64();
    if (!r.ok() || seq == 0) return fail("bad causal sequence");
    if (causal_seq != nullptr) *causal_seq = seq;
  }

  Message m;
  m.src = r.i32();
  m.dst = r.i32();
  m.protocol = r.i32();
  m.type = r.i32();
  if (!r.ok() || m.src < kNoProcess || m.src >= kMaxUniverse ||
      m.dst < kNoProcess || m.dst >= kMaxUniverse) {
    return fail("bad frame header");
  }

  const auto kind = static_cast<PayloadKind>(r.u16());
  const std::uint32_t payload_len = r.u32();
  if (!r.ok() || payload_len != r.remaining()) {
    return fail("payload length mismatch");
  }
  DecodedPayload payload;
  std::string payload_error;
  if (!decode_payload(kind, r, 0, &payload, &payload_error)) {
    set_error(error, payload_error.empty() ? "bad payload"
                                           : payload_error.c_str());
    return std::nullopt;
  }
  if (!r.ok() || !r.exhausted()) return fail("trailing payload bytes");
  m.payload = std::move(payload.body);
  m.payload_kind = payload.kind;
  return m;
}

}  // namespace ecfd::wire
