#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "consensus/consensus.hpp"
#include "net/process_set.hpp"
#include "wire/codec.hpp"

/// \file command.hpp
/// The ecfd-kv wire vocabulary: what clients send to servers, what servers
/// send back, and what replicas replicate among themselves.
///
/// The replicated-log core decides plain 64-bit values
/// (consensus::Value), so a key-value command cannot travel through a
/// consensus slot directly. Instead the service uses the classic
/// decomposition: the *payload* (a batch of commands) is disseminated with
/// reliable broadcast under a unique 63-bit batch id, and the consensus
/// slot decides only the id. Every replica applies a slot by looking the
/// id up in its delivered-bodies table — agreement on ids plus reliable
/// dissemination of bodies gives agreement on state.
///
/// The four message shapes name PayloadKinds kKvRequest..kKvSnapshot and
/// state their fields, so they share the CRC-framed, fuzz-hardened binary
/// codec (wire/codec.hpp) with every other protocol in the library.

namespace ecfd::kv {

/// Client-protocol version, carried in every Request; bump on any change
/// to request/reply semantics (the frame layout itself is versioned by
/// wire::kVersion).
inline constexpr std::uint8_t kProtoVersion = 1;

/// Hard bounds enforced on both decode and apply, so a malicious client
/// frame can never blow up a replica.
inline constexpr std::size_t kMaxKeyBytes = 128;
inline constexpr std::size_t kMaxValueBytes = 1024;
inline constexpr std::size_t kMaxOpsPerRequest = 64;
inline constexpr std::size_t kMaxOpsPerBatch = 512;
inline constexpr std::size_t kMaxSnapshotChunkBytes = 32 * 1024;

/// Message types on protocol_ids::kKvService.
enum MsgType {
  kMsgClientRequest = 1,  ///< external: client -> server (Request)
  kMsgClientReply = 2,    ///< external: server -> client (Reply)
  kMsgApplied = 3,        ///< peer gossip: applied-slot watermark (i64)
  kMsgSnapshotChunk = 4,  ///< peer: one chunk of a serialized store
};

/// Operations. Values are on the wire — append only.
enum class OpKind : std::uint8_t {
  kGet = 0,
  kPut = 1,
  kDel = 2,
  kCas = 3,          ///< compare `expected`, swap to `value`
  kOpenSession = 4,  ///< replicated; idempotent
  kCloseSession = 5,
};

/// Statuses. Values are on the wire — append only.
enum class Status : std::uint8_t {
  kOk = 0,
  kNotFound = 1,
  kCasMismatch = 2,   ///< result value = the current (unswapped) value
  kNoSession = 3,     ///< write without a replicated kOpenSession first
  kNotLeader = 4,     ///< retry at Reply::leader_hint
  kOverloaded = 5,    ///< log capacity exhausted / batch full
  kOutOfOrder = 6,    ///< seq gap (client bug; never applied)
  kTooLarge = 7,      ///< key/value/op-count bound violated
  kBadVersion = 8,    ///< Request::version != kProtoVersion
  kTimeout = 9,       ///< client-side only: no reply within the deadline
};

const char* status_name(Status s);

/// One client operation. Write ops carry a per-session sequence number
/// (1-based, assigned by the client, consecutive); reads carry seq 0 and
/// are never deduplicated (they are idempotent).
struct Op {
  OpKind op{OpKind::kGet};
  std::uint64_t seq{0};
  std::string key;
  std::string value;
  std::string expected;  ///< kCas only

  template <class V>
  void fields(V& v) {
    v(op, OpKind::kCloseSession);
    v(seq);
    v(key, kMaxKeyBytes);
    v(value, kMaxValueBytes);
    v(expected, kMaxValueBytes);
  }
};

/// Request flags.
inline constexpr std::uint8_t kFlagLeaseRead = 1;  ///< reads may be served
                                                   ///< leader-locally under
                                                   ///< a valid lease

/// Client -> server envelope: one or more operations of one session.
/// All ops of a request commit in one consensus batch and are answered by
/// a single Reply.
struct Request {
  static constexpr PayloadKind kKind = PayloadKind::kKvRequest;
  std::uint8_t version{kProtoVersion};
  std::uint8_t flags{kFlagLeaseRead};
  std::uint64_t session{0};
  std::uint64_t tag{0};  ///< echoed in the Reply; client-side matching
  std::vector<Op> ops;

  template <class V>
  void fields(V& v) {
    v(version);
    v(flags);
    v(session);
    v(tag);
    v(ops, kMaxOpsPerRequest);
  }
};

/// Per-op outcome.
struct OpResult {
  Status status{Status::kOk};
  std::string value;

  template <class V>
  void fields(V& v) {
    v(status, Status::kTimeout);
    v(value, kMaxValueBytes);
  }

  friend bool operator==(const OpResult& a, const OpResult& b) {
    return a.status == b.status && a.value == b.value;
  }
};

/// Server -> client envelope.
struct Reply {
  static constexpr PayloadKind kKind = PayloadKind::kKvReply;
  std::uint64_t session{0};
  std::uint64_t tag{0};
  Status status{Status::kOk};        ///< transport-level outcome
  std::int32_t leader_hint{-1};      ///< set with kNotLeader
  std::int32_t applied_slot{-1};     ///< slot that committed this request
                                     ///< (-1 for lease reads / dedup hits)
  std::vector<OpResult> results;     ///< one per op when status == kOk

  template <class V>
  void fields(V& v) {
    v(session);
    v(tag);
    v(status, Status::kTimeout);
    v(leader_hint, kPerProcess);
    v(applied_slot);
    v(results, kMaxOpsPerRequest);
  }
};

/// One replicated command: an Op plus its session. What actually enters
/// the state machine.
struct Cmd {
  std::uint64_t session{0};
  std::uint64_t seq{0};
  OpKind op{OpKind::kGet};
  std::string key;
  std::string value;
  std::string expected;

  /// An Op's fields after the session: requests and batches share one
  /// shape and one set of bounds.
  template <class V>
  void fields(V& v) {
    v(session);
    v(op, OpKind::kCloseSession);
    v(seq);
    v(key, kMaxKeyBytes);
    v(value, kMaxValueBytes);
    v(expected, kMaxValueBytes);
  }
};

/// The body a consensus slot's decided id refers to: a batch of commands,
/// disseminated by reliable broadcast before (or concurrently with) the
/// slot deciding `id`.
struct BatchBody {
  static constexpr PayloadKind kKind = PayloadKind::kKvBatch;
  std::int64_t id{0};  ///< unique, positive; see make_batch_id
  std::vector<Cmd> cmds;

  template <class V>
  void fields(V& v) {
    v(id);
    v(cmds, kMaxOpsPerBatch);
  }
  [[nodiscard]] bool valid() const { return id > 0; }
};

/// One chunk of a serialized KvStore snapshot, sent by the leader to a
/// replica whose applied watermark lags behind the leader's compaction
/// floor. Chunks of one snapshot share snap_id; the receiver reassembles
/// `total` of them, installs the state, and fast-forwards its log.
struct SnapshotChunk {
  static constexpr PayloadKind kKind = PayloadKind::kKvSnapshot;
  std::uint64_t snap_id{0};
  std::int32_t upto_slot{0};  ///< state covers slots [0, upto_slot)
  std::uint32_t index{0};
  std::uint32_t total{0};
  std::vector<std::uint8_t> bytes;

  template <class V>
  void fields(V& v) {
    v(snap_id);
    v(upto_slot);
    v(index);
    v(total);
    v(bytes, kMaxSnapshotChunkBytes);
  }
  /// total sizes the receiver's reassembly table, so it is capped like
  /// every other element count: 65,536 chunks of 32 KiB, a 2 GiB image.
  [[nodiscard]] bool valid() const {
    return upto_slot >= 0 && index < total && total <= wire::kMaxElements;
  }
};

/// Batch ids must be unique across replicas and positive (so they never
/// collide with core::kNoOpCommand): origin in the top bits, a local
/// counter below.
inline std::int64_t make_batch_id(ProcessId origin, std::uint64_t counter) {
  return static_cast<std::int64_t>(
      ((static_cast<std::uint64_t>(origin) + 1) << 40) |
      (counter & ((std::uint64_t{1} << 40) - 1)));
}

/// The RB tag kv batch bodies travel under.
inline constexpr int kRbTagBatch = 1;

}  // namespace ecfd::kv
