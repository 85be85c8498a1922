#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/payload_pool.hpp"
#include "net/process_set.hpp"

/// \file message.hpp
/// The unit of communication between processes.
///
/// A message carries a protocol id (which protocol instance on the receiving
/// host should handle it), a per-protocol integer type, and an immutable,
/// shared, typed payload. Payloads are shared rather than copied so that a
/// broadcast of one body to n-1 destinations costs one allocation.
///
/// The payload's PayloadKind is the one registry of body types: make<T>
/// stamps it, as<T> checks it, the wire codec encodes by it. A frame may
/// carry any kind under any (protocol, type), so as<T> returns null on a
/// mismatch and every reader drops such a body like an unknown type. A
/// body whose per-process fields do not fit the universe never reaches a
/// reader: Env::dispatch drops it (see kPerProcess below).
/// Frames carry no label, so a decoded message's label is empty.

namespace ecfd {

namespace obs {
class MetricsRegistry;
}

/// Identifies a protocol instance across all hosts; see protocol_ids.hpp.
using ProtocolId = int;

/// The name of a body type. Each body states its kind once, as a
/// `static constexpr PayloadKind kKind` member or a kind_of specialization
/// below, so Message::make<T> of a type without one does not compile.
/// Every kind has a wire encoding. Values are part of the wire format:
/// never renumber, only append.
enum class PayloadKind : std::uint16_t {
  kNone = 0,         ///< Message::make_empty
  kProcessSet = 1,   ///< c_to_p list, efficient_p leader list, w_to_s suspects
  kU64Vector = 2,    ///< stable_leader counters, omega_from_s count rows
  kRingBody = 3,     ///< fd::RingFd::Body (QUERY/REPLY circulated state)
  kEstimate = 4,     ///< consensus::EstimateBody
  kPropose = 5,      ///< consensus::ProposeBody
  kRoundOnly = 6,    ///< consensus::RoundOnly (announce/null/ack/nack)
  kDecide = 7,       ///< consensus::DecideBody (usually nested in kRbEnvelope)
  kRbEnvelope = 8,   ///< broadcast::RbEnvelope (carries a nested payload)
  kI64 = 9,          ///< plain std::int64_t (application values over RB)
  kKvRequest = 10,   ///< kv::Request (client -> server envelope)
  kKvReply = 11,     ///< kv::Reply (server -> client envelope)
  kKvBatch = 12,     ///< kv::BatchBody (replicated command batch, over RB)
  kKvSnapshot = 13,  ///< kv::SnapshotChunk (store snapshot transfer)
  kHierDigest = 14,  ///< fd::HierDigest (hier_c digest beats)
  kSwimBody = 15,    ///< fd::SwimBody (SWIM ping / ping-req / ack)
};

/// Marks a field that names a process or holds one entry per process; see
/// the field lists below.
struct PerProcess {};
inline constexpr PerProcess kPerProcess{};

// Field lists. Every body states its fields once, in wire order, as a
// member `template <class V> void fields(V& v)` that calls, per field:
//   v(x)               a scalar: u8, i32, u32, i64 or u64;
//   v(s, cap)          a string, a byte vector, or a vector of structs
//                      that have field lists of their own, of at most cap
//                      elements;
//   v(e, max)          a u8 enum whose largest value is max;
//   v(x, kPerProcess)  a process id in [kNoProcess, n), a ProcessSet over
//                      n, or a u64 vector of length n;
//   v(body, kind)      a nested body of its own kind (RbEnvelope's).
// Invariants that tie fields together go in a `bool valid() const` beside
// the list. The wire codec walks the list to encode and to decode, within
// the caps; Env::dispatch walks it to drop a body that does not fit n. The
// ProcessSet, u64 vector and i64 bodies state theirs in wire/codec.cpp.

template <class T>
inline constexpr PayloadKind kind_of = T::kKind;
template <>
inline constexpr PayloadKind kind_of<ProcessSet> = PayloadKind::kProcessSet;
template <>
inline constexpr PayloadKind kind_of<std::vector<std::uint64_t>> =
    PayloadKind::kU64Vector;
template <>
inline constexpr PayloadKind kind_of<std::int64_t> = PayloadKind::kI64;

struct Message {
  ProcessId src{kNoProcess};
  ProcessId dst{kNoProcess};
  ProtocolId protocol{0};
  int type{0};
  /// Human-readable message label ("cons_c.estimate") used for the
  /// sender's counters; empty on a decoded message.
  const char* label{""};

  std::shared_ptr<const void> payload{};
  PayloadKind payload_kind{PayloadKind::kNone};

  /// Builds a message with a typed payload. The body comes from the
  /// per-type freelist (payload_pool.hpp) and is shared, never copied, by
  /// every downstream send of this Message — a broadcast fan-out costs one
  /// pooled allocation total.
  template <class T>
  static Message make(ProtocolId protocol, int type, const char* label,
                      T body) {
    Message m;
    m.protocol = protocol;
    m.type = type;
    m.label = label;
    m.payload_kind = kind_of<T>;
    m.payload = make_pooled_payload<T>(std::move(body));
    return m;
  }

  /// Builds a payload-less message.
  static Message make_empty(ProtocolId protocol, int type, const char* label) {
    Message m;
    m.protocol = protocol;
    m.type = type;
    m.label = label;
    return m;
  }

  /// The payload as a T, or null when it is of another kind (or absent).
  template <class T>
  const T* as() const {
    return payload_kind == kind_of<T> ? static_cast<const T*>(payload.get())
                                      : nullptr;
  }
};

/// Counter key for a message: "msg.<label>", or "msg.proto<P>.type<T>"
/// when a protocol did not label it.
std::string message_counter_key(const Message& m);

/// Per-label message accounting, the one counting path of the simulated
/// Network and the UDP DgramEnv, so both runtimes count alike:
/// "msg.<label>.sent" counts every send and "msg.<label>.dropped" the lost
/// subset, created at the first drop (a run without loss has no zero-valued
/// key, and the digests hash the key set).
///
/// A counter is registered on its first message and bumped directly after
/// that, found by the label's address (labels are string literals, so the
/// address is stable), or by (protocol, type) for an unlabeled message. One thread counts (the simulator, or the
/// DgramEnv's event loop).
class MessageCounters {
 public:
  explicit MessageCounters(obs::MetricsRegistry& metrics)
      : metrics_(metrics) {}

  /// Counts one send of \p m.
  void sent(const Message& m) {
    cell(m, false).fetch_add(1, std::memory_order_relaxed);
  }
  /// Counts one send of \p m, already counted by sent(), as lost.
  void dropped(const Message& m) {
    cell(m, true).fetch_add(1, std::memory_order_relaxed);
  }

 private:
  struct Key {
    const char* label;
    std::uint64_t protocol_type;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      return std::hash<const char*>{}(k.label) ^ k.protocol_type;
    }
  };
  struct Cells {
    std::atomic<std::int64_t>* sent{nullptr};
    std::atomic<std::int64_t>* dropped{nullptr};
  };

  std::atomic<std::int64_t>& cell(const Message& m, bool lost);

  obs::MetricsRegistry& metrics_;
  std::unordered_map<Key, Cells, KeyHash> cells_;
};

/// Sum of the "msg.<label>.sent" counters whose name starts with \p prefix:
/// the messages one protocol family sent ("msg.rb." for reliable broadcast).
std::int64_t sum_sent(const obs::MetricsRegistry& metrics,
                      const std::string& prefix);

}  // namespace ecfd
