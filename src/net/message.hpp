#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <typeinfo>
#include <unordered_map>
#include <utility>

#include "net/payload_pool.hpp"
#include "net/process_set.hpp"

/// \file message.hpp
/// The unit of communication between processes.
///
/// A message carries a protocol id (which protocol instance on the receiving
/// host should handle it), a per-protocol integer type, and an immutable,
/// shared, typed payload. Payloads are shared rather than copied so that a
/// broadcast of one body to n-1 destinations costs one allocation.

namespace ecfd {

namespace obs {
class MetricsRegistry;
}

/// Identifies a protocol instance across all hosts; see protocol_ids.hpp.
using ProtocolId = int;

struct Message {
  ProcessId src{kNoProcess};
  ProcessId dst{kNoProcess};
  ProtocolId protocol{0};
  int type{0};
  /// Human-readable message label ("cons_c.estimate") used for counters.
  const char* label{""};

  std::shared_ptr<const void> payload{};
  const std::type_info* payload_type{nullptr};

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
    m.payload_type = &typeid(T);
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

  /// Typed payload access; asserts on type mismatch (a protocol decoding a
  /// message with the wrong body is a programming error, not a runtime
  /// condition).
  template <class T>
  const T& as() const {
    assert(payload && payload_type && *payload_type == typeid(T) &&
           "message payload type mismatch");
    return *static_cast<const T*>(payload.get());
  }

  [[nodiscard]] bool has_payload() const { return payload != nullptr; }
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
/// that, found by the label's address (labels are string literals or
/// interned by the codec, so the address is stable), or by (protocol, type)
/// for an unlabeled message. One thread counts (the simulator, or the
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
