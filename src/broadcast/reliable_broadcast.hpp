#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_set>

#include "net/env.hpp"
#include "net/protocol_ids.hpp"

/// \file reliable_broadcast.hpp
/// Reliable Broadcast by message diffusion (Chandra-Toueg [6]): on first
/// delivery of a broadcast, a process relays it before handing it to the
/// application.
///
/// Who relays to whom: the origin sends m to every other process. A process
/// that receives its first copy of m relays it to everyone except itself,
/// the origin, and the process the copy came from. Both excluded processes
/// hold m already: the origin delivered it when it broadcast, and a relayer
/// marks m seen before it sends it on and delivers it right after. So every
/// copy full diffusion would send to a process that still lacks m is still
/// sent, and the guarantees below hold under exactly the link models they
/// held under before. When every first copy comes straight from the origin,
/// a broadcast costs (n-1)^2 frames instead of n(n-1); a first copy that
/// comes from a relayer saves one more. Guarantees:
///   * validity    — a correct broadcaster's message is delivered by all
///                   correct processes;
///   * agreement   — if any correct process delivers m, all correct do;
///   * uniform integrity — m is delivered at most once, and only if it was
///                   broadcast.
/// The consensus algorithms use it to propagate decisions (the "R-broadcast
/// ... decide" of Fig. 4).

namespace ecfd::broadcast {

/// A delivered broadcast.
struct RbEnvelope {
  static constexpr PayloadKind kKind = PayloadKind::kRbEnvelope;

  ProcessId origin{kNoProcess};
  std::uint64_t seq{0};  ///< per-origin sequence number
  int tag{0};            ///< application-defined discriminator

  std::shared_ptr<const void> body{};
  PayloadKind body_kind{PayloadKind::kNone};

  template <class V>
  void fields(V& v) {
    v(origin, kPerProcess);
    v(seq);
    v(tag);
    v(body, body_kind);
  }

  /// The body as a T, or null when it is of another kind (or absent); as
  /// for Message::as, a delivery callback drops such a broadcast.
  template <class T>
  const T* as() const {
    return body_kind == kind_of<T> ? static_cast<const T*>(body.get())
                                   : nullptr;
  }
};

class ReliableBroadcast final : public Protocol {
 public:
  using DeliverFn = std::function<void(const RbEnvelope&)>;

  /// \p pid allows hosting several independent instances on one process
  /// (e.g. one per replicated-log slot); it must match across processes.
  explicit ReliableBroadcast(Env& env,
                             ProtocolId pid = protocol_ids::kReliableBroadcast);

  /// Installs the application callback invoked on every R-delivery.
  void set_deliver(DeliverFn fn) { deliver_ = std::move(fn); }

  /// R-broadcasts a typed body. The local process R-delivers immediately
  /// (after relaying), everyone else on first receipt.
  template <class T>
  void r_broadcast(int tag, T body) {
    RbEnvelope env_out;
    env_out.origin = env_.self();
    env_out.seq = next_seq_++;
    env_out.tag = tag;
    env_out.body_kind = kind_of<T>;
    env_out.body = std::make_shared<const T>(std::move(body));
    diffuse_and_deliver(env_out, env_.self());
  }

  void on_message(const Message& m) override;

  /// Number of distinct broadcasts delivered here (for tests).
  [[nodiscard]] std::size_t delivered_count() const { return seen_.size(); }

 private:
  /// Delivers \p envelope once, relaying it first; \p from is the process
  /// the copy came from (self for this process's own broadcast).
  void diffuse_and_deliver(const RbEnvelope& envelope, ProcessId from);
  [[nodiscard]] static std::uint64_t key(const RbEnvelope& e) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(e.origin))
            << 32) |
           (e.seq & 0xffffffffULL);
  }

  DeliverFn deliver_;
  std::uint64_t next_seq_{1};
  std::unordered_set<std::uint64_t> seen_;
};

}  // namespace ecfd::broadcast
