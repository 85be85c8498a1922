#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/ecfd_oracle.hpp"
#include "net/env.hpp"
#include "net/protocol_ids.hpp"

/// \file swim.hpp
/// SWIM-style gossip membership as a ◇C module: randomized ping / ping-req
/// indirect probing with suspicion timeouts, incarnation-numbered
/// refutations, and membership updates piggybacked on every protocol
/// message (Das, Gupta & Motivala's SWIM, adapted to the paper's
/// crash-stop, fixed-universe model).
///
/// Per period every process probes ONE uniformly random peer, so the
/// steady-state message load is ~2n per period (ping + ack) regardless of
/// n — constant per node, against the flat heartbeat ◇P's O(n) per node.
/// A missed direct ack triggers k indirect probes through random relays
/// (acks route back through the relay), so one slow or lossy link cannot
/// by itself produce a suspicion. Only when direct and indirect probes all
/// fail does the prober suspect the target and gossip the suspicion.
///
/// Refutation is pure SWIM: a process seeing itself suspected or declared
/// dead at incarnation i bumps its own incarnation past i and gossips an
/// ALIVE update, which overrides the suspicion everywhere; receiving an
/// ack never clears a suspicion by itself. Two adaptations keep the
/// detector inside class ◇C under crash-stop with a fixed universe:
///   * ALIVE at a higher incarnation overrides DEAD (classic SWIM treats
///     dead as final, which would forfeit eventual accuracy after one
///     premature death verdict);
///   * every applied refutation widens the probe timeout (Chen-style
///     widening), so post-GST each process makes only finitely many
///     mistakes and eventual *strong* accuracy holds.
/// suspected() is the set of peers in suspect-or-dead state; trusted() is
/// the first unsuspected process, so the coupling clause holds at every
/// instant and the trusted outputs converge with the suspected sets.
///
/// State per host is sparse: peers at default (alive, incarnation 0) own
/// no entry, so steady-state memory is O(faulty + recently-churned), not
/// O(n) — the membership bitset aside.

namespace ecfd::fd {

/// One piggybacked membership update.
struct SwimUpdate {
  ProcessId subject{kNoProcess};
  std::uint32_t incarnation{0};
  std::uint8_t state{0};  ///< SwimFd::kAlive / kSuspect / kDead

  template <class V>
  void fields(V& v) {
    v(subject, kPerProcess);
    v(incarnation);
    v(state);
  }
};

/// Most updates one body carries: SwimFd piggybacks at most max_piggyback
/// and attaches one more about the subject, and its constructor asserts
/// that they fit.
inline constexpr std::size_t kMaxSwimUpdates = 64;

/// Body shared by ping / ping-req / ack messages.
struct SwimBody {
  static constexpr PayloadKind kKind = PayloadKind::kSwimBody;
  std::uint64_t seq{0};
  ProcessId origin{kNoProcess};   ///< prober the ack must reach
  ProcessId subject{kNoProcess};  ///< probe target (ping-req relays)
  std::vector<SwimUpdate> updates;

  template <class V>
  void fields(V& v) {
    v(seq);
    v(origin, kPerProcess);
    v(subject, kPerProcess);
    v(updates, kMaxSwimUpdates);
  }
};

class SwimFd final : public Protocol, public core::EcfdOracle {
 public:
  enum PeerState : std::uint8_t { kAlive = 0, kSuspect = 1, kDead = 2 };

  struct Config {
    /// Probe cadence: one random direct probe per period.
    DurUs period{msec(10)};
    /// Direct-ack wait before indirect probing; the full probe resolves
    /// (and suspicion starts) after twice this. Widens on every applied
    /// refutation.
    DurUs ack_timeout{msec(10)};
    DurUs timeout_increment{msec(10)};
    /// Suspicion duration before the subject is declared dead (still
    /// refutable at a higher incarnation).
    DurUs suspect_timeout{msec(400)};
    /// Indirect probe fan-out on a missed direct ack.
    int indirect_k{2};
    /// Max piggybacked updates per message.
    int max_piggyback{6};
    /// Mutation hook (check/mutants): the disseminator drops refutations —
    /// an ALIVE update that would clear a local suspect/dead entry is
    /// discarded instead of applied, so one false suspicion anywhere
    /// becomes permanent. Breaks exactly fd.eventual_strong_accuracy.
    bool mutate_drop_refutations{false};
  };

  explicit SwimFd(Env& env);
  SwimFd(Env& env, Config cfg);

  void start() override;
  void on_message(const Message& m) override;

  /// Peers in suspect or dead state.
  [[nodiscard]] ProcessSet suspected() const override { return suspected_; }

  /// First unsuspected process — coupling holds by construction.
  [[nodiscard]] ProcessId trusted() const override;

  [[nodiscard]] std::uint32_t incarnation() const { return self_inc_; }
  [[nodiscard]] DurUs current_ack_timeout() const { return ack_timeout_; }

 private:
  enum MsgType { kPing = 1, kPingReq = 2, kAck = 3 };

  struct Peer {
    std::uint32_t incarnation{0};
    std::uint8_t state{kAlive};
    TimeUs suspected_at{0};
  };

  struct Probe {
    ProcessId target{kNoProcess};
    bool acked{false};
  };

  /// A gossip-buffer entry: retransmitted on outgoing messages until its
  /// budget (~3·log2 n sends) is spent; newest update per subject wins.
  struct Buffered {
    SwimUpdate u;
    int sends_left{0};
  };

  void tick();
  [[nodiscard]] ProcessId random_peer_except(ProcessId skip) const;
  /// Applies one update; returns true when it changed state (and was
  /// therefore re-enqueued for dissemination).
  bool apply_update(const SwimUpdate& u);
  void enqueue_update(const SwimUpdate& u);
  void piggyback(SwimBody& body);
  /// Attaches the local suspect/dead claim about body.subject to an
  /// outgoing ping, so a directly reachable victim always learns of (and
  /// can refute) a stale rumor even after its gossip budget drained.
  void attach_subject_state(SwimBody& body);
  void send_with_gossip(ProcessId dst, int type, const char* label,
                        SwimBody body);
  void resolve_probe(std::uint64_t seq);
  [[nodiscard]] std::uint32_t known_incarnation(ProcessId p) const;

  Config cfg_;
  DurUs ack_timeout_;
  std::uint32_t self_inc_{0};
  std::uint64_t next_seq_{1};

  std::unordered_map<ProcessId, Peer> peers_;  ///< non-default peers only
  ProcessSet suspected_;
  std::unordered_map<std::uint64_t, Probe> probes_;
  std::vector<Buffered> gossip_;
  int gossip_budget_{0};  ///< sends_left for fresh entries
  ProcessId last_trusted_{0};  ///< for kLeaderChange records only
};

}  // namespace ecfd::fd
