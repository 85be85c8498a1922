#pragma once

#include <map>
#include <optional>
#include <vector>

#include "broadcast/reliable_broadcast.hpp"
#include "consensus/bodies.hpp"
#include "consensus/consensus.hpp"
#include "core/ecfd_oracle.hpp"
#include "net/protocol_ids.hpp"

/// \file consensus_c.hpp
/// The paper's main algorithm: solving Uniform Consensus with a ◇C failure
/// detector (Section 5.2, Figs. 3 and 4; Theorem 2). Requires a majority
/// of correct processes (f < n/2) and reliable links.
///
/// The algorithm proceeds in asynchronous rounds of five phases:
///
///   Phase 0 — every process determines its coordinator for the round: it
///     becomes coordinator itself when D.trusted_p = p (announcing this to
///     everyone with a `coordinator` message); it becomes a participant of
///     c when it receives c's announcement for this round. An announcement
///     for a later round makes the process jump to that round (footnote 2).
///   Phase 1 — every process sends its timestamped estimate to its
///     coordinator.
///   Phase 2 — a coordinator gathers replies until it has a majority AND a
///     reply from every process it does not suspect (the ◇C completeness
///     makes this wait non-blocking). With a majority of *real* estimates
///     it picks one with the largest timestamp and proposes it to all;
///     otherwise it sends a null proposition.
///   Phase 3 — every process waits for (a) a non-null proposition from any
///     coordinator: adopt it, timestamp it with the round, and ack; or (b)
///     a null proposition from its own coordinator: move on; or (c) its
///     coordinator becoming suspected: nack.
///   Phase 4 — the (at most one, Lemma 1) coordinator that proposed
///     non-null gathers ack/nacks under the same majority-plus-unsuspected
///     rule; with a majority of *acks* — even alongside nacks, which is the
///     accuracy advantage over first-majority waiting — it R-broadcasts
///     `decide` with its proposition.
///
///   Side tasks (Fig. 4): a process answers any *other* coordinator of the
///   current or a previous round with a null estimate; it nacks any late
///   non-null proposition; and it decides upon R-delivering a decision.
///
/// Because the coordinator comes from the failure detector's leader output
/// rather than rotation, the algorithm decides one round after the ◇C
/// detector stabilizes, versus up to n extra rounds for rotating
/// coordinators (Theorem 3).
///
/// The waiting-rule policy and the merged-phase variant discussed in
/// Section 5.4 are exposed as configuration, which is also how the
/// Mostefaoui-Raynal-style Omega baseline and the E6 ablation are built.

namespace ecfd::core {

/// How Phases 2 and 4 decide they have waited long enough.
enum class ReplyPolicy {
  /// The paper's rule: a majority of replies AND a reply from every
  /// process the ◇C detector does not suspect.
  kMajorityPlusUnsuspected,
  /// Chandra-Toueg's rule: exactly the first majority of replies. One
  /// negative reply among them blocks the round.
  kFirstMajority,
  /// Mostefaoui-Raynal's rule: the first n-f replies (f from config).
  kNMinusF,
};

class ConsensusC final : public consensus::ConsensusProtocol {
 public:
  struct Config {
    ReplyPolicy policy{ReplyPolicy::kMajorityPlusUnsuspected};
    /// For kNMinusF: upper bound on failures; <0 means ceil(n/2)-1 (i.e.
    /// only "a majority is correct" is known).
    int f{-1};
    /// Merge Phases 0 and 1 (Section 5.4): no coordinator announcements;
    /// every process sends its estimate to its leader and a null estimate
    /// to everyone else. Trades Θ(n) messages/round for one fewer phase
    /// (and is the message pattern of the MR Omega baseline).
    bool merged_phase01{false};
    /// How often FD-dependent waits are re-evaluated. A stack that
    /// notifies (Env::fd_changed) re-steps them at once; the poll is the
    /// backstop for the stacks that do not.
    DurUs poll_period{msec(2)};
    /// Stop without deciding after this many rounds (0 = unlimited); used
    /// by experiments that demonstrate blocking behaviours.
    int max_rounds{0};
    /// When set, a coordinator choosing among largest-timestamp estimates
    /// prefers any other value over this one. A legal refinement of the
    /// Fig. 3 selection rule (which only asks for *an* estimate with the
    /// largest timestamp); replicated logs use it so filler no-ops lose
    /// ties against real commands.
    std::optional<consensus::Value> deprioritized{};
  };

  /// \p fd: local ◇C module; \p rb: reliable-broadcast instance hosted on
  /// the same process. Neither is owned. \p pid allows embedding the engine
  /// under a different protocol id (see consensus/mr_omega.hpp).
  ConsensusC(Env& env, const EcfdOracle* fd, broadcast::ReliableBroadcast* rb);
  ConsensusC(Env& env, const EcfdOracle* fd, broadcast::ReliableBroadcast* rb,
             Config cfg, ProtocolId pid = protocol_ids::kConsensusC);

  void start() override;
  void propose(consensus::Value v) override;
  void on_message(const Message& m) override;
  /// Re-steps an undecided instance: a phase waiting on the detector's
  /// output moves as soon as that output does.
  void on_fd_change() override;

  /// Invoked once, on the first message that arrives before this process
  /// has proposed. Lets an embedding that keeps instances dormant until
  /// needed (a quiescent replicated log) join in as soon as some other
  /// replica starts the instance; the callback may call propose()
  /// directly — buffered messages are replayed afterwards.
  void set_on_wakeup(std::function<void()> fn) { on_wakeup_ = std::move(fn); }

  [[nodiscard]] int current_round() const override { return round_; }
  /// True when the round cap stopped the protocol.
  [[nodiscard]] bool gave_up() const { return gave_up_; }
  /// Phase within the current round (diagnostics).
  [[nodiscard]] int current_phase() const { return phase_; }
  /// Coordinator this process follows in the current round (diagnostics).
  [[nodiscard]] ProcessId current_coordinator() const { return coordinator_; }

 private:
  using Value = consensus::Value;

  enum MsgType {
    kCoordinator = 1,
    kEstimate = 2,
    kNullEstimate = 3,
    kPropose = 4,
    kNullPropose = 5,
    kAck = 6,
    kNack = 7,
  };

  // Message bodies are the shared consensus wire shapes (consensus/bodies.hpp).
  using EstimateBody = consensus::EstimateBody;
  using ProposeBody = consensus::ProposeBody;
  using RoundOnly = consensus::RoundOnly;
  using DecideBody = consensus::DecideBody;

  /// Per-round reply bookkeeping for a coordinator.
  struct EstimateTally {
    int total{0};
    int real{0};
    Value best{};
    int best_ts{-1};
    ProcessSet responders;
  };
  struct AckTally {
    int acks{0};
    int nacks{0};
    ProcessSet responders;
  };
  struct ProposalSeen {
    ProcessId from{kNoProcess};
    bool non_null{false};
    Value value{};
  };

  // --- helpers --------------------------------------------------------
  [[nodiscard]] int majority() const { return env_.n() / 2 + 1; }
  [[nodiscard]] int wait_quorum() const;
  [[nodiscard]] bool everyone_accounted(const ProcessSet& responders) const;
  [[nodiscard]] bool wait_satisfied(int total,
                                    const ProcessSet& responders) const;

  void on_rb_deliver(const broadcast::RbEnvelope& e);
  void arm_poll();
  void poll();
  void step();
  bool step_once();  ///< returns true when a transition fired
  void enter_round(int r);
  void become_coordinator();
  void become_participant(ProcessId c);
  void send_own_estimate();
  void answer_late_coordinator(ProcessId c, int round);
  void record_estimate(int round, ProcessId from, bool real, Value v, int ts);
  void begin_round_one();
  void finish_phase2();
  void finish_phase4(const AckTally& tally);
  /// Stops the instance for good and cancels its armed poll.
  void halt();

  Config cfg_;
  const EcfdOracle* fd_;
  broadcast::ReliableBroadcast* rb_;

  bool proposed_{false};
  bool started_{false};
  bool halted_{false};
  bool gave_up_{false};

  Value estimate_{};
  int ts_{0};

  int round_{0};   ///< 0 until propose(); rounds are 1-based
  int phase_{0};
  ProcessId coordinator_{kNoProcess};
  bool is_coordinator_{false};
  bool sent_non_null_{false};

  std::map<int, EstimateTally> estimates_;
  std::map<int, AckTally> acks_;
  std::map<int, std::vector<ProcessId>> announcements_;
  std::map<int, std::vector<ProposalSeen>> proposals_;
  std::map<int, ProcessSet> answered_;  ///< coordinators already replied to
  /// Per round: coordinators whose non-null proposition we ack/nacked.
  /// Guards against double replies when a proposition is both consumed in
  /// Phase 3 and swept by the round-advance nack pass.
  std::map<int, ProcessSet> replied_prop_;
  /// Messages that arrived before this process proposed. Coordinators
  /// announce a round only once, so dropping an early announcement would
  /// stall the whole round; instead it is replayed on propose().
  std::vector<Message> pre_propose_buffer_;
  std::function<void()> on_wakeup_;
  bool wakeup_fired_{false};
  bool poll_armed_{false};
  TimerId poll_timer_{kInvalidTimer};  ///< the armed poll, if any
};

}  // namespace ecfd::core
