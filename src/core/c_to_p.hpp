#pragma once

#include <vector>

#include "core/ecfd_oracle.hpp"
#include "fd/adaptive_timeout.hpp"
#include "net/env.hpp"
#include "net/protocol_ids.hpp"

/// \file c_to_p.hpp
/// The paper's Fig. 2 algorithm: transforming a ◇C (or Omega) failure
/// detector D into a ◇P failure detector in a model of partial synchrony
/// (Section 4, Theorem 1).
///
/// The idea: let the eventually-agreed trusted process build the suspected
/// list for everyone.
///
///   Task 1 (leader only)  — periodically send the local suspected list to
///                           every other process.
///   Task 2 (everyone)     — periodically send I-AM-ALIVE to D.trusted_p.
///   Task 3 (leader only)  — suspect q when no I-AM-ALIVE arrived by
///                           q's deadline (the deadline rule below).
///   Task 4 (leader only)  — on I-AM-ALIVE from a suspected q: stop
///                           suspecting q and widen q's margin α_p(q).
///   Task 5 (everyone)     — on receiving a suspected list from the
///                           process currently trusted: adopt it as own
///                           output (never adopting a suspicion of self).
///
/// Requirements (Section 4): the n-1 input links of the eventual leader are
/// reliable and partially synchronous; its n-1 output links may be fair
/// lossy; nothing is assumed of other links — eventually only these 2(n-1)
/// links carry messages, which is the transformation's headline cost
/// (versus n² for Chandra-Toueg's ◇P and 2n for the ring ◇P).
///
/// The transformation queries D only for its trusted process, so it works
/// verbatim on top of a plain Omega detector too (as the paper notes).
///
/// Deadline rule (Tasks 3 and 4). The paper's Task 3 waits a per-target
/// timeout Δ_p(q) after q's last I-AM-ALIVE. Here Δ is predicted instead:
/// every CToP message from q, an I-AM-ALIVE or a list, feeds a Chen-style
/// ArrivalPredictor (fd/adaptive_timeout.hpp), and the leader suspects q
/// once `now` passes last arrival + windowed mean inter-arrival + a margin
/// α_p(q). Before two arrivals have warmed it up, the deadline is the last
/// arrival (or the restart) + initial_timeout, the fallback. Task 4 widens
/// α_p(q), and the fallback with it, by timeout_increment. Task 3 runs
/// from one timer at the earliest pending deadline, which every arrival
/// pushes forward, so a silent q is suspected at its deadline and the list
/// goes out at once; the list period only paces Task 1.
///
/// Output events. A new suspicion, a Task 4 repair and a Task 5 adoption
/// that change the output call Env::fd_changed(), and so does the
/// leader's takeover; in turn, when the input detector notifies, the
/// module takes over or steps down at once. Over an input that does not
/// notify, the list period is when it notices its role change.
///
/// Takeover rule (how Task 3 starts when a process becomes leader; Fig. 2
/// leaves it open). A new leader keeps the predictor of the process whose
/// lists it was adopting — its predecessor, whose lists fed it — and
/// restarts every other on the fallback: those were reporting to the
/// predecessor, and it has no evidence about them. A crashed predecessor
/// is therefore suspected at the takeover, or at its deadline if that is
/// later, and failover costs Omega's election and nothing more.
///
/// Theorem 1 still holds, with α in place of Δ. Strong completeness: a
/// crashed process sends nothing, so its predictor's deadline stops
/// moving; the eventual leader suspects it at that deadline or at its own
/// takeover's fallback, whichever is later, and only an I-AM-ALIVE from
/// it could lift that. Eventual strong accuracy: once Omega has
/// stabilized on a correct leader ℓ everywhere, ℓ takes over at most
/// once more, so it restarts a predictor at most once more, and every
/// correct q sends ℓ an I-AM-ALIVE each period. After GST each reaches ℓ
/// at most B after the previous one, for some unknown bound B, and the
/// predicted gap is never negative; so a wrong suspicion needs
/// α_ℓ(q) < B (or a fallback < B). Each one is lifted by q's next
/// I-AM-ALIVE over a reliable partially synchronous input link and widens
/// both by timeout_increment, so q is wrongly suspected only finitely
/// often. A correct predecessor wrongly suspected at the takeover (say its
/// lists to ℓ were slow) trusts ℓ from then on and is repaired the same
/// way. The predictor caps α at its 5 s max_alpha, which is the practical
/// bound: the argument covers links whose post-GST B stays below it. The
/// rule reads only messages ℓ receives, so the leader's output links may
/// stay fair lossy.

namespace ecfd::core {

class CToP final : public Protocol, public SuspectOracle {
 public:
  struct Config {
    DurUs alive_period{msec(10)};   ///< Task 2 period Φ
    DurUs list_period{msec(10)};    ///< Task 1 period
    DurUs initial_timeout{msec(30)};    ///< fallback before warm-up
    DurUs timeout_increment{msec(10)};  ///< α widening per Task 4 repair
  };

  /// \p trusted_src is this process's local module of the input detector D
  /// (only its trusted() output is used). Not owned.
  CToP(Env& env, const LeaderOracle* trusted_src);
  CToP(Env& env, const LeaderOracle* trusted_src, Config cfg);

  void start() override;
  void on_message(const Message& m) override;
  /// Takes over or steps down as soon as the input detector's leader moves.
  void on_fd_change() override;

  /// The transformed ◇P output.
  [[nodiscard]] ProcessSet suspected() const override { return adopted_; }

  /// Whether this process currently considers itself the leader.
  [[nodiscard]] bool acting_leader() const { return acting_leader_; }

  /// The Task 3 deadline source for q, widened by Task 4 (for tests).
  [[nodiscard]] const fd::ArrivalPredictor& predictor(ProcessId q) const {
    return arrivals_[static_cast<std::size_t>(q)];
  }

 private:
  void alive_tick();   ///< Task 2
  void leader_tick();  ///< Task 1
  /// Follows the input's leader: takeover or step-down. True when a
  /// takeover suspected someone at once; the caller publishes the list.
  bool follow_leader();
  /// Task 3: suspects every q past its deadline and re-arms; true when
  /// someone was newly suspected.
  bool task3();
  /// Points the Task 3 timer at the earliest pending deadline.
  void arm_task3();
  void publish();  ///< sends the local list to everyone
  /// The leader's output is its local list; notifies on a change.
  void set_output(const ProcessSet& out);

  Config cfg_;
  const LeaderOracle* trusted_src_;
  bool acting_leader_{false};
  ProcessSet local_list_;   ///< the list the leader builds (Tasks 3/4)
  ProcessSet adopted_;      ///< the ◇P output (Task 5)
  ProcessId list_src_{kNoProcess};  ///< whose list Task 5 last adopted
  std::vector<TimeUs> last_alive_;  ///< last CToP message from q, any type
  std::vector<fd::ArrivalPredictor> arrivals_;  ///< Task 3 deadlines
  TimerId task3_timer_{kInvalidTimer};
};

}  // namespace ecfd::core
