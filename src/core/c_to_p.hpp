#pragma once

#include <vector>

#include "core/ecfd_oracle.hpp"
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
///   Task 3 (leader only)  — suspect q when no I-AM-ALIVE arrived within
///                           the per-target timeout Δ_p(q).
///   Task 4 (leader only)  — on I-AM-ALIVE from a suspected q: stop
///                           suspecting q and increase Δ_p(q).
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
/// Takeover rule (how Task 3 starts when a process becomes leader; Fig. 2
/// leaves it open). Every CToP message from q, an I-AM-ALIVE or a list,
/// stamps q's last-heard time. A new leader keeps the stamp of the process
/// whose lists it was adopting — its predecessor — and grants a fresh
/// grace period Δ only to the others, which were reporting to the
/// predecessor and about which it has no evidence. A crashed predecessor
/// is therefore suspected at the first Task 3 check after the takeover,
/// and failover costs Omega's election plus at most one list period, not
/// election plus a whole Δ.
///
/// Theorem 1 still holds. Strong completeness: a crashed process sends
/// nothing, so its stamp stops; the eventual leader suspects it at most Δ
/// after its last message or after the leader's own takeover, whichever is
/// later, and only an I-AM-ALIVE from it could lift that. Eventual strong
/// accuracy: once Omega has stabilized on a correct leader ℓ, ℓ takes over
/// at most once more. A correct predecessor wrongly suspected at that
/// takeover (say its lists to ℓ were slow) trusts ℓ from then on, so its
/// next I-AM-ALIVE reaches ℓ over a reliable partially synchronous input
/// link; Task 4 lifts the suspicion and widens Δ_ℓ, as for any other
/// mistake. The rule reads only messages ℓ receives, so the leader's
/// output links may stay fair lossy.

namespace ecfd::core {

class CToP final : public Protocol, public SuspectOracle {
 public:
  struct Config {
    DurUs alive_period{msec(10)};   ///< Task 2 period Φ
    DurUs list_period{msec(10)};    ///< Task 1 period
    DurUs initial_timeout{msec(30)};
    DurUs timeout_increment{msec(10)};
  };

  /// \p trusted_src is this process's local module of the input detector D
  /// (only its trusted() output is used). Not owned.
  CToP(Env& env, const LeaderOracle* trusted_src);
  CToP(Env& env, const LeaderOracle* trusted_src, Config cfg);

  void start() override;
  void on_message(const Message& m) override;

  /// The transformed ◇P output.
  [[nodiscard]] ProcessSet suspected() const override { return adopted_; }

  /// Whether this process currently considers itself the leader.
  [[nodiscard]] bool acting_leader() const { return acting_leader_; }

  /// The current Task 3 timeout Δ_p(q), widened by Task 4 (for tests).
  [[nodiscard]] DurUs timeout(ProcessId q) const {
    return timeout_[static_cast<std::size_t>(q)];
  }

 private:
  void alive_tick();  ///< Task 2
  void leader_tick(); ///< Tasks 1 + 3 (+ leadership transitions)

  Config cfg_;
  const LeaderOracle* trusted_src_;
  bool acting_leader_{false};
  ProcessSet local_list_;   ///< the list the leader builds (Tasks 3/4)
  ProcessSet adopted_;      ///< the ◇P output (Task 5)
  ProcessId list_src_{kNoProcess};  ///< whose list Task 5 last adopted
  std::vector<TimeUs> last_alive_;  ///< last CToP message from q, any type
  std::vector<DurUs> timeout_;
};

}  // namespace ecfd::core
