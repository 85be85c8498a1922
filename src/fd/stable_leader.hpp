#pragma once

#include <cstdint>
#include <vector>

#include "fd/adaptive_timeout.hpp"
#include "fd/oracle.hpp"
#include "net/env.hpp"
#include "net/protocol_ids.hpp"

/// \file stable_leader.hpp
/// Stable leader election, after Aguilera, Delporte-Gallet, Fauconnier,
/// Toueg (DISC 2001, the paper's reference [2], discussed in Sections 1.1
/// and 4): an Omega detector that is STABLE — once a leader is elected it
/// remains the leader for as long as it does not crash and its links
/// behave well, even if lower-id processes later recover credibility.
///
/// Mechanism (accusation counters):
///  * every process keeps a monotone counter per process — the number of
///    times that process has been accused of having crashed;
///  * the leader is the process minimizing (counter, id);
///  * the current leader broadcasts OK beats carrying the counter vector
///    (n−1 messages per period in the steady state);
///  * a process that times out on its current leader increments that
///    leader's counter, widens its margin α for it, and broadcasts the
///    accusation so that everyone converges on the same counters
///    (max-merge).
///
/// Deadline rule (the timeout). Each process runs one Chen-style
/// ArrivalPredictor (fd/adaptive_timeout.hpp) per peer, fed by that
/// peer's OK beats, and accuses its leader once `now` passes the
/// predictor's deadline: last beat + windowed mean inter-beat time + a
/// margin α. Before two beats have arrived, the deadline is the last beat
/// (or the restart) + initial_timeout, the fallback. Every accusation
/// widens α, and the fallback with it, by timeout_increment. A fresh
/// leader, and an accused one that stays leader, restart on the fallback:
/// beats heard before the role began predict nothing. One timer sits at
/// the current leader's deadline and each of its beats pushes it forward,
/// so a crashed leader is accused at its deadline, one period + α after
/// its last beat, and a live one never lets the timer fire. The period
/// timer only beats.
///
/// Output events. The leader changes the moment the argmin moves, on an
/// accusation made here or on a merged counter vector; the module then
/// records kLeaderChange and calls Env::fd_changed(), so the protocols
/// that wait on the leader act at once.
///
/// A crashed leader silently accumulates accusations until it loses the
/// argmin; a falsely accused leader loses it at most finitely often,
/// because each mistake widens the accuser's α and fallback: once both
/// exceed the post-GST bound on the gap between two of the leader's beats,
/// that accuser never accuses it again. α stops at the predictor's 5 s
/// max_alpha ceiling, so in practice the argument covers links whose
/// beats are never further apart than that. Unlike
/// the lowest-id rule of fd/leader_candidate.hpp, leadership does NOT
/// bounce back to a lower-id process once it has moved on — that is the
/// stability property, measured by tests as the number of leader changes.

namespace ecfd::fd {

class StableLeader final : public Protocol, public LeaderOracle {
 public:
  struct Config {
    DurUs period{msec(10)};
    DurUs initial_timeout{msec(30)};    ///< fallback before warm-up
    DurUs timeout_increment{msec(10)};  ///< α widening per accusation
  };

  explicit StableLeader(Env& env);
  StableLeader(Env& env, Config cfg);

  void start() override;
  void on_message(const Message& m) override;

  /// The process minimizing (accusations, id).
  [[nodiscard]] ProcessId trusted() const override;

  /// Accusation count known against q (exposed for tests).
  [[nodiscard]] std::uint64_t accusations(ProcessId q) const {
    return counters_[static_cast<std::size_t>(q)];
  }

  /// How many times this module's trusted() output changed (stability
  /// metric; the first leader, at start, is not a change).
  [[nodiscard]] int leader_changes() const { return leader_changes_; }

  /// The deadline source for q's beats (exposed for tests).
  [[nodiscard]] const ArrivalPredictor& predictor(ProcessId q) const {
    return arrivals_[static_cast<std::size_t>(q)];
  }

 private:
  enum MsgType { kOk = 1, kAccuse = 2 };

  void tick();  ///< beats while this process leads
  void merge(const std::vector<std::uint64_t>& remote);
  void restart(std::size_t q);  ///< q's deadline back on the fallback
  /// Follows the argmin; true when it moved.
  bool follow_leader();
  /// Points the deadline timer at the current leader's deadline.
  void arm_deadline();
  void on_deadline();

  Config cfg_;
  std::vector<std::uint64_t> counters_;
  std::vector<TimeUs> last_heard_;
  std::vector<ArrivalPredictor> arrivals_;
  ProcessId observed_leader_{kNoProcess};
  int leader_changes_{-1};  ///< first observation is not a "change"
  TimerId deadline_timer_{kInvalidTimer};
};

}  // namespace ecfd::fd
