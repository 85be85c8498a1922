#pragma once

#include <optional>
#include <string>
#include <vector>

#include "check/verdict.hpp"
#include "net/process_set.hpp"

/// \file fd_monitor.hpp
/// The failure-detector property engine: the paper's Fig. 1
/// completeness/accuracy axes, Omega's Property 1, and Definition 1's ◇C
/// coupling clause `trusted_p ∉ suspected_p`, judged online.
///
/// The monitor is a pure state machine: feed it whole-system snapshots in
/// time order via observe() and query verdicts() at any point. It has no
/// dependency on the simulator, so the same class evaluates runs on the
/// discrete-event System (driven by check::SimMonitor) and, read-only, on
/// the threaded runtime (driven by check::ThreadedFdMonitor).
///
/// Eventual properties ("there is a time after which X holds") are tracked
/// as the start of the current holding suffix: every violating snapshot
/// resets the suffix and records the witness. The caller classifies a
/// finished run with check::satisfied(), which demands stabilization with
/// margin before the end, or with classes(), which maps the verdicts onto
/// Fig. 1's classes. Completeness is judged over the processes crashed so
/// far, so a property clean from the first snapshot holds since 0.
///
/// A property family is checked iff some snapshot carried an output of its
/// kind from a correct process: suspected sets for completeness/accuracy,
/// trusted processes for the leader properties, both for the coupling
/// clause. Until the first snapshot every FD verdict is pending.

namespace ecfd::check {

/// A finished run's place among the paper's classes, each property judged
/// with check::satisfied(). `leader` names Omega's common trusted process
/// and `ewa_witness` the correct process nobody suspects, each only when
/// that property counts (kNoProcess otherwise).
struct FdClasses {
  bool strong_completeness{false};
  bool weak_completeness{false};
  bool eventual_strong_accuracy{false};
  bool eventual_weak_accuracy{false};
  bool omega{false};  ///< fd.leader_agreement (Property 1)
  bool coupling{false};
  ProcessId leader{kNoProcess};
  ProcessId ewa_witness{kNoProcess};

  [[nodiscard]] bool eventually_perfect() const {
    return strong_completeness && eventual_strong_accuracy;
  }
  [[nodiscard]] bool eventually_strong() const {
    return strong_completeness && eventual_weak_accuracy;
  }
  [[nodiscard]] bool eventually_quasi_perfect() const {
    return weak_completeness && eventual_strong_accuracy;
  }
  [[nodiscard]] bool eventually_weak() const {
    return weak_completeness && eventual_weak_accuracy;
  }
  /// ◇C (Definition 1): ◇S sets, an Omega leader, and the coupling clause.
  [[nodiscard]] bool eventually_consistent() const {
    return eventually_strong() && omega && coupling;
  }
  /// The strongest class: "dP+dC", "dP", "dC", "dS", "dQ", "dW", "Omega",
  /// or "-" for none.
  [[nodiscard]] const char* name() const;
};

class FdPropertyMonitor {
 public:
  struct Config {
    int n{0};
    /// Processes that never crash during the run (known from the fault
    /// schedule); the paper's properties quantify over these.
    ProcessSet correct;
    /// Enforce eventual *strong* accuracy (◇P stacks); otherwise it is
    /// reported informationally and only weak accuracy is required.
    bool require_strong_accuracy{false};
  };

  explicit FdPropertyMonitor(Config cfg);

  /// One whole-system observation. `suspected[p]` / `trusted[p]` are
  /// nullopt for crashed processes and for processes without that oracle.
  struct Snapshot {
    TimeUs time{0};
    ProcessSet crashed;  ///< processes crashed at snapshot time
    std::vector<std::optional<ProcessSet>> suspected;
    std::vector<std::optional<ProcessId>> trusted;
  };

  /// Feeds a snapshot; snapshots must arrive in nondecreasing time order.
  void observe(const Snapshot& snap);

  /// Verdicts over everything observed so far. Property names:
  ///   fd.strong_completeness, fd.eventual_weak_accuracy,
  ///   fd.eventual_strong_accuracy, fd.leader_agreement,
  ///   fd.leader_stability, fd.coupling
  [[nodiscard]] std::vector<Verdict> verdicts() const;

  /// Fig. 1 class membership of a run ending at \p end, every property
  /// owing \p margin of stability. Adds weak completeness, which is not
  /// among verdicts(): the fuzz digests hash that list.
  [[nodiscard]] FdClasses classes(TimeUs end, DurUs margin) const;

  [[nodiscard]] TimeUs last_observed() const { return last_time_; }
  [[nodiscard]] std::int64_t snapshots() const { return snapshots_; }
  [[nodiscard]] const Config& config() const { return cfg_; }

  /// Ground-truth detection witness for one crashed process, as the
  /// monitor saw it: when the crash first appeared in a snapshot and when
  /// each observer's suspicion of the victim was first sampled. Times are
  /// quantized to the monitor period, so they bound — rather than equal —
  /// the event-exact detection times the obs::QosScoreboard estimates;
  /// tests/test_obs_qos.cpp validates the scoreboard against these.
  struct DetectionWitness {
    ProcessId victim{kNoProcess};
    TimeUs crashed_seen{kTimeNever};
    /// Indexed by observer; kTimeNever = never seen suspecting the victim.
    std::vector<TimeUs> first_suspect;
    /// Indexed by observer: start of its current unbroken suspicion of the
    /// victim (kTimeNever while it does not suspect it; 0 when unbroken
    /// since the crash was first seen). Weak completeness holds once every
    /// victim has a finite entry.
    std::vector<TimeUs> suspect_since;
  };

  /// One entry per victim, in the order crashes were first observed.
  [[nodiscard]] const std::vector<DetectionWitness>& detections() const {
    return detections_;
  }

 private:
  /// Suffix tracker for one eventual property.
  struct EventualState {
    bool ok{true};
    TimeUs holds_since{0};
    TimeUs last_violation{kTimeNever};
    std::string witness;
    std::int64_t violations{0};

    void update(TimeUs now, bool now_ok, const std::string& why);
    [[nodiscard]] Verdict verdict(const char* name, bool required) const;
  };

  [[nodiscard]] Verdict weak_completeness() const;
  /// The correct process unsuspected for longest (kNoProcess if none).
  [[nodiscard]] ProcessId ewa_candidate() const;

  Config cfg_;
  TimeUs last_time_{0};
  std::int64_t snapshots_{0};
  bool suspect_seen_{false};  ///< some correct process output a suspected set
  bool leader_seen_{false};   ///< some correct process output a leader

  EventualState completeness_;
  EventualState strong_accuracy_;
  EventualState leader_agreement_;
  EventualState leader_stability_;
  EventualState coupling_;

  // Eventual weak accuracy needs a per-candidate view: the SAME correct
  // process must eventually be unsuspected by every correct process
  // forever. unsuspected_since_[c] is the start of c's current clean
  // suffix (kTimeNever while c is suspected by some correct process).
  std::vector<TimeUs> unsuspected_since_;
  std::int64_t ewa_bad_samples_{0};
  TimeUs ewa_last_bad_{kTimeNever};
  std::string ewa_witness_;

  // Leader-change detection.
  std::vector<std::optional<ProcessId>> prev_trusted_;
  ProcessId prev_common_leader_{kNoProcess};

  // Detection witnesses (see DetectionWitness).
  std::vector<DetectionWitness> detections_;
};

}  // namespace ecfd::check
