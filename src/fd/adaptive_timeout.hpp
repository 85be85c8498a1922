#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.hpp"

/// \file adaptive_timeout.hpp
/// QoS-adaptive heartbeat timeout source (Chen, Toueg & Aguilera, "On the
/// Quality of Service of Failure Detectors").
///
/// The static schedule in fd/heartbeat_p.hpp waits a constant Delta_p(q)
/// after the last heartbeat and widens it additively on every mistake —
/// correct, but the constant must be provisioned for the slowest link the
/// deployment will ever see, so on a WAN it either false-suspects across
/// the ocean or detects LAN crashes an order of magnitude late. Chen-style
/// estimation instead *predicts* the next heartbeat arrival from a sliding
/// window of observed arrivals and suspects only once the prediction plus
/// a safety margin alpha has passed. The margin still widens on each
/// premature suspicion (and never otherwise), so the finitely-many-
/// mistakes convergence argument of [6] is preserved — the predictor only
/// moves the baseline from a worst-case constant to the observed arrival
/// process.
///
/// The same deadline rule drives the paper's own stack: StableLeader's
/// leader timeout and Tasks 3/4 of Fig. 2 (core/c_to_p.hpp). Those
/// protocols watch a peer only while it plays a role (leader, or a process
/// reporting to this leader), so they restart() its predictor when the
/// role begins; it then runs on the fallback until two new arrivals warm
/// it up again.

namespace ecfd::fd {

/// Windowed next-heartbeat-arrival estimator with an adaptive safety
/// margin. One instance per observed peer; all state is plain integers so
/// instances are copyable and deterministic.
class ArrivalPredictor {
 public:
  struct Config {
    int window{16};                    ///< inter-arrival samples kept
    DurUs alpha{msec(20)};             ///< initial safety margin
    DurUs alpha_increment{msec(10)};   ///< widening step per mistake
    DurUs max_alpha{sec(5)};           ///< widening ceiling
    DurUs fallback_timeout{msec(30)};  ///< pre-warm-up deadline delta
    /// Mutation hook (check/mutants.hpp kFrozenMargin): a predictor that
    /// never widens keeps making the same mistake forever and loses
    /// eventual accuracy on any link whose jitter exceeds alpha.
    bool widen_on_mistake{true};

    /// What a protocol's timeout schedule means on predicted deadlines:
    /// \p initial_timeout is the fallback before warm-up, and alpha
    /// widens by \p timeout_increment on each mistake.
    static Config from_timeouts(DurUs initial_timeout,
                                DurUs timeout_increment) {
      Config c;
      c.fallback_timeout = initial_timeout;
      c.alpha_increment = timeout_increment;
      return c;
    }
  };

  /// Aggregate predicted-vs-actual quality, exported into obs metrics.
  struct Stats {
    std::int64_t arrivals{0};
    std::int64_t predictions{0};  ///< arrivals that had a prior prediction
    std::int64_t mistakes{0};     ///< premature suspicions (note_mistake)
    std::int64_t abs_err_sum{0};  ///< sum |actual - predicted| (us)
    std::int64_t abs_err_max{0};  ///< worst |actual - predicted| (us)
  };

  /// log2 buckets of |actual - predicted|: bucket 0 counts {0}, bucket i
  /// counts [2^(i-1), 2^i) us — same convention as obs::Histogram so the
  /// export replays losslessly per bucket.
  static constexpr int kErrBuckets = 40;

  ArrivalPredictor() : ArrivalPredictor(Config{}) {}
  explicit ArrivalPredictor(Config cfg);

  /// Feeds one heartbeat arrival (local-clock timestamp).
  void observe(TimeUs arrival);

  /// Reports a premature suspicion of this peer; widens alpha (unless the
  /// mutation hook froze it).
  void note_mistake();

  /// Forgets the arrivals seen so far, so the deadline falls back to ref +
  /// fallback until two new arrivals warm the predictor up again. Alpha,
  /// with every widening so far, and the stats are kept.
  void restart();

  /// True once two arrivals produced the first inter-arrival sample.
  [[nodiscard]] bool warmed_up() const { return count_ >= 2; }

  /// Windowed mean inter-arrival time (0 before warm-up).
  [[nodiscard]] DurUs mean_interval() const;

  /// Estimated next arrival: last arrival + mean interval (kTimeNever
  /// before warm-up).
  [[nodiscard]] TimeUs predicted_next() const;

  /// Suspicion deadline: predicted_next() + alpha once warmed up, else
  /// \p ref + fallback_timeout (ref = last heard / start of observation),
  /// widened by as much as alpha has been. The fallback widens too because
  /// restart() can bring it back any number of times: a fixed one shorter
  /// than a link's inter-arrival bound would repeat its mistake after
  /// every restart.
  [[nodiscard]] TimeUs deadline(TimeUs ref) const;

  [[nodiscard]] DurUs alpha() const { return alpha_; }
  [[nodiscard]] TimeUs last_arrival() const { return last_arrival_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] std::int64_t err_bucket(int i) const {
    return err_buckets_[static_cast<std::size_t>(i)];
  }

 private:
  Config cfg_;
  std::vector<DurUs> intervals_;  ///< ring buffer of recent inter-arrivals
  int next_{0};
  std::int64_t count_{0};  ///< arrivals observed
  TimeUs last_arrival_{0};
  DurUs alpha_;
  Stats stats_;
  std::vector<std::int64_t> err_buckets_;
};

}  // namespace ecfd::fd
