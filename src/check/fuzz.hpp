#pragma once

#include <optional>
#include <string>
#include <vector>

#include "check/fd_monitor.hpp"
#include "check/mutants.hpp"
#include "check/verdict.hpp"
#include "consensus/harness.hpp"
#include "net/geo.hpp"
#include "net/network.hpp"

/// \file fuzz.hpp
/// Adversarial fault-injection fuzzing of the FD/consensus stacks.
///
/// A FaultSchedule is a seeded, serializable list of compound fault events
/// (crash, partition window, chaos window) injected into a consensus
/// harness run that is observed by the online property monitors. Correct
/// algorithms must show zero required-property violations on every
/// schedule the generator can produce; a violation yields a greedy-shrunk
/// minimal schedule plus a replayable repro file (check/repro.hpp).
///
/// Events are *compound*: a partition or chaos window carries its own end
/// time, so the shrinker can drop any single event without ever stranding
/// an un-healed partition (which would manufacture false violations).
/// Generated windows never overlap (heal()/clear_chaos() are global) and
/// everything ends by `chaos_end`, leaving a quiet tail in which eventual
/// properties must stabilize with `stable_margin` to spare.

namespace ecfd::check {

/// One injected fault.
struct FaultEvent {
  enum class Kind {
    kCrash,            ///< crash-stop `process` at `at`
    kPartitionWindow,  ///< partition `group` vs rest during [at, until)
    kChaosWindow,      ///< message chaos overlay active during [at, until)
    // WAN/geo scenario pack. New kinds are appended (never reordered) so
    // the ordinals hashed into historical fuzz digests stay stable.
    kGeoLatency,  ///< swap every link to the embedded geo matrix at t=0
    kFlapWindow,  ///< `process`'s links toggle up/down during [at, until)
    kGrayWindow,  ///< `process` alive-but-slow during [at, until)
    kSkewWindow,  ///< `process`'s clock skewed during [at, until)
  };
  Kind kind{Kind::kCrash};
  TimeUs at{0};
  TimeUs until{0};          ///< window events only
  ProcessId process{kNoProcess};  ///< kCrash + per-process windows
  ProcessSet group;         ///< kPartitionWindow only
  Network::Chaos chaos;     ///< kChaosWindow only

  // kGeoLatency: the exact matrices drawn, embedded so replays never
  // depend on the preset tables or the generator.
  GeoSpec geo;

  // kFlapWindow: duty cycle — each `flap_period` starts with an up phase
  // of flap_period * flap_up_ppm / 1e6, then the process's links drop
  // everything until the period ends. The window always heals at `until`.
  DurUs flap_period{0};
  std::uint32_t flap_up_ppm{0};

  // kGrayWindow: local timer stretch (1000 = normal) and per-message
  // extra send latency (ProcessHost::set_gray).
  std::uint32_t gray_factor_milli{0};
  DurUs gray_send_extra{0};

  // kSkewWindow: clock offset + drift, clamped by the injector to
  // +-skew_bound (ProcessHost::set_clock_skew); the bound is also
  // registered with the monitor's scenario self-check.
  std::int64_t skew_offset{0};
  std::int32_t skew_drift_ppm{0};
  DurUs skew_bound{0};
};

struct FaultSchedule {
  std::vector<FaultEvent> events;
};

/// What mix of faults the generator draws from.
enum class FuzzProfile {
  kCrash,      ///< crash-stops only (up to a minority)
  kPartition,  ///< partition/heal windows, possibly one crash
  kLossDelay,  ///< chaos windows: loss bursts, delay spikes, duplication
  kChurn,      ///< everything combined
  // WAN/geo scenario pack (appended: per-profile rng streams and the
  // ordinals in fuzz digests must not move for the LAN profiles).
  kGeo,   ///< whole-run asymmetric WAN latency matrix, maybe one crash
  kFlap,  ///< flapping-link windows, maybe one crash
  kGray,  ///< alive-but-slow windows, maybe one crash
  kSkew,  ///< bounded clock skew/drift windows, maybe one crash
};

/// Every profile, in campaign order ("--profile all").
[[nodiscard]] const std::vector<FuzzProfile>& all_profiles();

[[nodiscard]] const char* profile_name(FuzzProfile p);
[[nodiscard]] std::optional<FuzzProfile> profile_from_name(
    const std::string& s);

[[nodiscard]] const char* algo_name(consensus::Algo a);
[[nodiscard]] std::optional<consensus::Algo> algo_from_name(
    const std::string& s);

[[nodiscard]] const char* fd_stack_name(consensus::FdStack f);
[[nodiscard]] std::optional<consensus::FdStack> fd_stack_from_name(
    const std::string& s);

/// One fuzz case = (system under test, fault profile, seed, timing bounds).
struct FuzzCaseConfig {
  int n{5};
  std::uint64_t seed{1};
  FuzzProfile profile{FuzzProfile::kChurn};
  consensus::Algo algo{consensus::Algo::kEcfdC};
  consensus::FdStack fd{consensus::FdStack::kRing};
  TimeUs horizon{sec(24)};       ///< run end + termination deadline
  TimeUs chaos_end{sec(12)};     ///< all faults quiesce by here
  DurUs stable_margin{sec(4)};   ///< eventual properties must stabilize
                                 ///< at least this long before horizon
  DurUs monitor_period{msec(10)};
  bool require_strong_accuracy{false};
};

/// Draws a schedule from the profile, deterministically from cfg.seed.
/// Invariants: crashes <= (n-1)/2 (a majority stays alive), windows are
/// disjoint per kind, and every fault ends by cfg.chaos_end.
[[nodiscard]] FaultSchedule generate_schedule(const FuzzCaseConfig& cfg);

/// Processes crashed by the schedule.
[[nodiscard]] ProcessSet crashed_in(const FaultSchedule& s, int n);

class SimMonitor;

/// Schedules the window events of \p s onto a live system (crash events
/// are handled by the harness's scenario crash plan, not here). A
/// kGeoLatency event swaps the links immediately — the WAN matrix is
/// environment for the whole run, not a transient fault. When \p monitor
/// is given, skew windows register their declared bound with its
/// scenario.skew_bound self-check.
void apply_schedule(System& sys, const FaultSchedule& s,
                    SimMonitor* monitor = nullptr);

/// Result of one monitored, fault-injected run.
struct FuzzOutcome {
  bool ok{true};                     ///< no required property failed
  std::vector<Verdict> verdicts;     ///< everything, at run end
  std::vector<Verdict> violations;   ///< required-and-failing subset
  bool every_correct_decided{false};
  TimeUs sim_end{0};
  sim::Counters counters;            ///< simulator counter registry at end
  std::uint64_t result_fingerprint{0};  ///< fingerprint_result (0 for mutants)
  std::uint64_t digest{0};  ///< config + schedule + verdicts + fingerprint
  /// Monitor-witnessed detection ground truth (crash first seen + first
  /// suspicion per observer), for validating the online QoS scoreboard.
  /// Deliberately NOT folded into `digest`: historical digests predate it.
  std::vector<FdPropertyMonitor::DetectionWitness> detections;
};

/// Runs one fuzz case under the given schedule, with monitors attached.
/// When \p recorder is non-null it is attached to the simulated system
/// (typed per-host event rings) and to the monitor (kVerdict transitions in
/// the system ring), so a failing case can be replayed into a timeline.
[[nodiscard]] FuzzOutcome run_fuzz_case(const FuzzCaseConfig& cfg,
                                        const FaultSchedule& schedule,
                                        obs::Recorder* recorder = nullptr);

/// Generates the schedule from cfg.seed, then runs it.
[[nodiscard]] FuzzOutcome run_fuzz_case(const FuzzCaseConfig& cfg);

/// True iff \p o reports a violation of exactly \p property.
[[nodiscard]] bool violates(const FuzzOutcome& o, const std::string& property);

/// Greedy 1-minimal shrink: repeatedly re-runs the case with one event
/// removed and keeps the removal whenever \p property still fails. The
/// returned schedule still violates \p property and no single further
/// removal preserves the violation. \p runs (optional) counts re-runs.
[[nodiscard]] FaultSchedule shrink_schedule(const FuzzCaseConfig& cfg,
                                            FaultSchedule schedule,
                                            const std::string& property,
                                            int* runs = nullptr);

/// Runs mutant \p m under its canonical catching scenario (see
/// check/mutants.hpp) and returns the monitored outcome; callers assert
/// that violates(outcome, expected_property(m)) holds. \p recorder is
/// attached as in run_fuzz_case.
[[nodiscard]] FuzzOutcome run_mutant(Mutant m, std::uint64_t seed,
                                     obs::Recorder* recorder = nullptr);

/// Digest of a fuzz case + schedule + outcome, for replay pinning.
[[nodiscard]] std::uint64_t fuzz_digest(const FuzzCaseConfig& cfg,
                                        const FaultSchedule& schedule,
                                        const std::vector<Verdict>& verdicts,
                                        std::uint64_t result_fingerprint);

}  // namespace ecfd::check
