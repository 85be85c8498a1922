#pragma once

#include <functional>
#include <string>
#include <vector>

#include "consensus/consensus.hpp"
#include "fd/oracle.hpp"
#include "net/scenario.hpp"

/// \file harness.hpp
/// One-call consensus experiment runner shared by tests and benchmarks:
/// builds a System from a scenario, installs a failure-detector stack, a
/// Reliable Broadcast instance and a consensus algorithm on every process,
/// proposes values, runs to a horizon, and evaluates the consensus
/// properties and cost metrics.

namespace ecfd::consensus {

/// Which consensus algorithm to run.
enum class Algo {
  kEcfdC,          ///< the paper's Figs. 3-4 algorithm (◇C)
  kEcfdCMerged,    ///< same with merged Phases 0+1 (Section 5.4 variant)
  kChandraTouegS,  ///< rotating-coordinator ◇S baseline
  kMrOmega,        ///< leader-based Omega baseline (MR style)
};

/// Which failure-detector stack feeds it.
enum class FdStack {
  kRing,            ///< ring ◇S/◇P + its free leader (◇C at no extra cost)
  kHeartbeatP,      ///< all-to-all ◇P, leader = first unsuspected
  kOmegaPlusHeartbeat,  ///< leader-candidate Omega + heartbeat ◇S, composed
  kEfficientP,      ///< §4 piggybacked Omega+◇P (cheapest full stack)
  kScriptedStable,  ///< scripted: chaos until fd_stable_at, then perfect
  kHeartbeatAdaptive,  ///< kHeartbeatP with Chen-style adaptive timeouts
  // Append only: fuzz digests hash the ordinal (see check/fuzz.cpp).
  kHierC,           ///< two-level hierarchical ◇C (√n cells, O(n) msgs)
  kSwim,            ///< SWIM gossip membership as ◇C (O(1) msgs per node)
  kStableLeader,    ///< stable Omega (accusation counters), ◇C from Omega
  kEcfd,            ///< the paper's stack: stable Omega -> Fig. 2 -> ◇P + Omega
};

/// Everything an observer may want to hook into, handed to
/// HarnessConfig::instrument after protocols are installed and before the
/// system starts. All vectors are indexed by process id; oracle pointers
/// may be null for stacks lacking that output. Observers must stay
/// read-only with respect to protocol state (they may schedule events,
/// e.g. fault injection, and register decision callbacks).
struct HarnessInstruments {
  System& sys;
  const std::vector<ConsensusProtocol*>& protocols;
  const std::vector<const SuspectOracle*>& suspects;
  const std::vector<const LeaderOracle*>& leaders;
  const ProcessSet& correct;            ///< never crashed by the crash plan
  const std::vector<Value>& proposals;  ///< value process p will propose
};

struct HarnessConfig {
  ScenarioConfig scenario;
  Algo algo{Algo::kEcfdC};
  FdStack fd{FdStack::kScriptedStable};

  /// Observer installation hook; see HarnessInstruments. Used by check/ to
  /// attach property monitors and fault-injection schedules.
  std::function<void(const HarnessInstruments&)> instrument;

  /// When true the run continues to `horizon` even after every correct
  /// process decided (monitors need the tail to watch the FD stabilize).
  bool run_to_horizon{false};

  /// kScriptedStable: when the detector becomes stable, and on whom.
  TimeUs fd_stable_at{msec(50)};
  /// Leader after stabilization; kNoProcess = first process that never
  /// crashes in the scenario.
  ProcessId scripted_leader{kNoProcess};
  /// When true, the scripted detector suspects everyone but the leader
  /// after stabilization (the Theorem 3 adversarial ◇S with only its weak
  /// accuracy witness); when false it suspects exactly the crashed set.
  bool scripted_ewa_only{false};

  /// Proposal values; empty = process p proposes 100 + p.
  std::vector<Value> proposals;
  TimeUs propose_at{msec(1)};

  /// Give up (per process) after this many rounds; 0 = unlimited.
  int max_rounds{0};
  /// Hard stop of the run.
  TimeUs horizon{sec(30)};
};

struct ProcessOutcome {
  bool decided{false};
  Value value{};
  int round{0};
  TimeUs at{0};
  int last_round{0};  ///< round the process was in when the run ended
};

struct HarnessResult {
  std::vector<ProcessOutcome> outcomes;
  ProcessSet correct;  ///< processes that never crashed

  bool every_correct_decided{false};     ///< termination
  bool uniform_agreement{true};          ///< incl. faulty deciders
  bool validity{true};

  int max_decision_round{0};             ///< over deciding processes
  /// Round of the earliest deciding broadcast (0 when nobody decided).
  /// This is the paper's "rounds to reach consensus" metric; a lower-round
  /// and a higher-round broadcast of the SAME decision can race, so max
  /// can exceed it benignly.
  int min_decision_round{0};
  TimeUs last_decision_at{0};            ///< latest decision time
  std::int64_t consensus_msgs{0};        ///< protocol messages sent
  std::int64_t rb_msgs{0};               ///< reliable-broadcast messages
  std::int64_t fd_msgs{0};               ///< failure-detector messages

  /// Largest round number any correct process entered.
  int max_round_entered{0};

  /// Simulator accounting, for throughput reporting and run fingerprints.
  std::uint64_t events_fired{0};  ///< scheduler events executed
  TimeUs sim_end{0};              ///< virtual time when the run stopped
  sim::Counters counters;         ///< full counter registry at end of run
};

/// Runs one configured consensus experiment.
HarnessResult run_consensus(const HarnessConfig& cfg);

/// Human-readable one-liner for logs.
std::string summarize(const HarnessResult& r);

}  // namespace ecfd::consensus
