#include "check/mutants.hpp"

#include "net/protocol_ids.hpp"

namespace ecfd::check {

// --- failure-detector mutants ------------------------------------------

FlappingLeaderFd::FlappingLeaderFd(Env& env, DurUs period)
    : Protocol(env, protocol_ids::kCheckMutantFd), period_(period) {}

ProcessSet FlappingLeaderFd::suspected() const {
  return ProcessSet(env_.n());
}

ProcessId FlappingLeaderFd::trusted() const {
  return static_cast<ProcessId>((env_.now() / period_) %
                                static_cast<TimeUs>(env_.n()));
}

SlanderFd::SlanderFd(Env& env)
    : Protocol(env, protocol_ids::kCheckMutantFd) {}

ProcessSet SlanderFd::suspected() const {
  ProcessSet s = ProcessSet::full(env_.n());
  s.remove(env_.self());
  return s;
}

BlindFd::BlindFd(Env& env) : Protocol(env, protocol_ids::kCheckMutantFd) {}

ProcessSet BlindFd::suspected() const { return ProcessSet(env_.n()); }

CoupledViolationFd::CoupledViolationFd(Env& env)
    : Protocol(env, protocol_ids::kCheckMutantFd) {}

ProcessSet CoupledViolationFd::suspected() const {
  ProcessSet s(env_.n());
  s.add(0);
  return s;
}

// --- consensus mutants --------------------------------------------------

SplitBrainConsensus::SplitBrainConsensus(Env& env)
    : ConsensusProtocol(env, protocol_ids::kCheckMutantConsensus) {}

void SplitBrainConsensus::propose(consensus::Value v) { decide(v, 1); }

InventedValueConsensus::InventedValueConsensus(Env& env)
    : ConsensusProtocol(env, protocol_ids::kCheckMutantConsensus) {}

void InventedValueConsensus::propose(consensus::Value) {
  decide(kInvented, 1);
}

DoubleDecideConsensus::DoubleDecideConsensus(Env& env, Reporter extra_report)
    : ConsensusProtocol(env, protocol_ids::kCheckMutantConsensus),
      extra_report_(std::move(extra_report)) {}

void DoubleDecideConsensus::propose(consensus::Value v) {
  decide(v, 1);  // first decision goes through the normal callback
  if (extra_report_) {
    // The illegal second decision repeats the same value: integrity is
    // violated by deciding twice at all, and keeping the value fixed
    // leaves agreement/validity clean so the monitor's attribution is
    // unambiguous.
    extra_report_(env_.self(), v, 2, env_.now());
  }
}

SilentConsensus::SilentConsensus(Env& env)
    : ConsensusProtocol(env, protocol_ids::kCheckMutantConsensus) {}

NoMajorityConsensus::NoMajorityConsensus(Env& env)
    : ConsensusProtocol(env, protocol_ids::kCheckMutantConsensus) {}

void NoMajorityConsensus::propose(consensus::Value v) {
  if (env_.self() == 0) {
    // The self-appointed coordinator imposes its value with no quorum.
    env_.broadcast(Message::make<consensus::Value>(
        protocol_ids::kCheckMutantConsensus, 1, "mutant.impose", v));
    decide(v, 1);
    return;
  }
  // Everyone else takes over (again without a quorum) when the coordinator
  // stays silent — under a partition this forks the decision.
  env_.set_timer(msec(300) + env_.self() * msec(200), [this, v] {
    if (has_decided()) return;
    env_.broadcast(Message::make<consensus::Value>(
        protocol_ids::kCheckMutantConsensus, 1, "mutant.impose", v));
    decide(v, 1);
  });
}

void NoMajorityConsensus::on_message(const Message& m) {
  if (const auto* v = m.as<consensus::Value>()) decide(*v, 1);
}

// --- catalogue ----------------------------------------------------------

const std::vector<Mutant>& all_mutants() {
  static const std::vector<Mutant> kAll = {
      Mutant::kFlappingLeader, Mutant::kSlander,       Mutant::kBlind,
      Mutant::kCoupledViolation, Mutant::kSplitBrain,  Mutant::kInventedValue,
      Mutant::kDoubleDecide,   Mutant::kSilent,        Mutant::kNoMajority,
      Mutant::kFrozenMargin,   Mutant::kSkewBound,
      Mutant::kStuckCellPropagator, Mutant::kDroppedRefutation,
  };
  return kAll;
}

const char* mutant_name(Mutant m) {
  switch (m) {
    case Mutant::kFlappingLeader: return "flapping_leader";
    case Mutant::kSlander: return "slander";
    case Mutant::kBlind: return "blind";
    case Mutant::kCoupledViolation: return "coupled_violation";
    case Mutant::kSplitBrain: return "split_brain";
    case Mutant::kInventedValue: return "invented_value";
    case Mutant::kDoubleDecide: return "double_decide";
    case Mutant::kSilent: return "silent";
    case Mutant::kNoMajority: return "no_majority";
    case Mutant::kFrozenMargin: return "frozen_margin";
    case Mutant::kSkewBound: return "skew_bound";
    case Mutant::kStuckCellPropagator: return "stuck_cell_propagator";
    case Mutant::kDroppedRefutation: return "dropped_refutation";
  }
  return "?";
}

const char* expected_property(Mutant m) {
  switch (m) {
    case Mutant::kFlappingLeader: return "fd.leader_agreement";
    case Mutant::kSlander: return "fd.eventual_weak_accuracy";
    case Mutant::kBlind: return "fd.strong_completeness";
    case Mutant::kCoupledViolation: return "fd.coupling";
    case Mutant::kSplitBrain: return "consensus.uniform_agreement";
    case Mutant::kInventedValue: return "consensus.validity";
    case Mutant::kDoubleDecide: return "consensus.uniform_integrity";
    case Mutant::kSilent: return "consensus.termination";
    case Mutant::kNoMajority: return "consensus.uniform_agreement";
    case Mutant::kFrozenMargin: return "fd.eventual_strong_accuracy";
    case Mutant::kSkewBound: return "scenario.skew_bound";
    case Mutant::kStuckCellPropagator: return "fd.strong_completeness";
    case Mutant::kDroppedRefutation: return "fd.eventual_strong_accuracy";
  }
  return "?";
}

}  // namespace ecfd::check
