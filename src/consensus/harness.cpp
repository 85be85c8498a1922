#include "consensus/harness.hpp"

#include <algorithm>
#include <memory>
#include <sstream>

#include "broadcast/reliable_broadcast.hpp"
#include "consensus/chandra_toueg.hpp"
#include "consensus/fd_stacks.hpp"
#include "consensus/mr_omega.hpp"
#include "core/consensus_c.hpp"

namespace ecfd::consensus {

namespace {

ProcessSet planned_correct(const ScenarioConfig& sc) {
  ProcessSet correct = ProcessSet::full(sc.n);
  for (const CrashPlan& c : sc.crashes) correct.remove(c.process);
  return correct;
}

}  // namespace

HarnessResult run_consensus(const HarnessConfig& cfg) {
  const int n = cfg.scenario.n;
  auto sys = make_system(cfg.scenario);
  const ProcessSet correct = planned_correct(cfg.scenario);

  // --- failure-detector stack --------------------------------------
  // Raw pointers below are owned by the hosts (protocols) or by `oracles`
  // (query-time adapters), both of which outlive the run.
  std::vector<std::unique_ptr<core::EcfdOracle>> oracles(
      static_cast<std::size_t>(n));
  std::vector<const core::EcfdOracle*> ecfd(static_cast<std::size_t>(n));
  std::vector<const SuspectOracle*> suspects(static_cast<std::size_t>(n));
  std::vector<const LeaderOracle*> leaders(static_cast<std::size_t>(n));

  FdStackParams fd_params;
  fd_params.crashed = ProcessSet::full(n) - correct;
  fd_params.leader = cfg.scripted_leader;
  fd_params.stable_at = cfg.fd_stable_at;
  fd_params.ewa_only = cfg.scripted_ewa_only;
  for (ProcessId p = 0; p < n; ++p) {
    const auto i = static_cast<std::size_t>(p);
    FdInstallation inst =
        install_fd_stack(cfg.fd, sys->host(p), FdTimings{}, fd_params);
    oracles[i] = std::move(inst.owned);
    ecfd[i] = inst.ecfd;
    suspects[i] = inst.suspect;
    leaders[i] = inst.leader;
  }

  // --- reliable broadcast + consensus -------------------------------
  std::vector<ConsensusProtocol*> cons(static_cast<std::size_t>(n));
  for (ProcessId p = 0; p < n; ++p) {
    auto& host = sys->host(p);
    const auto i = static_cast<std::size_t>(p);
    auto& rb = host.emplace<broadcast::ReliableBroadcast>();
    switch (cfg.algo) {
      case Algo::kEcfdC:
      case Algo::kEcfdCMerged: {
        core::ConsensusC::Config cc;
        cc.merged_phase01 = cfg.algo == Algo::kEcfdCMerged;
        cc.max_rounds = cfg.max_rounds;
        cons[i] = &host.emplace<core::ConsensusC>(ecfd[i], &rb, cc);
        break;
      }
      case Algo::kChandraTouegS: {
        ChandraTouegConsensus::Config cc;
        cc.max_rounds = cfg.max_rounds;
        cons[i] =
            &host.emplace<ChandraTouegConsensus>(suspects[i], &rb, cc);
        break;
      }
      case Algo::kMrOmega: {
        MrOmegaConsensus::Config cc;
        cc.max_rounds = cfg.max_rounds;
        cons[i] = &host.emplace<MrOmegaConsensus>(leaders[i], &rb, cc);
        break;
      }
    }
  }

  // --- proposals -----------------------------------------------------
  std::vector<Value> proposals = cfg.proposals;
  if (proposals.empty()) {
    proposals.resize(static_cast<std::size_t>(n));
    for (ProcessId p = 0; p < n; ++p) proposals[static_cast<std::size_t>(p)] = 100 + p;
  }

  // --- observers (monitors, fault schedules) -------------------------
  if (cfg.instrument) {
    const HarnessInstruments inst{*sys,     cons,    suspects,
                                  leaders,  correct, proposals};
    cfg.instrument(inst);
  }

  sys->start();
  for (ProcessId p = 0; p < n; ++p) {
    const auto i = static_cast<std::size_t>(p);
    sys->scheduler().schedule_at(cfg.propose_at, [&sys, &cons, i, p,
                                                  v = proposals[i]]() {
      if (!sys->host(p).crashed()) cons[i]->propose(v);
    });
  }

  // --- run -----------------------------------------------------------
  const DurUs chunk = msec(50);
  while (sys->now() < cfg.horizon) {
    sys->run_for(std::min<DurUs>(chunk, cfg.horizon - sys->now()));
    if (cfg.run_to_horizon) continue;
    bool done = true;
    for (ProcessId p : correct.members()) {
      if (!cons[static_cast<std::size_t>(p)]->has_decided()) {
        done = false;
        break;
      }
    }
    if (done) break;
  }

  // --- evaluate ------------------------------------------------------
  HarnessResult r;
  r.correct = correct;
  r.outcomes.resize(static_cast<std::size_t>(n));
  bool first_value = true;
  Value agreed{};
  for (ProcessId p = 0; p < n; ++p) {
    const auto i = static_cast<std::size_t>(p);
    ProcessOutcome& o = r.outcomes[i];
    o.last_round = cons[i]->current_round();
    if (cons[i]->has_decided()) {
      const Decision& d = *cons[i]->decision();
      o.decided = true;
      o.value = d.value;
      o.round = d.round;
      o.at = d.at;
      r.max_decision_round = std::max(r.max_decision_round, d.round);
      r.min_decision_round = r.min_decision_round == 0
                                 ? d.round
                                 : std::min(r.min_decision_round, d.round);
      r.last_decision_at = std::max(r.last_decision_at, d.at);
      if (first_value) {
        agreed = d.value;
        first_value = false;
      } else if (d.value != agreed) {
        r.uniform_agreement = false;
      }
      if (std::find(proposals.begin(), proposals.end(), d.value) ==
          proposals.end()) {
        r.validity = false;
      }
    }
    if (correct.contains(p)) {
      r.max_round_entered = std::max(r.max_round_entered, o.last_round);
    }
  }
  r.every_correct_decided = true;
  for (ProcessId p : correct.members()) {
    if (!r.outcomes[static_cast<std::size_t>(p)].decided) {
      r.every_correct_decided = false;
    }
  }

  r.events_fired = sys->scheduler().fired();
  r.sim_end = sys->now();
  r.metrics = sys->share_metrics();

  const auto& counters = *r.metrics;
  r.consensus_msgs =
      sum_sent(counters, "msg.cons_c.") + sum_sent(counters, "msg.ct.");
  r.rb_msgs = sum_sent(counters, "msg.rb.");
  r.fd_msgs = 0;
  for (const std::string& prefix : fd_msg_prefixes()) {
    r.fd_msgs += sum_sent(counters, prefix);
  }
  return r;
}

std::string summarize(const HarnessResult& r) {
  std::ostringstream os;
  os << (r.every_correct_decided ? "decided" : "NOT-decided")
     << " round<=" << r.max_decision_round << " t=" << r.last_decision_at
     << "us msgs=" << r.consensus_msgs << " rb=" << r.rb_msgs
     << " agree=" << (r.uniform_agreement ? "y" : "N")
     << " valid=" << (r.validity ? "y" : "N");
  return os.str();
}

}  // namespace ecfd::consensus
