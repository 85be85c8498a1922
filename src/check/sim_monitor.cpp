#include "check/sim_monitor.hpp"

#include <algorithm>
#include <cassert>

namespace ecfd::check {

void SimMonitor::install(System& sys, const ProcessSet& correct,
                         TimeUs until) {
  assert(sys_ == nullptr && "SimMonitor::install called twice");
  sys_ = &sys;
  until_ = until;
  suspects_.assign(static_cast<std::size_t>(sys.n()), nullptr);
  leaders_.assign(static_cast<std::size_t>(sys.n()), nullptr);

  FdPropertyMonitor::Config fc;
  fc.n = sys.n();
  fc.correct = correct;
  fc.require_strong_accuracy = cfg_.require_strong_accuracy;
  fd_ = std::make_unique<FdPropertyMonitor>(fc);
  // The consensus monitor only exists once attach_consensus() names the
  // protocols — a pure-FD run must not fail a vacuous termination check.
}

void SimMonitor::register_skew_bound(ProcessId p, DurUs bound) {
  assert(sys_ != nullptr && "install() first");
  if (skew_bounds_.empty()) {
    skew_verdict_.property = "scenario.skew_bound";
    skew_verdict_.eventual = false;
    skew_verdict_.required = true;
    skew_verdict_.state = VerdictState::kHolding;
  }
  auto [it, inserted] = skew_bounds_.emplace(p, bound);
  if (!inserted) it->second = std::max(it->second, bound);
}

void SimMonitor::attach_fd(ProcessId p, const SuspectOracle* s,
                           const LeaderOracle* l) {
  assert(sys_ != nullptr && "install() first");
  suspects_[static_cast<std::size_t>(p)] = s;
  leaders_[static_cast<std::size_t>(p)] = l;
}

void SimMonitor::attach_consensus(
    const std::vector<consensus::ConsensusProtocol*>& protocols,
    const std::vector<consensus::Value>& proposals, TimeUs deadline) {
  assert(sys_ != nullptr && "install() first");
  ConsensusMonitor::Config cc;
  cc.n = sys_->n();
  cc.correct = fd_->config().correct;
  cc.deadline = deadline;
  consensus_ = std::make_unique<ConsensusMonitor>(cc);
  consensus_->attach(protocols);
  for (ProcessId p = 0;
       p < static_cast<ProcessId>(proposals.size()); ++p) {
    consensus_->note_proposal(p, proposals[static_cast<std::size_t>(p)], 0);
  }
}

void SimMonitor::start() {
  assert(sys_ != nullptr && "install() first");
  tick();
}

void SimMonitor::install_from(const consensus::HarnessInstruments& inst,
                              TimeUs horizon) {
  install(inst.sys, inst.correct, horizon);
  for (ProcessId p = 0; p < inst.sys.n(); ++p) {
    attach_fd(p, inst.suspects[static_cast<std::size_t>(p)],
              inst.leaders[static_cast<std::size_t>(p)]);
  }
  attach_consensus(inst.protocols, inst.proposals, horizon);
  start();
}

void SimMonitor::tick() {
  const TimeUs now = sys_->now();
  FdPropertyMonitor::Snapshot snap;
  snap.time = now;
  snap.crashed = sys_->crashed();
  const auto n = static_cast<std::size_t>(sys_->n());
  snap.suspected.resize(n);
  snap.trusted.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto p = static_cast<ProcessId>(i);
    if (sys_->host(p).crashed()) continue;
    if (suspects_[i] != nullptr) snap.suspected[i] = suspects_[i]->suspected();
    if (leaders_[i] != nullptr) snap.trusted[i] = leaders_[i]->trusted();
  }
  fd_->observe(snap);
  if (!skew_bounds_.empty() &&
      skew_verdict_.state != VerdictState::kViolated) {
    for (const auto& [p, bound] : skew_bounds_) {
      if (sys_->host(p).crashed()) continue;
      const std::int64_t err = sys_->host(p).now() - now;
      if (err > bound || err < -bound) {
        skew_verdict_.state = VerdictState::kViolated;
        skew_verdict_.violated_at = now;
        skew_verdict_.violations = 1;
        skew_verdict_.witness = "p" + std::to_string(p) + " clock error " +
                                std::to_string(err) + "us exceeds bound " +
                                std::to_string(bound) + "us";
        break;
      }
    }
  }
  if (recorder_ != nullptr) {
    transitions_.record(*recorder_, now, verdicts(now));
  }
  if (now < until_) {
    sys_->scheduler().schedule_after(cfg_.period, [this] { tick(); });
  }
}

std::vector<Verdict> SimMonitor::verdicts(TimeUs now) const {
  std::vector<Verdict> out = fd_ ? fd_->verdicts() : std::vector<Verdict>{};
  if (consensus_) {
    for (Verdict& v : consensus_->verdicts(now)) out.push_back(std::move(v));
  }
  if (!skew_bounds_.empty()) out.push_back(skew_verdict_);
  return out;
}

std::vector<Verdict> SimMonitor::violations(TimeUs end, DurUs margin) const {
  return failing(verdicts(end), end, margin);
}

}  // namespace ecfd::check
