// Unit tests for the online property monitors (src/check/): the verdict
// classification rules, the FD monitor's suffix tracking on synthetic
// snapshot streams, and the consensus monitor's safety/termination logic.
// No simulator involved — the monitors are pure state machines.
#include <gtest/gtest.h>

#include "check/consensus_monitor.hpp"
#include "check/fd_monitor.hpp"
#include "check/verdict.hpp"

namespace ecfd::check {
namespace {

// --- verdict classification ----------------------------------------------

TEST(Verdicts, SatisfiedDemandsStabilizationMargin) {
  Verdict v;
  v.eventual = true;
  v.state = VerdictState::kHolding;
  v.holds_since = sec(8);
  EXPECT_TRUE(satisfied(v, sec(12), sec(4)));   // 8 + 4 <= 12
  EXPECT_FALSE(satisfied(v, sec(11), sec(4)));  // stabilized too late
  v.state = VerdictState::kPending;
  EXPECT_FALSE(satisfied(v, sec(100), sec(1)));
}

TEST(Verdicts, SafetyPropertiesIgnoreMargin) {
  Verdict v;
  v.eventual = false;
  v.state = VerdictState::kHolding;
  v.holds_since = sec(99);  // irrelevant for safety
  EXPECT_TRUE(satisfied(v, sec(1), sec(100)));
  v.state = VerdictState::kViolated;
  EXPECT_FALSE(satisfied(v, sec(100), 0));
}

TEST(Verdicts, FailingFiltersRequiredOnly) {
  Verdict bad;
  bad.property = "x";
  bad.state = VerdictState::kViolated;
  Verdict info = bad;
  info.property = "y";
  info.required = false;
  const auto out = failing({bad, info}, sec(1), 0);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].property, "x");
}

// --- FD monitor on synthetic snapshots -----------------------------------

FdPropertyMonitor::Snapshot snap(int n, TimeUs t) {
  FdPropertyMonitor::Snapshot s;
  s.time = t;
  s.crashed = ProcessSet(n);
  s.suspected.assign(static_cast<std::size_t>(n), ProcessSet(n));
  s.trusted.assign(static_cast<std::size_t>(n), 0);
  return s;
}

FdPropertyMonitor::Config fd_config(int n) {
  FdPropertyMonitor::Config cfg;
  cfg.n = n;
  cfg.correct = ProcessSet::full(n);
  return cfg;
}

Verdict find(const std::vector<Verdict>& all, const std::string& name) {
  for (const Verdict& v : all) {
    if (v.property == name) return v;
  }
  ADD_FAILURE() << "no verdict named " << name;
  return {};
}

TEST(FdMonitor, WeakAccuracyTracksPerCandidateSuffix) {
  const int n = 3;
  FdPropertyMonitor mon(fd_config(n));

  // Sample 1: everyone suspected by someone -> no candidate.
  auto s = snap(n, msec(10));
  s.suspected[0]->add(1);
  s.suspected[0]->add(2);
  s.suspected[1]->add(0);
  s.suspected[2]->add(0);
  mon.observe(s);
  EXPECT_EQ(find(mon.verdicts(), "fd.eventual_weak_accuracy").state,
            VerdictState::kPending);

  // Sample 2: p2 becomes clean everywhere; p0 still slandered.
  s.time = msec(20);
  s.suspected[0]->remove(2);
  mon.observe(s);
  auto v = find(mon.verdicts(), "fd.eventual_weak_accuracy");
  EXPECT_EQ(v.state, VerdictState::kHolding);
  EXPECT_EQ(v.holds_since, msec(20));  // p2's clean suffix, not p0's

  // Sample 3: p2 relapses -> its suffix resets; p0 now clean.
  s.time = msec(30);
  s.suspected[1]->add(2);
  s.suspected[1]->remove(0);
  s.suspected[2]->remove(0);
  mon.observe(s);
  v = find(mon.verdicts(), "fd.eventual_weak_accuracy");
  EXPECT_EQ(v.state, VerdictState::kHolding);
  EXPECT_EQ(v.holds_since, msec(30));  // best candidate is now p0
}

TEST(FdMonitor, LeaderAgreementCatchesSynchronizedFlapping) {
  const int n = 3;
  FdPropertyMonitor mon(fd_config(n));

  // Every process flaps in lockstep: agreement holds instantaneously at
  // every sample, but the common leader keeps changing.
  for (int i = 0; i < 6; ++i) {
    auto s = snap(n, msec(10 * (i + 1)));
    const ProcessId leader = i % n;
    for (int q = 0; q < n; ++q) s.trusted[static_cast<std::size_t>(q)] = leader;
    mon.observe(s);
  }
  auto v = find(mon.verdicts(), "fd.leader_agreement");
  // Every other sample flags a change (the anchor resets after each), so
  // the property never accumulates a stable suffix.
  EXPECT_EQ(v.state, VerdictState::kPending);
  EXPECT_GE(v.violations, 3);
  EXPECT_NE(v.witness.find("changed"), std::string::npos);
  EXPECT_FALSE(satisfied(v, msec(60), msec(10)));
}

// --- consensus monitor ----------------------------------------------------

ConsensusMonitor::Config cm_config(int n, TimeUs deadline) {
  ConsensusMonitor::Config cfg;
  cfg.n = n;
  cfg.correct = ProcessSet::full(n);
  cfg.deadline = deadline;
  return cfg;
}

TEST(ConsensusMonitorTest, AgreementViolationIsFinal) {
  ConsensusMonitor mon(cm_config(3, sec(10)));
  mon.note_proposal(0, 100, 0);
  mon.note_proposal(1, 101, 0);
  mon.note_decision(0, 100, 1, msec(5));
  mon.note_decision(1, 101, 1, msec(6));
  auto v = find(mon.verdicts(msec(7)), "consensus.uniform_agreement");
  EXPECT_EQ(v.state, VerdictState::kViolated);
  EXPECT_EQ(v.violated_at, msec(6));
  EXPECT_FALSE(v.witness.empty());
}

TEST(ConsensusMonitorTest, ValidityRequiresAProposedValue) {
  ConsensusMonitor mon(cm_config(2, sec(10)));
  mon.note_proposal(0, 100, 0);
  mon.note_proposal(1, 101, 0);
  mon.note_decision(0, 999, 1, msec(5));
  EXPECT_EQ(find(mon.verdicts(msec(6)), "consensus.validity").state,
            VerdictState::kViolated);
}

TEST(ConsensusMonitorTest, IntegrityFlagsSecondDecision) {
  ConsensusMonitor mon(cm_config(2, sec(10)));
  mon.note_proposal(0, 100, 0);
  mon.note_decision(0, 100, 1, msec(5));
  EXPECT_EQ(find(mon.verdicts(msec(6)), "consensus.uniform_integrity").state,
            VerdictState::kHolding);
  mon.note_decision(0, 100, 2, msec(7));  // same value — still a violation
  auto v = find(mon.verdicts(msec(8)), "consensus.uniform_integrity");
  EXPECT_EQ(v.state, VerdictState::kViolated);
  EXPECT_NE(v.witness.find("p0"), std::string::npos);
}

TEST(ConsensusMonitorTest, TerminationPendingThenHoldingThenDeadline) {
  ConsensusMonitor mon(cm_config(2, sec(10)));
  mon.note_proposal(0, 100, 0);
  mon.note_proposal(1, 100, 0);
  EXPECT_EQ(find(mon.verdicts(sec(1)), "consensus.termination").state,
            VerdictState::kPending);
  mon.note_decision(0, 100, 1, sec(2));
  mon.note_decision(1, 100, 1, sec(3));
  auto v = find(mon.verdicts(sec(4)), "consensus.termination");
  EXPECT_EQ(v.state, VerdictState::kHolding);
  EXPECT_EQ(v.holds_since, sec(3));  // the last correct decision
}

TEST(ConsensusMonitorTest, TerminationViolatedAtDeadline) {
  ConsensusMonitor mon(cm_config(2, sec(10)));
  mon.note_proposal(0, 100, 0);
  mon.note_decision(0, 100, 1, sec(2));  // p1 never decides
  EXPECT_EQ(find(mon.verdicts(sec(9)), "consensus.termination").state,
            VerdictState::kPending);
  auto v = find(mon.verdicts(sec(10)), "consensus.termination");
  EXPECT_EQ(v.state, VerdictState::kViolated);
  EXPECT_NE(v.witness.find("p1"), std::string::npos);
}

TEST(ConsensusMonitorTest, FaultyDeciderCountsForUniformAgreement) {
  // "Uniform": even a process outside the correct set must not disagree.
  ConsensusMonitor::Config cfg = cm_config(3, sec(10));
  cfg.correct.remove(2);
  ConsensusMonitor mon(cfg);
  mon.note_proposal(0, 100, 0);
  mon.note_proposal(2, 102, 0);
  mon.note_decision(0, 100, 1, msec(5));
  mon.note_decision(2, 102, 1, msec(6));  // faulty process disagrees
  EXPECT_EQ(find(mon.verdicts(msec(7)), "consensus.uniform_agreement").state,
            VerdictState::kViolated);
}

}  // namespace
}  // namespace ecfd::check
