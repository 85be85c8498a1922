// Unit tests for the FD property engine (check::FdPropertyMonitor) and its
// mapping onto Fig. 1's classes, on hand-built snapshot streams (no
// simulation involved).
#include <gtest/gtest.h>

#include "check/fd_monitor.hpp"

namespace ecfd::check {
namespace {

constexpr int kN = 4;
constexpr TimeUs kEnd = 1000;

FdPropertyMonitor monitor_with_faulty(
    std::initializer_list<ProcessId> faulty) {
  FdPropertyMonitor::Config cfg;
  cfg.n = kN;
  cfg.correct = ProcessSet::full(kN);
  for (ProcessId q : faulty) cfg.correct.remove(q);
  return FdPropertyMonitor(cfg);
}

// A snapshot at \p t in which every faulty process is already crashed and
// no process outputs anything yet.
FdPropertyMonitor::Snapshot snapshot(const FdPropertyMonitor& mon, TimeUs t) {
  FdPropertyMonitor::Snapshot s;
  s.time = t;
  s.crashed = ProcessSet::full(kN) - mon.config().correct;
  s.suspected.resize(kN);
  s.trusted.resize(kN);
  return s;
}

// Every correct process outputs `susp` and trusts `leader` at every
// snapshot.
void feed_uniform(FdPropertyMonitor& mon, const ProcessSet& susp,
                  ProcessId leader, int count = 5) {
  for (int i = 0; i < count; ++i) {
    auto s = snapshot(mon, (i + 1) * 100);
    for (ProcessId p : mon.config().correct.members()) {
      s.suspected[static_cast<std::size_t>(p)] = susp;
      s.trusted[static_cast<std::size_t>(p)] = leader;
    }
    mon.observe(s);
  }
}

FdClasses classes(const FdPropertyMonitor& mon) {
  return mon.classes(kEnd, 0);
}

Verdict find(const FdPropertyMonitor& mon, const std::string& name) {
  for (const Verdict& v : mon.verdicts()) {
    if (v.property == name) return v;
  }
  ADD_FAILURE() << "no verdict named " << name;
  return {};
}

TEST(FdProperties, PerfectDetectorIsEverything) {
  FdPropertyMonitor mon = monitor_with_faulty({3});
  ProcessSet susp(kN);
  susp.add(3);
  feed_uniform(mon, susp, 0);
  const FdClasses c = classes(mon);
  EXPECT_TRUE(c.eventually_perfect());
  EXPECT_TRUE(c.eventually_strong());
  EXPECT_TRUE(c.eventually_weak());
  EXPECT_TRUE(c.omega);
  EXPECT_EQ(c.leader, 0);
  EXPECT_TRUE(c.eventually_consistent());
  EXPECT_EQ(c.ewa_witness, 0);
  EXPECT_STREQ(c.name(), "dP+dC");
}

TEST(FdProperties, MissingCrashedSuspectBreaksCompleteness) {
  FdPropertyMonitor mon = monitor_with_faulty({3});
  feed_uniform(mon, ProcessSet(kN), 0);
  FdClasses c = classes(mon);
  EXPECT_FALSE(c.strong_completeness);
  EXPECT_FALSE(c.weak_completeness);
  EXPECT_TRUE(c.eventual_strong_accuracy);
  Verdict sc = find(mon, "fd.strong_completeness");
  EXPECT_EQ(sc.state, VerdictState::kPending);
  EXPECT_NE(sc.witness.find("p3"), std::string::npos);

  // Once everyone suspects the victim, the suffix restarts there.
  ProcessSet susp(kN);
  susp.add(3);
  auto s = snapshot(mon, 600);
  for (ProcessId p : mon.config().correct.members()) {
    s.suspected[static_cast<std::size_t>(p)] = susp;
    s.trusted[static_cast<std::size_t>(p)] = 0;
  }
  mon.observe(s);
  sc = find(mon, "fd.strong_completeness");
  EXPECT_EQ(sc.state, VerdictState::kHolding);
  EXPECT_EQ(sc.holds_since, 600);
  EXPECT_EQ(sc.violations, 5);
  c = classes(mon);
  EXPECT_TRUE(c.strong_completeness);
  EXPECT_TRUE(c.weak_completeness);
}

TEST(FdProperties, SuspectingACorrectProcessForeverBreaksStrongAccuracy) {
  FdPropertyMonitor mon = monitor_with_faulty({});
  ProcessSet susp(kN);
  susp.add(1);  // p1 is correct but permanently suspected
  feed_uniform(mon, susp, 0);
  const FdClasses c = classes(mon);
  EXPECT_FALSE(c.eventual_strong_accuracy);
  // Weak accuracy survives: p0 (for instance) is never suspected.
  EXPECT_TRUE(c.eventual_weak_accuracy);
  EXPECT_NE(c.ewa_witness, 1);
}

TEST(FdProperties, WeakCompletenessAllowsDifferentWitnesses) {
  FdPropertyMonitor mon = monitor_with_faulty({2, 3});
  for (int i = 0; i < 5; ++i) {
    auto s = snapshot(mon, (i + 1) * 100);
    // p0 suspects only p2; p1 suspects only p3: weak but not strong.
    ProcessSet s0(kN), s1(kN);
    s0.add(2);
    s1.add(3);
    s.suspected[0] = s0;
    s.suspected[1] = s1;
    mon.observe(s);
  }
  const FdClasses c = classes(mon);
  EXPECT_TRUE(c.weak_completeness);
  EXPECT_FALSE(c.strong_completeness);
}

TEST(FdProperties, WeakCompletenessNeedsOneObserverForever) {
  FdPropertyMonitor mon = monitor_with_faulty({3});
  ProcessSet victim(kN);
  victim.add(3);
  for (int i = 0; i < 6; ++i) {
    auto s = snapshot(mon, (i + 1) * 100);
    for (ProcessId p : mon.config().correct.members()) {
      s.suspected[static_cast<std::size_t>(p)] = ProcessSet(kN);
    }
    // p0 and p1 take turns: someone suspects p3 at every snapshot, but
    // nobody for longer than one.
    s.suspected[static_cast<std::size_t>(i % 2)] = victim;
    mon.observe(s);
  }
  // Only p1's run since the last snapshot (600) counts, so the property
  // holds at the end but misses any margin.
  EXPECT_TRUE(mon.classes(kEnd, 0).weak_completeness);
  EXPECT_FALSE(mon.classes(kEnd, 500).weak_completeness);
}

TEST(FdProperties, EventualMeansSuffixNotAlways) {
  FdPropertyMonitor mon = monitor_with_faulty({3});
  ProcessSet good(kN);
  good.add(3);
  ProcessSet chaotic = ProcessSet::full(kN);
  chaotic.remove(0);
  // Chaos for 3 snapshots, then stable for 4.
  for (int i = 0; i < 7; ++i) {
    auto s = snapshot(mon, (i + 1) * 100);
    for (ProcessId p : mon.config().correct.members()) {
      s.suspected[static_cast<std::size_t>(p)] = (i < 3) ? chaotic : good;
      s.trusted[static_cast<std::size_t>(p)] = (i < 3) ? p : 1;
    }
    mon.observe(s);
  }
  const FdClasses c = classes(mon);
  EXPECT_TRUE(c.eventually_perfect());
  EXPECT_EQ(find(mon, "fd.eventual_strong_accuracy").holds_since, 400);
  EXPECT_TRUE(c.omega);
  EXPECT_EQ(c.leader, 1);
  EXPECT_EQ(find(mon, "fd.leader_agreement").holds_since, 400);
  // p3 is suspected from the first snapshot on, so completeness never
  // failed and holds since 0, not since the first snapshot at 100.
  EXPECT_EQ(find(mon, "fd.strong_completeness").holds_since, 0);
}

TEST(FdProperties, OmegaFailsWhenLeadersDisagreeForever) {
  FdPropertyMonitor mon = monitor_with_faulty({});
  for (int i = 0; i < 5; ++i) {
    auto s = snapshot(mon, (i + 1) * 100);
    for (ProcessId p = 0; p < kN; ++p) {
      s.trusted[static_cast<std::size_t>(p)] = p % 2;  // p0/p2 vs p1/p3
      s.suspected[static_cast<std::size_t>(p)] = ProcessSet(kN);
    }
    mon.observe(s);
  }
  EXPECT_FALSE(classes(mon).omega);
}

TEST(FdProperties, OmegaFailsWhenCommonLeaderIsFaulty) {
  FdPropertyMonitor mon = monitor_with_faulty({3});
  ProcessSet susp(kN);
  susp.add(3);
  feed_uniform(mon, susp, /*leader=*/3);
  EXPECT_FALSE(classes(mon).omega) << "trusting a crashed process is not Omega";
}

TEST(FdProperties, CouplingClauseDetected) {
  FdPropertyMonitor mon = monitor_with_faulty({});
  // Everyone trusts p0 but p1..p3 also suspect p0: ◇S + Omega hold, ◇C
  // fails.
  ProcessSet susp(kN);
  susp.add(0);
  for (int i = 0; i < 5; ++i) {
    auto s = snapshot(mon, (i + 1) * 100);
    for (ProcessId p = 1; p < kN; ++p) {
      s.suspected[static_cast<std::size_t>(p)] = susp;
      s.trusted[static_cast<std::size_t>(p)] = 0;
    }
    s.suspected[0] = ProcessSet(kN);
    s.trusted[0] = 0;
    mon.observe(s);
  }
  const FdClasses c = classes(mon);
  EXPECT_TRUE(c.omega);
  EXPECT_FALSE(c.coupling);
  EXPECT_FALSE(c.eventually_consistent());
  const Verdict v = find(mon, "fd.coupling");
  EXPECT_EQ(v.state, VerdictState::kPending);
  EXPECT_NE(v.witness.find("p1"), std::string::npos);
}

TEST(FdProperties, NoSamplesMeansNothingHolds) {
  // A monitor that never saw a snapshot must not pass anything.
  FdPropertyMonitor mon = monitor_with_faulty({3});
  const std::vector<Verdict> all = mon.verdicts();
  ASSERT_EQ(all.size(), 6u);
  for (const Verdict& v : all) {
    EXPECT_EQ(v.state, VerdictState::kPending) << v.to_string();
    EXPECT_EQ(v.witness, "no snapshot observed") << v.property;
    EXPECT_FALSE(satisfied(v, sec(10), sec(1))) << v.property;
  }
  // Every required property fails: completeness, weak accuracy, leader
  // agreement and coupling.
  EXPECT_EQ(failing(all, sec(10), sec(1)).size(), 4u);
  const FdClasses c = classes(mon);
  EXPECT_FALSE(c.strong_completeness);
  EXPECT_FALSE(c.weak_completeness);
  EXPECT_FALSE(c.omega);
  EXPECT_STREQ(c.name(), "-");
}

TEST(FdProperties, NoFaultyProcessesCompletenessVacuous) {
  FdPropertyMonitor mon = monitor_with_faulty({});
  feed_uniform(mon, ProcessSet(kN), 0);
  const FdClasses c = classes(mon);
  EXPECT_TRUE(c.strong_completeness);
  EXPECT_TRUE(c.weak_completeness);
}

TEST(FdProperties, LeaderOnlyDetectorEvaluatesOmegaOnly) {
  FdPropertyMonitor mon = monitor_with_faulty({});
  for (int i = 0; i < 4; ++i) {
    auto s = snapshot(mon, (i + 1) * 100);
    for (ProcessId p = 0; p < kN; ++p) {
      s.trusted[static_cast<std::size_t>(p)] = 2;
    }
    mon.observe(s);
  }
  const FdClasses c = classes(mon);
  EXPECT_TRUE(c.omega);
  EXPECT_EQ(c.leader, 2);
  EXPECT_FALSE(c.strong_completeness);  // unevaluated -> false
  EXPECT_STREQ(c.name(), "Omega");
  for (const Verdict& v : mon.verdicts()) {
    EXPECT_EQ(v.property.rfind("fd.leader_", 0), 0u) << v.property;
  }
}

}  // namespace
}  // namespace ecfd::check
