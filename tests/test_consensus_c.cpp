// Tests for the paper's main algorithm: Uniform Consensus with ◇C
// (Figs. 3-4, Theorem 2).
#include "core/consensus_c.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "consensus/harness.hpp"
#include "core/ecfd_compose.hpp"
#include "fd/scripted_fd.hpp"

namespace ecfd::consensus {
namespace {

HarnessConfig base(int n, std::uint64_t seed) {
  HarnessConfig cfg;
  cfg.scenario.n = n;
  cfg.scenario.seed = seed;
  cfg.scenario.links = LinkKind::kPartialSync;
  cfg.scenario.gst = msec(200);
  cfg.scenario.delta = msec(5);
  cfg.scenario.pre_gst_max = msec(50);
  cfg.algo = Algo::kEcfdC;
  cfg.fd = FdStack::kScriptedStable;
  return cfg;
}

void expect_all_good(const HarnessResult& r, const char* what) {
  EXPECT_TRUE(r.every_correct_decided) << what << ": " << summarize(r);
  EXPECT_TRUE(r.uniform_agreement) << what << ": " << summarize(r);
  EXPECT_TRUE(r.validity) << what << ": " << summarize(r);
}

TEST(ConsensusC, DecidesInRoundOneWithAStableDetector) {
  auto cfg = base(5, 1);
  cfg.fd_stable_at = 0;  // stable from the start
  auto r = run_consensus(cfg);
  expect_all_good(r, "stable");
  EXPECT_EQ(r.max_decision_round, 1)
      << "early consensus: one round when the detector is stable";
}

TEST(ConsensusC, DecidesAfterLateStabilization) {
  auto cfg = base(5, 2);
  cfg.fd_stable_at = msec(400);  // chaos through GST
  auto r = run_consensus(cfg);
  expect_all_good(r, "late-stabilization");
}

TEST(ConsensusC, ToleratesMinorityCrashes) {
  auto cfg = base(5, 3);
  cfg.scenario.with_crash(3, msec(100)).with_crash(4, msec(250));
  cfg.fd_stable_at = msec(400);
  auto r = run_consensus(cfg);
  expect_all_good(r, "two crashes of five");
}

TEST(ConsensusC, ToleratesLeaderlikeCrash) {
  // p0 (would-be leader) crashes; the script then names p1.
  auto cfg = base(5, 4);
  cfg.scenario.with_crash(0, msec(150));
  cfg.fd_stable_at = msec(400);  // stabilizes on the first correct, p1
  auto r = run_consensus(cfg);
  expect_all_good(r, "leader crash");
  for (ProcessId p = 1; p < 5; ++p) {
    EXPECT_TRUE(r.outcomes[static_cast<std::size_t>(p)].decided);
  }
}

TEST(ConsensusC, WorksWithRingDetector) {
  auto cfg = base(5, 5);
  cfg.fd = FdStack::kRing;
  cfg.scenario.with_crash(2, msec(300));
  auto r = run_consensus(cfg);
  expect_all_good(r, "ring ◇C");
}

TEST(ConsensusC, WorksWithHeartbeatDetector) {
  auto cfg = base(5, 6);
  cfg.fd = FdStack::kHeartbeatP;
  cfg.scenario.with_crash(4, msec(300));
  auto r = run_consensus(cfg);
  expect_all_good(r, "heartbeat ◇C");
}

TEST(ConsensusC, WorksWithComposedOmegaPlusHeartbeat) {
  auto cfg = base(5, 7);
  cfg.fd = FdStack::kOmegaPlusHeartbeat;
  cfg.scenario.with_crash(0, msec(300));
  auto r = run_consensus(cfg);
  expect_all_good(r, "composed ◇C");
}

TEST(ConsensusC, MergedPhase01VariantDecides) {
  auto cfg = base(5, 8);
  cfg.algo = Algo::kEcfdCMerged;
  cfg.fd_stable_at = msec(300);
  auto r = run_consensus(cfg);
  expect_all_good(r, "merged phases");
}

TEST(ConsensusC, UnaffectedByEwaOnlyDetector) {
  // Theorem 3's adversarial ◇S: everyone suspects everyone but the leader.
  // The ◇C algorithm picks the leader as coordinator directly, so it still
  // decides in one round after stabilization.
  auto cfg = base(5, 9);
  cfg.scripted_ewa_only = true;
  cfg.scripted_leader = 3;
  cfg.fd_stable_at = 0;
  auto r = run_consensus(cfg);
  expect_all_good(r, "ewa-only");
  EXPECT_EQ(r.max_decision_round, 1);
}

TEST(ConsensusC, AllSameProposalDecidesThatValue) {
  auto cfg = base(4, 10);
  cfg.proposals = {7, 7, 7, 7};
  cfg.fd_stable_at = 0;
  auto r = run_consensus(cfg);
  expect_all_good(r, "uniform proposals");
  for (const auto& o : r.outcomes) {
    if (o.decided) {
      EXPECT_EQ(o.value, 7);
    }
  }
}

TEST(ConsensusC, DecidedValueIsTheLeadersPickNotArbitrary) {
  // With a stable leader from the start, the coordinator proposes the
  // largest-timestamp estimate; in round 1 all timestamps are 0, so it
  // picks its own (first recorded) estimate. Whatever it is, it must be
  // one of the proposals — checked by validity — and common.
  auto cfg = base(5, 11);
  cfg.proposals = {10, 20, 30, 40, 50};
  cfg.fd_stable_at = 0;
  auto r = run_consensus(cfg);
  expect_all_good(r, "distinct proposals");
}

TEST(ConsensusC, UniformAgreementWhenDeciderCrashesImmediately) {
  // p0 leads, decides in round 1, and crashes shortly after. The scripted
  // detector then (legally, per Omega) fails over to p1. Everyone who
  // decides must agree — whether they learned the decision from p0's
  // reliable broadcast or from a later round led by p1.
  const int n = 5;
  ScenarioConfig sc;
  sc.n = n;
  sc.seed = 12;
  sc.links = LinkKind::kPartialSync;
  sc.gst = 0;  // fast links so p0 usually decides before its crash
  sc.delta = msec(5);
  sc.with_crash(0, msec(40));
  auto sys = make_system(sc);

  std::vector<ConsensusProtocol*> cons;
  std::vector<std::shared_ptr<void>> keepalive;
  for (ProcessId p = 0; p < n; ++p) {
    std::vector<fd::ScriptedFd::Step> steps;
    ProcessSet none(n);
    ProcessSet just0(n);
    just0.add(0);
    steps.push_back({0, none, 0});           // p0 leads, nobody suspected
    steps.push_back({msec(200), just0, 1});  // failover to p1
    auto& scripted = sys->host(p).emplace<fd::ScriptedFd>(steps);
    auto oracle =
        std::make_shared<core::EcfdFromSAndOmega>(&scripted, &scripted);
    keepalive.push_back(oracle);
    auto& rb = sys->host(p).emplace<broadcast::ReliableBroadcast>();
    cons.push_back(&sys->host(p).emplace<core::ConsensusC>(oracle.get(), &rb));
  }
  sys->start();
  for (ProcessId p = 0; p < n; ++p) cons[static_cast<std::size_t>(p)]->propose(100 + p);
  sys->run_until(sec(10));

  std::optional<Value> agreed;
  for (ProcessId p = 1; p < n; ++p) {
    const auto& d = cons[static_cast<std::size_t>(p)]->decision();
    ASSERT_TRUE(d.has_value()) << "p" << p << " did not decide";
    if (!agreed) agreed = d->value;
    EXPECT_EQ(d->value, *agreed);
  }
  // If p0 got its decision in before crashing, it must agree too.
  if (cons[0]->decision().has_value()) {
    EXPECT_EQ(cons[0]->decision()->value, *agreed);
  }
}

TEST(ConsensusC, StaggeredProposalsDoNotLoseAnnouncements) {
  // Regression test: the coordinator announces round 1 exactly once. A
  // process that proposes late receives that announcement while still in
  // "round 0" and must buffer it (dropping it deadlocks the round, since
  // the coordinator waits for a reply from every unsuspected process).
  const int n = 5;
  ScenarioConfig sc;
  sc.n = n;
  sc.seed = 77;
  sc.links = LinkKind::kPartialSync;
  sc.gst = 0;
  sc.delta = msec(5);
  auto sys = make_system(sc);

  std::vector<ConsensusProtocol*> cons;
  std::vector<std::shared_ptr<void>> keepalive;
  for (ProcessId p = 0; p < n; ++p) {
    auto& scripted = sys->host(p).emplace<fd::ScriptedFd>(
        fd::stable_script(n, p, ProcessSet(n), /*leader=*/0, /*from=*/0));
    auto oracle =
        std::make_shared<core::EcfdFromSAndOmega>(&scripted, &scripted);
    keepalive.push_back(oracle);
    auto& rb = sys->host(p).emplace<broadcast::ReliableBroadcast>();
    cons.push_back(&sys->host(p).emplace<core::ConsensusC>(oracle.get(), &rb));
  }
  sys->start();
  // The leader proposes immediately; everyone else 100ms later — long
  // after the leader's one-shot round-1 announcement arrived.
  cons[0]->propose(100);
  for (ProcessId p = 1; p < n; ++p) {
    sys->scheduler().schedule_at(msec(100), [&cons, p]() {
      cons[static_cast<std::size_t>(p)]->propose(100 + p);
    });
  }
  sys->run_until(sec(10));
  for (ProcessId p = 0; p < n; ++p) {
    ASSERT_TRUE(cons[static_cast<std::size_t>(p)]->has_decided())
        << "p" << p << " stuck";
    EXPECT_EQ(cons[static_cast<std::size_t>(p)]->decision()->value,
              cons[0]->decision()->value);
  }
}

TEST(ConsensusC, DecidedInstancesStopPolling) {
  // Deciding halts an instance, and halting cancels its armed poll: once
  // every process has decided, the next poll period fires nothing but the
  // deliveries still in flight. (A halted instance's pending poll used to
  // fire once, empty, on every process.)
  const int n = 5;
  ScenarioConfig sc;
  sc.n = n;
  sc.seed = 21;
  sc.links = LinkKind::kReliable;
  sc.min_delay = sc.max_delay = msec(1);
  auto sys = make_system(sc);
  core::ConsensusC::Config cc;
  cc.poll_period = msec(20);  // far longer than a round at 1 ms links

  std::vector<ConsensusProtocol*> cons;
  std::vector<std::shared_ptr<void>> keepalive;
  for (ProcessId p = 0; p < n; ++p) {
    auto& scripted = sys->host(p).emplace<fd::ScriptedFd>(
        fd::stable_script(n, p, ProcessSet(n), /*leader=*/0, /*from=*/0));
    auto oracle =
        std::make_shared<core::EcfdFromSAndOmega>(&scripted, &scripted);
    keepalive.push_back(oracle);
    auto& rb = sys->host(p).emplace<broadcast::ReliableBroadcast>();
    cons.push_back(
        &sys->host(p).emplace<core::ConsensusC>(oracle.get(), &rb, cc));
  }
  sys->start();
  for (ProcessId p = 0; p < n; ++p) {
    cons[static_cast<std::size_t>(p)]->propose(100 + p);
  }
  const auto all_decided = [&cons] {
    return std::all_of(cons.begin(), cons.end(),
                       [](const ConsensusProtocol* c) {
                         return c->has_decided();
                       });
  };
  while (!all_decided() && sys->scheduler().now() < sec(1)) {
    sys->run_for(usec(100));
  }
  ASSERT_TRUE(all_decided());
  ASSERT_LT(sys->scheduler().now(), cc.poll_period) << "decided by polling";

  const std::uint64_t fired = sys->scheduler().fired();
  const std::int64_t delivered = sys->network().delivered_total();
  sys->run_for(cc.poll_period);
  const auto deliveries =
      static_cast<std::uint64_t>(sys->network().delivered_total() - delivered);
  EXPECT_EQ(sys->scheduler().fired() - fired - deliveries, 0u)
      << "polls fired after every process decided";
}

TEST(ConsensusC, DuelingCoordinatorsDoNotDeadlock) {
  // Regression test: with a live (heartbeat + leader-candidate) stack and
  // the leader crashing early, transient detector disagreement can create
  // two coordinators in one round. The null-proposing coordinator skips
  // Phase 3, so it must still nack the other coordinator's proposition
  // when advancing (the Fig. 4 "late coordinator" sweep) — or that
  // coordinator blocks forever in Phase 4. Seed 504 reproduced exactly
  // this deadlock before the sweep was added.
  auto cfg = base(7, 504);
  cfg.fd = FdStack::kOmegaPlusHeartbeat;
  cfg.scenario.gst = msec(100);
  cfg.scenario.pre_gst_max = msec(40);
  cfg.scenario.with_crash(0, msec(50));
  cfg.horizon = sec(60);
  auto r = run_consensus(cfg);
  expect_all_good(r, "dueling coordinators (seed 504)");
}

TEST(ConsensusC, MergedPhase01WaitsForAnUnsuspectedLeader) {
  // Before it stabilizes, efficient_p can trust a process its own output
  // still suspects (◇C promises only that the trusted process is
  // eventually unsuspected). Merged Phase 0 used to join it anyway; Phase 3
  // then nacked at once and entered the next round at the same virtual
  // instant, n messages per round, until memory ran out. Under the round
  // cap that run gave up undecided; waiting in Phase 0 decides. This is
  // `ecfd_sim --n 8 --fd effp --algo c-merged --max-rounds 50`.
  auto cfg = base(8, 1);
  cfg.scenario.pre_gst_max = msec(300);
  cfg.algo = Algo::kEcfdCMerged;
  cfg.fd = FdStack::kEfficientP;
  cfg.max_rounds = 50;
  auto r = run_consensus(cfg);
  expect_all_good(r, "merged phases on efficient_p");
}

TEST(ConsensusC, MaxRoundsGivesUpCleanly) {
  // A detector that never stabilizes (chaos forever = stable_at beyond
  // horizon) with the round cap: nobody may decide, and safety holds.
  auto cfg = base(5, 13);
  cfg.fd_stable_at = sec(100);
  cfg.max_rounds = 10;
  cfg.horizon = sec(5);
  auto r = run_consensus(cfg);
  EXPECT_TRUE(r.uniform_agreement);
  EXPECT_TRUE(r.validity);
}

TEST(ConsensusC, LargerSystemDecides) {
  auto cfg = base(9, 14);
  cfg.scenario.with_crash(6, msec(100))
      .with_crash(7, msec(200))
      .with_crash(8, msec(300));
  cfg.fd_stable_at = msec(400);
  auto r = run_consensus(cfg);
  expect_all_good(r, "n=9 f=3");
}

TEST(ConsensusC, ThreeProcessesMinimumMajority) {
  auto cfg = base(3, 15);
  cfg.scenario.with_crash(2, msec(150));
  cfg.fd_stable_at = msec(300);
  auto r = run_consensus(cfg);
  expect_all_good(r, "n=3 f=1");
}

}  // namespace
}  // namespace ecfd::consensus
