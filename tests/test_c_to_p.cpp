// Tests for the paper's Fig. 2 algorithm: transforming ◇C into ◇P in
// partial synchrony (Theorem 1).
#include "core/c_to_p.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "consensus/fd_stacks.hpp"
#include "core/replicated_log.hpp"
#include "fd/leader_candidate.hpp"
#include "fd/scripted_fd.hpp"
#include "fd_test_util.hpp"
#include "net/link.hpp"
#include "scenario_util.hpp"

namespace ecfd {
namespace {

using testutil::run_fd_scenario;

ScenarioConfig base_scenario(int n, std::uint64_t seed) {
  return testutil::partial_sync_scenario(n, seed, msec(250), msec(50));
}

/// Installs a scripted Omega (common leader from `stable_at`) + CToP.
testutil::Installer scripted_installer(int n, ProcessId leader,
                                       TimeUs stable_at) {
  return [n, leader, stable_at](ProcessHost& host, ProcessId p,
                                std::vector<std::shared_ptr<void>>&) {
    std::vector<fd::ScriptedFd::Step> steps;
    steps.push_back({0, ProcessSet(n), p});  // everyone trusts itself first
    steps.push_back({stable_at, ProcessSet(n), leader});
    auto& omega = host.emplace<fd::ScriptedFd>(steps);
    auto& ctp = host.emplace<core::CToP>(&omega);
    return testutil::OracleRefs{&ctp, nullptr};
  };
}

/// Installs a real LeaderCandidate Omega + CToP (the full stack).
testutil::Installer real_installer() {
  return [](ProcessHost& host, ProcessId,
            std::vector<std::shared_ptr<void>>&) {
    auto& omega = host.emplace<fd::LeaderCandidate>();
    auto& ctp = host.emplace<core::CToP>(&omega);
    return testutil::OracleRefs{&ctp, nullptr};
  };
}

TEST(CToP, Theorem1OutputIsEventuallyPerfect) {
  auto cfg = base_scenario(5, 1);
  cfg.with_crash(2, msec(800)).with_crash(4, sec(1));
  auto res = run_fd_scenario(cfg, scripted_installer(5, 0, msec(300)),
                             sec(6));
  EXPECT_TRUE(res.classes.eventually_perfect())
      << "SC=" << res.classes.strong_completeness
      << " ESA=" << res.classes.eventual_strong_accuracy;
  EXPECT_TRUE(check::satisfied(res.verdict("fd.strong_completeness"),
                               res.horizon, sec(1)));
}

TEST(CToP, WorksOnTopOfRealOmega) {
  auto cfg = base_scenario(5, 2);
  cfg.with_crash(3, sec(1));
  auto res = run_fd_scenario(cfg, real_installer(), sec(8));
  EXPECT_TRUE(res.classes.eventually_perfect());
}

TEST(CToP, SurvivesLeaderCrash) {
  // The scripted leader is p0 until it crashes; afterwards the script
  // moves everyone to p1. The transformation must re-stabilize.
  const int n = 5;
  auto cfg = base_scenario(n, 3);
  cfg.with_crash(0, sec(1));
  auto install = [n](ProcessHost& host, ProcessId p,
                     std::vector<std::shared_ptr<void>>&) {
    std::vector<fd::ScriptedFd::Step> steps;
    steps.push_back({0, ProcessSet(n), p});
    steps.push_back({msec(300), ProcessSet(n), 0});
    steps.push_back({sec(1) + msec(200), ProcessSet(n), 1});
    auto& omega = host.emplace<fd::ScriptedFd>(steps);
    auto& ctp = host.emplace<core::CToP>(&omega);
    return testutil::OracleRefs{&ctp, nullptr};
  };
  auto res = run_fd_scenario(cfg, install, sec(8));
  EXPECT_TRUE(res.classes.eventually_perfect());
}

TEST(CToP, SteadyStateCostIs2NMinus1) {
  // Section 4: once the leader is stable, 2(n-1) messages per period —
  // n-1 lists from the leader, n-1 I-AM-ALIVEs to it.
  const int n = 8;
  auto cfg = base_scenario(n, 4);
  cfg.gst = 0;
  auto sys = make_system(cfg);
  for (ProcessId p = 0; p < n; ++p) {
    std::vector<fd::ScriptedFd::Step> steps;
    steps.push_back({0, ProcessSet(n), 0});  // p0 is leader from the start
    auto& omega = sys->host(p).emplace<fd::ScriptedFd>(steps);
    sys->host(p).emplace<core::CToP>(&omega);
  }
  sys->start();
  sys->run_until(sec(2));
  const auto lists = sys->counters().get("msg.ctp.list.sent");
  const auto alives = sys->counters().get("msg.ctp.alive.sent");
  core::CToP::Config defaults;
  const double periods = static_cast<double>(sec(2)) / defaults.list_period;
  EXPECT_NEAR(static_cast<double>(lists), periods * (n - 1),
              periods * (n - 1) * 0.05);
  EXPECT_NEAR(static_cast<double>(alives), periods * (n - 1),
              periods * (n - 1) * 0.05);
}

TEST(CToP, EventuallyOnlyLeaderLinksCarryMessages) {
  // With a stable leader, every message involves the leader as source or
  // destination — the "eventually only these links carry messages" claim.
  const int n = 5;
  auto cfg = base_scenario(n, 5);
  auto sys = make_system(cfg);
  for (ProcessId p = 0; p < n; ++p) {
    std::vector<fd::ScriptedFd::Step> steps;
    steps.push_back({0, ProcessSet(n), 2});  // p2 stable leader
    auto& omega = sys->host(p).emplace<fd::ScriptedFd>(steps);
    sys->host(p).emplace<core::CToP>(&omega);
  }
  sys->start();
  sys->run_until(sec(1));
  // Non-leaders never broadcast lists (they never consider themselves
  // leader), and all alive messages target p2: total = lists(n-1 per
  // period, from p2) + alives(n-1 per period, to p2). Verify no alive
  // message was sent to a non-leader by checking totals match exactly.
  const auto lists = sys->counters().get("msg.ctp.list.sent");
  const auto alives = sys->counters().get("msg.ctp.alive.sent");
  EXPECT_GT(lists, 0);
  EXPECT_NEAR(static_cast<double>(lists), static_cast<double>(alives),
              static_cast<double>(alives) * 0.1);
}

TEST(CToP, ToleratesFairLossyLeaderOutputLinks) {
  // Section 4's link requirements: leader input links partially
  // synchronous, leader OUTPUT links merely fair. Drop 40% of the
  // leader's list messages; ◇P must still hold.
  const int n = 5;
  const ProcessId leader = 0;
  auto cfg = base_scenario(n, 6);
  cfg.with_crash(3, sec(1));
  // A script stable from 0 trusts `leader` throughout.
  auto res = run_fd_scenario(
      cfg, scripted_installer(n, leader, 0), sec(6), [&](System& sys) {
        for (ProcessId d = 0; d < n; ++d) {
          if (d == leader) continue;
          FairLossyLink::Config lossy;
          lossy.loss_p = 0.4;
          lossy.force_deliver_every = 5;
          sys.network().set_link(leader, d,
                                 std::make_unique<FairLossyLink>(lossy));
        }
      });
  EXPECT_TRUE(res.classes.eventually_perfect())
      << "fairness of output links suffices for list adoption";
}

TEST(CToP, ActingLeaderFlagTracksTrustedSelf) {
  const int n = 3;
  auto cfg = base_scenario(n, 7);
  auto sys = make_system(cfg);
  std::vector<core::CToP*> ctps;
  for (ProcessId p = 0; p < n; ++p) {
    std::vector<fd::ScriptedFd::Step> steps;
    steps.push_back({0, ProcessSet(n), 1});
    auto& omega = sys->host(p).emplace<fd::ScriptedFd>(steps);
    ctps.push_back(&sys->host(p).emplace<core::CToP>(&omega));
  }
  sys->start();
  sys->run_until(msec(200));
  EXPECT_TRUE(ctps[1]->acting_leader());
  EXPECT_FALSE(ctps[0]->acting_leader());
  EXPECT_FALSE(ctps[2]->acting_leader());
}

// --- takeover on the shipped stack ---------------------------------------
//
// fd=ecfd (stable Omega -> CToP), installed through the shared factory with
// the timings ecfd_node's INI and kvbench use: period 50 ms, Δ 250 ms.

consensus::FdTimings node_timings() {
  consensus::FdTimings t;
  t.period = msec(50);
  t.initial_timeout = msec(250);
  t.timeout_increment = msec(100);
  return t;
}

struct ShippedStack {
  std::unique_ptr<System> sys;
  std::vector<consensus::FdInstallation> fds;
  std::vector<const core::CToP*> ctps;
};

ShippedStack make_shipped(int n, std::uint64_t seed) {
  ShippedStack s;
  s.sys = make_system(testutil::partial_sync_scenario(n, seed, /*gst=*/0));
  for (ProcessId p = 0; p < n; ++p) {
    s.fds.push_back(consensus::install_fd_stack(
        consensus::FdStack::kEcfd, s.sys->host(p), node_timings()));
    s.ctps.push_back(dynamic_cast<const core::CToP*>(s.fds.back().suspect));
  }
  return s;
}

/// Runs \p sys to \p until in 1 ms steps and returns, per predicate, the
/// first step at which it held (kTimeNever if it never did).
std::vector<TimeUs> first_times(
    System& sys, TimeUs until,
    const std::vector<std::function<bool()>>& preds) {
  std::vector<TimeUs> first(preds.size(), kTimeNever);
  while (sys.now() < until) {
    sys.run_for(msec(1));
    for (std::size_t i = 0; i < preds.size(); ++i) {
      if (first[i] == kTimeNever && preds[i]()) first[i] = sys.now();
    }
  }
  return first;
}

TEST(CToP, NewLeaderTimesOutItsCrashedPredecessorFromItsLastList) {
  const int n = 3;
  const ProcessId old_leader = 0;
  const ProcessId successor = 1;  // stable Omega: argmin (accusations, id)
  const DurUs list_period = node_timings().period;
  ShippedStack s = make_shipped(n, 11);
  std::vector<std::unique_ptr<core::LogReplica>> logs;
  for (ProcessId p = 0; p < n; ++p) {
    core::LogReplica::Config lc;
    lc.capacity = 8;
    lc.quiescent = true;
    lc.consensus.poll_period = list_period / 2;  // as ecfd_node sets it
    logs.push_back(std::make_unique<core::LogReplica>(
        s.sys->host(p), s.fds[static_cast<std::size_t>(p)].ecfd, lc));
  }
  s.sys->start();
  s.sys->run_until(sec(2));
  for (ProcessId p = 0; p < n; ++p) {
    ASSERT_EQ(s.fds[static_cast<std::size_t>(p)].leader->trusted(), old_leader);
  }

  const TimeUs crash = s.sys->now();
  s.sys->crash_now(old_leader);
  constexpr consensus::Value kCommand = 42;
  TimeUs decided_at = kTimeNever;
  logs[successor]->set_apply([&decided_at](const core::LogReplica::Entry& e) {
    if (e.command == kCommand) decided_at = e.decided_at;
  });
  logs[successor]->submit(kCommand);

  const auto& fd = s.fds[successor];
  const auto t = first_times(
      *s.sys, crash + sec(3),
      {[&fd] { return fd.leader->trusted() == successor; },
       [&fd] { return fd.suspect->suspected().contains(old_leader); }});
  const TimeUs trusts_self = t[0];
  const TimeUs suspects_old = t[1];
  ASSERT_NE(trusts_self, kTimeNever) << "Omega never moved to p1";
  ASSERT_NE(suspects_old, kTimeNever) << "p1 never suspected the dead p0";
  // Omega's election is T_Ω; the predecessor's silence since its last list
  // already exceeds Δ, so the first Task 3 check after takeover suspects it.
  EXPECT_LE(suspects_old - trusts_self, list_period)
      << "T_Ω = " << (trusts_self - crash) << " us";
  // Phases 2 and 4 stop waiting for the dead process at once, so the slot
  // decides within T_Ω plus two list periods of the crash.
  ASSERT_NE(decided_at, kTimeNever);
  EXPECT_LT(decided_at, trusts_self + 2 * list_period)
      << "decided " << (decided_at - crash) << " us after the crash, T_Ω = "
      << (trusts_self - crash) << " us";
  EXPECT_TRUE(s.ctps[2]->suspected().contains(old_leader))
      << "p2 adopts the new leader's list";
}

TEST(CToP, WrongTakeoverSuspicionIsRepairedByTheFirstIAmAlive) {
  // The old leader stays alive, but from t = 2 s everything it sends p1 is
  // delayed 600 ms, past Δ. p1's Omega accuses it and takes over, and p1
  // suspects p0, whose last list is stale: a ◇P mistake. Task 4 must lift
  // it on p0's first I-AM-ALIVE and widen Δ_p1(p0).
  const int n = 3;
  const DurUs slow = msec(600);
  const consensus::FdTimings timings = node_timings();
  ShippedStack s = make_shipped(n, 12);
  System* sys = s.sys.get();
  sys->scheduler().schedule_at(sec(2), [sys, slow] {
    sys->network().set_link(0, 1, std::make_unique<ReliableLink>(slow, slow));
  });
  sys->start();
  sys->run_until(sec(2));
  ASSERT_EQ(s.fds[1].leader->trusted(), 0);

  const core::CToP& ctp1 = *s.ctps[1];
  const LeaderOracle& omega0 = *s.fds[0].leader;
  bool seen = false;
  const auto t = first_times(
      *sys, sec(6),
      {[&ctp1] { return ctp1.acting_leader(); },
       [&ctp1, &seen] { return seen = seen || ctp1.suspected().contains(0); },
       [&ctp1, &seen] { return seen && !ctp1.suspected().contains(0); },
       [&omega0] { return omega0.trusted() == 1; }});
  const TimeUs takeover = t[0];
  const TimeUs suspected = t[1];
  const TimeUs repaired = t[2];
  const TimeUs p0_trusts_p1 = t[3];
  ASSERT_NE(takeover, kTimeNever);
  ASSERT_NE(suspected, kTimeNever) << "no wrong suspicion to repair";
  ASSERT_NE(repaired, kTimeNever) << "the mistake was never repaired";
  ASSERT_NE(p0_trusts_p1, kTimeNever);

  // p0's first I-AM-ALIVE to p1 leaves within one alive period of p0
  // trusting p1 and arrives `slow` later. p0's lists, which arrive first,
  // only stamp it: the suspicion lasts until that I-AM-ALIVE, and no longer.
  EXPECT_GE(repaired, p0_trusts_p1 - msec(1) + slow);
  EXPECT_LE(repaired, p0_trusts_p1 + timings.period + slow + msec(1));
  EXPECT_FALSE(ctp1.suspected().contains(0));
  EXPECT_EQ(ctp1.timeout(0),
            timings.initial_timeout + timings.timeout_increment)
      << "exactly one mistake, one widening";
}

}  // namespace
}  // namespace ecfd
