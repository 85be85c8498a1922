// Tests for the detector-class transformations of Section 3:
//   * WToS      — weak completeness -> strong completeness (Chandra-Toueg)
//   * OmegaFromS — ◇S -> Omega (suspicion-penalty reduction)
#include "fd/omega_from_s.hpp"
#include "fd/scripted_fd.hpp"
#include "fd/w_to_s.hpp"

#include <gtest/gtest.h>

#include "fd/heartbeat_p.hpp"
#include "fd_test_util.hpp"
#include "scenario_util.hpp"

namespace ecfd {
namespace {

using testutil::run_fd_scenario;

ScenarioConfig base_scenario(int n, std::uint64_t seed) {
  return testutil::partial_sync_scenario(n, seed, msec(200), msec(40));
}

// --- WToS ------------------------------------------------------------

TEST(WToS, SpreadsASingleWitnessSuspicionToEveryone) {
  // Input: weakly complete scripted detector — only p0 ever suspects the
  // crashed p3. The transformation must give strong completeness.
  const int n = 4;
  auto cfg = base_scenario(n, 1);
  cfg.with_crash(3, msec(300));

  auto install = [n](ProcessHost& host, ProcessId p,
                     std::vector<std::shared_ptr<void>>&) {
    ProcessSet none(n);
    ProcessSet p3(n);
    p3.add(3);
    std::vector<fd::ScriptedFd::Step> steps;
    steps.push_back({0, none, 0});
    if (p == 0) steps.push_back({msec(400), p3, 0});
    auto& in = host.emplace<fd::ScriptedFd>(steps);
    auto& out = host.emplace<fd::WToS>(&in);
    return testutil::OracleRefs{&out, nullptr};
  };

  auto res = run_fd_scenario(cfg, install, sec(4));
  EXPECT_TRUE(res.classes.strong_completeness)
      << res.verdict("fd.strong_completeness").to_string();
  // Nothing false is introduced: accuracy intact.
  EXPECT_TRUE(res.classes.eventual_strong_accuracy);
}

TEST(WToS, GossipedFalseSuspicionIsClearedByTheVictim) {
  // p0 falsely suspects p2 for a while, then stops. After p0 stops
  // gossiping it and p2's own broadcasts keep clearing it, nobody should
  // suspect p2 anymore.
  const int n = 4;
  auto cfg = base_scenario(n, 2);

  auto install = [n](ProcessHost& host, ProcessId p,
                     std::vector<std::shared_ptr<void>>&) {
    ProcessSet none(n);
    ProcessSet p2(n);
    p2.add(2);
    std::vector<fd::ScriptedFd::Step> steps;
    if (p == 0) {
      steps.push_back({0, p2, 0});          // mistake...
      steps.push_back({msec(500), none, 0}); // ...retracted
    } else {
      steps.push_back({0, none, 0});
    }
    auto& in = host.emplace<fd::ScriptedFd>(steps);
    auto& out = host.emplace<fd::WToS>(&in);
    return testutil::OracleRefs{&out, nullptr};
  };

  auto res = run_fd_scenario(cfg, install, sec(4));
  EXPECT_TRUE(res.classes.eventual_strong_accuracy)
      << "stale gossiped suspicion must wash out";
}

TEST(WToS, PerpetualInputMistakeDoesNotStickAtTheOutput) {
  // Even if the input permanently suspects correct p2, p2's own periodic
  // broadcasts keep clearing it at every receiver (including at p0, whose
  // local merge re-adds it between broadcasts). The output therefore only
  // flaps — a correct process is never *permanently* suspected, so the
  // eventual accuracy properties survive at the output, and the alive
  // witness p1/p3 certainly remains available for ◇S.
  const int n = 4;
  auto cfg = base_scenario(n, 3);

  auto install = [n](ProcessHost& host, ProcessId p,
                     std::vector<std::shared_ptr<void>>&) {
    ProcessSet none(n);
    ProcessSet p2(n);
    p2.add(2);
    std::vector<fd::ScriptedFd::Step> steps;
    steps.push_back({0, p == 0 ? p2 : none, 0});
    auto& in = host.emplace<fd::ScriptedFd>(steps);
    auto& out = host.emplace<fd::WToS>(&in);
    return testutil::OracleRefs{&out, nullptr};
  };

  auto res = run_fd_scenario(cfg, install, sec(4));
  EXPECT_TRUE(res.classes.eventual_weak_accuracy);
}

TEST(WToS, OnRealHeartbeatInputStaysEventuallyPerfect) {
  auto cfg = base_scenario(5, 4);
  cfg.with_crash(2, msec(500));
  auto install = [](ProcessHost& host, ProcessId,
                    std::vector<std::shared_ptr<void>>&) {
    auto& in = host.emplace<fd::HeartbeatP>();
    auto& out = host.emplace<fd::WToS>(&in);
    return testutil::OracleRefs{&out, nullptr};
  };
  auto res = run_fd_scenario(cfg, install, sec(6));
  EXPECT_TRUE(res.classes.eventually_perfect());
}

// --- OmegaFromS --------------------------------------------------------

TEST(OmegaFromS, ConvergesToTheNeverSuspectedProcess) {
  // Scripted ◇S input whose eventual-weak-accuracy witness is p2 (not the
  // lowest id): everyone eventually suspects everyone except p2.
  const int n = 4;
  auto cfg = base_scenario(n, 5);

  auto install = [n](ProcessHost& host, ProcessId p,
                     std::vector<std::shared_ptr<void>>&) {
    ProcessSet all_but_p2 = ProcessSet::full(n);
    all_but_p2.remove(2);
    all_but_p2.remove(p);
    std::vector<fd::ScriptedFd::Step> steps;
    steps.push_back({0, all_but_p2, 0});
    auto& in = host.emplace<fd::ScriptedFd>(steps);
    auto& omega = host.emplace<fd::OmegaFromS>(&in);
    return testutil::OracleRefs{nullptr, &omega};
  };

  auto res = run_fd_scenario(cfg, install, sec(4));
  EXPECT_TRUE(res.classes.omega);
  EXPECT_EQ(res.classes.leader, 2)
      << "the penalty argmin must settle on the unsuspected process";
}

TEST(OmegaFromS, OnRealHeartbeatElectsFirstCorrect) {
  auto cfg = base_scenario(5, 6);
  cfg.with_crash(0, msec(400));
  auto install = [](ProcessHost& host, ProcessId,
                    std::vector<std::shared_ptr<void>>&) {
    auto& in = host.emplace<fd::HeartbeatP>();
    auto& omega = host.emplace<fd::OmegaFromS>(&in);
    return testutil::OracleRefs{&in, &omega};
  };
  auto res = run_fd_scenario(cfg, install, sec(8));
  EXPECT_TRUE(res.classes.omega);
  // With a clean ◇P input, the crashed p0 accumulates penalty forever; any
  // correct process can win, but it must be correct and common. With ties
  // broken by id, p1 is the expected winner.
  EXPECT_EQ(res.classes.leader, 1);
  EXPECT_TRUE(res.classes.eventually_consistent())
      << "heartbeat sets + derived leader compose into ◇C";
}

TEST(OmegaFromS, PenaltyOfCrashedProcessKeepsGrowing) {
  const int n = 3;
  auto cfg = base_scenario(n, 7);
  cfg.with_crash(2, msec(300));
  auto sys = make_system(cfg);
  std::vector<fd::OmegaFromS*> omegas;
  for (ProcessId p = 0; p < n; ++p) {
    auto& in = sys->host(p).emplace<fd::HeartbeatP>();
    omegas.push_back(&sys->host(p).emplace<fd::OmegaFromS>(&in));
  }
  sys->start();
  sys->run_until(sec(2));
  const auto mid = omegas[0]->penalty(2);
  sys->run_until(sec(4));
  const auto late = omegas[0]->penalty(2);
  EXPECT_GT(mid, 0u);
  EXPECT_GT(late, mid);
  EXPECT_LT(omegas[0]->penalty(1), mid) << "correct p1 stays cheap";
}

}  // namespace
}  // namespace ecfd
