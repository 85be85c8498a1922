// Tests for the stable leader election of fd/stable_leader.hpp
// (Aguilera et al., the paper's reference [2]).
#include "fd/stable_leader.hpp"

#include <gtest/gtest.h>

#include "fd/leader_candidate.hpp"
#include "fd_test_util.hpp"
#include "scenario_util.hpp"

namespace ecfd {
namespace {

using testutil::run_fd_scenario;

testutil::Installer installer() {
  return [](ProcessHost& host, ProcessId,
            std::vector<std::shared_ptr<void>>&) {
    auto& fd = host.emplace<fd::StableLeader>();
    return testutil::OracleRefs{nullptr, &fd};
  };
}

ScenarioConfig base_scenario(int n, std::uint64_t seed) {
  return testutil::partial_sync_scenario(n, seed, msec(250), msec(60));
}

TEST(StableLeader, ImplementsOmegaFailureFree) {
  auto res = run_fd_scenario(base_scenario(5, 1), installer(), sec(6));
  EXPECT_TRUE(res.classes.omega);
}

TEST(StableLeader, ReElectsWhenLeaderCrashes) {
  auto cfg = base_scenario(5, 2);
  cfg.with_crash(0, sec(1));
  auto res = run_fd_scenario(cfg, installer(), sec(8));
  EXPECT_TRUE(res.classes.omega);
  EXPECT_NE(res.classes.leader, 0);
}

TEST(StableLeader, SurvivesCascadingCrashes) {
  auto cfg = base_scenario(6, 3);
  cfg.with_crash(0, msec(800)).with_crash(1, sec(2));
  auto res = run_fd_scenario(cfg, installer(), sec(10));
  EXPECT_TRUE(res.classes.omega)
      << "leader=" << res.classes.leader;
}

TEST(StableLeader, AccusationsGrowForCrashedLeaderOnly) {
  const int n = 4;
  auto cfg = base_scenario(n, 4);
  cfg.gst = 0;
  auto sys = make_system(cfg);
  std::vector<fd::StableLeader*> fds;
  for (ProcessId p = 0; p < n; ++p) {
    fds.push_back(&sys->host(p).emplace<fd::StableLeader>());
  }
  sys->crash_at(0, sec(1));
  sys->start();
  sys->run_until(sec(4));
  EXPECT_GT(fds[1]->accusations(0), 0u);
  EXPECT_EQ(fds[1]->accusations(2), 0u) << "no accusation without timeout";
  // All survivors share the counter view (gossip max-merge).
  EXPECT_EQ(fds[1]->accusations(0), fds[2]->accusations(0));
}

TEST(StableLeader, StabilityLeadershipDoesNotBounceBack) {
  // Contrast with the lowest-id rule: temporarily disconnect p0 so that it
  // gets accused and leadership moves to p1; then heal the partition.
  // LeaderCandidate bounces back to p0 (lowest id wins again); the stable
  // detector keeps p1 (p0's accusation count stays elevated).
  const int n = 4;
  auto cfg = base_scenario(n, 5);
  cfg.gst = 0;
  auto sys = make_system(cfg);
  std::vector<fd::StableLeader*> stable;
  std::vector<fd::LeaderCandidate*> lowest;
  for (ProcessId p = 0; p < n; ++p) {
    stable.push_back(&sys->host(p).emplace<fd::StableLeader>());
    lowest.push_back(&sys->host(p).emplace<fd::LeaderCandidate>());
  }
  sys->start();
  sys->run_until(sec(1));
  EXPECT_EQ(stable[1]->trusted(), 0);
  EXPECT_EQ(lowest[1]->trusted(), 0);

  // Isolate p0 long enough for everyone to give up on it.
  ProcessSet island(n);
  island.add(0);
  sys->network().partition(island);
  sys->run_until(sec(3));
  EXPECT_NE(stable[1]->trusted(), 0);
  EXPECT_NE(lowest[1]->trusted(), 0);
  const ProcessId stable_pick = stable[1]->trusted();

  sys->network().heal();
  sys->run_until(sec(6));
  // The lowest-id rule falls back to p0...
  EXPECT_EQ(lowest[1]->trusted(), 0);
  // ...the stable rule does not (p0 carries its accusations forever).
  EXPECT_EQ(stable[1]->trusted(), stable_pick);
  EXPECT_EQ(stable[2]->trusted(), stable_pick) << "and the view is common";
}

TEST(StableLeader, FewLeaderChangesAfterStabilization) {
  auto cfg = base_scenario(5, 6);
  auto sys = make_system(cfg);
  std::vector<fd::StableLeader*> fds;
  for (ProcessId p = 0; p < 5; ++p) {
    fds.push_back(&sys->host(p).emplace<fd::StableLeader>());
  }
  sys->start();
  sys->run_until(sec(2));
  const int changes_mid = fds[1]->leader_changes();
  sys->run_until(sec(8));
  EXPECT_EQ(fds[1]->leader_changes(), changes_mid)
      << "no further leader changes once stable";
}

}  // namespace
}  // namespace ecfd
