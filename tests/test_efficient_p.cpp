// Tests for the Section 4 piggyback-optimized combined Omega + ◇P
// detector (fd/efficient_p.hpp).
#include "fd/efficient_p.hpp"

#include <gtest/gtest.h>

#include "fd_test_util.hpp"
#include "net/protocol_ids.hpp"
#include "scenario_util.hpp"

namespace ecfd {
namespace {

using testutil::run_fd_scenario;

testutil::Installer installer() {
  return [](ProcessHost& host, ProcessId,
            std::vector<std::shared_ptr<void>>&) {
    auto& fd = host.emplace<fd::EfficientP>();
    return testutil::OracleRefs{&fd, &fd};
  };
}

ScenarioConfig base_scenario(int n, std::uint64_t seed) {
  return testutil::partial_sync_scenario(n, seed, msec(250), msec(50));
}

TEST(EfficientP, IsEventuallyPerfectAndConsistent) {
  auto cfg = base_scenario(5, 1);
  cfg.with_crash(2, msec(700)).with_crash(4, sec(1));
  auto res = run_fd_scenario(cfg, installer(), sec(8));
  EXPECT_TRUE(res.classes.eventually_perfect());
  EXPECT_TRUE(res.classes.eventually_consistent());
  EXPECT_EQ(res.classes.leader, 0);
}

TEST(EfficientP, SurvivesLeaderCrash) {
  auto cfg = base_scenario(5, 2);
  cfg.with_crash(0, msec(800));
  auto res = run_fd_scenario(cfg, installer(), sec(8));
  EXPECT_TRUE(res.classes.eventually_perfect());
  EXPECT_TRUE(res.classes.omega);
  EXPECT_EQ(res.classes.leader, 1);
}

TEST(EfficientP, SteadyStateCostIsExactly2NMinus1) {
  // The Section 4 headline: 2(n-1) messages per period TOTAL, detector
  // included — the leader's list-carrying beat plus the alive inflow.
  const int n = 10;
  auto cfg = base_scenario(n, 3);
  cfg.gst = 0;
  auto sys = make_system(cfg);
  for (ProcessId p = 0; p < n; ++p) sys->host(p).emplace<fd::EfficientP>();
  sys->start();
  // Warm up past the transient multi-leader phase, then measure.
  sys->run_until(sec(1));
  const auto before = sys->network().sent_total();
  sys->run_until(sec(3));
  const auto sent = sys->network().sent_total() - before;
  fd::EfficientP::Config defaults;
  const double periods = static_cast<double>(sec(2)) / defaults.period;
  EXPECT_NEAR(static_cast<double>(sent), periods * 2 * (n - 1),
              periods * 2 * (n - 1) * 0.05);
}

TEST(EfficientP, LeaderFlagFollowsElection) {
  const int n = 4;
  auto cfg = base_scenario(n, 4);
  cfg.gst = 0;
  auto sys = make_system(cfg);
  std::vector<fd::EfficientP*> fds;
  for (ProcessId p = 0; p < n; ++p) {
    fds.push_back(&sys->host(p).emplace<fd::EfficientP>());
  }
  sys->crash_at(0, sec(1));
  sys->start();
  sys->run_until(msec(800));
  EXPECT_TRUE(fds[0]->acting_leader());
  EXPECT_FALSE(fds[1]->acting_leader());
  sys->run_until(sec(3));
  EXPECT_TRUE(fds[1]->acting_leader());
  EXPECT_FALSE(fds[2]->acting_leader());
  EXPECT_TRUE(fds[1]->suspected().contains(0));
}

TEST(EfficientP, ListsOverAnotherUniverseAreIgnored) {
  // An effp.leader list over a universe of 1, sent by the candidate every
  // process trusts (a forged UDP frame can carry one), must leave every
  // output as it was; adopting it once aborted on ProcessSet::remove's
  // range assert.
  const int n = 3;
  auto cfg = base_scenario(n, 7);
  cfg.gst = 0;
  auto sys = make_system(cfg);
  std::vector<fd::EfficientP*> fds;
  for (ProcessId p = 0; p < n; ++p) {
    fds.push_back(&sys->host(p).emplace<fd::EfficientP>());
  }
  sys->start();
  sys->run_until(sec(2));
  std::vector<ProcessSet> before;
  for (const fd::EfficientP* f : fds) before.push_back(f->suspected());
  ProcessSet forged_list(1);
  forged_list.add(0);
  for (ProcessId p = 1; p < n; ++p) {
    Message forged = Message::make(protocol_ids::kEfficientP, /*list=*/1,
                                   "effp.leader", forged_list);
    forged.src = 0;
    forged.dst = p;
    sys->network().send(forged);
  }
  sys->run_for(msec(100));  // past the largest link delay
  for (ProcessId p = 0; p < n; ++p) {
    EXPECT_EQ(fds[p]->suspected(), before[p]) << "p" << p;
    EXPECT_EQ(fds[p]->suspected().universe_size(), n) << "p" << p;
    EXPECT_EQ(fds[p]->trusted(), 0) << "p" << p;
  }
}

struct SweepParam {
  std::uint64_t seed;
  int n;
  int crashes;
};

class EfficientPSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(EfficientPSweep, EventuallyPerfect) {
  const SweepParam p = GetParam();
  auto cfg = base_scenario(p.n, p.seed);
  for (int i = 0; i < p.crashes; ++i) {
    cfg.with_crash((2 * i + 1) % p.n, msec(400) + i * msec(300));
  }
  auto res = run_fd_scenario(cfg, installer(), sec(10));
  EXPECT_TRUE(res.classes.eventually_perfect())
      << "seed=" << p.seed << " n=" << p.n << " f=" << p.crashes;
  EXPECT_TRUE(res.classes.eventually_consistent());
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, EfficientPSweep,
    ::testing::Values(SweepParam{61, 4, 1}, SweepParam{62, 5, 2},
                      SweepParam{63, 6, 2}, SweepParam{64, 7, 3},
                      SweepParam{65, 3, 1}, SweepParam{66, 8, 3}));

}  // namespace
}  // namespace ecfd
