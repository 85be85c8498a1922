#include "fd/leader_candidate.hpp"

#include <gtest/gtest.h>

#include "fd_test_util.hpp"
#include "scenario_util.hpp"

namespace ecfd {
namespace {

using testutil::run_fd_scenario;

testutil::Installer lc_installer() {
  return [](ProcessHost& host, ProcessId,
            std::vector<std::shared_ptr<void>>&) {
    auto& lc = host.emplace<fd::LeaderCandidate>();
    return testutil::OracleRefs{nullptr, &lc};
  };
}

ScenarioConfig base_scenario(int n, std::uint64_t seed) {
  return testutil::partial_sync_scenario(n, seed, msec(300), msec(60));
}

TEST(LeaderCandidate, ElectsP0WhenAllCorrect) {
  auto res = run_fd_scenario(base_scenario(5, 1), lc_installer(), sec(5));
  EXPECT_TRUE(res.classes.omega);
  EXPECT_EQ(res.classes.leader, 0);
  EXPECT_TRUE(check::satisfied(res.verdict("fd.leader_agreement"),
                               res.horizon, sec(2)));
}

TEST(LeaderCandidate, FallsThroughCrashedPrefix) {
  auto cfg = base_scenario(5, 2);
  cfg.with_crash(0, msec(500)).with_crash(1, msec(800));
  auto res = run_fd_scenario(cfg, lc_installer(), sec(8));
  EXPECT_TRUE(res.classes.omega);
  EXPECT_EQ(res.classes.leader, 2);
}

TEST(LeaderCandidate, RecoversFromPreGstMistakes) {
  auto cfg = base_scenario(4, 3);
  cfg.pre_gst_max = msec(200);  // force mistaken suspicion of p0
  cfg.gst = msec(800);
  auto res = run_fd_scenario(cfg, lc_installer(), sec(8));
  EXPECT_TRUE(res.classes.omega);
  EXPECT_EQ(res.classes.leader, 0)
      << "rollback must restore the lowest-id correct leader";
}

TEST(LeaderCandidate, SteadyStateCostIsLinear) {
  ScenarioConfig cfg = base_scenario(8, 4);
  cfg.gst = 0;
  auto sys = make_system(cfg);
  for (ProcessId p = 0; p < cfg.n; ++p) {
    sys->host(p).emplace<fd::LeaderCandidate>();
  }
  sys->start();
  sys->run_until(sec(3));
  // Only the leader broadcasts: ~ (n-1) messages per period once stable
  // (allow some startup noise from transient self-candidates).
  const auto sent = sys->counters().get("msg.lc.leader.sent");
  fd::LeaderCandidate::Config defaults;
  const double periods = static_cast<double>(sec(3)) / defaults.period;
  EXPECT_LT(static_cast<double>(sent), periods * (cfg.n - 1) * 1.5);
  EXPECT_GT(static_cast<double>(sent), periods * (cfg.n - 1) * 0.8);
}

TEST(LeaderCandidate, OnlyPrefixEverSuspected) {
  ScenarioConfig cfg = base_scenario(5, 5);
  auto sys = make_system(cfg);
  std::vector<fd::LeaderCandidate*> lcs;
  for (ProcessId p = 0; p < cfg.n; ++p) {
    lcs.push_back(&sys->host(p).emplace<fd::LeaderCandidate>());
  }
  sys->crash_at(4, sec(1));  // a crash above everyone's candidate
  sys->start();
  sys->run_until(sec(4));
  // The detector provides leader election only: p4's crash is invisible
  // because p4 was never anyone's candidate. (This is why LeaderCandidate
  // alone is not ◇S-complete, as the header documents.)
  for (ProcessId p = 0; p < 4; ++p) {
    EXPECT_FALSE(lcs[p]->prefix_suspects().contains(4));
  }
}

struct SweepParam {
  std::uint64_t seed;
  int n;
  int prefix_crashes;
};

class LeaderCandidateSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(LeaderCandidateSweep, OmegaHolds) {
  const SweepParam param = GetParam();
  auto cfg = base_scenario(param.n, param.seed);
  for (int i = 0; i < param.prefix_crashes; ++i) {
    cfg.with_crash(i, msec(300) + i * msec(200));
  }
  auto res = run_fd_scenario(cfg, lc_installer(), sec(10));
  EXPECT_TRUE(res.classes.omega) << "seed=" << param.seed;
  EXPECT_EQ(res.classes.leader, param.prefix_crashes)
      << "leader must be the first correct process";
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, LeaderCandidateSweep,
    ::testing::Values(SweepParam{31, 4, 0}, SweepParam{32, 4, 1},
                      SweepParam{33, 5, 2}, SweepParam{34, 6, 3},
                      SweepParam{35, 7, 1}, SweepParam{36, 3, 1}));

}  // namespace
}  // namespace ecfd
