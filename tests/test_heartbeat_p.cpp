#include "fd/heartbeat_p.hpp"

#include <gtest/gtest.h>

#include "fd_test_util.hpp"
#include "scenario_util.hpp"

namespace ecfd {
namespace {

using testutil::run_fd_scenario;

testutil::Installer heartbeat_installer() {
  return [](ProcessHost& host, ProcessId,
            std::vector<std::shared_ptr<void>>&) {
    auto& hb = host.emplace<fd::HeartbeatP>();
    return testutil::OracleRefs{&hb, nullptr};
  };
}

ScenarioConfig base_scenario(int n, std::uint64_t seed) {
  return testutil::partial_sync_scenario(n, seed, msec(300), msec(80));
}

TEST(HeartbeatP, FailureFreeRunIsAccurate) {
  auto res = run_fd_scenario(base_scenario(5, 1), heartbeat_installer(),
                             sec(5));
  EXPECT_TRUE(res.classes.eventual_strong_accuracy);
  EXPECT_TRUE(res.classes.strong_completeness);  // vacuous
  EXPECT_TRUE(check::satisfied(res.verdict("fd.eventual_strong_accuracy"),
                               res.horizon, sec(2)))
      << "accuracy should stabilize well before the horizon";
}

TEST(HeartbeatP, CrashesArePermanentlySuspected) {
  auto cfg = base_scenario(5, 2);
  cfg.with_crash(1, msec(600)).with_crash(4, sec(1));
  auto res = run_fd_scenario(cfg, heartbeat_installer(), sec(5));
  EXPECT_TRUE(res.classes.eventually_perfect())
      << res.verdict("fd.strong_completeness").to_string() << "\n"
      << res.verdict("fd.eventual_strong_accuracy").to_string();
}

TEST(HeartbeatP, SurvivesCrashBeforeGst) {
  auto cfg = base_scenario(4, 3);
  cfg.with_crash(0, msec(100));  // crash during the chaotic period
  auto res = run_fd_scenario(cfg, heartbeat_installer(), sec(5));
  EXPECT_TRUE(res.classes.eventually_perfect());
  EXPECT_NE(res.classes.ewa_witness, 0);
}

TEST(HeartbeatP, TimeoutsAdaptUpward) {
  // Direct check of the adaptive mechanism: pre-GST delays above the
  // initial timeout must have widened at least one pair's timeout.
  ScenarioConfig cfg = base_scenario(3, 4);
  cfg.pre_gst_max = msec(200);
  cfg.gst = msec(500);
  auto sys = make_system(cfg);
  std::vector<fd::HeartbeatP*> hbs;
  for (ProcessId p = 0; p < cfg.n; ++p) {
    hbs.push_back(&sys->host(p).emplace<fd::HeartbeatP>());
  }
  sys->start();
  sys->run_until(sec(3));
  fd::HeartbeatP::Config defaults;
  bool widened = false;
  for (ProcessId p = 0; p < cfg.n; ++p) {
    for (ProcessId q = 0; q < cfg.n; ++q) {
      if (p != q && hbs[p]->timeout_of(q) > defaults.initial_timeout) {
        widened = true;
      }
    }
  }
  EXPECT_TRUE(widened);
  // And despite the mistakes, the final output is accurate again.
  for (ProcessId p = 0; p < cfg.n; ++p) {
    EXPECT_TRUE(hbs[p]->suspected().empty())
        << "p" << p << " still suspects " << hbs[p]->suspected().to_string();
  }
}

TEST(HeartbeatP, QuadraticMessageCost) {
  // n(n-1) messages per period: measure over a window and compare.
  ScenarioConfig cfg = base_scenario(6, 5);
  cfg.gst = 0;  // synchronous from the start; cost is the steady state
  auto sys = make_system(cfg);
  for (ProcessId p = 0; p < cfg.n; ++p) sys->host(p).emplace<fd::HeartbeatP>();
  sys->start();
  sys->run_until(sec(2));
  const auto sent = sys->counters().get("msg.hb_p.alive.sent");
  fd::HeartbeatP::Config defaults;
  const double periods = static_cast<double>(sec(2)) / defaults.period;
  const double expected = periods * cfg.n * (cfg.n - 1);
  EXPECT_NEAR(static_cast<double>(sent), expected, expected * 0.05);
}

// Property sweep: ◇P must hold across seeds and crash patterns.
struct SweepParam {
  std::uint64_t seed;
  int n;
  int crashes;
};

class HeartbeatPSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(HeartbeatPSweep, EventuallyPerfect) {
  const SweepParam param = GetParam();
  auto cfg = base_scenario(param.n, param.seed);
  // Crash the last `crashes` processes at staggered times.
  for (int i = 0; i < param.crashes; ++i) {
    cfg.with_crash(param.n - 1 - i, msec(200) + i * msec(300));
  }
  auto res = run_fd_scenario(cfg, heartbeat_installer(), sec(6));
  EXPECT_TRUE(res.classes.eventually_perfect())
      << "seed=" << param.seed << " n=" << param.n
      << " crashes=" << param.crashes;
  EXPECT_TRUE(check::satisfied(res.verdict("fd.strong_completeness"),
                               res.horizon, sec(1)));
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, HeartbeatPSweep,
    ::testing::Values(SweepParam{11, 4, 1}, SweepParam{12, 5, 2},
                      SweepParam{13, 6, 2}, SweepParam{14, 7, 3},
                      SweepParam{15, 5, 0}, SweepParam{16, 3, 1},
                      SweepParam{17, 9, 4}, SweepParam{18, 8, 3}));

}  // namespace
}  // namespace ecfd
