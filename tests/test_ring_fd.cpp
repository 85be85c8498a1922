#include "fd/ring_fd.hpp"

#include <gtest/gtest.h>

#include "fd_test_util.hpp"
#include "net/protocol_ids.hpp"
#include "scenario_util.hpp"

namespace ecfd {
namespace {

using testutil::run_fd_scenario;

testutil::Installer ring_installer() {
  return [](ProcessHost& host, ProcessId,
            std::vector<std::shared_ptr<void>>&) {
    auto& ring = host.emplace<fd::RingFd>();
    return testutil::OracleRefs{&ring, &ring};
  };
}

ScenarioConfig base_scenario(int n, std::uint64_t seed) {
  return testutil::partial_sync_scenario(n, seed, msec(300), msec(60));
}

TEST(RingFd, FailureFreeConvergesToNoSuspicionsAndLeaderP0) {
  auto res = run_fd_scenario(base_scenario(5, 1), ring_installer(), sec(8));
  EXPECT_TRUE(res.classes.eventual_strong_accuracy);
  EXPECT_TRUE(res.classes.omega);
  EXPECT_EQ(res.classes.leader, 0) << "ring leader is first in order";
  EXPECT_TRUE(res.classes.eventually_consistent());
}

TEST(RingFd, CrashDetectedAndPropagatedAroundRing) {
  auto cfg = base_scenario(6, 2);
  cfg.with_crash(2, sec(1));
  auto res = run_fd_scenario(cfg, ring_installer(), sec(10));
  EXPECT_TRUE(res.classes.eventually_perfect())
      << res.verdict("fd.strong_completeness").to_string() << "\n"
      << res.verdict("fd.eventual_strong_accuracy").to_string();
}

TEST(RingFd, LeaderFallsToFirstCorrectWhenP0Crashes) {
  auto cfg = base_scenario(5, 3);
  cfg.with_crash(0, sec(1)).with_crash(1, sec(2));
  auto res = run_fd_scenario(cfg, ring_installer(), sec(12));
  EXPECT_TRUE(res.classes.omega);
  EXPECT_EQ(res.classes.leader, 2)
      << "first correct process in ring order";
  EXPECT_TRUE(res.classes.eventually_consistent());
}

TEST(RingFd, LinearMessageCost) {
  // 2n messages per period (n QUERY + n REPLY) in the steady state, plus
  // the occasional recovery poll.
  ScenarioConfig cfg = base_scenario(8, 4);
  cfg.gst = 0;
  auto sys = make_system(cfg);
  for (ProcessId p = 0; p < cfg.n; ++p) sys->host(p).emplace<fd::RingFd>();
  sys->start();
  sys->run_until(sec(2));
  const auto queries = sys->metrics().get("msg.ring.query.sent");
  const auto replies = sys->metrics().get("msg.ring.reply.sent");
  fd::RingFd::Config defaults;
  const double periods = static_cast<double>(sec(2)) / defaults.period;
  EXPECT_NEAR(static_cast<double>(queries), periods * cfg.n,
              periods * cfg.n * 0.10);
  EXPECT_NEAR(static_cast<double>(replies), periods * cfg.n,
              periods * cfg.n * 0.10);
}

TEST(RingFd, TargetSkipsSuspectedProcesses) {
  ScenarioConfig cfg = base_scenario(4, 5);
  cfg.gst = 0;
  auto sys = make_system(cfg);
  std::vector<fd::RingFd*> rings;
  for (ProcessId p = 0; p < cfg.n; ++p) {
    rings.push_back(&sys->host(p).emplace<fd::RingFd>());
  }
  sys->crash_at(1, msec(100));
  sys->start();
  sys->run_until(sec(3));
  EXPECT_EQ(rings[0]->target(), 2) << "p0 must skip crashed p1";
  EXPECT_TRUE(rings[0]->suspected().contains(1));
}

TEST(RingFd, BodiesOfAnotherSizeAreIgnored) {
  // A ring.query whose sequence vector or suspect set is not over n
  // processes (a forged UDP frame can carry one) must leave every output
  // as it was; merging a one-element vector once read past its end. p2 has
  // crashed and p0 and p1 suspect it. Each forged body carries the largest
  // sequence number for p2, so merging it would retract that suspicion at
  // once, and the first timeout would bring it back only tens of ms later:
  // the outputs are checked every millisecond in between.
  const int n = 3;
  ScenarioConfig cfg = base_scenario(n, 6);
  cfg.gst = 0;
  auto sys = make_system(cfg);
  std::vector<fd::RingFd*> rings;
  for (ProcessId p = 0; p < n; ++p) {
    rings.push_back(&sys->host(p).emplace<fd::RingFd>());
  }
  sys->crash_at(2, msec(500));
  sys->start();
  sys->run_until(sec(2));
  std::vector<ProcessSet> before;
  for (ProcessId p = 0; p < 2; ++p) {
    before.push_back(rings[p]->suspected());
    ASSERT_TRUE(before.back().contains(2)) << "p" << p;
  }

  fd::RingFd::Body short_seq;
  short_seq.seq = {~std::uint64_t{0}};
  short_seq.susp = ProcessSet::full(n);
  fd::RingFd::Body small_universe;
  small_universe.seq.assign(n, ~std::uint64_t{0});
  small_universe.susp = ProcessSet::full(1);
  for (const fd::RingFd::Body& body : {short_seq, small_universe}) {
    for (ProcessId p = 0; p < 2; ++p) {
      Message forged = Message::make(protocol_ids::kRingFd, /*query=*/1,
                                     "ring.query", body);
      forged.src = 1 - p;
      forged.dst = p;
      sys->network().send(forged);
    }
  }
  for (int ms = 0; ms < 100; ++ms) {  // past the largest link delay
    sys->run_for(msec(1));
    for (ProcessId p = 0; p < 2; ++p) {
      ASSERT_EQ(rings[p]->suspected(), before[p]) << "p" << p << " at +" << ms;
      ASSERT_EQ(rings[p]->suspected().universe_size(), n) << "p" << p;
      ASSERT_EQ(rings[p]->trusted(), 0) << "p" << p;
    }
  }
}

struct SweepParam {
  std::uint64_t seed;
  int n;
  int crashes;
};

class RingFdSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(RingFdSweep, EventuallyConsistent) {
  const SweepParam param = GetParam();
  auto cfg = base_scenario(param.n, param.seed);
  for (int i = 0; i < param.crashes; ++i) {
    // Crash from the middle of the ring, staggered.
    cfg.with_crash((param.n / 2 + i) % param.n, msec(400) + i * msec(500));
  }
  auto res = run_fd_scenario(cfg, ring_installer(), sec(15));
  EXPECT_TRUE(res.classes.eventually_consistent())
      << "seed=" << param.seed << " n=" << param.n
      << " crashes=" << param.crashes
      << " SC=" << res.classes.strong_completeness
      << " EWA=" << res.classes.eventual_weak_accuracy
      << " omega=" << res.classes.omega
      << " couple=" << res.classes.coupling;
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, RingFdSweep,
    ::testing::Values(SweepParam{21, 4, 1}, SweepParam{22, 5, 2},
                      SweepParam{23, 6, 1}, SweepParam{24, 7, 3},
                      SweepParam{25, 5, 0}, SweepParam{26, 3, 1},
                      SweepParam{27, 8, 2}));

}  // namespace
}  // namespace ecfd
