// Property sweep: consensus safety and liveness across algorithms,
// detector stacks, seeds and crash patterns (parameterized), plus
// safety-only runs under fully asynchronous links and never-stabilizing
// detectors.
#include <gtest/gtest.h>

#include "consensus/harness.hpp"

namespace ecfd::consensus {
namespace {

struct SweepParam {
  Algo algo;
  FdStack fd;
  int n;
  int crashes;
  std::uint64_t seed;
};

std::string param_name(const ::testing::TestParamInfo<SweepParam>& info) {
  const SweepParam& p = info.param;
  std::string algo;
  switch (p.algo) {
    case Algo::kEcfdC: algo = "C"; break;
    case Algo::kEcfdCMerged: algo = "Cm"; break;
    case Algo::kChandraTouegS: algo = "CT"; break;
    case Algo::kMrOmega: algo = "MR"; break;
  }
  std::string fd;
  switch (p.fd) {
    case FdStack::kRing: fd = "ring"; break;
    case FdStack::kHeartbeatP: fd = "hb"; break;
    case FdStack::kOmegaPlusHeartbeat: fd = "mix"; break;
    case FdStack::kEfficientP: fd = "effp"; break;
    case FdStack::kScriptedStable: fd = "script"; break;
    case FdStack::kHeartbeatAdaptive: fd = "hbad"; break;
    case FdStack::kHierC: fd = "hier"; break;
    case FdStack::kSwim: fd = "swim"; break;
    case FdStack::kStableLeader: fd = "stable"; break;
    case FdStack::kEcfd: fd = "ecfd"; break;
  }
  return algo + "_" + fd + "_n" + std::to_string(p.n) + "f" +
         std::to_string(p.crashes) + "s" + std::to_string(p.seed);
}

class ConsensusSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(ConsensusSweep, SafeAndLive) {
  const SweepParam& p = GetParam();
  HarnessConfig cfg;
  cfg.scenario.n = p.n;
  cfg.scenario.seed = p.seed;
  cfg.scenario.links = LinkKind::kPartialSync;
  cfg.scenario.gst = msec(200);
  cfg.scenario.delta = msec(5);
  cfg.scenario.pre_gst_max = msec(60);
  cfg.algo = p.algo;
  cfg.fd = p.fd;
  cfg.fd_stable_at = msec(350);
  cfg.horizon = sec(60);
  for (int i = 0; i < p.crashes; ++i) {
    // Crash a mix of low ids (leaders) and high ids, staggered in time.
    const ProcessId victim = (i % 2 == 0) ? i / 2 : p.n - 1 - i / 2;
    cfg.scenario.with_crash(victim, msec(80) + i * msec(170));
  }
  auto r = run_consensus(cfg);
  EXPECT_TRUE(r.uniform_agreement) << summarize(r);
  EXPECT_TRUE(r.validity) << summarize(r);
  EXPECT_TRUE(r.every_correct_decided) << summarize(r);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ConsensusSweep,
    ::testing::Values(
        // The paper's algorithm over every detector stack.
        SweepParam{Algo::kEcfdC, FdStack::kScriptedStable, 5, 2, 41},
        SweepParam{Algo::kEcfdC, FdStack::kRing, 5, 1, 42},
        SweepParam{Algo::kEcfdC, FdStack::kRing, 7, 3, 43},
        SweepParam{Algo::kEcfdC, FdStack::kHeartbeatP, 5, 2, 44},
        SweepParam{Algo::kEcfdC, FdStack::kHeartbeatP, 4, 1, 45},
        SweepParam{Algo::kEcfdC, FdStack::kOmegaPlusHeartbeat, 6, 2, 46},
        SweepParam{Algo::kEcfdC, FdStack::kScriptedStable, 9, 4, 47},
        SweepParam{Algo::kEcfdC, FdStack::kScriptedStable, 3, 1, 48},
        SweepParam{Algo::kEcfdC, FdStack::kEfficientP, 5, 2, 148},
        SweepParam{Algo::kEcfdC, FdStack::kEfficientP, 7, 2, 149},
        SweepParam{Algo::kChandraTouegS, FdStack::kEfficientP, 5, 1, 150},
        // Merged-phase variant.
        SweepParam{Algo::kEcfdCMerged, FdStack::kScriptedStable, 5, 2, 49},
        SweepParam{Algo::kEcfdCMerged, FdStack::kHeartbeatP, 5, 1, 50},
        SweepParam{Algo::kEcfdCMerged, FdStack::kRing, 6, 2, 51},
        // Chandra-Toueg baseline.
        SweepParam{Algo::kChandraTouegS, FdStack::kScriptedStable, 5, 2, 52},
        SweepParam{Algo::kChandraTouegS, FdStack::kHeartbeatP, 5, 2, 53},
        SweepParam{Algo::kChandraTouegS, FdStack::kRing, 7, 3, 54},
        SweepParam{Algo::kChandraTouegS, FdStack::kHeartbeatP, 3, 1, 55},
        // MR Omega baseline.
        SweepParam{Algo::kMrOmega, FdStack::kScriptedStable, 5, 2, 56},
        SweepParam{Algo::kMrOmega, FdStack::kOmegaPlusHeartbeat, 5, 1, 57},
        SweepParam{Algo::kMrOmega, FdStack::kRing, 6, 2, 58},
        SweepParam{Algo::kMrOmega, FdStack::kHeartbeatP, 7, 3, 59}),
    param_name);

// --- safety only, hostile conditions ------------------------------------

class ConsensusSafetyOnly : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ConsensusSafetyOnly, NeverDisagreesUnderAsyncLinksAndUselessFd) {
  // Fully asynchronous links (unbounded exponential delays) and a detector
  // that never stabilizes: liveness is forfeit (FLP), but Uniform
  // Agreement and Validity must hold in every run.
  HarnessConfig cfg;
  cfg.scenario.n = 5;
  cfg.scenario.seed = GetParam();
  cfg.scenario.links = LinkKind::kAsync;
  cfg.scenario.mean_delay = msec(4);
  cfg.scenario.with_crash(4, msec(150));
  cfg.algo = Algo::kEcfdC;
  cfg.fd = FdStack::kScriptedStable;
  cfg.fd_stable_at = sec(1000);  // never, within this horizon
  cfg.max_rounds = 60;
  cfg.horizon = sec(20);
  auto r = run_consensus(cfg);
  EXPECT_TRUE(r.uniform_agreement) << summarize(r);
  EXPECT_TRUE(r.validity) << summarize(r);
}

TEST_P(ConsensusSafetyOnly, CtNeverDisagreesEither) {
  HarnessConfig cfg;
  cfg.scenario.n = 5;
  cfg.scenario.seed = GetParam() ^ 0xabcdef;
  cfg.scenario.links = LinkKind::kAsync;
  cfg.scenario.mean_delay = msec(4);
  cfg.algo = Algo::kChandraTouegS;
  cfg.fd = FdStack::kScriptedStable;
  cfg.fd_stable_at = sec(1000);
  cfg.max_rounds = 60;
  cfg.horizon = sec(20);
  auto r = run_consensus(cfg);
  EXPECT_TRUE(r.uniform_agreement) << summarize(r);
  EXPECT_TRUE(r.validity) << summarize(r);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConsensusSafetyOnly,
                         ::testing::Values(101, 102, 103, 104, 105, 106));

}  // namespace
}  // namespace ecfd::consensus
