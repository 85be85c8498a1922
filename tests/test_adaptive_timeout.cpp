// Unit tests for the Chen-style QoS-adaptive timeout source
// (fd/adaptive_timeout.hpp) and its integration into the heartbeat ◇P:
// warm-up behavior, steady-state convergence, re-convergence after a
// step change in the arrival process, no suspicion churn while jitter
// stays inside the margin — and, in the simulator, eventual strong
// accuracy under the WAN/geo profile with the adaptive source installed.
#include <gtest/gtest.h>

#include <string>

#include "check/fuzz.hpp"
#include "check/sim_monitor.hpp"
#include "fd/adaptive_timeout.hpp"
#include "fd/heartbeat_p.hpp"
#include "net/link.hpp"
#include "net/scenario.hpp"
#include "obs/metrics.hpp"

namespace ecfd::fd {
namespace {

ArrivalPredictor::Config small_cfg() {
  ArrivalPredictor::Config c;
  c.window = 4;
  c.alpha = msec(5);
  c.alpha_increment = msec(2);
  c.max_alpha = msec(11);
  c.fallback_timeout = msec(50);
  return c;
}

// --- warm-up --------------------------------------------------------------

TEST(ArrivalPredictor, FallsBackBeforeWarmUp) {
  ArrivalPredictor p(small_cfg());
  EXPECT_FALSE(p.warmed_up());
  EXPECT_EQ(p.predicted_next(), kTimeNever);
  EXPECT_EQ(p.mean_interval(), 0);
  EXPECT_EQ(p.deadline(msec(100)), msec(150)) << "ref + fallback";

  p.observe(msec(10));
  EXPECT_FALSE(p.warmed_up()) << "one arrival gives no interval yet";
  EXPECT_EQ(p.deadline(msec(10)), msec(60));

  p.observe(msec(110));
  EXPECT_TRUE(p.warmed_up());
}

// --- steady state ---------------------------------------------------------

TEST(ArrivalPredictor, ConvergesOnAPeriodicArrivalProcess) {
  ArrivalPredictor p(small_cfg());
  TimeUs t = 0;
  for (int i = 0; i < 20; ++i) {
    p.observe(t);
    t += msec(100);
  }
  EXPECT_EQ(p.mean_interval(), msec(100));
  EXPECT_EQ(p.predicted_next(), p.last_arrival() + msec(100));
  EXPECT_EQ(p.deadline(0), p.predicted_next() + msec(5));
  EXPECT_EQ(p.stats().arrivals, 20);
  // Once warmed, every further arrival was predicted — and perfectly.
  EXPECT_EQ(p.stats().predictions, 18);
  EXPECT_EQ(p.stats().abs_err_max, 0);
  EXPECT_EQ(p.err_bucket(0), 18) << "zero-error arrivals land in bucket 0";
}

TEST(ArrivalPredictor, ReconvergesAfterAStepChange) {
  ArrivalPredictor p(small_cfg());
  TimeUs t = 0;
  for (int i = 0; i < 10; ++i) {
    p.observe(t);
    t += msec(100);
  }
  EXPECT_EQ(p.mean_interval(), msec(100));
  // The link degrades: arrivals now come every 200 ms. After `window`
  // samples the old regime has aged out of the ring buffer entirely.
  for (int i = 0; i < 5; ++i) {
    p.observe(t);
    t += msec(200);
  }
  EXPECT_EQ(p.mean_interval(), msec(200));
  EXPECT_GT(p.stats().abs_err_max, 0) << "the transition was mispredicted";
}

// --- margin adaptation ----------------------------------------------------

TEST(ArrivalPredictor, MistakesWidenAlphaUpToTheCeiling) {
  ArrivalPredictor p(small_cfg());
  EXPECT_EQ(p.alpha(), msec(5));
  p.note_mistake();
  EXPECT_EQ(p.alpha(), msec(7));
  p.note_mistake();
  p.note_mistake();
  EXPECT_EQ(p.alpha(), msec(11));
  p.note_mistake();
  EXPECT_EQ(p.alpha(), msec(11)) << "capped at max_alpha";
  EXPECT_EQ(p.stats().mistakes, 4);
}

TEST(ArrivalPredictor, FrozenMarginNeverWidens) {
  ArrivalPredictor::Config c = small_cfg();
  c.widen_on_mistake = false;  // the kFrozenMargin mutation hook
  ArrivalPredictor p(c);
  p.note_mistake();
  p.note_mistake();
  EXPECT_EQ(p.alpha(), msec(5));
  EXPECT_EQ(p.stats().mistakes, 2) << "mistakes still counted";
}

TEST(ArrivalPredictor, NoChurnWhileJitterStaysInsideTheMargin) {
  // Arrivals at 100 ms +- 2 ms with alpha = 5 ms: the windowed mean stays
  // within 2 ms of the true period, so every prediction is within 4 ms of
  // the actual arrival — inside the margin. The deadline computed after
  // each arrival must then cover the next one, so a detector driven by
  // this predictor never suspects (no churn, no mistakes).
  ArrivalPredictor p(small_cfg());
  const DurUs jitter[] = {0,        msec(1),  -msec(2), msec(2),
                          -msec(1), msec(1),  -msec(2), msec(2),
                          -msec(1), msec(2),  -msec(2), 0};
  TimeUs t = 0;
  TimeUs prev_deadline = kTimeNever;
  int covered = 0;
  int checked = 0;
  for (int i = 0; i < 12; ++i) {
    const TimeUs arrival = t + jitter[i];
    if (p.warmed_up()) {
      ++checked;
      if (arrival <= prev_deadline) ++covered;
    }
    p.observe(arrival);
    prev_deadline = p.deadline(arrival);
    t += msec(100);
  }
  EXPECT_GT(checked, 0);
  EXPECT_EQ(covered, checked) << "an arrival overshot the deadline";
  EXPECT_EQ(p.stats().mistakes, 0);
}

// --- clock-skew robustness ------------------------------------------------

TEST(ArrivalPredictor, ToleratesABackwardsSteppedClock) {
  // A skew-stepped local clock can observe time running backwards between
  // two arrivals; the predictor must clamp the interval, not corrupt its
  // window with a negative sample.
  ArrivalPredictor p(small_cfg());
  p.observe(msec(100));
  p.observe(msec(60));  // clock stepped back 40 ms
  p.observe(msec(160));
  EXPECT_GE(p.mean_interval(), 0);
  EXPECT_NE(p.predicted_next(), kTimeNever);
}

// --- ◇P integration -------------------------------------------------------

/// The kFrozenMargin catching scenario with the mutation hook OFF: the
/// same adaptive ◇P, same tiny initial margin, same jittery directed
/// link — but the margin may widen, so after finitely many mistakes the
/// observer stops suspecting its noisy peer and eventual strong accuracy
/// holds. This is the healthy half of the mutation pair.
TEST(AdaptiveHeartbeat, WideningMarginRestoresStrongAccuracy) {
  ScenarioConfig sc;
  sc.n = 5;
  sc.seed = 7;
  sc.links = LinkKind::kReliable;
  auto sys = make_system(sc);
  sys->network().set_link(1, 0,
                          std::make_unique<ReliableLink>(msec(1), msec(60)));

  check::SimMonitor::Config mc;
  mc.require_strong_accuracy = true;
  check::SimMonitor monitor(mc);
  monitor.install(*sys, ProcessSet::full(5), sec(10));
  for (ProcessId p = 0; p < 5; ++p) {
    HeartbeatP::Config hbc;
    hbc.adaptive = true;
    hbc.predictor.alpha = msec(6);
    auto& f = sys->host(p).emplace<HeartbeatP>(hbc);
    monitor.attach_fd(p, &f, nullptr);
  }
  monitor.start();
  sys->start();
  sys->run_until(sec(10));
  const auto violations = monitor.violations(sys->now(), sec(2));
  EXPECT_TRUE(violations.empty())
      << violations.front().property << ": " << violations.front().witness;
}

TEST(AdaptiveHeartbeat, StrongAccuracyHoldsUnderTheGeoProfile) {
  // The acceptance sim case: WAN latency matrix, adaptive timeout source,
  // and the monitor required to prove eventual *strong* accuracy (◇P).
  for (const std::uint64_t seed : {1ULL, 5ULL, 9ULL}) {
    check::FuzzCaseConfig cfg;
    cfg.seed = seed;
    cfg.profile = check::FuzzProfile::kGeo;
    cfg.fd = consensus::FdStack::kHeartbeatAdaptive;
    cfg.require_strong_accuracy = true;
    const check::FuzzOutcome out = check::run_fuzz_case(cfg);
    EXPECT_TRUE(out.ok) << "seed " << seed << ": "
                        << (out.violations.empty()
                                ? ""
                                : out.violations.front().property);
  }
}

// --- obs export -----------------------------------------------------------

TEST(AdaptiveHeartbeat, ExportsQosMetricsPerPeer) {
  ScenarioConfig sc;
  sc.n = 3;
  sc.seed = 4;
  sc.links = LinkKind::kReliable;
  auto sys = make_system(sc);
  HeartbeatP::Config hbc;
  hbc.adaptive = true;
  std::vector<HeartbeatP*> fds;
  for (ProcessId p = 0; p < 3; ++p) {
    fds.push_back(&sys->host(p).emplace<HeartbeatP>(hbc));
  }
  sys->start();
  sys->run_until(sec(2));

  obs::MetricsRegistry reg;
  fds[0]->export_adaptive_metrics(reg, "fd.adaptive");
  EXPECT_GT(reg.get("fd.adaptive.p1.arrivals"), 0);
  EXPECT_GT(reg.get("fd.adaptive.p2.arrivals"), 0);
  EXPECT_EQ(reg.get("fd.adaptive.p1.arrivals"),
            fds[0]->predictor(1)->stats().arrivals);
  EXPECT_EQ(reg.get("fd.adaptive.p1.mistakes"),
            fds[0]->predictor(1)->stats().mistakes);
  const obs::Histogram* h = reg.histogram("fd.adaptive.p1.predict_err_us");
  EXPECT_EQ(h->count(), fds[0]->predictor(1)->stats().predictions);
  EXPECT_EQ(reg.gauge_value("fd.adaptive.p1.alpha_us"),
            fds[0]->predictor(1)->alpha());

  // A static-schedule instance exports nothing.
  ScenarioConfig sc2 = sc;
  auto sys2 = make_system(sc2);
  auto& stat = sys2->host(0).emplace<HeartbeatP>();
  obs::MetricsRegistry reg2;
  stat.export_adaptive_metrics(reg2, "fd.adaptive");
  EXPECT_EQ(stat.predictor(1), nullptr);
  EXPECT_EQ(reg2.get("fd.adaptive.p1.arrivals"), 0);
}

}  // namespace
}  // namespace ecfd::fd
