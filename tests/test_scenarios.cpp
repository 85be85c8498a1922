// Deterministic unit coverage for the WAN/geo scenario pack: asymmetric
// per-link latency matrices, flapping links with duty cycles, gray
// failures (alive but slow), and bounded clock skew — each injector
// exercised directly, plus same-seed digest stability for the fuzz
// profiles that compose them.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <vector>

#include "check/fuzz.hpp"
#include "net/faults.hpp"
#include "net/geo.hpp"
#include "net/protocol_ids.hpp"
#include "net/scenario.hpp"
#include "net/system.hpp"

namespace ecfd {
namespace {

/// Stamps each received ping with the receiver's local arrival time.
class ArrivalLog final : public Protocol {
 public:
  explicit ArrivalLog(Env& env) : Protocol(env, protocol_ids::kTesting) {}

  void on_message(const Message& m) override {
    if (m.type == 1) arrivals.push_back(env_.now());
    (void)m;
  }

  void ping(ProcessId dst) {
    env_.send(dst, Message::make_empty(protocol_id(), 1, "test.ping"));
  }

  std::vector<TimeUs> arrivals;
};

std::vector<ArrivalLog*> install_logs(System& sys) {
  std::vector<ArrivalLog*> out;
  for (ProcessId p = 0; p < sys.n(); ++p) {
    out.push_back(&sys.host(p).emplace<ArrivalLog>());
  }
  return out;
}

// --- geo latency matrices -------------------------------------------------

TEST(Geo, PresetsAreValidAndNamed) {
  for (const std::string& name : geo_preset_names()) {
    const GeoSpec* spec = geo_preset(name);
    ASSERT_NE(spec, nullptr) << name;
    EXPECT_TRUE(spec->valid()) << name;
  }
  EXPECT_EQ(geo_preset("nonsense"), nullptr);
}

TEST(Geo, ScaledKeepsShapeAndScalesDelays) {
  const GeoSpec& g = *geo_preset("geo3");
  const GeoSpec half = g.scaled(50, 100);
  ASSERT_TRUE(half.valid());
  for (std::size_t i = 0; i < g.base.size(); ++i) {
    EXPECT_EQ(half.base[i], g.base[i] / 2);
    EXPECT_EQ(half.jitter[i], g.jitter[i] / 2);
  }
}

TEST(Geo, LinkDelaysStayInTheConfiguredBand) {
  Rng rng(1);
  GeoLink link(msec(38), msec(5));
  for (int i = 0; i < 1000; ++i) {
    auto d = link.sample_delay(0, rng);
    ASSERT_TRUE(d.has_value());
    EXPECT_GE(*d, msec(38));
    EXPECT_LE(*d, msec(43));
  }
}

TEST(Geo, RoutingIsAsymmetricPerDirection) {
  // geo3, n=3: p0/p1/p2 land in regions 0/1/2. One-way deliveries must sit
  // inside each direction's own [base, base+jitter] band — which differ
  // between p0->p1 (38 ms) and p1->p0 (42 ms).
  ScenarioConfig cfg;
  cfg.n = 3;
  cfg.seed = 11;
  cfg.links = LinkKind::kGeo;
  cfg.geo_preset_name = "geo3";
  auto sys = make_system(cfg);
  auto logs = install_logs(*sys);
  sys->start();

  const GeoSpec& g = *geo_preset("geo3");
  struct Probe {
    ProcessId src, dst;
  };
  for (const Probe pr : {Probe{0, 1}, Probe{1, 0}, Probe{0, 2}, Probe{2, 0}}) {
    const TimeUs sent = sys->now();
    logs[pr.src]->ping(pr.dst);
    sys->run_until(sent + msec(300));
    const auto& got = logs[pr.dst]->arrivals;
    ASSERT_EQ(got.size(), 1u) << "p" << pr.src << "->p" << pr.dst;
    const DurUs delay = got.back() - sent;
    EXPECT_GE(delay, g.base_delay(pr.src, pr.dst));
    EXPECT_LE(delay, g.base_delay(pr.src, pr.dst) + g.jitter_of(pr.src, pr.dst));
    logs[pr.dst]->arrivals.clear();
  }
}

TEST(Geo, CustomSpecTakesPrecedenceOverPreset) {
  ScenarioConfig cfg;
  cfg.n = 2;
  cfg.seed = 3;
  cfg.links = LinkKind::kGeo;
  cfg.geo_preset_name = "geo3";
  cfg.geo.regions = 1;
  cfg.geo.base = {msec(200)};
  cfg.geo.jitter = {0};
  auto sys = make_system(cfg);
  auto logs = install_logs(*sys);
  sys->start();
  logs[0]->ping(1);
  sys->run_until(msec(150));
  EXPECT_TRUE(logs[1]->arrivals.empty()) << "custom 200ms base ignored";
  sys->run_until(msec(250));
  ASSERT_EQ(logs[1]->arrivals.size(), 1u);
  EXPECT_EQ(logs[1]->arrivals[0], msec(200));
}

// --- flapping links -------------------------------------------------------

TEST(Flap, DutyCycleDropsDownPhaseAndHealsAtWindowEnd) {
  // p1 flaps with a 100 ms period, 50% duty, during [100ms, 500ms): pings
  // sent to it in a down phase vanish, pings in an up phase or after the
  // window arrive. Delays are pinned tiny so phase attribution is exact.
  ScenarioConfig cfg;
  cfg.n = 3;
  cfg.seed = 21;
  cfg.links = LinkKind::kReliable;
  cfg.min_delay = usec(10);
  cfg.max_delay = usec(20);
  auto sys = make_system(cfg);
  auto logs = install_logs(*sys);

  check::FaultSchedule schedule;
  check::FaultEvent e;
  e.kind = check::FaultEvent::Kind::kFlapWindow;
  e.process = 1;
  e.at = msec(100);
  e.until = msec(500);
  e.flap_period = msec(100);
  e.flap_up_ppm = 500'000;
  schedule.events.push_back(e);
  check::apply_schedule(*sys, schedule);

  sys->start();
  // The window starts with up [100,150), then down [150,200), repeating.
  struct Shot {
    TimeUs at;
    bool expect_delivered;
  };
  const std::vector<Shot> shots = {
      {msec(120), true},   // up phase
      {msec(170), false},  // down phase
      {msec(220), true},   // next period's up phase
      {msec(270), false},  // its down phase
      {msec(600), true},   // after the window: healed
  };
  for (const Shot s : shots) {
    sys->scheduler().schedule_at(s.at, [&logs] { logs[0]->ping(1); });
  }
  sys->run_until(sec(1));
  std::size_t expected = 0;
  for (const Shot s : shots) expected += s.expect_delivered ? 1u : 0u;
  EXPECT_EQ(logs[1]->arrivals.size(), expected);
  // And the flapped process's own sends die in the down phase too (the
  // flap blocks both directions).
  sys->scheduler().schedule_at(sec(1) + msec(10), [&logs] { logs[0]->ping(1); });
  sys->run_until(sec(2));
  EXPECT_EQ(logs[1]->arrivals.size(), expected + 1) << "still healed";
}

// --- gray failures --------------------------------------------------------

TEST(Gray, SlowProcessNeverMissesItsOwnSteps) {
  // A 4x gray host keeps firing its periodic timer — late, but never
  // skipped — and its sends still arrive (after the gray NIC holdback).
  System sys(2, 7);
  auto logs = install_logs(sys);
  sys.host(1).set_gray(4000, msec(5));
  EXPECT_TRUE(sys.host(1).gray());
  EXPECT_FALSE(sys.host(0).gray());

  int fires = 0;
  std::function<void()> step = [&] {
    ++fires;
    logs[1]->ping(0);
    if (fires < 10) sys.host(1).set_timer(msec(10), step);
  };
  sys.start();
  sys.host(1).set_timer(msec(10), step);
  sys.run_until(sec(2));

  EXPECT_EQ(fires, 10) << "gray means slow, not crashed";
  EXPECT_EQ(logs[0]->arrivals.size(), 10u);
  // 10 steps of a 10 ms timer at 4x stretch: the last fire lands at
  // ~400 ms, far beyond the healthy 100 ms schedule.
  EXPECT_GE(logs[0]->arrivals.back(), msec(400));
}

TEST(Gray, ClearingRestoresHealthyTiming) {
  System sys(2, 9);
  install_logs(sys);
  sys.host(0).set_gray(8000, msec(20));
  sys.host(0).set_gray(1000, 0);
  EXPECT_FALSE(sys.host(0).gray());
  sys.start();
  bool fired = false;
  sys.host(0).set_timer(msec(10), [&] { fired = true; });
  sys.run_until(msec(15));
  EXPECT_TRUE(fired) << "10 ms timer must fire on time once gray is cleared";
}

// --- clock skew -----------------------------------------------------------

TEST(Skew, ClockErrorStaysWithinTheDeclaredBound) {
  System sys(2, 13);
  install_logs(sys);
  // +15 ms offset plus fast drift, clamped to +-20 ms.
  sys.host(1).set_clock_skew(msec(15), 20'000, msec(20));
  sys.start();
  for (TimeUs t = msec(100); t <= sec(2); t += msec(100)) {
    sys.run_until(t);
    const std::int64_t err = sys.host(1).now() - sys.now();
    EXPECT_LE(err, msec(20)) << "at " << t;
    EXPECT_GE(err, -msec(20)) << "at " << t;
  }
  // Drift at 20000 ppm accumulates 2 ms per 100 ms: by 2 s the raw error
  // (15 + 40 ms) is far past the bound, so the clamp must be active.
  EXPECT_EQ(sys.host(1).clock_error(), msec(20));
  sys.host(1).clear_clock_skew();
  EXPECT_EQ(sys.host(1).clock_error(), 0);
}

TEST(Skew, DriftingClockFiresTimersEarly) {
  System sys(1, 17);
  install_logs(sys);
  // A clock 10% fast believes 100 ms elapsed after ~91 ms of real time.
  sys.host(0).set_clock_skew(0, 100'000, sec(1));
  sys.start();
  TimeUs fired_at = kTimeNever;
  sys.host(0).set_timer(msec(100), [&] { fired_at = sys.now(); });
  sys.run_until(sec(1));
  ASSERT_NE(fired_at, kTimeNever);
  EXPECT_LT(fired_at, msec(95));
  EXPECT_GE(fired_at, msec(85));
}

TEST(Skew, PositiveTimerDelaysStayPositive) {
  // A fast clock converts local delays to shorter true ones. Once the
  // clamp holds its error still, a deadline timer re-armed for the last
  // microsecond before a local deadline must still move true time on: a
  // 0 us delay would fire at the same instant forever.
  FaultSpec f;
  f.skew_drift_ppm = 100'000;
  f.skew_bound = msec(20);
  EXPECT_EQ(f.timer_delay(0), 0);
  for (DurUs d : {1, 2, 10, 11}) EXPECT_GT(f.timer_delay(d), 0) << d;
  EXPECT_EQ(f.timer_delay(1), 1);
  EXPECT_EQ(f.timer_delay(msec(110)), msec(100)) << "drift still converts";
}

// --- fuzz profile determinism --------------------------------------------

class WanProfile : public ::testing::TestWithParam<check::FuzzProfile> {};

TEST_P(WanProfile, SameSeedIsDigestIdenticalTwice) {
  check::FuzzCaseConfig cfg;
  cfg.profile = GetParam();
  cfg.seed = 42;
  const check::FuzzOutcome a = check::run_fuzz_case(cfg);
  const check::FuzzOutcome b = check::run_fuzz_case(cfg);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.sim_end, b.sim_end);
  EXPECT_TRUE(a.ok) << (a.violations.empty()
                            ? ""
                            : a.violations.front().property);
}

TEST_P(WanProfile, GeneratedSchedulesHonourTheirInvariants) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    check::FuzzCaseConfig cfg;
    cfg.profile = GetParam();
    cfg.seed = seed;
    const check::FaultSchedule s = check::generate_schedule(cfg);
    for (const check::FaultEvent& e : s.events) {
      switch (e.kind) {
        case check::FaultEvent::Kind::kGeoLatency:
          EXPECT_TRUE(e.geo.valid());
          break;
        case check::FaultEvent::Kind::kFlapWindow:
          EXPECT_LE(e.until, cfg.chaos_end);
          EXPECT_GT(e.flap_period, 0);
          EXPECT_LE(e.flap_up_ppm, 1'000'000u);
          break;
        case check::FaultEvent::Kind::kGrayWindow:
          EXPECT_LE(e.until, cfg.chaos_end);
          EXPECT_GE(e.gray_factor_milli, 1000u) << "gray means slower";
          break;
        case check::FaultEvent::Kind::kSkewWindow:
          EXPECT_LE(e.until, cfg.chaos_end);
          EXPECT_GT(e.skew_bound, 0) << "generated skew is always bounded";
          EXPECT_LE(e.skew_offset, e.skew_bound);
          EXPECT_GE(e.skew_offset, -e.skew_bound);
          break;
        case check::FaultEvent::Kind::kCrash:
          EXPECT_LE(e.at, cfg.chaos_end);
          break;
        default:
          ADD_FAILURE() << "unexpected event kind in a WAN profile";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(WanPack, WanProfile,
                         ::testing::Values(check::FuzzProfile::kGeo,
                                           check::FuzzProfile::kFlap,
                                           check::FuzzProfile::kGray,
                                           check::FuzzProfile::kSkew),
                         [](const ::testing::TestParamInfo<check::FuzzProfile>&
                                info) {
                           return check::profile_name(info.param);
                         });

TEST(WanPackCatalogue, AllProfilesListsLanThenWan) {
  const auto& all = check::all_profiles();
  ASSERT_EQ(all.size(), 8u);
  EXPECT_EQ(all[0], check::FuzzProfile::kCrash);
  EXPECT_EQ(all[4], check::FuzzProfile::kGeo);
  for (const check::FuzzProfile p : all) {
    EXPECT_EQ(check::profile_from_name(check::profile_name(p)), p);
  }
}

}  // namespace
}  // namespace ecfd
