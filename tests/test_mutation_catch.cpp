// Mutation tests for the property monitors: each deliberately broken
// FD / consensus variant (check/mutants.hpp) must be flagged by exactly
// the property it breaks, with a concrete witness. This is the evidence
// that the monitors detect real violations rather than vacuously passing.
//
// Also covers the fuzz tooling the monitors feed: greedy schedule
// shrinking and the ecfd.repro.v1 round trip (parse(to_text(r)) == r and
// replay reproduces the recorded digest bit for bit).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>

#include "check/fuzz.hpp"
#include "check/mutants.hpp"
#include "check/repro.hpp"
#include "obs/recorder.hpp"

namespace ecfd::check {
namespace {

// --- every mutant is caught ----------------------------------------------

class MutationCatch : public ::testing::TestWithParam<Mutant> {};

TEST_P(MutationCatch, FlaggedWithExpectedPropertyAndWitness) {
  const Mutant m = GetParam();
  const FuzzOutcome out = run_mutant(m, /*seed=*/7);
  EXPECT_FALSE(out.ok) << mutant_name(m) << " slipped past the monitors";
  EXPECT_TRUE(violates(out, expected_property(m)))
      << mutant_name(m) << " should violate " << expected_property(m);
  bool witnessed = false;
  for (const Verdict& v : out.violations) {
    if (v.property == expected_property(m)) {
      witnessed = !v.witness.empty();
      EXPECT_FALSE(v.witness.empty())
          << v.property << " flagged without a witness";
    }
  }
  EXPECT_TRUE(witnessed);
}

TEST_P(MutationCatch, OnlyTheExpectedPropertyFails) {
  // The catching scenario scopes its monitors so a mutant's collateral
  // damage (e.g. a slanderer also perturbing leader election) does not
  // blur which property the monitor attributes the bug to.
  const Mutant m = GetParam();
  const FuzzOutcome out = run_mutant(m, /*seed=*/7);
  for (const Verdict& v : out.violations) {
    EXPECT_EQ(v.property, expected_property(m))
        << mutant_name(m) << " also tripped " << v.property;
  }
}

TEST_P(MutationCatch, RunsAreDeterministic) {
  const Mutant m = GetParam();
  const FuzzOutcome a = run_mutant(m, /*seed=*/7);
  const FuzzOutcome b = run_mutant(m, /*seed=*/7);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.violations.size(), b.violations.size());
}

TEST_P(MutationCatch, VerdictFlipReachesTheRecorder) {
  // The monitor's transition log: the caught property's flip away from
  // kHolding lands in the recorder's system ring as a kVerdict event.
  const Mutant m = GetParam();
  obs::Recorder rec(64);
  const FuzzOutcome out = run_mutant(m, /*seed=*/7, &rec);
  ASSERT_TRUE(violates(out, expected_property(m)));
  std::vector<obs::Event> events;
  rec.system_ring().snapshot(&events);
  const bool flipped =
      std::any_of(events.begin(), events.end(), [&](const obs::Event& e) {
        return e.type == obs::EventType::kVerdict &&
               rec.string_at(e.label) == expected_property(m) &&
               e.a != static_cast<std::int32_t>(VerdictState::kHolding);
      });
  EXPECT_TRUE(flipped) << mutant_name(m) << ": no kVerdict event for "
                       << expected_property(m);
}

INSTANTIATE_TEST_SUITE_P(
    AllMutants, MutationCatch, ::testing::ValuesIn(all_mutants()),
    [](const ::testing::TestParamInfo<Mutant>& info) {
      return mutant_name(info.param);
    });

// --- shrinking ------------------------------------------------------------

// A hand-built schedule whose violation has exactly one necessary event:
// isolating p0 until just before the horizon starves the leader suffix of
// its stabilization margin, so fd.leader_agreement fails. The crash and
// chaos events are noise the shrinker must strip.
struct ShrinkCase {
  FuzzCaseConfig cfg;
  FaultSchedule schedule;
};

ShrinkCase make_shrink_case() {
  ShrinkCase c;
  c.cfg.n = 5;
  c.cfg.seed = 11;
  c.cfg.horizon = sec(6);
  c.cfg.chaos_end = sec(5);
  c.cfg.stable_margin = sec(1);

  FaultEvent isolate;
  isolate.kind = FaultEvent::Kind::kPartitionWindow;
  isolate.at = msec(500);
  isolate.until = msec(5500);
  isolate.group = ProcessSet(c.cfg.n);
  isolate.group.add(0);

  FaultEvent crash;
  crash.kind = FaultEvent::Kind::kCrash;
  crash.at = sec(1);
  crash.process = 4;

  FaultEvent chaos;
  chaos.kind = FaultEvent::Kind::kChaosWindow;
  chaos.at = sec(1);
  chaos.until = sec(2);
  chaos.chaos.loss_ppm = 100'000;

  c.schedule.events = {crash, isolate, chaos};
  return c;
}

TEST(Shrink, GreedyShrinkKeepsOnlyTheNecessaryEvent) {
  const ShrinkCase c = make_shrink_case();
  const FuzzOutcome full = run_fuzz_case(c.cfg, c.schedule);
  ASSERT_TRUE(violates(full, "fd.leader_agreement"))
      << "setup no longer provokes the violation";

  int runs = 0;
  const FaultSchedule shrunk =
      shrink_schedule(c.cfg, c.schedule, "fd.leader_agreement", &runs);
  ASSERT_EQ(shrunk.events.size(), 1u)
      << "expected the crash and chaos noise to be stripped";
  EXPECT_EQ(shrunk.events[0].kind, FaultEvent::Kind::kPartitionWindow);
  EXPECT_GT(runs, 0);

  // 1-minimality: the surviving event really is necessary.
  const FuzzOutcome empty_run = run_fuzz_case(c.cfg, FaultSchedule{});
  EXPECT_FALSE(violates(empty_run, "fd.leader_agreement"));
  // And the shrunk schedule still violates.
  EXPECT_TRUE(violates(run_fuzz_case(c.cfg, shrunk), "fd.leader_agreement"));
}

// --- repro round trip -----------------------------------------------------

TEST(Repro, TextFormRoundTripsEveryField) {
  ShrinkCase c = make_shrink_case();
  ReproFile r;
  r.config = c.cfg;
  r.schedule = c.schedule;
  r.property = "fd.leader_agreement";
  r.digest = 0xdeadbeefcafef00dULL;

  const std::string text = to_text(r);
  std::string error;
  const auto parsed = parse_repro(text, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  // Lossless: re-serializing the parse yields the identical file.
  EXPECT_EQ(to_text(*parsed), text);
  EXPECT_EQ(parsed->digest, r.digest);
  EXPECT_EQ(parsed->property, r.property);
  ASSERT_EQ(parsed->schedule.events.size(), r.schedule.events.size());
  EXPECT_EQ(parsed->schedule.events[1].group.to_string(),
            r.schedule.events[1].group.to_string());
  EXPECT_EQ(parsed->schedule.events[2].chaos.loss_ppm,
            r.schedule.events[2].chaos.loss_ppm);
}

TEST(Repro, ShrunkReproReplaysBitIdentically) {
  // The acceptance path end to end: violation -> shrink -> repro file ->
  // parse -> replay reproduces the recorded verdict and digest exactly.
  const ShrinkCase c = make_shrink_case();
  const FaultSchedule shrunk =
      shrink_schedule(c.cfg, c.schedule, "fd.leader_agreement");
  const FuzzOutcome recorded = run_fuzz_case(c.cfg, shrunk);
  ASSERT_TRUE(violates(recorded, "fd.leader_agreement"));

  ReproFile r;
  r.config = c.cfg;
  r.schedule = shrunk;
  r.property = "fd.leader_agreement";
  r.digest = recorded.digest;

  const auto parsed = parse_repro(to_text(r));
  ASSERT_TRUE(parsed.has_value());
  const FuzzOutcome replayed = replay(*parsed);
  EXPECT_TRUE(violates(replayed, "fd.leader_agreement"));
  EXPECT_EQ(replayed.digest, recorded.digest) << "replay diverged";
  EXPECT_EQ(replayed.sim_end, recorded.sim_end);
  EXPECT_EQ(replayed.result_fingerprint, recorded.result_fingerprint);
}

TEST(Repro, ScenarioEventsRoundTripEveryParameter) {
  // The WAN scenario pack's events embed their drawn parameters — latency
  // matrices, flap schedules, gray factors, skew envelopes — so a repro
  // file replays bit-identically even after the generator's distributions
  // change. Every field must survive text -> parse -> text.
  ReproFile r;
  r.config.n = 4;
  r.config.seed = 3;
  r.config.horizon = sec(8);
  r.config.chaos_end = sec(4);
  r.config.stable_margin = sec(2);
  r.property = "fd.eventual_strong_accuracy";
  r.digest = 0x1234abcdULL;

  FaultEvent geo;
  geo.kind = FaultEvent::Kind::kGeoLatency;
  geo.at = 0;
  geo.until = sec(8);
  geo.geo = geo_preset("geo3")->scaled(85, 100);

  FaultEvent flap;
  flap.kind = FaultEvent::Kind::kFlapWindow;
  flap.at = msec(400);
  flap.until = sec(2);
  flap.process = 2;
  flap.flap_period = msec(250);
  flap.flap_up_ppm = 600'000;

  FaultEvent gray;
  gray.kind = FaultEvent::Kind::kGrayWindow;
  gray.at = sec(1);
  gray.until = sec(3);
  gray.process = 1;
  gray.gray_factor_milli = 4500;
  gray.gray_send_extra = msec(12);

  FaultEvent skew;
  skew.kind = FaultEvent::Kind::kSkewWindow;
  skew.at = msec(700);
  skew.until = sec(4);
  skew.process = 3;
  skew.skew_offset = -msec(15);
  skew.skew_drift_ppm = -8'000;
  skew.skew_bound = msec(40);

  r.schedule.events = {geo, flap, gray, skew};

  const std::string text = to_text(r);
  std::string error;
  const auto parsed = parse_repro(text, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(to_text(*parsed), text);

  ASSERT_EQ(parsed->schedule.events.size(), 4u);
  const FaultEvent& g = parsed->schedule.events[0];
  EXPECT_EQ(g.geo.regions, 3);
  EXPECT_EQ(g.geo.base, geo.geo.base);
  EXPECT_EQ(g.geo.jitter, geo.geo.jitter);
  const FaultEvent& f = parsed->schedule.events[1];
  EXPECT_EQ(f.flap_period, msec(250));
  EXPECT_EQ(f.flap_up_ppm, 600'000u);
  const FaultEvent& gr = parsed->schedule.events[2];
  EXPECT_EQ(gr.gray_factor_milli, 4500u);
  EXPECT_EQ(gr.gray_send_extra, msec(12));
  const FaultEvent& s = parsed->schedule.events[3];
  EXPECT_EQ(s.skew_offset, -msec(15));
  EXPECT_EQ(s.skew_drift_ppm, -8'000);
  EXPECT_EQ(s.skew_bound, msec(40));

  // And the embedded parameters drive the replay: same text, same digest.
  const FuzzOutcome a = replay(*parsed);
  const FuzzOutcome b = replay(*parse_repro(text));
  EXPECT_EQ(a.digest, b.digest);
}

TEST(Repro, SaveAndLoadThroughDisk) {
  ShrinkCase c = make_shrink_case();
  ReproFile r;
  r.config = c.cfg;
  r.schedule = c.schedule;
  r.property = "fd.leader_agreement";
  r.digest = 42;

  const std::string path =
      ::testing::TempDir() + "/ecfd_repro_roundtrip.txt";
  ASSERT_TRUE(save_repro(r, path));
  std::string error;
  const auto loaded = load_repro(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(to_text(*loaded), to_text(r));
  std::remove(path.c_str());
}

TEST(Repro, RejectsMalformedInput) {
  EXPECT_FALSE(parse_repro("").has_value());
  EXPECT_FALSE(parse_repro("not.a.repro\nend\n").has_value());
  std::string error;
  // Missing the "end" marker (truncated file).
  EXPECT_FALSE(parse_repro("ecfd.repro.v1\nn 5\n", &error).has_value());
  EXPECT_FALSE(error.empty());
  // Out-of-range process id.
  const auto bad = parse_repro(
      "ecfd.repro.v1\nn 3\nevent crash at=1000 p=7\nend\n");
  EXPECT_FALSE(bad.has_value());
  // Fields a replay cannot honour: a gray factor that truncates to 0 in
  // 32 bits, an unbounded skew, an offset past its own bound. Each sits
  // next to its in-range twin, which must still parse.
  const auto parses = [](const char* event) {
    return parse_repro(std::string("ecfd.repro.v1\nn 3\n") + event +
                       "\nend\n")
        .has_value();
  };
  EXPECT_TRUE(parses("event gray at=1000 until=2000 p=1 "
                     "factor_milli=4294967295 send_extra_us=0"));
  EXPECT_FALSE(parses("event gray at=1000 until=2000 p=1 "
                      "factor_milli=4294967296 send_extra_us=0"));
  EXPECT_TRUE(parses("event skew at=1000 until=2000 p=1 offset_us=-20000 "
                     "drift_ppm=0 bound_us=20000"));
  EXPECT_FALSE(parses("event skew at=1000 until=2000 p=1 offset_us=0 "
                      "drift_ppm=0 bound_us=0"));
  EXPECT_FALSE(parses("event skew at=1000 until=2000 p=1 offset_us=-20001 "
                      "drift_ppm=0 bound_us=20000"));
}

}  // namespace
}  // namespace ecfd::check
