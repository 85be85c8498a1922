#include "check/fuzz.hpp"

#include <algorithm>
#include <cassert>

#include "check/sim_monitor.hpp"
#include "consensus/fd_stacks.hpp"
#include "fd/heartbeat_p.hpp"
#include "fd/hier_c.hpp"
#include "fd/swim.hpp"
#include "net/link.hpp"
#include "runner/fingerprint.hpp"

namespace ecfd::check {

namespace {

/// Independent stream per (seed, profile) so the four profile campaigns
/// over the same seed range explore different schedules.
Rng schedule_rng(const FuzzCaseConfig& cfg) {
  return Rng(cfg.seed * 0x9e3779b97f4a7c15ULL +
             (static_cast<std::uint64_t>(cfg.profile) + 1) *
                 0x517cc1b727220a95ULL);
}

void add_crashes(const FuzzCaseConfig& cfg, Rng& rng, int max_crashes,
                 FaultSchedule& out) {
  if (max_crashes <= 0) return;
  const int count =
      1 + static_cast<int>(rng.below(static_cast<std::uint64_t>(max_crashes)));
  ProcessSet victims(cfg.n);
  for (int k = 0; k < count; ++k) {
    auto p = static_cast<ProcessId>(rng.below(static_cast<std::uint64_t>(cfg.n)));
    if (victims.contains(p)) continue;  // fewer crashes, never more
    victims.add(p);
    FaultEvent e;
    e.kind = FaultEvent::Kind::kCrash;
    e.process = p;
    e.at = msec(100) + rng.range(0, cfg.chaos_end - msec(100));
    out.events.push_back(e);
  }
}

/// Lays out up to \p max_windows disjoint [at, until) windows, all ending
/// by chaos_end, via a forward-moving cursor.
template <class MakeEvent>
void add_windows(const FuzzCaseConfig& cfg, Rng& rng, int max_windows,
                 MakeEvent&& make) {
  const int count = static_cast<int>(
      rng.below(static_cast<std::uint64_t>(max_windows) + 1));
  TimeUs cursor = msec(500);
  for (int k = 0; k < count; ++k) {
    const TimeUs start = cursor + rng.range(0, sec(2));
    if (start >= cfg.chaos_end - msec(200)) break;
    const TimeUs until =
        std::min<TimeUs>(start + msec(300) + rng.range(0, sec(3)),
                         cfg.chaos_end);
    make(start, until);
    cursor = until + msec(200);
  }
}

void add_partitions(const FuzzCaseConfig& cfg, Rng& rng, FaultSchedule& out) {
  add_windows(cfg, rng, 2, [&](TimeUs start, TimeUs until) {
    // A random nonempty proper subset of the universe.
    const auto universe = (std::uint64_t{1} << cfg.n) - 2;
    const std::uint64_t mask = 1 + rng.below(universe);
    ProcessSet group(cfg.n);
    for (ProcessId p = 0; p < cfg.n; ++p) {
      if ((mask >> p) & 1) group.add(p);
    }
    FaultEvent e;
    e.kind = FaultEvent::Kind::kPartitionWindow;
    e.at = start;
    e.until = until;
    e.group = group;
    out.events.push_back(e);
  });
}

void add_chaos(const FuzzCaseConfig& cfg, Rng& rng, FaultSchedule& out) {
  add_windows(cfg, rng, 2, [&](TimeUs start, TimeUs until) {
    FaultEvent e;
    e.kind = FaultEvent::Kind::kChaosWindow;
    e.at = start;
    e.until = until;
    e.chaos.loss_ppm = static_cast<std::uint32_t>(rng.below(300'001));
    e.chaos.extra_delay_max = rng.range(0, msec(20));
    e.chaos.duplicate_ppm = static_cast<std::uint32_t>(rng.below(100'001));
    if (!e.chaos.active()) e.chaos.loss_ppm = 50'000;
    out.events.push_back(e);
  });
}

// --- WAN/geo scenario pack generators -----------------------------------
// Parameter bounds are chosen so a correct stack still converges well
// before horizon - stable_margin: windows end by chaos_end like every
// other fault, and the whole-run geo matrix is bounded enough that the
// FDs' widening schedules outgrow the worst one-way delay within seconds.

void add_geo(const FuzzCaseConfig& cfg, Rng& rng, FaultSchedule& out) {
  const auto& names = geo_preset_names();
  const GeoSpec* preset =
      geo_preset(names[rng.below(names.size())]);
  FaultEvent e;
  e.kind = FaultEvent::Kind::kGeoLatency;
  e.at = 0;
  e.until = cfg.horizon;
  // 60%..150% of the preset, drawn per seed; the scaled matrices are
  // embedded in the event so replay never consults the preset table.
  e.geo = preset->scaled(60 + rng.range(0, 90), 100);
  out.events.push_back(e);
}

void add_flaps(const FuzzCaseConfig& cfg, Rng& rng, FaultSchedule& out) {
  add_windows(cfg, rng, 2, [&](TimeUs start, TimeUs until) {
    FaultEvent e;
    e.kind = FaultEvent::Kind::kFlapWindow;
    e.at = start;
    e.until = until;
    e.process =
        static_cast<ProcessId>(rng.below(static_cast<std::uint64_t>(cfg.n)));
    e.flap_period = msec(100) + rng.range(0, msec(400));
    e.flap_up_ppm = 300'000 + static_cast<std::uint32_t>(rng.below(400'001));
    out.events.push_back(e);
  });
}

void add_grays(const FuzzCaseConfig& cfg, Rng& rng, FaultSchedule& out) {
  add_windows(cfg, rng, 2, [&](TimeUs start, TimeUs until) {
    FaultEvent e;
    e.kind = FaultEvent::Kind::kGrayWindow;
    e.at = start;
    e.until = until;
    e.process =
        static_cast<ProcessId>(rng.below(static_cast<std::uint64_t>(cfg.n)));
    e.gray_factor_milli =
        2000 + static_cast<std::uint32_t>(rng.below(6001));  // 2x..8x slow
    e.gray_send_extra = rng.range(0, msec(30));
    out.events.push_back(e);
  });
}

void add_skews(const FuzzCaseConfig& cfg, Rng& rng, FaultSchedule& out) {
  add_windows(cfg, rng, 2, [&](TimeUs start, TimeUs until) {
    FaultEvent e;
    e.kind = FaultEvent::Kind::kSkewWindow;
    e.at = start;
    e.until = until;
    e.process =
        static_cast<ProcessId>(rng.below(static_cast<std::uint64_t>(cfg.n)));
    e.skew_bound = msec(20) + rng.range(0, msec(60));
    e.skew_offset = rng.range(-e.skew_bound, e.skew_bound);
    e.skew_drift_ppm = static_cast<std::int32_t>(rng.range(-30'000, 30'000));
    out.events.push_back(e);
  });
}

}  // namespace

const char* profile_name(FuzzProfile p) {
  switch (p) {
    case FuzzProfile::kCrash: return "crash";
    case FuzzProfile::kPartition: return "partition";
    case FuzzProfile::kLossDelay: return "loss_delay";
    case FuzzProfile::kChurn: return "churn";
    case FuzzProfile::kGeo: return "geo";
    case FuzzProfile::kFlap: return "flap";
    case FuzzProfile::kGray: return "gray";
    case FuzzProfile::kSkew: return "skew";
  }
  return "?";
}

const std::vector<FuzzProfile>& all_profiles() {
  static const std::vector<FuzzProfile> profiles = {
      FuzzProfile::kCrash, FuzzProfile::kPartition, FuzzProfile::kLossDelay,
      FuzzProfile::kChurn, FuzzProfile::kGeo,       FuzzProfile::kFlap,
      FuzzProfile::kGray,  FuzzProfile::kSkew,
  };
  return profiles;
}

std::optional<FuzzProfile> profile_from_name(const std::string& s) {
  for (FuzzProfile p : all_profiles()) {
    if (s == profile_name(p)) return p;
  }
  return std::nullopt;
}

const char* algo_name(consensus::Algo a) {
  switch (a) {
    case consensus::Algo::kEcfdC: return "ecfd_c";
    case consensus::Algo::kEcfdCMerged: return "ecfd_c_merged";
    case consensus::Algo::kChandraTouegS: return "chandra_toueg";
    case consensus::Algo::kMrOmega: return "mr_omega";
  }
  return "?";
}

std::optional<consensus::Algo> algo_from_name(const std::string& s) {
  for (consensus::Algo a :
       {consensus::Algo::kEcfdC, consensus::Algo::kEcfdCMerged,
        consensus::Algo::kChandraTouegS, consensus::Algo::kMrOmega}) {
    if (s == algo_name(a)) return a;
  }
  return std::nullopt;
}

const char* fd_stack_name(consensus::FdStack f) {
  return consensus::fd_stack_info(f).name;
}

std::optional<consensus::FdStack> fd_stack_from_name(const std::string& s) {
  // Canonical names only: repro files and digests must not drift when a
  // CLI alias changes.
  for (const consensus::FdStackInfo& info : consensus::all_fd_stacks()) {
    if (s == info.name) return info.id;
  }
  return std::nullopt;
}

FaultSchedule generate_schedule(const FuzzCaseConfig& cfg) {
  assert(cfg.n >= 2 && cfg.n <= 63);
  assert(cfg.chaos_end + cfg.stable_margin <= cfg.horizon);
  Rng rng = schedule_rng(cfg);
  FaultSchedule out;
  const int max_crashes = (cfg.n - 1) / 2;
  switch (cfg.profile) {
    case FuzzProfile::kCrash:
      add_crashes(cfg, rng, max_crashes, out);
      break;
    case FuzzProfile::kPartition:
      add_partitions(cfg, rng, out);
      if (max_crashes > 0 && rng.chance(0.3)) {
        add_crashes(cfg, rng, 1, out);
      }
      break;
    case FuzzProfile::kLossDelay:
      add_chaos(cfg, rng, out);
      break;
    case FuzzProfile::kChurn:
      add_crashes(cfg, rng, max_crashes, out);
      add_partitions(cfg, rng, out);
      add_chaos(cfg, rng, out);
      break;
    case FuzzProfile::kGeo:
      add_geo(cfg, rng, out);
      if (max_crashes > 0 && rng.chance(0.4)) add_crashes(cfg, rng, 1, out);
      break;
    case FuzzProfile::kFlap:
      add_flaps(cfg, rng, out);
      if (max_crashes > 0 && rng.chance(0.3)) add_crashes(cfg, rng, 1, out);
      break;
    case FuzzProfile::kGray:
      add_grays(cfg, rng, out);
      if (max_crashes > 0 && rng.chance(0.3)) add_crashes(cfg, rng, 1, out);
      break;
    case FuzzProfile::kSkew:
      add_skews(cfg, rng, out);
      if (max_crashes > 0 && rng.chance(0.3)) add_crashes(cfg, rng, 1, out);
      break;
  }
  return out;
}

ProcessSet crashed_in(const FaultSchedule& s, int n) {
  ProcessSet crashed(n);
  for (const FaultEvent& e : s.events) {
    if (e.kind == FaultEvent::Kind::kCrash) crashed.add(e.process);
  }
  return crashed;
}

namespace {

/// Blocks or unblocks every directed link touching \p v.
void set_flapped(Network* net, ProcessId v, bool down) {
  for (ProcessId q = 0; q < net->n(); ++q) {
    if (q == v) continue;
    net->set_blocked(v, q, down);
    net->set_blocked(q, v, down);
  }
}

}  // namespace

void apply_schedule(System& sys, const FaultSchedule& s,
                    SimMonitor* monitor) {
  Network* net = &sys.network();
  for (const FaultEvent& e : s.events) {
    switch (e.kind) {
      case FaultEvent::Kind::kCrash:
        // Crashes travel through the scenario crash plan so the harness's
        // notion of "correct" matches the schedule; nothing to do here.
        break;
      case FaultEvent::Kind::kPartitionWindow:
        sys.scheduler().schedule_at(
            e.at, [net, g = e.group] { net->partition(g); });
        sys.scheduler().schedule_at(e.until, [net] { net->heal(); });
        break;
      case FaultEvent::Kind::kChaosWindow:
        sys.scheduler().schedule_at(
            e.at, [net, c = e.chaos] { net->set_chaos(c); });
        sys.scheduler().schedule_at(e.until, [net] { net->clear_chaos(); });
        break;
      case FaultEvent::Kind::kGeoLatency:
        // The WAN matrix is the run's environment, not a transient fault:
        // swap the links right away (apply_schedule runs from the harness
        // instrument hook, before the system starts).
        assert(e.geo.valid());
        net->set_links(geo_link_factory(e.geo));
        break;
      case FaultEvent::Kind::kFlapWindow: {
        const ProcessId v = e.process;
        const DurUs period = std::max<DurUs>(e.flap_period, msec(10));
        const DurUs up =
            period * static_cast<DurUs>(e.flap_up_ppm) / 1'000'000;
        const DurUs down = period - up;
        if (down <= 0) break;
        // One up/down duty cycle per period; the window never outlives
        // its heal — the last down phase is truncated at `until`.
        for (TimeUs t = e.at + up; t < e.until; t += period) {
          sys.scheduler().schedule_at(
              t, [net, v] { set_flapped(net, v, true); });
          sys.scheduler().schedule_at(
              std::min<TimeUs>(t + down, e.until),
              [net, v] { set_flapped(net, v, false); });
        }
        break;
      }
      case FaultEvent::Kind::kGrayWindow: {
        ProcessHost* h = &sys.host(e.process);
        sys.scheduler().schedule_at(
            e.at, [h, f = e.gray_factor_milli, x = e.gray_send_extra] {
              h->set_gray(f, x);
            });
        sys.scheduler().schedule_at(e.until, [h] { h->set_gray(1000, 0); });
        break;
      }
      case FaultEvent::Kind::kSkewWindow: {
        ProcessHost* h = &sys.host(e.process);
        if (monitor != nullptr) {
          monitor->register_skew_bound(e.process, e.skew_bound);
        }
        sys.scheduler().schedule_at(
            e.at, [h, o = e.skew_offset, d = e.skew_drift_ppm,
                   b = e.skew_bound] { h->set_clock_skew(o, d, b); });
        sys.scheduler().schedule_at(e.until,
                                    [h] { h->clear_clock_skew(); });
        break;
      }
    }
  }
}

std::uint64_t fuzz_digest(const FuzzCaseConfig& cfg,
                          const FaultSchedule& schedule,
                          const std::vector<Verdict>& verdicts,
                          std::uint64_t result_fingerprint) {
  runner::Fnv1a h;
  h.i64(cfg.n);
  h.u64(cfg.seed);
  h.u64(static_cast<std::uint64_t>(cfg.profile));
  h.u64(static_cast<std::uint64_t>(cfg.algo));
  h.u64(static_cast<std::uint64_t>(cfg.fd));
  h.i64(cfg.horizon);
  h.i64(cfg.chaos_end);
  h.i64(cfg.stable_margin);
  h.i64(cfg.monitor_period);
  h.u64(schedule.events.size());
  for (const FaultEvent& e : schedule.events) {
    h.u64(static_cast<std::uint64_t>(e.kind));
    h.i64(e.at);
    h.i64(e.until);
    h.i64(e.process);
    for (ProcessId p : e.group.members()) h.i64(p);
    h.u64(e.chaos.loss_ppm);
    h.i64(e.chaos.extra_delay_max);
    h.u64(e.chaos.duplicate_ppm);
    // Scenario-pack fields are hashed only for their own kinds, so the
    // byte stream — and thus every pinned digest — of pre-existing
    // schedules is unchanged.
    switch (e.kind) {
      case FaultEvent::Kind::kGeoLatency:
        h.i64(e.geo.regions);
        for (DurUs d : e.geo.base) h.i64(d);
        for (DurUs d : e.geo.jitter) h.i64(d);
        break;
      case FaultEvent::Kind::kFlapWindow:
        h.i64(e.flap_period);
        h.u64(e.flap_up_ppm);
        break;
      case FaultEvent::Kind::kGrayWindow:
        h.u64(e.gray_factor_milli);
        h.i64(e.gray_send_extra);
        break;
      case FaultEvent::Kind::kSkewWindow:
        h.i64(e.skew_offset);
        h.i64(e.skew_drift_ppm);
        h.i64(e.skew_bound);
        break;
      default:
        break;
    }
  }
  h.u64(verdicts.size());
  for (const Verdict& v : verdicts) {
    h.str(v.property);
    h.u64(static_cast<std::uint64_t>(v.state));
    h.i64(v.holds_since);
    h.i64(v.violated_at);
    h.i64(v.violations);
  }
  h.u64(result_fingerprint);
  return h.value();
}

FuzzOutcome run_fuzz_case(const FuzzCaseConfig& cfg,
                          const FaultSchedule& schedule,
                          obs::Recorder* recorder) {
  consensus::HarnessConfig hc;
  hc.scenario.n = cfg.n;
  hc.scenario.seed = cfg.seed;
  hc.scenario.links = LinkKind::kPartialSync;
  for (const FaultEvent& e : schedule.events) {
    if (e.kind == FaultEvent::Kind::kCrash) {
      hc.scenario.with_crash(e.process, e.at);
    }
  }
  hc.algo = cfg.algo;
  hc.fd = cfg.fd;
  hc.run_to_horizon = true;
  hc.horizon = cfg.horizon;

  SimMonitor::Config mc;
  mc.period = cfg.monitor_period;
  mc.require_strong_accuracy = cfg.require_strong_accuracy;
  SimMonitor monitor(mc);
  hc.instrument = [&](const consensus::HarnessInstruments& inst) {
    if (recorder != nullptr) {
      inst.sys.attach_recorder(recorder);
      monitor.set_recorder(recorder);
    }
    monitor.install_from(inst, cfg.horizon);
    apply_schedule(inst.sys, schedule, &monitor);
  };

  const consensus::HarnessResult r = consensus::run_consensus(hc);

  FuzzOutcome out;
  out.verdicts = monitor.verdicts(r.sim_end);
  out.violations = monitor.violations(r.sim_end, cfg.stable_margin);
  out.ok = out.violations.empty();
  out.every_correct_decided = r.every_correct_decided;
  out.sim_end = r.sim_end;
  out.metrics = r.metrics;
  out.result_fingerprint = runner::fingerprint_result(r);
  out.digest =
      fuzz_digest(cfg, schedule, out.verdicts, out.result_fingerprint);
  if (monitor.fd() != nullptr) out.detections = monitor.fd()->detections();
  return out;
}

FuzzOutcome run_fuzz_case(const FuzzCaseConfig& cfg) {
  return run_fuzz_case(cfg, generate_schedule(cfg));
}

bool violates(const FuzzOutcome& o, const std::string& property) {
  return std::any_of(
      o.violations.begin(), o.violations.end(),
      [&](const Verdict& v) { return v.property == property; });
}

FaultSchedule shrink_schedule(const FuzzCaseConfig& cfg,
                              FaultSchedule schedule,
                              const std::string& property, int* runs) {
  int count = 0;
  bool progress = true;
  while (progress) {
    progress = false;
    for (std::size_t i = 0; i < schedule.events.size(); ++i) {
      FaultSchedule candidate;
      candidate.events = schedule.events;
      candidate.events.erase(candidate.events.begin() +
                             static_cast<std::ptrdiff_t>(i));
      ++count;
      if (violates(run_fuzz_case(cfg, candidate), property)) {
        schedule = std::move(candidate);
        progress = true;
        break;  // restart: indices shifted
      }
    }
  }
  if (runs != nullptr) *runs = count;
  return schedule;
}

FuzzOutcome run_mutant(Mutant m, std::uint64_t seed,
                       obs::Recorder* recorder) {
  const int n = 5;
  const TimeUs horizon = sec(10);
  const DurUs margin = sec(2);

  ScenarioConfig sc;
  sc.n = n;
  sc.seed = seed;
  sc.links = LinkKind::kReliable;
  if (m == Mutant::kBlind || m == Mutant::kStuckCellPropagator) {
    sc.with_crash(n - 1, sec(2));
  }
  auto sys = make_system(sc);
  if (m == Mutant::kDroppedRefutation) {
    // A permanently gray p1: its 3x stretched probe windows keep it from
    // ever falsely suspecting others, while the 30 ms send lag makes its
    // acks miss everyone else's windows — p1 gets suspected, refutes, and
    // the mutated gossiper drops the refutation. Permanent false suspicion
    // of one process, stability everywhere else: exactly eventual strong
    // (not weak) accuracy. The unmutated SwimFd passes this scenario
    // (tests/test_swim.cpp asserts it).
    sys->host(1).set_gray(3000, msec(30));
  }
  if (m == Mutant::kFrozenMargin) {
    // One geo-style jittery directed link: p1 -> p0 delays in [1, 60] ms,
    // far beyond the frozen margin below, while every other link keeps
    // the tight default band. The observer p0 then flaps on p1 forever
    // (eventual strong accuracy lost) while everyone's view of everyone
    // else stabilizes (eventual weak accuracy kept) — the attribution
    // stays unambiguous.
    sys->network().set_link(
        1, 0, std::make_unique<ReliableLink>(msec(1), msec(60)));
  }

  ProcessSet correct = ProcessSet::full(n);
  for (const CrashPlan& c : sc.crashes) correct.remove(c.process);

  const bool fd_mutant =
      m == Mutant::kFlappingLeader || m == Mutant::kSlander ||
      m == Mutant::kBlind || m == Mutant::kCoupledViolation ||
      m == Mutant::kFrozenMargin || m == Mutant::kStuckCellPropagator ||
      m == Mutant::kDroppedRefutation;
  const bool scenario_mutant = m == Mutant::kSkewBound;

  // Each FD mutant attaches only the oracles its property reads, so the
  // monitor judges only those property families.
  SimMonitor::Config mc;
  mc.require_strong_accuracy =
      m == Mutant::kFrozenMargin || m == Mutant::kDroppedRefutation;
  SimMonitor monitor(mc);
  monitor.install(*sys, correct, horizon);
  if (recorder != nullptr) {
    sys->attach_recorder(recorder);
    monitor.set_recorder(recorder);
  }

  std::vector<consensus::ConsensusProtocol*> cons;
  if (fd_mutant) {
    for (ProcessId p = 0; p < n; ++p) {
      auto& host = sys->host(p);
      switch (m) {
        case Mutant::kFlappingLeader: {
          auto& f = host.emplace<FlappingLeaderFd>(msec(400));
          monitor.attach_fd(p, nullptr, &f);
          break;
        }
        case Mutant::kSlander: {
          auto& f = host.emplace<SlanderFd>();
          monitor.attach_fd(p, &f, nullptr);
          break;
        }
        case Mutant::kBlind: {
          auto& f = host.emplace<BlindFd>();
          monitor.attach_fd(p, &f, nullptr);
          break;
        }
        case Mutant::kCoupledViolation: {
          auto& f = host.emplace<CoupledViolationFd>();
          monitor.attach_fd(p, &f, &f);
          break;
        }
        case Mutant::kFrozenMargin: {
          // The real adaptive ◇P with its mutation hook engaged: a small
          // margin that never widens. The identical config with
          // widen_on_mistake=true passes this exact scenario
          // (tests/test_adaptive_timeout.cpp asserts it).
          fd::HeartbeatP::Config hbc;
          hbc.adaptive = true;
          hbc.predictor.alpha = msec(6);
          hbc.predictor.widen_on_mistake = false;
          auto& f = host.emplace<fd::HeartbeatP>(hbc);
          monitor.attach_fd(p, &f, nullptr);
          break;
        }
        case Mutant::kStuckCellPropagator: {
          // The real hierarchy with the propagation hook stuck on.
          fd::HierC::Config hcfg;
          hcfg.mutate_stuck_propagation = true;
          auto& f = host.emplace<fd::HierC>(hcfg);
          monitor.attach_fd(p, &f, nullptr);
          break;
        }
        case Mutant::kDroppedRefutation: {
          // The real gossiper with refutation application disabled.
          fd::SwimFd::Config scfg;
          scfg.mutate_drop_refutations = true;
          auto& f = host.emplace<fd::SwimFd>(scfg);
          monitor.attach_fd(p, &f, nullptr);
          break;
        }
        default: break;
      }
    }
  } else if (scenario_mutant) {
    // The broken injector: declares a 10 ms envelope to the monitor but
    // applies a raw 40 ms + drift skew with the clamp disabled (bound 0).
    monitor.register_skew_bound(1, msec(10));
    ProcessHost* h = &sys->host(1);
    sys->scheduler().schedule_at(
        msec(500), [h] { h->set_clock_skew(msec(40), 5000, 0); });
  } else {
    std::vector<consensus::Value> proposals(static_cast<std::size_t>(n));
    for (ProcessId p = 0; p < n; ++p) {
      // DoubleDecide must violate *only* integrity: its engine decides the
      // local proposal, so give everyone the same one — the bug it carries
      // is the repeat report, not the value.
      proposals[static_cast<std::size_t>(p)] =
          m == Mutant::kDoubleDecide ? 100 : 100 + p;
    }
    for (ProcessId p = 0; p < n; ++p) {
      auto& host = sys->host(p);
      switch (m) {
        case Mutant::kSplitBrain:
          cons.push_back(&host.emplace<SplitBrainConsensus>());
          break;
        case Mutant::kInventedValue:
          cons.push_back(&host.emplace<InventedValueConsensus>());
          break;
        case Mutant::kDoubleDecide:
          cons.push_back(&host.emplace<DoubleDecideConsensus>(
              [&monitor](ProcessId q, consensus::Value v, int round,
                         TimeUs at) {
                if (auto* cm = monitor.mutable_consensus()) {
                  cm->note_decision(q, v, round, at);
                }
              }));
          break;
        case Mutant::kSilent:
          cons.push_back(&host.emplace<SilentConsensus>());
          break;
        case Mutant::kNoMajority:
          cons.push_back(&host.emplace<NoMajorityConsensus>());
          break;
        default: break;
      }
    }
    monitor.attach_consensus(cons, proposals, horizon);
    if (m == Mutant::kNoMajority) {
      // Separate the self-appointed coordinator's side from the takeover
      // side until well after both have (unsafely) decided.
      ProcessSet group(n);
      group.add(0);
      group.add(1);
      sys->network().partition(group);
      Network* net = &sys->network();
      sys->scheduler().schedule_at(sec(2), [net] { net->heal(); });
    }
    for (ProcessId p = 0; p < n; ++p) {
      const auto i = static_cast<std::size_t>(p);
      sys->scheduler().schedule_at(
          msec(1), [sp = sys.get(), c = cons[i], p, v = proposals[i]] {
            if (!sp->host(p).crashed()) c->propose(v);
          });
    }
  }

  monitor.start();
  sys->start();
  sys->run_until(horizon);

  FuzzOutcome out;
  out.verdicts = monitor.verdicts(sys->now());
  out.violations = monitor.violations(sys->now(), margin);
  out.ok = out.violations.empty();
  out.sim_end = sys->now();
  FuzzCaseConfig dcfg;
  dcfg.n = n;
  dcfg.seed = seed;
  dcfg.horizon = horizon;
  dcfg.chaos_end = sec(2);
  dcfg.stable_margin = margin;
  out.digest = fuzz_digest(dcfg, FaultSchedule{}, out.verdicts, 0);
  return out;
}

}  // namespace ecfd::check
