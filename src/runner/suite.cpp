#include "runner/suite.hpp"

#include <vector>

#include "fd/heartbeat_p.hpp"
#include "net/scenario.hpp"
#include "runner/fingerprint.hpp"
#include "sim/rng.hpp"
#include "sim/scheduler.hpp"

namespace ecfd::runner {

CaseMetrics run_detection_case(int n, std::uint64_t seed,
                               obs::Recorder* rec) {
  ScenarioConfig cfg;
  cfg.n = n;
  cfg.seed = seed;
  cfg.links = LinkKind::kPartialSync;
  cfg.gst = 0;
  cfg.delta = msec(5);
  auto sys = make_system(cfg);
  if (rec != nullptr) sys->attach_recorder(rec);
  std::vector<const SuspectOracle*> oracles(static_cast<std::size_t>(n));
  for (ProcessId p = 0; p < n; ++p) {
    oracles[static_cast<std::size_t>(p)] = &sys->host(p).emplace<fd::HeartbeatP>();
  }
  sys->start();

  const TimeUs crash_at = msec(500);
  const ProcessId victim = n / 2;
  sys->crash_at(victim, crash_at);
  sys->run_until(crash_at);

  DurUs latency = -1;
  const TimeUs deadline = crash_at + sec(30);
  while (sys->now() < deadline) {
    sys->run_for(msec(1));
    bool all = true;
    for (ProcessId p = 0; p < n; ++p) {
      if (p == victim) continue;
      if (!oracles[static_cast<std::size_t>(p)]->suspected().contains(victim)) {
        all = false;
        break;
      }
    }
    if (all) {
      latency = sys->now() - crash_at;
      break;
    }
  }

  CaseMetrics m;
  m.events = sys->scheduler().fired();
  m.msgs = sys->network().sent_total();
  m.metric = latency < 0 ? 30000.0 : static_cast<double>(latency) / 1000.0;
  Fnv1a h;
  h.i64(latency);
  h.u64(m.events);
  h.i64(m.msgs);
  h.i64(sys->now());
  h.u64(fingerprint_counters(sys->metrics()));
  m.hash = h.value();
  return m;
}

CaseMetrics run_consensus_case(int n, std::uint64_t seed,
                               consensus::Algo algo, int crashes,
                               obs::Recorder* rec) {
  consensus::HarnessConfig cfg;
  cfg.scenario.n = n;
  cfg.scenario.seed = seed;
  cfg.scenario.links = LinkKind::kPartialSync;
  cfg.scenario.gst = msec(100);
  cfg.scenario.delta = msec(5);
  cfg.scenario.pre_gst_max = msec(40);
  cfg.algo = algo;
  cfg.fd = consensus::FdStack::kOmegaPlusHeartbeat;
  cfg.horizon = sec(60);
  for (int i = 0; i < crashes; ++i) {
    cfg.scenario.with_crash(i, msec(20) + i * msec(25));
  }
  if (rec != nullptr) {
    cfg.instrument = [rec](const consensus::HarnessInstruments& inst) {
      inst.sys.attach_recorder(rec);
    };
  }
  const consensus::HarnessResult r = consensus::run_consensus(cfg);

  CaseMetrics m;
  m.events = r.events_fired;
  m.msgs = r.consensus_msgs + r.rb_msgs + r.fd_msgs;
  m.metric = static_cast<double>(r.last_decision_at) / 1000.0;
  m.hash = fingerprint_result(r);
  return m;
}

CaseMetrics run_churn_case(std::uint64_t seed, int pending, int ops) {
  sim::Scheduler sched;
  Rng rng(seed);
  std::vector<sim::EventId> ids;
  ids.reserve(static_cast<std::size_t>(pending));
  std::uint64_t fired_acc = 0;

  for (int i = 0; i < pending; ++i) {
    ids.push_back(sched.schedule_after(
        static_cast<DurUs>(rng.below(1000)) + 1,
        [&fired_acc] { ++fired_acc; }));
  }
  for (int i = 0; i < ops; ++i) {
    const std::uint64_t pick = rng.below(3);
    if (pick == 0 && !ids.empty()) {
      // Cancel a pseudo-random pending event (ignoring already-fired ids).
      const std::size_t at = rng.below(ids.size());
      sched.cancel(ids[at]);
      ids[at] = ids.back();
      ids.pop_back();
    } else if (pick == 1) {
      ids.push_back(sched.schedule_after(
          static_cast<DurUs>(rng.below(1000)) + 1,
          [&fired_acc] { ++fired_acc; }));
    } else {
      sched.step();
    }
  }
  sched.run();

  CaseMetrics m;
  m.events = sched.fired();
  m.msgs = 0;
  m.metric = static_cast<double>(ops);
  Fnv1a h;
  h.u64(fired_acc);
  h.u64(sched.fired());
  h.i64(sched.now());
  m.hash = h.value();
  return m;
}

std::vector<CaseSpec> build_suite(bool quick) {
  std::vector<CaseSpec> suite;
  const std::uint64_t seeds = quick ? 4 : 32;

  const std::vector<int> detection_ns = quick ? std::vector<int>{8}
                                              : std::vector<int>{8, 16, 32};
  for (int n : detection_ns) {
    for (std::uint64_t s = 0; s < seeds; ++s) {
      suite.push_back(
          {"e4_detection", "n=" + std::to_string(n), s,
           [n, s] { return run_detection_case(n, 100 + s); },
           [n, s](obs::Recorder* rec) {
             return run_detection_case(n, 100 + s, rec);
           }});
    }
  }

  struct AlgoPoint {
    consensus::Algo algo;
    const char* name;
  };
  const AlgoPoint algos[] = {{consensus::Algo::kEcfdC, "ecfd-C"},
                             {consensus::Algo::kChandraTouegS, "ct-S"},
                             {consensus::Algo::kMrOmega, "mr-omega"}};
  for (const auto& a : algos) {
    for (std::uint64_t s = 0; s < seeds; ++s) {
      suite.push_back({"e5_consensus", std::string("algo=") + a.name, s,
                       [algo = a.algo, s] {
                         return run_consensus_case(7, 500 + s, algo, 1);
                       },
                       [algo = a.algo, s](obs::Recorder* rec) {
                         return run_consensus_case(7, 500 + s, algo, 1, rec);
                       }});
    }
  }

  const int churn_pending = quick ? 10'000 : 100'000;
  const int churn_ops = quick ? 200'000 : 2'000'000;
  for (std::uint64_t s = 0; s < (quick ? 2u : 8u); ++s) {
    suite.push_back({"micro_churn",
                     "pending=" + std::to_string(churn_pending), s,
                     [=] { return run_churn_case(s + 1, churn_pending, churn_ops); },
                     /*run_traced=*/nullptr});
  }
  return suite;
}

}  // namespace ecfd::runner
