// ecfd_fuzz — adversarial fault-injection fuzzer for the FD/consensus
// stacks, driven by the online property monitors (src/check/).
//
// Sweep mode (default): for every profile in the campaign and every seed
// in [seed0, seed0+seeds), generate a fault schedule, run a monitored
// consensus experiment, and collect the verdicts. Seeds fan out across a
// thread pool (each case is an independent single-threaded simulation).
// Any required-property violation is greedily shrunk to a 1-minimal
// schedule and written as a replayable repro file; the run exits 1.
//
// Replay mode (--replay FILE): re-run a recorded repro and verify the run
// digest matches bit for bit; exits 0 on an exact reproduction. With
// --trace the replay records the typed event timeline (including the
// monitor's verdict flips) as ecfd.trace.v1 JSON for tools/ecfd_trace —
// the intended debugging loop: fuzz finds and shrinks a schedule, replay
// turns it into a causally ordered story. --metrics dumps the replay's
// counter registry as ecfd.metrics.v1 JSON.
//
//   ecfd_fuzz [--seeds N] [--seed0 S] [--n N] [--jobs T]
//             [--profile crash|partition|loss_delay|churn|
//                        geo|flap|gray|skew|all]
//             [--algo ecfd_c|ecfd_c_merged|chandra_toueg|mr_omega]
//             [--fd ring|heartbeat_p|omega_heartbeat|efficient_p|
//                   heartbeat_adaptive|hier_c|swim|stable_leader|ecfd]
//             [--horizon-ms M] [--chaos-end-ms M] [--margin-ms M]
//             [--out DIR] [--no-shrink] [--replay FILE] [--verbose]
//             [--trace FILE] [--trace-depth N] [--metrics FILE]
//
// Exit status: 0 = no violations (or exact replay), 1 = violation found
// (or replay mismatch), 2 = bad usage.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "check/fuzz.hpp"
#include "check/repro.hpp"
#include "obs/metrics.hpp"
#include "runner/thread_pool.hpp"

using namespace ecfd;
using namespace ecfd::check;

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: ecfd_fuzz [--seeds N] [--seed0 S] [--n N] [--jobs T]\n"
               "                 [--profile P|all] [--algo A] [--fd F]\n"
               "                 [--horizon-ms M] [--chaos-end-ms M]\n"
               "                 [--margin-ms M] [--out DIR] [--no-shrink]\n"
               "                 [--require-strong-accuracy]\n"
               "                 [--replay FILE] [--verbose]\n"
               "                 [--trace FILE] [--trace-depth N] "
               "[--metrics FILE]   (replay mode)\n");
}

/// Replay-mode observability outputs; empty paths = off.
struct ReplayObs {
  std::string trace_path;
  std::size_t trace_depth{4096};
  std::string metrics_path;
};

int replay_file(const std::string& path, bool verbose, const ReplayObs& o) {
  std::string err;
  const auto repro = load_repro(path, &err);
  if (!repro) {
    std::fprintf(stderr, "ecfd_fuzz: %s\n", err.c_str());
    return 2;
  }
  std::unique_ptr<obs::Recorder> recorder;
  if (!o.trace_path.empty()) {
    recorder = std::make_unique<obs::Recorder>(o.trace_depth);
  }
  const FuzzOutcome out = replay(*repro, recorder.get());
  if (recorder != nullptr) {
    std::ofstream os(o.trace_path);
    if (!os) {
      std::fprintf(stderr, "ecfd_fuzz: cannot open %s for the trace\n",
                   o.trace_path.c_str());
      return 2;
    }
    recorder->write_trace_json(os);
    std::fprintf(stderr, "replay: trace written: %s\n", o.trace_path.c_str());
  }
  if (!o.metrics_path.empty()) {
    obs::MetricsRegistry metrics;
    metrics.import_counters(out.counters);
    metrics.add("run.sim_end_us", out.sim_end);
    metrics.add("run.violations",
                static_cast<std::int64_t>(out.violations.size()));
    if (recorder != nullptr) {
      metrics.add("obs.dropped",
                  static_cast<std::int64_t>(recorder->dropped_total()));
    }
    std::ofstream os(o.metrics_path);
    if (!os) {
      std::fprintf(stderr, "ecfd_fuzz: cannot open %s for metrics\n",
                   o.metrics_path.c_str());
      return 2;
    }
    metrics.write_json(os, "ecfd_fuzz");
    std::fprintf(stderr, "replay: metrics written: %s\n",
                 o.metrics_path.c_str());
  }
  if (verbose) {
    for (const Verdict& v : out.verdicts) {
      std::fprintf(stderr, "  %s\n", v.to_string().c_str());
    }
  }
  std::fprintf(stderr, "replay: digest=%016llx recorded=%016llx %s\n",
               static_cast<unsigned long long>(out.digest),
               static_cast<unsigned long long>(repro->digest),
               out.ok ? "no-violation" : "violation");
  if (!repro->property.empty() && !violates(out, repro->property)) {
    std::fprintf(stderr, "replay: target property %s did NOT reproduce\n",
                 repro->property.c_str());
    return 1;
  }
  if (repro->digest != 0 && out.digest != repro->digest) {
    std::fprintf(stderr, "replay: DIGEST MISMATCH\n");
    return 1;
  }
  std::fprintf(stderr, "replay: exact reproduction\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  FuzzCaseConfig base;
  int seeds = 200;
  std::uint64_t seed0 = 1;
  unsigned jobs = std::thread::hardware_concurrency();
  if (jobs == 0) jobs = 2;
  std::string profile_arg = "all";
  std::string out_dir = ".";
  std::string replay_path;
  ReplayObs robs;
  bool shrink = true;
  bool verbose = false;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--help" || a == "-h") {
      usage();
      return 0;
    } else if (a == "--seeds") {
      seeds = std::stoi(next());
    } else if (a == "--seed0") {
      seed0 = std::stoull(next());
    } else if (a == "--n") {
      base.n = std::stoi(next());
    } else if (a == "--jobs") {
      jobs = static_cast<unsigned>(std::stoul(next()));
      if (jobs == 0) jobs = 1;
    } else if (a == "--profile") {
      profile_arg = next();
    } else if (a == "--algo") {
      const std::string v = next();
      const auto algo = algo_from_name(v);
      if (!algo) {
        std::fprintf(stderr, "unknown algo %s\n", v.c_str());
        return 2;
      }
      base.algo = *algo;
    } else if (a == "--fd") {
      const std::string v = next();
      const auto fd = fd_stack_from_name(v);
      if (!fd) {
        std::fprintf(stderr, "unknown fd stack %s\n", v.c_str());
        return 2;
      }
      base.fd = *fd;
    } else if (a == "--horizon-ms") {
      base.horizon = msec(std::stoll(next()));
    } else if (a == "--chaos-end-ms") {
      base.chaos_end = msec(std::stoll(next()));
    } else if (a == "--margin-ms") {
      base.stable_margin = msec(std::stoll(next()));
    } else if (a == "--out") {
      out_dir = next();
    } else if (a == "--require-strong-accuracy") {
      // Promote fd.eventual_strong_accuracy from informational to
      // required — campaigns over ◇P-grade stacks (adaptive heartbeat,
      // hier_c, swim) gate on it.
      base.require_strong_accuracy = true;
    } else if (a == "--no-shrink") {
      shrink = false;
    } else if (a == "--replay") {
      replay_path = next();
    } else if (a == "--trace") {
      robs.trace_path = next();
    } else if (a == "--trace-depth") {
      robs.trace_depth = std::stoul(next());
    } else if (a == "--metrics") {
      robs.metrics_path = next();
    } else if (a == "--verbose") {
      verbose = true;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", a.c_str());
      usage();
      return 2;
    }
  }

  if (!replay_path.empty()) return replay_file(replay_path, verbose, robs);
  if (!robs.trace_path.empty() || !robs.metrics_path.empty()) {
    std::fprintf(stderr, "--trace/--metrics require --replay\n");
    return 2;
  }

  std::vector<FuzzProfile> profiles;
  if (profile_arg == "all") {
    profiles = all_profiles();  // LAN quartet + the WAN/geo scenario pack
  } else {
    const auto p = profile_from_name(profile_arg);
    if (!p) {
      std::fprintf(stderr, "unknown profile %s\n", profile_arg.c_str());
      return 2;
    }
    profiles = {*p};
  }

  std::vector<FuzzCaseConfig> cases;
  for (FuzzProfile p : profiles) {
    for (int s = 0; s < seeds; ++s) {
      FuzzCaseConfig cfg = base;
      cfg.profile = p;
      cfg.seed = seed0 + static_cast<std::uint64_t>(s);
      cases.push_back(cfg);
    }
  }
  std::fprintf(stderr,
               "ecfd_fuzz: %zu cases (%zu profiles x %d seeds), n=%d, "
               "algo=%s, fd=%s, %u jobs\n",
               cases.size(), profiles.size(), seeds, base.n,
               algo_name(base.algo), fd_stack_name(base.fd), jobs);

  std::vector<FuzzOutcome> outcomes(cases.size());
  ecfd::runner::parallel_for(cases.size(), jobs, [&](std::size_t i) {
    outcomes[i] = run_fuzz_case(cases[i]);
  });

  std::size_t bad = 0;
  std::size_t undecided = 0;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    if (!outcomes[i].every_correct_decided) ++undecided;
    if (outcomes[i].ok) continue;
    ++bad;
    const FuzzCaseConfig& cfg = cases[i];
    const Verdict& first = outcomes[i].violations.front();
    std::fprintf(stderr,
                 "VIOLATION profile=%s seed=%llu property=%s witness=%s\n",
                 profile_name(cfg.profile),
                 static_cast<unsigned long long>(cfg.seed),
                 first.property.c_str(), first.witness.c_str());
    if (verbose) {
      for (const Verdict& v : outcomes[i].verdicts) {
        std::fprintf(stderr, "  %s\n", v.to_string().c_str());
      }
    }

    FaultSchedule schedule = generate_schedule(cfg);
    int shrink_runs = 0;
    if (shrink) {
      const std::size_t before = schedule.events.size();
      schedule =
          shrink_schedule(cfg, std::move(schedule), first.property,
                          &shrink_runs);
      std::fprintf(stderr,
                   "  shrunk %zu -> %zu events in %d re-runs\n", before,
                   schedule.events.size(), shrink_runs);
    }
    ReproFile repro;
    repro.config = cfg;
    repro.schedule = schedule;
    repro.property = first.property;
    repro.digest = run_fuzz_case(cfg, schedule).digest;
    const std::string path = out_dir + "/repro_" +
                             profile_name(cfg.profile) + "_seed" +
                             std::to_string(cfg.seed) + ".txt";
    if (save_repro(repro, path)) {
      std::fprintf(stderr, "  repro written: %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "  FAILED to write repro %s\n", path.c_str());
    }
  }

  std::fprintf(stderr,
               "ecfd_fuzz: %zu/%zu cases clean, %zu violations, "
               "%zu undecided-by-horizon\n",
               cases.size() - bad, cases.size(), bad, undecided);
  return bad == 0 ? 0 : 1;
}
