// ecfd_sim — command-line scenario runner.
//
// Runs a consensus experiment on the deterministic simulator and prints
// the outcome, so users can explore the algorithms without writing code:
//
//   ecfd_sim [--n N] [--seed S] [--algo c|c-merged|ct|mr]
//            [--fd ring|heartbeat|mix|effp|scripted|adaptive|hier|swim]
//            [--crash P@MS ...]
//            [--gst MS] [--delta MS] [--stable-at MS] [--horizon MS]
//            [--max-rounds R] [--ewa-only] [--leader K] [--verbose]
//            [--check] [--check-margin MS]
//            [--trace FILE] [--trace-chrome FILE] [--trace-depth N]
//            [--metrics FILE]
//
// Examples:
//   ecfd_sim --n 7 --algo c --fd ring --crash 0@300 --crash 5@500
//   ecfd_sim --n 9 --algo ct --fd scripted --ewa-only --leader 8
//   ecfd_sim --n 5 --fd heartbeat --crash 2@400 --check --horizon 8000
//
// With --check the run continues to the horizon under the online property
// monitors (src/check/) and prints a per-property verdict table; eventual
// properties must stabilize at least --check-margin ms before the end.
//
// With --trace the run records typed events (sends, deliveries, suspicions,
// leader changes, rounds, decisions — plus monitor verdict flips under
// --check) into per-host rings and writes an ecfd.trace.v1 JSON file for
// tools/ecfd_trace; --trace-chrome writes the Chrome-trace rendering
// directly. --metrics writes the run's counter registry as
// ecfd.metrics.v1 JSON.
//
// Exit code: 0 when every correct process decided and all consensus
// properties held (and, with --check, no monitored property failed);
// 1 otherwise.

#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>

#include "check/sim_monitor.hpp"
#include "consensus/fd_stacks.hpp"
#include "consensus/harness.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"

using namespace ecfd;
using namespace ecfd::consensus;

namespace {

void usage() {
  std::cout <<
      "ecfd_sim — consensus on eventually consistent failure detectors\n"
      "\n"
      "  --n N            processes (default 5)\n"
      "  --seed S         rng seed (default 1)\n"
      "  --algo A         c | c-merged | ct | mr   (default c)\n"
      "  --fd F           failure-detector stack (default ring):\n";
  for (const FdStackInfo& info : all_fd_stacks()) {
    std::cout << "                     " << info.alias;
    if (std::string(info.alias) != info.name) {
      std::cout << " (" << info.name << ")";
    }
    std::cout << " — " << info.summary << "\n";
  }
  std::cout <<
      "  --crash P@MS     crash process P at MS milliseconds (repeatable)\n"
      "  --gst MS         global stabilization time (default 200)\n"
      "  --delta MS       post-GST delay bound (default 5)\n"
      "  --stable-at MS   scripted detector stabilization time (default 300)\n"
      "  --ewa-only       scripted detector suspects everyone but the leader\n"
      "  --leader K       scripted leader (default: first correct)\n"
      "  --horizon MS     stop the run after MS ms (default 30000)\n"
      "  --max-rounds R   give up after R rounds (default unlimited)\n"
      "  --verbose        print the per-process outcome table\n"
      "  --check          attach online property monitors; run to horizon\n"
      "  --check-margin MS  stabilization margin for eventual properties\n"
      "                     (default 2000)\n"
      "  --trace FILE     write the typed event trace (ecfd.trace.v1 JSON)\n"
      "  --trace-chrome FILE  write the Chrome-trace rendering directly\n"
      "  --trace-depth N  per-host hot-ring capacity (default 4096)\n"
      "  --metrics FILE   write run counters as ecfd.metrics.v1 JSON\n";
}

bool parse_crash(const std::string& arg, ScenarioConfig& sc) {
  const auto at = arg.find('@');
  if (at == std::string::npos) return false;
  sc.with_crash(std::stoi(arg.substr(0, at)),
                msec(std::stoll(arg.substr(at + 1))));
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  HarnessConfig cfg;
  cfg.scenario.n = 5;
  cfg.scenario.seed = 1;
  cfg.scenario.links = LinkKind::kPartialSync;
  cfg.scenario.gst = msec(200);
  cfg.scenario.delta = msec(5);
  cfg.algo = Algo::kEcfdC;
  cfg.fd = FdStack::kRing;
  cfg.fd_stable_at = msec(300);
  bool verbose = false;
  bool check_mode = false;
  DurUs check_margin = sec(2);
  std::string trace_path;
  std::string trace_chrome_path;
  std::size_t trace_depth = 4096;
  std::string metrics_path;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << a << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--help" || a == "-h") {
      usage();
      return 0;
    } else if (a == "--n") {
      cfg.scenario.n = std::stoi(next());
    } else if (a == "--seed") {
      cfg.scenario.seed = std::stoull(next());
    } else if (a == "--algo") {
      const std::string v = next();
      if (v == "c") cfg.algo = Algo::kEcfdC;
      else if (v == "c-merged") cfg.algo = Algo::kEcfdCMerged;
      else if (v == "ct") cfg.algo = Algo::kChandraTouegS;
      else if (v == "mr") cfg.algo = Algo::kMrOmega;
      else { std::cerr << "unknown algo " << v << "\n"; return 2; }
    } else if (a == "--fd") {
      const std::string v = next();
      const FdStackInfo* info = fd_stack_by_name(v);
      if (info == nullptr) { std::cerr << "unknown fd " << v << "\n"; return 2; }
      cfg.fd = info->id;
    } else if (a == "--crash") {
      if (!parse_crash(next(), cfg.scenario)) {
        std::cerr << "--crash expects P@MS\n";
        return 2;
      }
    } else if (a == "--gst") {
      cfg.scenario.gst = msec(std::stoll(next()));
    } else if (a == "--delta") {
      cfg.scenario.delta = msec(std::stoll(next()));
    } else if (a == "--stable-at") {
      cfg.fd_stable_at = msec(std::stoll(next()));
    } else if (a == "--ewa-only") {
      cfg.scripted_ewa_only = true;
    } else if (a == "--leader") {
      cfg.scripted_leader = std::stoi(next());
    } else if (a == "--horizon") {
      cfg.horizon = msec(std::stoll(next()));
    } else if (a == "--max-rounds") {
      cfg.max_rounds = std::stoi(next());
    } else if (a == "--verbose") {
      verbose = true;
    } else if (a == "--check") {
      check_mode = true;
    } else if (a == "--check-margin") {
      check_margin = msec(std::stoll(next()));
    } else if (a == "--trace") {
      trace_path = next();
    } else if (a == "--trace-chrome") {
      trace_chrome_path = next();
    } else if (a == "--trace-depth") {
      trace_depth = std::stoul(next());
    } else if (a == "--metrics") {
      metrics_path = next();
    } else {
      std::cerr << "unknown flag " << a << " (try --help)\n";
      return 2;
    }
  }

  // The recorder outlives the simulated System (it is snapshotted after
  // run_consensus returns), so it lives here and is attached by the
  // instrument hook.
  std::unique_ptr<obs::Recorder> recorder;
  if (!trace_path.empty() || !trace_chrome_path.empty()) {
    recorder = std::make_unique<obs::Recorder>(trace_depth);
  }

  check::SimMonitor monitor(check::SimMonitor::Config{});
  if (check_mode || recorder != nullptr) {
    if (check_mode) cfg.run_to_horizon = true;  // monitors need the tail
    cfg.instrument = [&](const HarnessInstruments& inst) {
      if (recorder != nullptr) inst.sys.attach_recorder(recorder.get());
      if (check_mode) {
        if (recorder != nullptr) monitor.set_recorder(recorder.get());
        monitor.install_from(inst, cfg.horizon);
      }
    };
  }

  const HarnessResult r = run_consensus(cfg);

  std::cout << "result: " << summarize(r) << "\n";
  std::cout << "decision round (earliest broadcast): " << r.min_decision_round
            << "\n";
  std::cout << "messages: consensus=" << r.consensus_msgs
            << " rb=" << r.rb_msgs << " fd=" << r.fd_msgs << "\n";
  if (verbose) {
    std::cout << "\nprocess | decided | value | round | at_ms | last_round\n";
    for (ProcessId p = 0; p < cfg.scenario.n; ++p) {
      const auto& o = r.outcomes[static_cast<std::size_t>(p)];
      std::cout << "   p" << p << "    |   " << (o.decided ? "yes" : " - ")
                << "   | " << (o.decided ? std::to_string(o.value) : "-")
                << " | " << o.round << " | " << o.at / 1000 << " | "
                << o.last_round
                << (r.correct.contains(p) ? "" : "  (crashed)") << "\n";
    }
  }

  bool ok = r.every_correct_decided && r.uniform_agreement && r.validity;
  if (check_mode) {
    std::cout << "\nproperty verdicts (margin "
              << check_margin / 1000 << "ms):\n";
    for (const check::Verdict& v : monitor.verdicts(r.sim_end)) {
      const bool pass = check::satisfied(v, r.sim_end, check_margin);
      std::cout << "  [" << (v.required ? (pass ? "PASS" : "FAIL") : "info")
                << "] " << v.to_string() << "\n";
    }
    ok = ok && monitor.violations(r.sim_end, check_margin).empty();
  }

  if (!trace_path.empty()) {
    std::ofstream os(trace_path);
    if (!os) {
      std::cerr << "cannot open " << trace_path << " for the trace\n";
      return 2;
    }
    recorder->write_trace_json(os);
    std::cout << "trace written: " << trace_path << "\n";
  }
  if (!trace_chrome_path.empty()) {
    std::ofstream os(trace_chrome_path);
    if (!os) {
      std::cerr << "cannot open " << trace_chrome_path << " for the trace\n";
      return 2;
    }
    obs::write_chrome_trace(
        os, obs::merge({obs::snapshot_doc(*recorder, "ecfd_sim")}));
    std::cout << "chrome trace written: " << trace_chrome_path << "\n";
  }
  if (!metrics_path.empty()) {
    obs::MetricsRegistry& metrics = *r.metrics;
    metrics.add("run.events_fired", static_cast<std::int64_t>(r.events_fired));
    metrics.add("run.sim_end_us", r.sim_end);
    metrics.add("run.msgs.consensus", r.consensus_msgs);
    metrics.add("run.msgs.rb", r.rb_msgs);
    metrics.add("run.msgs.fd", r.fd_msgs);
    if (recorder != nullptr) {
      metrics.add("obs.dropped",
                  static_cast<std::int64_t>(recorder->dropped_total()));
    }
    std::ofstream os(metrics_path);
    if (!os) {
      std::cerr << "cannot open " << metrics_path << " for metrics\n";
      return 2;
    }
    metrics.write_json(os, "ecfd_sim");
    std::cout << "metrics written: " << metrics_path << "\n";
  }

  std::cout << (ok ? "OK" : "FAILED") << "\n";
  return ok ? 0 : 1;
}
