// bench_runner — the multi-seed, multi-config experiment driver.
//
// Runs the canonical E4/E5/churn sweeps (src/runner/suite.hpp) twice:
// once sequentially (the reference), once fanned across a thread pool
// (each case is an independent single-threaded simulation). Per-case
// digests must match bit-for-bit between the two passes — a mismatch is
// a determinism bug and exits nonzero. Everything else is reporting:
// wall times, speedup, events/sec, msgs/sec, and heap-allocation counts
// from the counting operator new linked into this binary.
//
//   bench_runner [--quick] [--jobs N] [--json FILE] [--check]
//                [--metrics FILE] [--trace FILE] [--trace-case EXP]
//
// --quick    CI-sized suite (seconds, not minutes)
// --jobs N   worker threads for the parallel pass (default: all cores)
// --json F   write the machine-readable report (schema ecfd.bench_sim.v1,
//            documented in EXPERIMENTS.md) to F; "-" means stdout
// --check    prepend a property-checked pass: a fault-injection matrix
//            (4 profiles x seeds) run under the online monitors
//            (src/check/); any required-property violation fails the run
// --metrics F  write the run's counters and per-case wall-time histograms
//            as ecfd.metrics.v1 JSON
// --trace F  re-run one case with the typed event recorder attached and
//            write its ecfd.trace.v1 timeline; --trace-case picks the
//            experiment (first case of it; default: first traceable case)
//
// Exit status: 0 on success, 1 on sequential-vs-parallel hash mismatch or
// a --check property violation, 2 on bad usage.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "check/fuzz.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "runner/suite.hpp"
#include "runner/thread_pool.hpp"
#include "sim/alloc_counter.hpp"

namespace {

using ecfd::runner::CaseMetrics;
using ecfd::runner::CaseSpec;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Aggregated view of one experiment's sweep in one pass.
struct ExperimentAgg {
  std::size_t cases{0};
  std::uint64_t events{0};
  std::int64_t msgs{0};
  double metric_sum{0.0};
  double seq_wall{0.0};  ///< sum of per-case sequential walls
  double par_wall{0.0};  ///< wall of the pooled parallel pass
};

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

/// The --check pass: a small fault-injection matrix under the online
/// property monitors. Returns the number of violating cases.
std::size_t run_check_pass(bool quick, unsigned jobs) {
  using ecfd::check::FuzzCaseConfig;
  using ecfd::check::FuzzOutcome;
  using ecfd::check::FuzzProfile;

  const int seeds = quick ? 8 : 32;
  std::vector<FuzzCaseConfig> cases;
  for (FuzzProfile p :
       {FuzzProfile::kCrash, FuzzProfile::kPartition,
        FuzzProfile::kLossDelay, FuzzProfile::kChurn}) {
    for (int s = 0; s < seeds; ++s) {
      FuzzCaseConfig cfg;
      cfg.profile = p;
      cfg.seed = static_cast<std::uint64_t>(s) + 1;
      cases.push_back(cfg);
    }
  }
  std::vector<FuzzOutcome> outcomes(cases.size());
  const auto t0 = std::chrono::steady_clock::now();
  ecfd::runner::parallel_for(cases.size(), jobs, [&](std::size_t i) {
    outcomes[i] = ecfd::check::run_fuzz_case(cases[i]);
  });
  std::size_t bad = 0;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    if (outcomes[i].ok) continue;
    ++bad;
    std::fprintf(
        stderr, "CHECK VIOLATION profile=%s seed=%llu: %s\n",
        ecfd::check::profile_name(cases[i].profile),
        static_cast<unsigned long long>(cases[i].seed),
        outcomes[i].violations.front().to_string().c_str());
  }
  std::fprintf(stderr,
               "bench_runner: check pass %zu cases in %.3fs, %zu "
               "violations\n",
               cases.size(), seconds_since(t0), bad);
  return bad;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool check = false;
  std::string json_path;
  std::string metrics_path;
  std::string trace_path;
  std::string trace_case;
  unsigned jobs = std::thread::hardware_concurrency();
  if (jobs == 0) jobs = 2;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--check") {
      check = true;
    } else if (arg == "--jobs" && i + 1 < argc) {
      jobs = static_cast<unsigned>(std::atoi(argv[++i]));
      if (jobs == 0) jobs = 1;
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--metrics" && i + 1 < argc) {
      metrics_path = argv[++i];
    } else if (arg == "--trace" && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (arg == "--trace-case" && i + 1 < argc) {
      trace_case = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: bench_runner [--quick] [--jobs N] [--json FILE] "
                   "[--check] [--metrics FILE] [--trace FILE] "
                   "[--trace-case EXP]\n");
      return 2;
    }
  }

  std::size_t check_violations = 0;
  if (check) check_violations = run_check_pass(quick, jobs);

  std::vector<CaseSpec> suite = ecfd::runner::build_suite(quick);
  std::fprintf(stderr, "bench_runner: %zu cases, %u jobs, %s suite\n",
               suite.size(), jobs, quick ? "quick" : "full");

  // --- Pass 1: sequential reference ------------------------------------
  std::vector<CaseMetrics> seq(suite.size());
  std::vector<double> seq_case_wall(suite.size(), 0.0);
  const std::uint64_t allocs_before_seq = ecfd::sim::alloc_count();
  const auto t_seq = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < suite.size(); ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    seq[i] = suite[i].run();
    seq_case_wall[i] = seconds_since(t0);
  }
  const double seq_wall = seconds_since(t_seq);
  const std::uint64_t seq_allocs = ecfd::sim::alloc_count() - allocs_before_seq;

  // --- Pass 2: parallel, grouped per experiment -------------------------
  // Grouping keeps per-experiment speedup honest (each group is timed
  // around its own parallel_for) while still saturating the pool within
  // a group — the sweeps are dozens of cases each.
  std::map<std::string, std::vector<std::size_t>> by_experiment;
  for (std::size_t i = 0; i < suite.size(); ++i) {
    by_experiment[suite[i].experiment].push_back(i);
  }

  std::vector<CaseMetrics> par(suite.size());
  std::map<std::string, double> par_group_wall;
  const std::uint64_t allocs_before_par = ecfd::sim::alloc_count();
  const auto t_par = std::chrono::steady_clock::now();
  for (auto& [name, idxs] : by_experiment) {
    const auto t0 = std::chrono::steady_clock::now();
    ecfd::runner::parallel_for(idxs.size(), jobs, [&](std::size_t k) {
      const std::size_t i = idxs[k];
      par[i] = suite[i].run();
    });
    par_group_wall[name] = seconds_since(t0);
  }
  const double par_wall = seconds_since(t_par);
  const std::uint64_t par_allocs = ecfd::sim::alloc_count() - allocs_before_par;

  // --- Determinism gate -------------------------------------------------
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < suite.size(); ++i) {
    if (seq[i].hash != par[i].hash) {
      ++mismatches;
      std::fprintf(stderr,
                   "DETERMINISM MISMATCH %s %s seed=%llu: seq=%016llx "
                   "par=%016llx\n",
                   suite[i].experiment.c_str(), suite[i].config.c_str(),
                   static_cast<unsigned long long>(suite[i].seed),
                   static_cast<unsigned long long>(seq[i].hash),
                   static_cast<unsigned long long>(par[i].hash));
    }
  }

  // --- Aggregate --------------------------------------------------------
  std::map<std::string, ExperimentAgg> agg;
  for (std::size_t i = 0; i < suite.size(); ++i) {
    ExperimentAgg& a = agg[suite[i].experiment];
    ++a.cases;
    a.events += seq[i].events;
    a.msgs += seq[i].msgs;
    a.metric_sum += seq[i].metric;
    a.seq_wall += seq_case_wall[i];
  }
  for (auto& [name, a] : agg) a.par_wall = par_group_wall[name];

  std::uint64_t total_events = 0;
  std::int64_t total_msgs = 0;
  for (const auto& [name, a] : agg) {
    total_events += a.events;
    total_msgs += a.msgs;
    std::fprintf(stderr,
                 "  %-14s %3zu cases  seq %7.3fs  par %7.3fs  speedup "
                 "%5.2fx  %8.3g events/s  %8.3g msgs/s\n",
                 name.c_str(), a.cases, a.seq_wall, a.par_wall,
                 a.par_wall > 0 ? a.seq_wall / a.par_wall : 0.0,
                 a.par_wall > 0 ? static_cast<double>(a.events) / a.par_wall
                                : 0.0,
                 a.par_wall > 0 ? static_cast<double>(a.msgs) / a.par_wall
                                : 0.0);
  }
  std::fprintf(stderr,
               "  total: seq %.3fs  par %.3fs  speedup %.2fx  allocs/case "
               "seq %.1f par %.1f  %s\n",
               seq_wall, par_wall, par_wall > 0 ? seq_wall / par_wall : 0.0,
               static_cast<double>(seq_allocs) /
                   static_cast<double>(suite.size()),
               static_cast<double>(par_allocs) /
                   static_cast<double>(suite.size()),
               mismatches == 0 ? "deterministic" : "MISMATCH");

  // --- JSON report ------------------------------------------------------
  if (!json_path.empty()) {
    std::string j;
    j += "{\n";
    j += "  \"schema\": \"ecfd.bench_sim.v1\",\n";
    j += "  \"quick\": " + std::string(quick ? "true" : "false") + ",\n";
    j += "  \"jobs\": " + std::to_string(jobs) + ",\n";
    j += "  \"hardware_threads\": " +
         std::to_string(std::thread::hardware_concurrency()) + ",\n";
    j += "  \"deterministic\": " +
         std::string(mismatches == 0 ? "true" : "false") + ",\n";
    j += "  \"cases\": " + std::to_string(suite.size()) + ",\n";
    j += "  \"totals\": {\n";
    j += "    \"events\": " + std::to_string(total_events) + ",\n";
    j += "    \"msgs\": " + std::to_string(total_msgs) + ",\n";
    j += "    \"seq_wall_s\": " + fmt(seq_wall) + ",\n";
    j += "    \"par_wall_s\": " + fmt(par_wall) + ",\n";
    j += "    \"speedup\": " + fmt(par_wall > 0 ? seq_wall / par_wall : 0.0) +
         ",\n";
    j += "    \"events_per_sec_parallel\": " +
         fmt(par_wall > 0 ? static_cast<double>(total_events) / par_wall
                          : 0.0) +
         ",\n";
    j += "    \"msgs_per_sec_parallel\": " +
         fmt(par_wall > 0 ? static_cast<double>(total_msgs) / par_wall : 0.0) +
         "\n";
    j += "  },\n";
    j += "  \"allocations\": {\n";
    j += "    \"counted\": " +
         std::string(ecfd::sim::alloc_counting_active() ? "true" : "false") +
         ",\n";
    j += "    \"sequential_pass\": " + std::to_string(seq_allocs) + ",\n";
    j += "    \"parallel_pass\": " + std::to_string(par_allocs) + ",\n";
    j += "    \"per_event_sequential\": " +
         fmt(total_events > 0 ? static_cast<double>(seq_allocs) /
                                    static_cast<double>(total_events)
                              : 0.0) +
         "\n";
    j += "  },\n";
    j += "  \"experiments\": [\n";
    bool first = true;
    for (const auto& [name, a] : agg) {
      if (!first) j += ",\n";
      first = false;
      j += "    {\n      \"name\": \"";
      ecfd::obs::json::escape_into(&j, name);
      j += "\",\n";
      j += "      \"cases\": " + std::to_string(a.cases) + ",\n";
      j += "      \"events\": " + std::to_string(a.events) + ",\n";
      j += "      \"msgs\": " + std::to_string(a.msgs) + ",\n";
      j += "      \"metric_mean_ms\": " +
           fmt(a.cases > 0 ? a.metric_sum / static_cast<double>(a.cases)
                           : 0.0) +
           ",\n";
      j += "      \"seq_wall_s\": " + fmt(a.seq_wall) + ",\n";
      j += "      \"par_wall_s\": " + fmt(a.par_wall) + ",\n";
      j += "      \"speedup\": " +
           fmt(a.par_wall > 0 ? a.seq_wall / a.par_wall : 0.0) + ",\n";
      j += "      \"events_per_sec\": " +
           fmt(a.par_wall > 0 ? static_cast<double>(a.events) / a.par_wall
                              : 0.0) +
           ",\n";
      j += "      \"msgs_per_sec\": " +
           fmt(a.par_wall > 0 ? static_cast<double>(a.msgs) / a.par_wall
                              : 0.0) +
           "\n    }";
    }
    j += "\n  ]\n}\n";

    if (json_path == "-") {
      std::fputs(j.c_str(), stdout);
    } else {
      std::FILE* f = std::fopen(json_path.c_str(), "w");
      if (!f) {
        std::fprintf(stderr, "bench_runner: cannot write %s\n",
                     json_path.c_str());
        return 2;
      }
      std::fputs(j.c_str(), f);
      std::fclose(f);
    }
  }

  // --- ecfd.metrics.v1 report -------------------------------------------
  if (!metrics_path.empty()) {
    ecfd::obs::MetricsRegistry metrics;
    metrics.add("bench.cases", static_cast<std::int64_t>(suite.size()));
    metrics.add("bench.mismatches", static_cast<std::int64_t>(mismatches));
    metrics.add("bench.check_violations",
                static_cast<std::int64_t>(check_violations));
    metrics.add("bench.events", static_cast<std::int64_t>(total_events));
    metrics.add("bench.msgs", total_msgs);
    metrics.add("bench.allocs.seq", static_cast<std::int64_t>(seq_allocs));
    metrics.add("bench.allocs.par", static_cast<std::int64_t>(par_allocs));
    metrics.add("bench.seq_wall_us",
                static_cast<std::int64_t>(seq_wall * 1e6));
    metrics.add("bench.par_wall_us",
                static_cast<std::int64_t>(par_wall * 1e6));
    for (const auto& [name, a] : agg) {
      metrics.add("bench." + name + ".cases",
                  static_cast<std::int64_t>(a.cases));
      metrics.add("bench." + name + ".events",
                  static_cast<std::int64_t>(a.events));
      metrics.add("bench." + name + ".msgs", a.msgs);
    }
    // Per-case wall times as log-bucketed histograms, one per experiment
    // and pass — the distribution (straggler cases, parallel-pass skew) is
    // invisible in the aggregate means above.
    for (std::size_t i = 0; i < suite.size(); ++i) {
      metrics.histogram("bench." + suite[i].experiment + ".case_wall_us.seq")
          ->observe(static_cast<std::int64_t>(seq_case_wall[i] * 1e6));
    }
    std::ofstream os(metrics_path);
    if (!os) {
      std::fprintf(stderr, "bench_runner: cannot write %s\n",
                   metrics_path.c_str());
      return 2;
    }
    metrics.write_json(os, "bench_runner");
    std::fprintf(stderr, "bench_runner: metrics written: %s\n",
                 metrics_path.c_str());
  }

  // --- One traced case --------------------------------------------------
  if (!trace_path.empty()) {
    const CaseSpec* pick = nullptr;
    for (const CaseSpec& spec : suite) {
      if (!spec.run_traced) continue;
      if (trace_case.empty() || spec.experiment == trace_case) {
        pick = &spec;
        break;
      }
    }
    if (pick == nullptr) {
      std::fprintf(stderr, "bench_runner: no traceable case%s%s\n",
                   trace_case.empty() ? "" : " in experiment ",
                   trace_case.c_str());
      return 2;
    }
    ecfd::obs::Recorder recorder(4096);
    const CaseMetrics traced = pick->run_traced(&recorder);
    const CaseMetrics* ref = &seq[static_cast<std::size_t>(pick - suite.data())];
    if (traced.hash != ref->hash) {
      // Recording must be invisible to the simulation; a hash drift here
      // means an observability probe perturbed the run.
      std::fprintf(stderr,
                   "bench_runner: traced re-run hash mismatch on %s %s\n",
                   pick->experiment.c_str(), pick->config.c_str());
      return 1;
    }
    std::ofstream os(trace_path);
    if (!os) {
      std::fprintf(stderr, "bench_runner: cannot write %s\n",
                   trace_path.c_str());
      return 2;
    }
    recorder.write_trace_json(os);
    std::fprintf(stderr, "bench_runner: trace of %s %s written: %s\n",
                 pick->experiment.c_str(), pick->config.c_str(),
                 trace_path.c_str());
  }

  return mismatches == 0 && check_violations == 0 ? 0 : 1;
}
