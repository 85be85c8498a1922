// E13: failure-detector scale. The flat constructions pay O(n^2) messages
// per period (heartbeat ◇P broadcasts all-to-all), which caps practical n
// in the low hundreds. The two scalable ◇C stacks added by this experiment
// — fd/hier_c (two-level hierarchy, ~2n msgs/period) and fd/swim (gossip
// membership, ~2-4 msgs per NODE per period) — push the same property set
// to n=16384. Every section runs on the DETERMINISTIC SIMULATOR, so every
// row is exact and two runs print identical reports:
//
//   1. Steady-state message cost: counts per simulated time, so the
//      O(n^2) vs O(n) separation is not polluted by any executor (flat
//      heartbeat at n=4096 emits ~33M msgs/sim-sec). Flat at n=16384 is
//      omitted: ~268M messages PER PERIOD is the infeasibility point the
//      hierarchy exists to remove.
//   2. Detection latency: links of 100 us - 2 ms, one non-leader mid-range
//      process crashes after warm-up, and every survivor's own oracle is
//      polled every max(10 ms, period/8) of virtual time; first/median/max
//      time until the crash is suspected. The flat stack's rows use
//      deployment-realistic periods (250ms/1s), the scalable stacks 100ms.
//   3. Per-host memory of the constructed (never started) stacks via the
//      counting allocator (sim/alloc_counter), counted from after the
//      simulated System is built, so only the stacks are in the figure:
//      flat keeps O(n) timer state per host (O(n^2) total — ~4 GB at
//      n=16384, constructible here but never runnable), hier O(sqrt n),
//      swim O(faulty).
//
// Flags: --quick (n <= 1024, shorter windows; the CI perf-smoke leg) and
// the table.hpp-standard --json FILE. Checked-in full output:
// BENCH_FD_SCALE.json (validated by tools/check_bench_schema.py
// --bench-fd-scale, including the >=10x headline ratio at n=4096).
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "fd/efficient_p.hpp"
#include "fd/heartbeat_p.hpp"
#include "fd/hier_c.hpp"
#include "fd/swim.hpp"
#include "net/scenario.hpp"
#include "sim/alloc_counter.hpp"
#include "table.hpp"

namespace ecfd {
namespace {

enum class Stack { kFlat, kEffP, kHier, kSwim };

const char* stack_name(Stack s) {
  switch (s) {
    case Stack::kFlat: return "heartbeat_p";
    case Stack::kEffP: return "efficient_p";
    case Stack::kHier: return "hier_c";
    case Stack::kSwim: return "swim";
  }
  return "?";
}

const char* stack_prefix(Stack s) {
  switch (s) {
    case Stack::kFlat: return "msg.hb_p.";
    case Stack::kEffP: return "msg.effp.";
    case Stack::kHier: return "msg.hier.";
    case Stack::kSwim: return "msg.swim.";
  }
  return "?";
}

/// Probe cadence per n for the simulator section: larger universes beat
/// slower, as a real deployment would (and as the WAN scenarios assume).
DurUs period_for(int n) {
  if (n <= 256) return msec(100);
  if (n <= 1024) return msec(200);
  return msec(500);
}

fd::HeartbeatP::Config flat_cfg(DurUs period) {
  fd::HeartbeatP::Config c;
  c.period = period;
  c.initial_timeout = 3 * period;
  c.timeout_increment = period;
  return c;
}

fd::EfficientP::Config effp_cfg(DurUs period) {
  fd::EfficientP::Config c;
  c.period = period;
  c.initial_timeout = 3 * period;
  c.timeout_increment = period;
  return c;
}

fd::HierC::Config hier_cfg(DurUs period) {
  fd::HierC::Config c;
  c.period = period;
  c.initial_timeout = 3 * period;
  c.timeout_increment = period;
  return c;
}

fd::SwimFd::Config swim_cfg(DurUs period) {
  fd::SwimFd::Config c;
  c.period = period;
  c.ack_timeout = std::max<DurUs>(msec(10), period / 4);
  c.timeout_increment = c.ack_timeout;
  c.suspect_timeout = 4 * period;
  return c;
}

/// Installs one stack instance on a simulated host and returns it as the
/// suspicion oracle.
const SuspectOracle* install(Stack s, Env& host, DurUs period) {
  switch (s) {
    case Stack::kFlat:
      return &host.emplace<fd::HeartbeatP>(flat_cfg(period));
    case Stack::kEffP:
      return &host.emplace<fd::EfficientP>(effp_cfg(period));
    case Stack::kHier:
      return &host.emplace<fd::HierC>(hier_cfg(period));
    case Stack::kSwim:
      return &host.emplace<fd::SwimFd>(swim_cfg(period));
  }
  return nullptr;
}

// --- section 1: message cost on the deterministic simulator -------------

struct MsgCost {
  double per_node_per_period{0};
  double per_node_per_sec{0};
  std::int64_t total{0};
};

MsgCost run_msg_cost(Stack s, int n, int warm_periods, int window_periods) {
  ScenarioConfig sc;
  sc.n = n;
  sc.seed = 42;
  sc.links = LinkKind::kReliable;
  auto sys = make_system(sc);
  const DurUs period = period_for(n);
  for (ProcessId p = 0; p < n; ++p) install(s, sys->host(p), period);
  sys->start();
  sys->run_for(warm_periods * period);
  const std::int64_t before = sum_sent(sys->metrics(), stack_prefix(s));
  sys->run_for(window_periods * period);
  const std::int64_t after = sum_sent(sys->metrics(), stack_prefix(s));
  MsgCost r;
  r.total = after - before;
  r.per_node_per_period = static_cast<double>(r.total) / n / window_periods;
  r.per_node_per_sec = static_cast<double>(r.total) * 1e6 /
                       (static_cast<double>(window_periods * period) * n);
  return r;
}

// --- section 2: detection latency on the deterministic simulator ---------

struct DetectResult {
  double first_ms{0};
  double p50_ms{0};
  double max_ms{0};
  int detected{0};
  int observers{0};
  double msgs_per_node_per_sec{0};
};

DetectResult run_detect(Stack s, int n, DurUs period) {
  ScenarioConfig sc;
  sc.n = n;
  sc.seed = 7;
  sc.links = LinkKind::kReliable;
  sc.min_delay = usec(100);
  sc.max_delay = msec(2);
  auto sys = make_system(sc);
  std::vector<const SuspectOracle*> oracles(static_cast<std::size_t>(n));
  for (ProcessId p = 0; p < n; ++p) {
    oracles[static_cast<std::size_t>(p)] = install(s, sys->host(p), period);
  }
  DetectResult r;
  r.observers = n - 1;

  // Victim: mid-range, never an initial hier cell leader (id % cell != 0).
  const ProcessId victim = n / 2 + 1;
  sys->start();
  // Warm well past the initial timeout so the crash hits steady state.
  sys->run_for(6 * period);
  const std::int64_t sent0 = sum_sent(sys->metrics(), stack_prefix(s));
  sys->crash_now(victim);
  const TimeUs crash_t = sys->now();

  // Every survivor's own oracle is polled every `poll` from the crash on;
  // the first poll that finds the victim suspected is its detection time.
  const DurUs poll = std::max<DurUs>(msec(10), period / 8);
  const TimeUs deadline = crash_t + 40 * period;
  std::vector<double> lat;
  std::vector<bool> seen(static_cast<std::size_t>(n), false);
  seen[static_cast<std::size_t>(victim)] = true;
  while (r.detected < r.observers && sys->now() < deadline) {
    sys->run_for(poll);
    for (ProcessId p = 0; p < n; ++p) {
      const auto i = static_cast<std::size_t>(p);
      if (seen[i] || !oracles[i]->suspected().contains(victim)) continue;
      seen[i] = true;
      ++r.detected;
      lat.push_back(static_cast<double>(sys->now() - crash_t) / 1000.0);
    }
  }
  std::sort(lat.begin(), lat.end());
  if (!lat.empty()) {
    r.first_ms = lat.front();
    r.p50_ms = lat[lat.size() / 2];
    r.max_ms = lat.back();
  }
  const std::int64_t sent1 = sum_sent(sys->metrics(), stack_prefix(s));
  r.msgs_per_node_per_sec = static_cast<double>(sent1 - sent0) * 1e6 /
                            (static_cast<double>(sys->now() - crash_t) * n);
  return r;
}

// --- section 3: memory of constructed stacks ----------------------------

/// Bytes requested through operator new while constructing the stacks on
/// an already built System. The counting allocator (sim/alloc_counter.cpp,
/// linked into this binary only) is the right probe here: VmRSS deltas
/// read ~0 once the heap has freed arenas from earlier sections to reuse.
/// The System itself is left out: its per-pair link table would swamp the
/// stacks it hosts.
double construct_heap_mb(Stack s, int n) {
  ScenarioConfig sc;
  sc.n = n;
  sc.seed = 3;
  sc.links = LinkKind::kReliable;
  auto sys = make_system(sc);
  const std::uint64_t before = sim::alloc_bytes();
  for (ProcessId p = 0; p < n; ++p) install(s, sys->host(p), period_for(n));
  const std::uint64_t after = sim::alloc_bytes();
  return static_cast<double>(after - before) / (1024.0 * 1024.0);
}

}  // namespace
}  // namespace ecfd

int main(int argc, char** argv) {
  using namespace ecfd;
  bench::init(argc, argv, "e13_scale_fd");
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") quick = true;
  }

  std::cout << "E13: failure-detector scale (" << (quick ? "quick" : "full")
            << " mode)\n"
            << "flat heartbeat_p = O(n^2) msgs/period; hier_c and swim = "
               "O(n) total.\n"
            << "Every section runs on the deterministic simulator; every "
               "row is exact.\n";

  const int nmax = quick ? 1024 : 16384;
  const int nmax_flat = quick ? 1024 : 4096;
  const std::vector<int> sizes = {256, 1024, 4096, 16384};

  bench::section("E13 steady-state message cost (deterministic sim)");
  bench::Table cost({"stack", "n", "period_ms", "msgs_per_node_per_period",
                     "msgs_per_node_per_sec", "total_msgs"});
  cost.print_header();
  double flat4096 = 0, hier4096 = 0, swim4096 = 0;
  for (Stack s : {Stack::kFlat, Stack::kEffP, Stack::kHier, Stack::kSwim}) {
    for (int n : sizes) {
      const bool flatish = s == Stack::kFlat || s == Stack::kEffP;
      if (n > (flatish ? nmax_flat : nmax)) continue;
      // Flat at n=4096 moves ~17M messages per period; one window period
      // keeps the run short without changing the count's meaning (the sim
      // is deterministic — the count is exact, not sampled).
      const int warm = (s == Stack::kFlat && n >= 4096) ? 1 : 2;
      const int window = (s == Stack::kFlat && n >= 4096) ? 1 : (quick ? 2 : 4);
      const MsgCost r = run_msg_cost(s, n, warm, window);
      cost.print_row(stack_name(s), n, period_for(n) / 1000,
                     r.per_node_per_period, r.per_node_per_sec, r.total);
      if (n == 4096) {
        if (s == Stack::kFlat) flat4096 = r.per_node_per_period;
        if (s == Stack::kHier) hier4096 = r.per_node_per_period;
        if (s == Stack::kSwim) swim4096 = r.per_node_per_period;
      }
    }
  }

  bench::section("E13 detection latency (deterministic sim)");
  bench::Table det({"stack", "n", "period_ms", "detect_first_ms",
                    "detect_p50_ms", "detect_max_ms", "detected", "observers",
                    "msgs_per_node_per_sec"});
  det.print_header();
  const std::vector<int> det_sizes =
      quick ? std::vector<int>{256} : std::vector<int>{256, 1024};
  for (Stack s : {Stack::kFlat, Stack::kHier, Stack::kSwim}) {
    for (int n : det_sizes) {
      // Flat's all-to-all load calls for a slow deployment-realistic
      // cadence; the O(n)-total stacks afford 100ms probing at either size.
      const DurUs period =
          s == Stack::kFlat ? (n <= 256 ? msec(250) : msec(1000)) : msec(100);
      const DetectResult r = run_detect(s, n, period);
      det.print_row(stack_name(s), n, period / 1000, r.first_ms, r.p50_ms,
                    r.max_ms, r.detected, r.observers, r.msgs_per_node_per_sec);
    }
  }

  bench::section("E13 per-host memory (deterministic sim, constructed stacks)");
  bench::Table mem({"stack", "n", "heap_mb", "kb_per_host"});
  mem.print_header();
  for (Stack s : {Stack::kFlat, Stack::kHier, Stack::kSwim}) {
    for (int n : sizes) {
      // Flat at n=16384 IS constructible (unlike its message load): ~4 GB
      // of per-peer timer state, the O(n^2)-total-memory endpoint.
      if (n > (quick ? 1024 : 16384)) continue;
      const double mb = construct_heap_mb(s, n);
      mem.print_row(stack_name(s), n, mb, mb * 1024.0 / n);
    }
  }

  if (!quick) {
    bench::section("E13 headline: per-node message cost at n=4096");
    bench::Table head({"stack", "msgs_per_node_per_period", "flat_ratio"});
    head.print_header();
    head.print_row("heartbeat_p", flat4096, 1.0);
    head.print_row("hier_c", hier4096,
                   hier4096 > 0 ? flat4096 / hier4096 : 0.0);
    head.print_row("swim", swim4096,
                   swim4096 > 0 ? flat4096 / swim4096 : 0.0);
  }

  return bench::finish();
}
