// E7 — engineering microbenchmarks (google-benchmark): simulator kernel
// throughput and end-to-end protocol runs. Not a paper table; documents
// that the substrate is fast enough to make the E1-E6 sweeps cheap.

#include <benchmark/benchmark.h>

#include "consensus/bodies.hpp"
#include "consensus/harness.hpp"
#include "fd/heartbeat_p.hpp"
#include "net/scenario.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"

namespace {

using namespace ecfd;

void BM_EventQueueScheduleAndPop(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::EventQueue q;
    for (int i = 0; i < batch; ++i) {
      q.schedule(i % 97, [] {});
    }
    while (!q.empty()) benchmark::DoNotOptimize(q.pop().id);
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_EventQueueScheduleAndPop)->Arg(1024)->Arg(16384);

// Steady-state churn: keep `pending` events live and repeatedly pop the
// earliest + schedule a replacement. This is the simulator's real hot loop
// (a sim holds a near-constant working set of timers); fresh-queue
// schedule-then-drain above measures warm-up instead. Range spans 1e3-1e6
// pending to expose the heap's depth scaling.
void BM_EventQueueSteadyStateChurn(benchmark::State& state) {
  const int pending = static_cast<int>(state.range(0));
  sim::EventQueue q;
  Rng rng(42);
  TimeUs now = 0;
  for (int i = 0; i < pending; ++i) {
    q.schedule(static_cast<TimeUs>(rng.below(1000)), [] {});
  }
  for (auto _ : state) {
    q.pop_run([&](TimeUs t, sim::EventId) { now = t; });
    q.schedule(now + 1 + static_cast<TimeUs>(rng.below(1000)), [] {});
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueSteadyStateChurn)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Arg(1000000);

// Schedule + true-cancel churn at a steady working set. The old queue
// paid an unordered_map erase plus a tombstone that still percolated
// through the heap on pop; the indexed heap removes the entry outright.
void BM_EventQueueScheduleCancelChurn(benchmark::State& state) {
  const int pending = static_cast<int>(state.range(0));
  sim::EventQueue q;
  Rng rng(43);
  std::vector<sim::EventId> ids;
  ids.reserve(static_cast<std::size_t>(pending));
  TimeUs now = 0;
  for (int i = 0; i < pending; ++i) {
    ids.push_back(q.schedule(static_cast<TimeUs>(rng.below(1000)), [] {}));
  }
  for (auto _ : state) {
    // Cancel a random live event, schedule a replacement (a timer reset —
    // exactly what every heartbeat/timeout protocol does per message).
    const auto idx = rng.below(ids.size());
    benchmark::DoNotOptimize(q.cancel(ids[idx]));
    now += 1;
    ids[idx] = q.schedule(now + static_cast<TimeUs>(rng.below(1000)), [] {});
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueScheduleCancelChurn)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Arg(1000000);

// A timer storm on the one timer queue: `pending` live timers, and every
// operation cancels the oldest and re-arms it 30 s out, as a timeout reset
// on each heartbeat does. sim::EventQueue runs the simulator's and
// DgramEnv's timers.
constexpr DurUs kRearm = sec(30);

void BM_EventQueueCancelRearm(benchmark::State& state) {
  const auto pending = static_cast<std::size_t>(state.range(0));
  sim::EventQueue q;
  std::vector<sim::EventId> ids;
  TimeUs now = 0;
  for (std::size_t i = 0; i < pending; ++i) {
    ids.push_back(q.schedule(++now + kRearm, [] {}));
  }
  std::size_t oldest = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(q.cancel(ids[oldest]));
    ids[oldest] = q.schedule(++now + kRearm, [] {});
    oldest = (oldest + 1) % pending;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueCancelRearm)->Arg(16)->Arg(64)->Arg(256);

// Broadcast fan-out through the simulated Network: one shared payload
// body, n-1 sends, run to delivery. Items = messages delivered.
void BM_NetworkSendFanOut(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  ScenarioConfig cfg;
  cfg.n = n;
  cfg.seed = 11;
  cfg.links = LinkKind::kReliable;
  auto sys = make_system(cfg);
  sys->start();
  int round = 0;
  for (auto _ : state) {
    Message m = Message::make(900, 1, "bench.fanout",
                              consensus::RoundOnly{round++});
    m.src = 0;
    for (ProcessId q = 1; q < n; ++q) {
      m.dst = q;
      sys->network().send(m);
    }
    m.payload.reset();
    sys->run_for(msec(50));
  }
  state.SetItemsProcessed(state.iterations() * (n - 1));
}
BENCHMARK(BM_NetworkSendFanOut)->Arg(8)->Arg(32)->Arg(128);

void BM_ProcessSetOps(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  ProcessSet a(n), b(n);
  for (int i = 0; i < n; i += 3) a.add(i);
  for (int i = 0; i < n; i += 2) b.add(i);
  for (auto _ : state) {
    ProcessSet u = a | b;
    benchmark::DoNotOptimize(u.size());
    benchmark::DoNotOptimize(u.first_excluded());
  }
}
BENCHMARK(BM_ProcessSetOps)->Arg(16)->Arg(128);

void BM_HeartbeatSecondOfSimTime(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    ScenarioConfig cfg;
    cfg.n = n;
    cfg.seed = 7;
    cfg.links = LinkKind::kPartialSync;
    cfg.gst = 0;
    auto sys = make_system(cfg);
    for (ProcessId p = 0; p < n; ++p) sys->host(p).emplace<fd::HeartbeatP>();
    sys->start();
    sys->run_until(sec(1));
    benchmark::DoNotOptimize(sys->network().sent_total());
  }
}
BENCHMARK(BM_HeartbeatSecondOfSimTime)->Arg(4)->Arg(8)->Arg(16)->Unit(benchmark::kMillisecond);

void BM_ConsensusEndToEnd(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    consensus::HarnessConfig cfg;
    cfg.scenario.n = n;
    cfg.scenario.seed = seed++;
    cfg.scenario.links = LinkKind::kPartialSync;
    cfg.scenario.gst = 0;
    cfg.algo = consensus::Algo::kEcfdC;
    cfg.fd = consensus::FdStack::kScriptedStable;
    cfg.fd_stable_at = 0;
    auto r = consensus::run_consensus(cfg);
    if (!r.every_correct_decided) state.SkipWithError("did not decide");
    benchmark::DoNotOptimize(r.consensus_msgs);
  }
  state.SetLabel("one full ◇C consensus instance");
}
BENCHMARK(BM_ConsensusEndToEnd)->Arg(5)->Arg(9)->Arg(17)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
