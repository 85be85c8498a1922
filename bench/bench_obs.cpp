// Observability microbench: what recording actually costs. Three sections:
//
//   recorder_push   — EventRing::push on the hot path (the number that must
//                     stay in single-digit nanoseconds for the "recording
//                     is digest-invisible and nearly free" claim to hold),
//                     plus the disabled-ring no-op and a 4-thread
//                     contended push on one ring.
//   qos_ingest      — QosScoreboard::ingest per state transition, and a
//                     full suspect/unsuspect episode including the gauge
//                     export that ecfd_node performs per report tick.
//   flight_snapshot — FlightRecorder::snapshot (the periodic mmap re-dump)
//                     and crash_dump (the async-signal-safe path the signal
//                     handler runs) across ring depths.
//
// Wall-clock measurements on a live machine; the checked-in BENCH_OBS.json
// baseline is compared by SCHEMA in CI, never by value. Flags: the
// table.hpp-standard --json FILE.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/qos.hpp"
#include "obs/recorder.hpp"
#include "table.hpp"

namespace ecfd {
namespace {

using Clock = std::chrono::steady_clock;

double ns_per_op(Clock::time_point t0, Clock::time_point t1,
                 std::uint64_t ops) {
  const auto ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count();
  return ops == 0 ? 0.0 : static_cast<double>(ns) / static_cast<double>(ops);
}

void bench_recorder_push() {
  bench::section("recorder_push");
  bench::Table t({"case", "threads", "ops", "ns_op"});
  t.print_header();

  constexpr std::uint64_t kOps = 8'000'000;

  {
    obs::Recorder rec(4096);
    rec.bind_hosts(4);
    obs::EventRing& ring = rec.ring(0);
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < kOps; ++i) {
      ring.push(static_cast<TimeUs>(i), obs::EventType::kSend,
                static_cast<std::int32_t>(i & 3));
    }
    const auto t1 = Clock::now();
    t.print_row("hot_push", 1, kOps, ns_per_op(t0, t1, kOps));
  }

  {
    // The compiled-in-but-not-attached path every Env call pays when no
    // recorder is bound: push on a never-init ring.
    obs::EventRing ring;
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < kOps; ++i) {
      ring.push(static_cast<TimeUs>(i), obs::EventType::kSend, 0);
    }
    const auto t1 = Clock::now();
    t.print_row("disabled_push", 1, kOps, ns_per_op(t0, t1, kOps));
  }

  {
    // Worst case for a ring: several threads pushing into it at once
    // (normally each host's ring has one producer).
    obs::Recorder rec(4096);
    rec.bind_hosts(1);
    obs::EventRing& ring = rec.ring(0);
    constexpr int kThreads = 4;
    constexpr std::uint64_t kPerThread = kOps / kThreads;
    std::atomic<bool> go{false};
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (int w = 0; w < kThreads; ++w) {
      workers.emplace_back([&ring, &go] {
        while (!go.load(std::memory_order_acquire)) {
        }
        for (std::uint64_t i = 0; i < kPerThread; ++i) {
          ring.push(static_cast<TimeUs>(i), obs::EventType::kDeliver, 1);
        }
      });
    }
    const auto t0 = Clock::now();
    go.store(true, std::memory_order_release);
    for (auto& w : workers) w.join();
    const auto t1 = Clock::now();
    t.print_row("contended_push", kThreads, kOps, ns_per_op(t0, t1, kOps));
  }
}

void bench_qos_ingest() {
  bench::section("qos_ingest");
  bench::Table t({"case", "n", "ops", "ns_op"});
  t.print_header();

  constexpr int kN = 64;
  constexpr std::uint64_t kEpisodes = 500'000;

  {
    // Alternating suspect/unsuspect over every peer: each ingest opens or
    // closes an episode, the estimator's steady state.
    obs::QosScoreboard sb(kN);
    obs::Event e;
    e.host = 0;
    const auto t0 = Clock::now();
    TimeUs now = 0;
    for (std::uint64_t i = 0; i < kEpisodes; ++i) {
      e.a = static_cast<std::int32_t>(1 + (i % (kN - 1)));
      e.time = now;
      e.type = obs::EventType::kSuspect;
      sb.ingest(e);
      now += 100;
      e.time = now;
      e.type = obs::EventType::kUnsuspect;
      sb.ingest(e);
      now += 100;
    }
    const auto t1 = Clock::now();
    t.print_row("ingest", kN, kEpisodes * 2, ns_per_op(t0, t1, kEpisodes * 2));
  }

  {
    // What ecfd_node's report tick pays: export every live pair's gauges
    // into the registry.
    obs::QosScoreboard sb(kN);
    obs::MetricsRegistry reg;
    sb.bind_metrics(&reg);
    obs::Event e;
    e.host = 0;
    for (int p = 1; p < kN; ++p) {
      e.a = p;
      e.time = 10;
      e.type = obs::EventType::kSuspect;
      sb.ingest(e);
      e.time = 500;
      e.type = obs::EventType::kUnsuspect;
      sb.ingest(e);
    }
    constexpr std::uint64_t kTicks = 20'000;
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < kTicks; ++i) {
      sb.export_gauges(0, static_cast<TimeUs>(1000 + i));
    }
    const auto t1 = Clock::now();
    t.print_row("export_gauges", kN, kTicks, ns_per_op(t0, t1, kTicks));
  }
}

void bench_flight_snapshot(const std::string& dir) {
  bench::section("flight_snapshot");
  bench::Table t({"case", "depth", "ops", "us_op"});
  t.print_header();

  for (const std::size_t depth : {1024u, 4096u, 16384u}) {
    obs::Recorder rec(depth);
    rec.bind_hosts(4);
    for (std::size_t i = 0; i < depth; ++i) {
      rec.ring(0).push(static_cast<TimeUs>(i), obs::EventType::kSend, 1);
      rec.state_ring(0).push(static_cast<TimeUs>(i),
                             obs::EventType::kSuspect, 1);
    }
    obs::MetricsRegistry reg;
    reg.add("net.sent.p0", 42);
    reg.set_gauge("fd.suspected", 1);

    const std::string path = dir + "/bench_obs_flight_" +
                             std::to_string(depth) + ".bin";
    obs::FlightRecorder fr;
    std::string error;
    if (!fr.open(path, &rec, /*self=*/0, &error)) {
      std::fprintf(stderr, "flight open failed: %s\n", error.c_str());
      return;
    }
    fr.set_metrics(&reg);

    constexpr std::uint64_t kSnaps = 2'000;
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < kSnaps; ++i) {
      fr.snapshot(static_cast<TimeUs>(depth + i));
    }
    const auto t1 = Clock::now();
    t.print_row("snapshot", depth, kSnaps,
                ns_per_op(t0, t1, kSnaps) / 1000.0);

    // The path the SIGSEGV handler runs (signal 0 keeps the image marked
    // orderly so the file stays reusable between iterations).
    const auto t2 = Clock::now();
    for (std::uint64_t i = 0; i < kSnaps; ++i) {
      fr.crash_dump(0);
    }
    const auto t3 = Clock::now();
    t.print_row("crash_dump", depth, kSnaps,
                ns_per_op(t2, t3, kSnaps) / 1000.0);

    fr.close();
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace ecfd

int main(int argc, char** argv) {
  ecfd::bench::init(argc, argv, "obs");
  std::string dir = "/tmp";
  if (const char* env = std::getenv("TMPDIR"); env != nullptr) dir = env;

  ecfd::bench_recorder_push();
  ecfd::bench_qos_ingest();
  ecfd::bench_flight_snapshot(dir);
  return ecfd::bench::finish();
}
