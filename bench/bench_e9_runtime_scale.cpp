// E9: threaded-runtime scale. Wall-clock throughput, send->deliver latency
// and heartbeat jitter of the sharded executor at n in {64, 256, 1024}.
//
// Unlike E1-E8 these numbers are wall-clock measurements on a live
// machine, not deterministic simulation: rerunning moves them. The
// checked-in BENCH_RUNTIME.json baseline is therefore compared by SCHEMA
// (sections/headers present) in CI, never by value.
//
// Flags: --quick (shorter windows, used by the CI perf-smoke job) and the
// table.hpp-standard --json FILE.
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "net/protocol_ids.hpp"
#include "runtime/thread_env.hpp"
#include "table.hpp"

namespace ecfd {
namespace {

using runtime::ThreadSystem;

void sleep_ms(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

/// Thread-safe linear microsecond histogram: 1us buckets to 4ms, plus an
/// overflow count and an exact max. add() never allocates.
struct Hist {
  static constexpr int kBuckets = 4096;
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets{};
  std::atomic<std::uint64_t> overflow{0};
  std::atomic<std::int64_t> max{0};

  void add(std::int64_t us) {
    if (us < 0) us = 0;
    if (us < kBuckets) {
      buckets[static_cast<std::size_t>(us)].fetch_add(
          1, std::memory_order_relaxed);
    } else {
      overflow.fetch_add(1, std::memory_order_relaxed);
    }
    std::int64_t cur = max.load(std::memory_order_relaxed);
    while (us > cur &&
           !max.compare_exchange_weak(cur, us, std::memory_order_relaxed)) {
    }
  }

  [[nodiscard]] std::uint64_t total() const {
    std::uint64_t t = overflow.load();
    for (const auto& b : buckets) t += b.load();
    return t;
  }

  /// p in [0,1]; overflowed tails report the observed max.
  [[nodiscard]] double percentile(double p) const {
    const std::uint64_t t = total();
    if (t == 0) return 0.0;
    const auto target = static_cast<std::uint64_t>(p * static_cast<double>(t));
    std::uint64_t seen = 0;
    for (int i = 0; i < kBuckets; ++i) {
      seen += buckets[static_cast<std::size_t>(i)].load();
      if (seen > target) return static_cast<double>(i);
    }
    return static_cast<double>(max.load());
  }

  [[nodiscard]] double mean() const {
    const std::uint64_t t = total();
    if (t == 0) return 0.0;
    long double sum = 0;
    for (int i = 0; i < kBuckets; ++i) {
      sum += static_cast<long double>(i) *
             static_cast<long double>(buckets[static_cast<std::size_t>(i)].load());
    }
    // Overflow entries are rare; account them at the observed max.
    sum += static_cast<long double>(overflow.load()) *
           static_cast<long double>(max.load());
    return static_cast<double>(sum / static_cast<long double>(t));
  }
};

/// Token-ring storm shaped like failure-detector steady state: one host in
/// every kTokenStride launches a token; each delivery stamps send->deliver
/// latency, refreshes a watchdog timer (exactly what heartbeat receipt does
/// in HeartbeatP/StableLeader), and forwards the token. With zero injected
/// network delay this measures executor overhead end to end: mailbox
/// push/drain, dispatch, timer cancel+re-arm, payload pool, routing.
class Storm final : public Protocol {
 public:
  static constexpr int kTokenStride = 8;

  Storm(Env& env, std::atomic<std::int64_t>* hops, Hist* hist,
        std::atomic<bool>* recording)
      : Protocol(env, protocol_ids::kTesting),
        hops_(hops),
        hist_(hist),
        recording_(recording) {}

  void start() override {
    if (env_.self() % kTokenStride == 0) forward();
  }

  void on_message(const Message& m) override {
    hops_->fetch_add(1, std::memory_order_relaxed);
    if (recording_->load(std::memory_order_relaxed)) {
      // The token's body is its send time.
      if (const auto* sent = m.as<TimeUs>()) hist_->add(env_.now() - *sent);
    }
    // Watchdog refresh, as on heartbeat receipt: cancel the old deadline,
    // arm a new one far enough out that it never actually fires.
    if (watchdog_ != kInvalidTimer) env_.cancel_timer(watchdog_);
    watchdog_ = env_.set_timer(sec(30), []() {});
    forward();
  }

 private:
  void forward() {
    const ProcessId next = (env_.self() + 1) % env_.n();
    env_.send(next, Message::make<TimeUs>(protocol_id(), 1, "e9.ping",
                                          env_.now()));
  }

  std::atomic<std::int64_t>* hops_;
  Hist* hist_;
  std::atomic<bool>* recording_;
  TimerId watchdog_{kInvalidTimer};
};

/// Heartbeat-jitter probe: each host beats to its ring successor on a
/// fixed period over a fixed-delay link, so every deviation of the
/// receiver-observed inter-arrival time from the period is scheduler and
/// executor jitter, not network randomness.
class Beacon final : public Protocol {
 public:
  static constexpr DurUs kPeriod = msec(20);

  Beacon(Env& env, Hist* jitter, std::atomic<bool>* recording)
      : Protocol(env, protocol_ids::kTesting),
        jitter_(jitter),
        recording_(recording) {}

  void start() override {
    env_.set_timer(kPeriod, [this]() { tick(); });
  }

  void on_message(const Message&) override {
    const TimeUs now = env_.now();
    if (last_arrival_ >= 0 && recording_->load(std::memory_order_relaxed)) {
      const TimeUs gap = now - last_arrival_;
      jitter_->add(gap > kPeriod ? gap - kPeriod : kPeriod - gap);
    }
    last_arrival_ = now;
  }

 private:
  void tick() {
    env_.send((env_.self() + 1) % env_.n(),
              Message::make_empty(protocol_id(), 1, "e9.beat"));
    env_.set_timer(kPeriod, [this]() { tick(); });
  }

  Hist* jitter_;
  std::atomic<bool>* recording_;
  TimeUs last_arrival_{-1};
};

struct StormResult {
  double msgs_per_sec{0};
  double p50{0}, p95{0}, p99{0};
  int workers{0};
};

StormResult run_storm(int n, std::uint64_t seed, int warm_ms,
                      int window_ms) {
  ThreadSystem::Config cfg;
  cfg.n = n;
  cfg.seed = seed;
  cfg.min_delay = 0;
  cfg.max_delay = 0;
  // Declared before the system so they outlive the worker threads that the
  // ThreadSystem destructor joins.
  auto hops = std::make_unique<std::atomic<std::int64_t>>(0);
  auto hist = std::make_unique<Hist>();
  auto recording = std::make_unique<std::atomic<bool>>(false);
  ThreadSystem sys(cfg);
  for (ProcessId p = 0; p < n; ++p) {
    sys.host(p).emplace<Storm>(hops.get(), hist.get(), recording.get());
  }
  sys.start();
  sleep_ms(warm_ms);
  recording->store(true);
  const std::int64_t h0 = hops->load();
  const TimeUs t0 = sys.now();
  sleep_ms(window_ms);
  recording->store(false);
  const std::int64_t h1 = hops->load();
  const TimeUs t1 = sys.now();
  StormResult r;
  r.msgs_per_sec =
      static_cast<double>(h1 - h0) * 1e6 / static_cast<double>(t1 - t0);
  r.p50 = hist->percentile(0.50);
  r.p95 = hist->percentile(0.95);
  r.p99 = hist->percentile(0.99);
  r.workers = sys.workers();
  return r;
}

struct JitterResult {
  double mean_us{0};
  double p95_us{0};
  std::int64_t max_us{0};
};

JitterResult run_beacon(int n, std::uint64_t seed, int warm_ms,
                        int window_ms) {
  ThreadSystem::Config cfg;
  cfg.n = n;
  cfg.seed = seed;
  cfg.min_delay = usec(500);  // fixed link delay: deviations are pure
  cfg.max_delay = usec(500);  // executor/timer jitter
  auto jitter = std::make_unique<Hist>();
  auto recording = std::make_unique<std::atomic<bool>>(false);
  ThreadSystem sys(cfg);
  for (ProcessId p = 0; p < n; ++p) {
    sys.host(p).emplace<Beacon>(jitter.get(), recording.get());
  }
  sys.start();
  sleep_ms(warm_ms);
  recording->store(true);
  sleep_ms(window_ms);
  recording->store(false);
  JitterResult r;
  r.mean_us = jitter->mean();
  r.p95_us = jitter->percentile(0.95);
  r.max_us = jitter->max.load();
  return r;
}

}  // namespace
}  // namespace ecfd

int main(int argc, char** argv) {
  using namespace ecfd;
  bench::init(argc, argv, "e9_runtime_scale");
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") quick = true;
  }
  const int storm_warm = quick ? 200 : 300;
  const int storm_window = quick ? 700 : 2000;
  const int beacon_warm = quick ? 200 : 300;
  const int beacon_window = quick ? 1000 : 3000;

  std::cout << "E9: threaded runtime scale (wall-clock; "
            << (quick ? "quick" : "full") << " windows; "
            << std::thread::hardware_concurrency() << " hardware threads)\n";

  const int sizes[] = {64, 256, 1024};

  bench::section("E9 throughput and send->deliver latency (token ring)");
  bench::Table tput({"n", "workers", "msgs_per_sec", "p50_us", "p95_us",
                     "p99_us"});
  tput.print_header();
  for (const int n : sizes) {
    const StormResult r = run_storm(n, 0x9e3779b9, storm_warm, storm_window);
    tput.print_row(n, r.workers, r.msgs_per_sec, r.p50, r.p95, r.p99);
  }

  bench::section("E9 heartbeat jitter (fixed 500us link, 20ms period)");
  bench::Table jit({"n", "mean_jitter_us", "p95_jitter_us",
                    "max_jitter_us"},
                   16);
  jit.print_header();
  for (const int n : sizes) {
    const JitterResult r =
        run_beacon(n, 0x2545f491, beacon_warm, beacon_window);
    jit.print_row(n, r.mean_us, r.p95_us, r.max_us);
  }

  return bench::finish();
}
