// bench_net — the real-network path: poll(2) vs io_uring backends,
// single-frame vs coalesced batch-envelope datagrams.
//
// Three sections, each run for every {backend} x {coalesce} combination so
// the two optimizations are ablated independently (schema
// "ecfd.bench_net.v1", gated by tools/check_bench_schema.py --bench-net):
//
//   pair_throughput      one loopback sender floods one receiver; reports
//                        delivered frames/s and p50/p99 delivery latency,
//                        read from the receiver's log2 obs histogram cells
//                        (so percentiles are power-of-two resolution by
//                        construction).
//   storm                n nodes all-to-all flood; reports aggregate
//                        delivered frames/s and wire datagrams per frame
//                        (coalescing pushes the latter toward 1/k).
//   coalescing_ablation  E11: EfficientP heartbeats at a fixed period;
//                        reports steady-state datagrams per peer per tick
//                        (the paper's Section 4 k->1 claim carried to the
//                        wire) and the detection latency of a killed node,
//                        which must NOT regress when coalescing is on.
//
// Every combination row is always emitted; when io_uring is unavailable
// (ECFD_URING=OFF build, old kernel, seccomp) uring rows carry
// available=0 and zeroed measurements so checked-in baselines keep one
// shape everywhere. Nodes are threads, each owning its own env — the same
// one-loop-per-process model as separate OS processes, minus the fork
// plumbing.
//
//   bench_net [--quick] [--json FILE]
//
// --quick shortens every phase for CI smoke; the checked-in BENCH_NET.json
// comes from a full run (see EXPERIMENTS.md E10/E11).

#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "table.hpp"
#include "fd/efficient_p.hpp"
#include "net/protocol_ids.hpp"
#include "obs/metrics.hpp"
#include "transport/dgram_env.hpp"
#include "transport/socket_env.hpp"
#if defined(ECFD_URING)
#include "transport/uring_env.hpp"
#endif

using namespace ecfd;
using transport::DgramEnv;
using transport::SocketEnv;

namespace {

/// Wall timestamps shared across envs (each env has its own epoch, so
/// cross-env latency must use one global clock).
std::int64_t wall_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::vector<transport::PeerAddr> loopback_peers(int n, std::uint16_t base) {
  std::vector<transport::PeerAddr> peers;
  for (int i = 0; i < n; ++i) {
    peers.push_back({"127.0.0.1", static_cast<std::uint16_t>(base + i)});
  }
  return peers;
}

struct Combo {
  const char* backend;  ///< "poll" | "uring"
  bool coalesce;
};

constexpr Combo kCombos[] = {
    {"poll", false}, {"poll", true}, {"uring", false}, {"uring", true}};

DgramEnv::Options make_options(ProcessId self,
                               const std::vector<transport::PeerAddr>& peers,
                               bool coalesce) {
  DgramEnv::Options o;
  o.self = self;
  o.peers = peers;
  o.seed = 42;
  o.coalesce = coalesce;
  return o;
}

/// Builds the requested backend WITHOUT fallback: an ablation row labeled
/// "uring" must never silently measure poll. nullptr = unavailable.
std::unique_ptr<DgramEnv> make_exact(const char* backend,
                                     DgramEnv::Options opts) {
  if (std::strcmp(backend, "uring") == 0) {
#if defined(ECFD_URING)
    auto env = std::make_unique<transport::UringEnv>(std::move(opts));
    if (!env->open(nullptr)) return nullptr;
    return env;
#else
    return nullptr;
#endif
  }
  auto env = std::make_unique<SocketEnv>(std::move(opts));
  if (!env->open(nullptr)) return nullptr;
  return env;
}

bool uring_available() {
#if defined(ECFD_URING)
  const auto peers = loopback_peers(1, 23999);
  return make_exact("uring", make_options(0, peers, false)) != nullptr;
#else
  return false;
#endif
}

/// The flood protocol: senders burst timestamped frames every tick;
/// receivers histogram the wall-clock delivery latency.
class Flood final : public Protocol {
 public:
  Flood(Env& env, bool sender, int burst, DurUs tick)
      : Protocol(env, protocol_ids::kBenchNet),
        sender_(sender),
        burst_(burst),
        tick_(tick) {}

  void start() override {
    if (sender_) arm();
  }

  void on_message(const Message& m) override {
    received_.fetch_add(1, std::memory_order_relaxed);
    if (const auto* sent = m.as<std::int64_t>()) {
      latency_.observe(wall_us() - *sent);
    }
  }

  [[nodiscard]] std::int64_t received() const {
    return received_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const obs::Histogram& latency() const { return latency_; }

 private:
  void arm() {
    env_.set_timer(tick_, [this] {
      for (ProcessId q = 0; q < env_.n(); ++q) {
        if (q == env_.self()) continue;
        for (int i = 0; i < burst_; ++i) {
          env_.send(q, Message::make<std::int64_t>(protocol_id(), 1,
                                                   "bench.frame", wall_us()));
        }
      }
      arm();
    });
  }

  bool sender_;
  int burst_;
  DurUs tick_;
  std::atomic<std::int64_t> received_{0};
  obs::Histogram latency_;
};

/// Summed log2 buckets across receivers, for percentile extraction.
struct MergedHist {
  std::int64_t buckets[obs::Histogram::kBuckets]{};
  std::int64_t total{0};

  void add(const obs::Histogram& h) {
    for (int b = 0; b < obs::Histogram::kBuckets; ++b) {
      const std::int64_t c = h.bucket_count(b);
      buckets[b] += c;
      total += c;
    }
  }

  /// Percentile estimate: the lower bound of the bucket where the
  /// cumulative count crosses q (power-of-two resolution by design).
  [[nodiscard]] std::int64_t percentile(double q) const {
    if (total == 0) return 0;
    const auto target = static_cast<std::int64_t>(q * static_cast<double>(total));
    std::int64_t cum = 0;
    for (int b = 0; b < obs::Histogram::kBuckets; ++b) {
      cum += buckets[b];
      if (cum > target) return obs::Histogram::bucket_lower(b);
    }
    return obs::Histogram::bucket_lower(obs::Histogram::kBuckets - 1);
  }
};

std::int64_t sum_peer_counters(obs::MetricsRegistry& m, const char* prefix,
                               int n) {
  std::int64_t total = 0;
  for (int q = 0; q < n; ++q) {
    total += m.get(std::string(prefix) + ".p" + std::to_string(q));
  }
  return total;
}

struct FloodResult {
  bool available{false};
  std::int64_t frames{0};
  double frames_per_s{0};
  std::int64_t p50_us{0};
  std::int64_t p99_us{0};
  double dgrams_per_frame{0};
};

/// Runs an n-node flood (node 0..n-1 all send when n > 2; for the pair
/// case only node 0 sends) for \p dur and aggregates delivery stats.
FloodResult run_flood(const Combo& combo, int n, std::uint16_t base_port,
                      int burst, DurUs dur) {
  FloodResult r;
  std::vector<std::unique_ptr<DgramEnv>> envs;
  std::vector<Flood*> floods;
  const auto peers = loopback_peers(n, base_port);
  for (ProcessId p = 0; p < n; ++p) {
    auto env = make_exact(combo.backend, make_options(p, peers, combo.coalesce));
    if (env == nullptr) return r;  // unavailable
    const bool sender = n > 2 || p == 0;
    // tick 0 re-arms every event-loop iteration: the send rate adapts to
    // whatever the backend can actually move (saturation, not pacing).
    floods.push_back(&env->emplace<Flood>(sender, burst, 0));
    envs.push_back(std::move(env));
  }
  r.available = true;

  for (auto& e : envs) e->start();
  std::vector<std::thread> threads;
  threads.reserve(envs.size());
  for (auto& e : envs) {
    threads.emplace_back([&e, dur] { e->run_for(dur); });
  }
  for (auto& t : threads) t.join();

  std::int64_t dgrams = 0;
  std::int64_t sent_frames = 0;
  MergedHist merged;  // latency percentiles over every receiver
  for (std::size_t i = 0; i < envs.size(); ++i) {
    r.frames += floods[i]->received();
    merged.add(floods[i]->latency());
    dgrams += sum_peer_counters(envs[i]->metrics(), "net.dgram_sent", n);
    sent_frames += sum_peer_counters(envs[i]->metrics(), "net.sent", n);
  }
  r.frames_per_s =
      static_cast<double>(r.frames) / (static_cast<double>(dur) / 1e6);
  r.p50_us = merged.percentile(0.50);
  r.p99_us = merged.percentile(0.99);
  r.dgrams_per_frame = sent_frames > 0 ? static_cast<double>(dgrams) /
                                             static_cast<double>(sent_frames)
                                       : 0;
  return r;
}

struct AblationResult {
  bool available{false};
  double dgrams_per_peer_tick{0};
  double detect_ms{0};
};

/// E11: EfficientP at a fixed heartbeat period; steady-state wire cost and
/// crash-detection latency, with and without coalescing.
AblationResult run_ablation(const Combo& combo, std::uint16_t base_port,
                            DurUs period, DurUs steady, DurUs detect_deadline) {
  AblationResult r;
  const int n = 4;
  std::vector<std::unique_ptr<DgramEnv>> envs;
  std::vector<fd::EfficientP*> fds;
  const auto peers = loopback_peers(n, base_port);
  for (ProcessId p = 0; p < n; ++p) {
    auto env = make_exact(combo.backend, make_options(p, peers, combo.coalesce));
    if (env == nullptr) return r;
    fd::EfficientP::Config c;
    c.period = period;
    c.initial_timeout = 4 * period;
    c.timeout_increment = 2 * period;
    fds.push_back(&env->emplace<fd::EfficientP>(c));
    envs.push_back(std::move(env));
  }
  r.available = true;

  for (auto& e : envs) e->start();

  const ProcessId victim = n - 1;
  std::vector<std::thread> threads;
  std::atomic<bool> victim_alive{true};
  std::atomic<std::int64_t> crash_at{0};
  std::atomic<std::int64_t> detected_at{0};
  for (ProcessId p = 0; p < n; ++p) {
    DgramEnv* e = envs[static_cast<std::size_t>(p)].get();
    if (p == victim) {
      threads.emplace_back([e, &victim_alive] {
        while (victim_alive.load()) e->run_for(msec(20));
      });
    } else if (p == 0) {
      // Node 0 watches for the crash on its OWN loop thread, so reading
      // the (single-writer, unsynchronized) suspicion list is race-free.
      fd::EfficientP* watcher = fds[0];
      threads.emplace_back([e, watcher, victim, &crash_at, &detected_at,
                            steady, detect_deadline] {
        e->run_until(
            [watcher, victim, &crash_at, &detected_at] {
              if (crash_at.load() == 0) return false;
              if (!watcher->suspected().contains(victim)) return false;
              detected_at.store(wall_us());
              return true;
            },
            steady + detect_deadline);
      });
    } else {
      threads.emplace_back([e, steady, detect_deadline] {
        e->run_for(steady + detect_deadline);
      });
    }
  }

  std::this_thread::sleep_for(std::chrono::microseconds(steady));
  // Wire cost while everyone was alive, normalized per peer per tick
  // (metrics cells are atomics; cross-thread reads are safe).
  const double ticks =
      static_cast<double>(steady) / static_cast<double>(period);
  std::int64_t dgrams = 0;
  for (auto& e : envs) {
    dgrams += sum_peer_counters(e->metrics(), "net.dgram_sent", n);
  }
  r.dgrams_per_peer_tick = static_cast<double>(dgrams) /
                           (static_cast<double>(n) *
                            static_cast<double>(n - 1) * ticks);

  // Crash the victim; detection latency = until node 0 suspects it.
  victim_alive.store(false);
  crash_at.store(wall_us());
  for (auto& t : threads) t.join();
  r.detect_ms = detected_at.load() > 0
                    ? static_cast<double>(detected_at.load() -
                                          crash_at.load()) / 1000.0
                    : -1;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bench::init(argc, argv, "bench_net", "ecfd.bench_net.v1");
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") quick = true;
  }

  const bool have_uring = uring_available();
  std::cout << "bench_net: io_uring "
            << (have_uring ? "available" : "UNAVAILABLE (rows marked 0)")
            << "\n";

  const DurUs flood_dur = quick ? msec(300) : msec(2000);
  const DurUs steady = quick ? msec(400) : msec(2000);
  const int burst = 32;

  bench::section("pair_throughput");
  {
    bench::Table t({"backend", "coalesce", "available", "frames",
                    "frames_per_s", "p50_us", "p99_us"});
    t.print_header();
    std::uint16_t base = 23000;
    for (const Combo& c : kCombos) {
      FloodResult r;
      if (std::strcmp(c.backend, "poll") == 0 || have_uring) {
        r = run_flood(c, 2, base, burst, flood_dur);
      }
      t.print_row(c.backend, c.coalesce ? 1 : 0, r.available ? 1 : 0,
                  r.frames, r.frames_per_s, r.p50_us, r.p99_us);
      base += 8;
    }
  }

  bench::section("storm");
  {
    bench::Table t({"backend", "coalesce", "available", "nodes", "frames",
                    "frames_per_s", "dgrams_per_frame"});
    t.print_header();
    const int n = 4;
    std::uint16_t base = 23100;
    for (const Combo& c : kCombos) {
      FloodResult r;
      if (std::strcmp(c.backend, "poll") == 0 || have_uring) {
        r = run_flood(c, n, base, burst, flood_dur);
      }
      t.print_row(c.backend, c.coalesce ? 1 : 0, r.available ? 1 : 0, n,
                  r.frames, r.frames_per_s, r.dgrams_per_frame);
      base += 8;
    }
  }

  bench::section("coalescing_ablation");
  {
    bench::Table t({"backend", "coalesce", "available", "period_ms",
                    "dgrams_per_peer_tick", "detect_ms"});
    t.print_header();
    const DurUs period = msec(20);
    std::uint16_t base = 23200;
    for (const Combo& c : kCombos) {
      AblationResult r;
      if (std::strcmp(c.backend, "poll") == 0 || have_uring) {
        r = run_ablation(c, base, period, steady, sec(5));
      }
      t.print_row(c.backend, c.coalesce ? 1 : 0, r.available ? 1 : 0,
                  period / 1000, r.dgrams_per_peer_tick, r.detect_ms);
      base += 8;
    }
  }

  return bench::finish();
}
