#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

/// \file metrics.hpp
/// The metrics registry: named counters, gauges, and log-bucketed latency
/// histograms, and the one counter store of the project. The simulator's
/// System counts its messages into one (every digest hashes those
/// counters), each UDP DgramEnv keeps one, and every tool exports one as
/// `ecfd.metrics.v1` JSON; ecfd_node also serves its registry over a
/// loopback HTTP endpoint.
///
/// Hot-path discipline: register once, keep the returned cell pointer,
/// bump it directly. Cells are std::atomic so that another thread (the
/// HTTP exporter, the crash flight recorder) can read them while the one
/// thread that owns the registry writes. A relaxed fetch_add is not a
/// plain add: on x86 it is a lock-prefixed read-modify-write. Registration
/// takes a mutex and may allocate — bind time, or once per new name. Cell
/// pointers stay valid for the registry's lifetime (map nodes do not
/// move).

namespace ecfd::obs {

/// A log2-bucketed histogram of non-negative integer observations
/// (microseconds by convention). Bucket i counts values in
/// [2^(i-1), 2^i); bucket 0 counts {0}; the last bucket is open-ended.
/// observe() is lock-free and allocation-free.
class Histogram {
 public:
  static constexpr int kBuckets = 48;

  void observe(std::int64_t v) {
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v < 0 ? 0 : v, std::memory_order_relaxed);
    buckets_[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
  }

  /// Bucket index of \p v: 0 for v<=0, else 1+floor(log2(v)), clamped.
  static int bucket_of(std::int64_t v) {
    if (v <= 0) return 0;
    int b = 1;
    while (v > 1 && b < kBuckets - 1) {
      v >>= 1;
      ++b;
    }
    return b;
  }

  /// Inclusive lower bound of bucket \p i (0, 1, 2, 4, 8, ...).
  static std::int64_t bucket_lower(int i) {
    if (i <= 0) return 0;
    return std::int64_t{1} << (i - 1);
  }

  [[nodiscard]] std::int64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t sum() const {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t bucket_count(int i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> count_{0};
  std::atomic<std::int64_t> sum_{0};
  std::atomic<std::int64_t> buckets_[kBuckets]{};
};

/// Named counters + gauges + histograms with stable-handle registration.
class MetricsRegistry {
 public:
  using Cell = std::atomic<std::int64_t>;

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Registers (or finds) a monotonic counter; the pointer stays valid for
  /// the registry's lifetime. Thread-safe; allocates on first use.
  Cell* counter(const std::string& name);

  /// Registers (or finds) a gauge (a settable level, not a monotonic sum).
  Cell* gauge(const std::string& name);

  /// Registers (or finds) a histogram.
  Histogram* histogram(const std::string& name);

  /// Convenience slow paths (lookup per call).
  void add(const std::string& name, std::int64_t delta = 1) {
    counter(name)->fetch_add(delta, std::memory_order_relaxed);
  }
  void set_gauge(const std::string& name, std::int64_t v) {
    gauge(name)->store(v, std::memory_order_relaxed);
  }
  void observe(const std::string& name, std::int64_t v) {
    histogram(name)->observe(v);
  }

  /// Counter value; 0 for unknown names. (Gauges live in a separate
  /// namespace; use gauge_value.)
  [[nodiscard]] std::int64_t get(const std::string& name) const;
  [[nodiscard]] std::int64_t gauge_value(const std::string& name) const;

  /// Calls \p fn(name, value) for every counter, in name order, under the
  /// registry mutex (so \p fn must not call back into the registry).
  template <class Fn>
  void for_each_counter(Fn&& fn) const {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, cell] : counters_) {
      fn(name, cell.load(std::memory_order_relaxed));
    }
  }

  /// Writes the registry as an ecfd.metrics.v1 JSON document. Keys are
  /// sorted: same contents => byte-identical bytes.
  void write_json(std::ostream& os, const std::string& source) const;

  /// Plain-text exposition (one "counter|gauge|histogram NAME ..." line
  /// each, sorted), served by the ecfd_node --metrics-port endpoint.
  void write_text(std::ostream& os) const;

  /// Prometheus text exposition format (version 0.0.4): dots in names
  /// become underscores, counters gain a _total suffix, histograms expand
  /// into cumulative `le` buckets plus _sum/_count. Served by ecfd_node at
  /// GET /metrics so a stock Prometheus scraper can ingest the registry.
  void write_prometheus(std::ostream& os) const;

  /// A stable reference to one scalar cell, for exporters that must read
  /// values without taking the registry mutex (the crash flight recorder's
  /// signal handler). Pointers stay valid for the registry's lifetime.
  struct CellRef {
    std::string name;
    const Cell* cell{nullptr};
    bool is_gauge{false};
  };

  /// Snapshot of every counter and gauge cell, name-sorted within each
  /// kind (counters first). Takes the mutex; call at bind/snapshot time,
  /// then read the returned pointers lock-free.
  [[nodiscard]] std::vector<CellRef> cells() const;

 private:
  mutable std::mutex mu_;  ///< guards registration and iteration
  std::map<std::string, Cell> counters_;
  std::map<std::string, Cell> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace ecfd::obs
