#pragma once

#include <atomic>
#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "obs/event.hpp"

/// \file recorder.hpp
/// The typed event recorder shared by every Env backend.
///
/// A Recorder owns one fixed-size EventRing per host plus one system ring
/// for observers that are not a process (property monitors). Rings are
/// preallocated at bind time; recording an event is a relaxed fetch_add on
/// the ring head plus a few relaxed atomic stores into the slot — no locks,
/// no allocation, safe to call from the env's own thread or (for the rare
/// cross-thread producer) from any thread, because every slot field is an
/// atomic. A reader that snapshots a
/// ring while a writer is mid-slot may see a torn *event* (fields from two
/// writes) but never torn *fields* and never undefined behaviour; callers
/// that need exact snapshots (tests, the merge tools) read at quiescence.
///
/// Overflow policy: the ring keeps the newest `depth` events and counts the
/// overwritten ones (`dropped()`), so a long run degrades to "recent
/// history per host" instead of unbounded memory.
///
/// Strings never enter the hot path: an event carries an optional interned
/// id into the recorder's string table. Interning takes a mutex and may
/// allocate — it is for cold paths (verdict transitions, Env::trace text)
/// and one-time label registration.

namespace ecfd::obs {

/// Fixed-capacity multi-producer event ring. Capacity is rounded up to a
/// power of two.
class EventRing {
 public:
  EventRing() = default;

  /// Allocates the slot array; not thread-safe (bind-time only).
  void init(std::int32_t host, std::size_t depth);

  [[nodiscard]] bool enabled() const { return !slots_.empty(); }
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }
  [[nodiscard]] std::int32_t host() const { return host_; }

  /// Records one event. Lock-free and allocation-free; callable from any
  /// thread. No-op on an uninitialized ring.
  void push(TimeUs time, EventType type, std::int32_t a = -1,
            std::int64_t b = 0, std::int32_t label = -1) {
    if (slots_.empty()) return;
    const std::uint64_t seq = head_.fetch_add(1, std::memory_order_relaxed);
    Slot& s = slots_[static_cast<std::size_t>(seq) & mask_];
    s.time.store(time, std::memory_order_relaxed);
    s.a.store(a, std::memory_order_relaxed);
    s.b.store(b, std::memory_order_relaxed);
    s.label.store(label, std::memory_order_relaxed);
    s.type.store(static_cast<std::uint8_t>(type), std::memory_order_release);
  }

  /// Events ever pushed (including overwritten ones).
  [[nodiscard]] std::uint64_t pushed() const {
    return head_.load(std::memory_order_acquire);
  }

  /// Events lost to ring overwrite so far.
  [[nodiscard]] std::uint64_t dropped() const {
    const std::uint64_t n = pushed();
    return n > capacity() ? n - capacity() : 0;
  }

  /// Copies the retained events oldest-first, paired with their global
  /// per-ring sequence numbers. Exact at quiescence; see file comment for
  /// concurrent-read semantics.
  void snapshot(std::vector<Event>* out,
                std::vector<std::uint64_t>* seqs = nullptr) const;

  /// One raw slot, POD-packed for the flight recorder's mmap image
  /// (obs/flight.hpp). 32 bytes, naturally aligned, endian-native.
  struct RawEvent {
    TimeUs time{0};
    std::int64_t b{0};
    std::int32_t a{-1};
    std::int32_t label{-1};
    std::uint32_t type{0};
    std::uint32_t pad{0};
  };

  /// Async-signal-safe bounded copy: writes min(capacity, cap) slots in
  /// RING-INDEX order (not time order — the returned head counter lets the
  /// reader reconstruct the sequence) into \p out. No locks, no
  /// allocation; relaxed atomic loads only. Returns pushed().
  std::uint64_t copy_raw(RawEvent* out, std::size_t cap) const {
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    const std::size_t count = std::min(slots_.size(), cap);
    for (std::size_t i = 0; i < count; ++i) {
      const Slot& s = slots_[i];
      RawEvent& e = out[i];
      e.time = s.time.load(std::memory_order_relaxed);
      e.b = s.b.load(std::memory_order_relaxed);
      e.a = s.a.load(std::memory_order_relaxed);
      e.label = s.label.load(std::memory_order_relaxed);
      e.type = s.type.load(std::memory_order_relaxed);
      e.pad = 0;
    }
    return head;
  }

 private:
  struct Slot {
    std::atomic<TimeUs> time{0};
    std::atomic<std::int64_t> b{0};
    std::atomic<std::int32_t> a{-1};
    std::atomic<std::int32_t> label{-1};
    std::atomic<std::uint8_t> type{0};
  };

  std::int32_t host_{-1};
  std::uint64_t mask_{0};
  std::atomic<std::uint64_t> head_{0};
  std::vector<Slot> slots_;
};

/// Where a trace came from, for clock calibration at merge time.
enum class ClockDomain {
  kVirtual,    ///< deterministic simulator: virtual microseconds
  kMonotonic,  ///< wall-clock backends: microseconds since a local epoch
};

/// Per-recorder export metadata, embedded in ecfd.trace.v1 files so
/// tools/ecfd_trace can align traces from different OS processes.
struct TraceMeta {
  std::string source{"sim"};            ///< "sim" | "socket"
  ClockDomain clock{ClockDomain::kVirtual};
  /// CLOCK_REALTIME microseconds at recorder creation; lets ecfd_trace
  /// align monotonic traces recorded by different OS processes. 0 for
  /// virtual time.
  std::int64_t wall_epoch_us{0};
};

/// Two event rings per host (hot: send/deliver/timer churn; state: rare
/// protocol transitions — see is_hot_event) plus a system ring, a string
/// table, and the ecfd.trace.v1 writer. The split guarantees a suspicion
/// or decide event survives however many heartbeats follow it.
class Recorder {
 public:
  /// \p depth is the per-host hot-ring capacity (rounded up to a power of
  /// two); state rings get min(depth, kStateDepth). Host rings are created
  /// lazily by bind_hosts(), so a Recorder can be constructed before the
  /// universe size is known.
  explicit Recorder(std::size_t depth);

  /// State-ring capacity cap: transitions are rare, so a modest ring holds
  /// the full story even when the hot depth is large.
  static constexpr std::size_t kStateDepth = 1024;

  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  /// Ensures rings exist for hosts [0, n). Not thread-safe; call at
  /// bind time, before any concurrent push.
  void bind_hosts(int n);

  [[nodiscard]] int hosts() const { return static_cast<int>(rings_.size()); }
  [[nodiscard]] std::size_t depth() const { return depth_; }

  /// Hot ring of host \p p (must be < hosts()).
  [[nodiscard]] EventRing& ring(int p) { return rings_[static_cast<std::size_t>(p)]->hot; }
  [[nodiscard]] const EventRing& ring(int p) const {
    return rings_[static_cast<std::size_t>(p)]->hot;
  }

  /// State ring of host \p p (rare protocol transitions).
  [[nodiscard]] EventRing& state_ring(int p) {
    return rings_[static_cast<std::size_t>(p)]->state;
  }
  [[nodiscard]] const EventRing& state_ring(int p) const {
    return rings_[static_cast<std::size_t>(p)]->state;
  }

  /// Ring for non-process observers (monitors); events carry host = -1.
  [[nodiscard]] EventRing& system_ring() { return system_ring_; }
  [[nodiscard]] const EventRing& system_ring() const { return system_ring_; }

  /// Interns \p s, returning its stable id. Thread-safe; may allocate —
  /// cold paths only.
  std::int32_t intern(std::string_view s);

  /// Resolves an interned id ("" for -1/unknown). Thread-safe.
  [[nodiscard]] std::string string_at(std::int32_t id) const;

  /// Snapshot of the interned table, index = id.
  [[nodiscard]] std::vector<std::string> strings() const;

  /// Every retained event from every ring, merged into one causal order:
  /// sorted by (time, host, per-ring sequence). Within one recorder all
  /// rings share a clock, so timestamp order IS causal order up to the
  /// clock's resolution; ties break deterministically.
  [[nodiscard]] std::vector<Event> merged() const;

  /// Total events lost to ring overwrite, across rings.
  [[nodiscard]] std::uint64_t dropped_total() const;

  TraceMeta& meta() { return meta_; }
  [[nodiscard]] const TraceMeta& meta() const { return meta_; }

  /// Writes the whole recorder as an ecfd.trace.v1 JSON document. The
  /// output is deterministic: same events + strings => byte-identical
  /// bytes.
  void write_trace_json(std::ostream& os) const;

 private:
  struct HostRings {
    EventRing hot;
    EventRing state;
  };

  std::size_t depth_;
  TraceMeta meta_;
  std::vector<std::unique_ptr<HostRings>> rings_;
  EventRing system_ring_;

  mutable std::mutex strings_mu_;
  std::vector<std::string> strings_;
  std::map<std::string, std::int32_t, std::less<>> string_ids_;
};

}  // namespace ecfd::obs
