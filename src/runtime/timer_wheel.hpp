#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/inplace_action.hpp"
#include "sim/time.hpp"

/// \file timer_wheel.hpp
/// Hierarchical timing wheel with O(1) schedule and O(1) true cancellation.
///
/// Each worker of the sharded threaded runtime owns one wheel holding every
/// deferred action of its hosts: protocol timers and delayed message
/// deliveries alike. The design replaces the old runtime's
/// priority_queue + cancelled-tombstone-set pair, which (a) cost O(log n)
/// per operation under contention and (b) leaked a set entry whenever an
/// already-fired timer was cancelled.
///
/// Structure: kLevels levels of kSlots slots each, 64 us per level-0 tick
/// (a level-0 lap is ~4 ms, the whole wheel spans ~18 minutes; deadlines
/// beyond the horizon park in the top level and re-cascade). Entries live
/// in a chunked slab — the same recipe as sim::EventQueue — with intrusive
/// doubly-linked slot lists, a free list, and generation-tagged handles,
/// so schedule/cancel/fire are allocation-free once the slab has grown to
/// the working-set size and a stale handle can never touch a recycled
/// slot. Cancellation unlinks the entry immediately: there is no tombstone
/// to leak and nothing to skip at fire time.
///
/// Firing rounds deadlines UP to the next tick boundary, so an action
/// never runs early; the worst lateness from bucketing is one tick (64 us)
/// plus however long the worker was busy.
///
/// Thread model: a wheel belongs to exactly one worker thread. All
/// cross-thread traffic goes through the hosts' mailboxes and reaches the
/// wheel only on the owning thread, so the wheel itself needs no locks.

namespace ecfd::runtime {

/// Generation-tagged handle of a scheduled entry; 0 is never returned.
using WheelHandle = std::uint64_t;

inline constexpr WheelHandle kInvalidWheelHandle = 0;

class TimerWheel {
 public:
  static constexpr int kTickShift = 6;  ///< 1 tick = 64 us
  static constexpr DurUs kTickUs = DurUs{1} << kTickShift;
  static constexpr int kLevelBits = 6;  ///< 64 slots per level
  static constexpr std::size_t kSlots = std::size_t{1} << kLevelBits;
  static constexpr int kLevels = 4;     ///< horizon 64us * 64^4 ≈ 17.9 min

  /// What the entry's action means to the executor: a plain deferred
  /// closure (message delivery, post_at) or a protocol timer, which the
  /// worker must also account against the host's live-timer counter.
  enum class Kind : std::uint8_t { kPost = 0, kTimer = 1 };

  explicit TimerWheel(TimeUs now_us);

  TimerWheel(const TimerWheel&) = delete;
  TimerWheel& operator=(const TimerWheel&) = delete;

  /// Schedules \p fn for host \p host at absolute time \p when_us (clamped
  /// to strictly-future; past deadlines fire on the next tick).
  WheelHandle schedule(TimeUs when_us, std::uint32_t host, Kind kind,
                       sim::InplaceAction fn);

  /// Cancels a pending entry, destroying its action immediately. Returns
  /// false for stale/fired/unknown handles — and never leaks bookkeeping
  /// for them (the regression the old runtime's tombstone set had).
  bool cancel(WheelHandle h);

  /// Advances wheel time to \p now_us, invoking
  /// `sink(host, kind, action)` for every entry that came due, in tick
  /// order. The sink may schedule and cancel freely (re-arming timers,
  /// sending messages); slots never move under it.
  template <class Sink>
  void advance(TimeUs now_us, Sink&& sink) {
    const std::uint64_t target = tick_floor(now_us);
    while (base_ < target) {
      if (live_ == 0) {
        base_ = target;
        return;
      }
      ++base_;
      const std::size_t idx0 = base_ & (kSlots - 1);
      if (idx0 == 0) cascade(1);
      if (bitmap_[0] & (std::uint64_t{1} << idx0)) expire(idx0, sink);
    }
  }

  /// Earliest wall-clock time (us) at which advance() could have work to
  /// do: exact for level-0 entries, a conservative cascade boundary for
  /// higher levels. kTimeNever when empty. Sleeping until this instant is
  /// always safe (never fires anything late beyond tick rounding).
  [[nodiscard]] TimeUs next_due() const;

  /// Live (scheduled, not yet fired or cancelled) entries.
  [[nodiscard]] std::size_t size() const { return live_; }

 private:
  static constexpr std::int32_t kNil = -1;       ///< list end
  static constexpr std::int32_t kFree = -2;      ///< on the free list
  static constexpr std::int32_t kDetached = -3;  ///< mid-fire, off any list

  struct Entry {
    std::uint64_t deadline{0};  ///< absolute tick
    std::uint32_t gen{1};
    std::uint32_t host{0};
    std::int32_t prev{kNil};
    std::int32_t next{kNil};
    std::int32_t list{kFree};  ///< slot id (level*kSlots+slot) or a k* state
    Kind kind{Kind::kPost};
    sim::InplaceAction fn{};
  };

  /// Chunked slab: entries never move, so actions can run in place and the
  /// slab can grow while a fire is in progress.
  class Slab {
   public:
    static constexpr std::size_t kChunkShift = 9;  // 512 entries / chunk
    static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkShift;
    static constexpr std::size_t kChunkMask = kChunkSize - 1;

    Entry& operator[](std::size_t i) {
      return chunks_[i >> kChunkShift][i & kChunkMask];
    }
    const Entry& operator[](std::size_t i) const {
      return chunks_[i >> kChunkShift][i & kChunkMask];
    }
    [[nodiscard]] std::size_t size() const { return size_; }

    std::size_t grow() {
      if (size_ == chunks_.size() * kChunkSize) {
        chunks_.push_back(std::make_unique<Entry[]>(kChunkSize));
      }
      return size_++;
    }

   private:
    std::vector<std::unique_ptr<Entry[]>> chunks_;
    std::size_t size_{0};
  };

  static std::uint64_t tick_floor(TimeUs us) {
    return static_cast<std::uint64_t>(us) >> kTickShift;
  }
  static std::uint64_t tick_ceil(TimeUs us) {
    return (static_cast<std::uint64_t>(us) + (kTickUs - 1)) >> kTickShift;
  }
  static TimeUs tick_to_us(std::uint64_t tick) {
    return static_cast<TimeUs>(tick << kTickShift);
  }
  static WheelHandle encode(std::int32_t index, std::uint32_t gen) {
    // Bit 63 stays clear (gen is truncated to 31 bits), so a handle is
    // also a non-negative int64 — the form kTimerSet/kTimerCancel events
    // record it in.
    return (static_cast<WheelHandle>(gen & 0x7fffffffu) << 32) |
           (static_cast<WheelHandle>(index) + 1);
  }

  /// Links entry \p e into the slot its deadline maps to relative to
  /// base_. Deadlines beyond the horizon park in the top level.
  void link(std::int32_t e);
  void unlink(std::int32_t e);
  void release(std::int32_t e);

  /// Re-distributes the level-\p level slot that base_ just reached into
  /// lower levels (recursing upward at each level's own wrap point).
  void cascade(int level);

  template <class Sink>
  void expire(std::size_t slot, Sink&& sink) {
    // Detach the whole chain first so cancel() from inside an action sees
    // kDetached and neuters (rather than unlinks) chain members.
    std::int32_t e = heads_[slot];
    heads_[slot] = kNil;
    bitmap_[0] &= ~(std::uint64_t{1} << slot);
    for (std::int32_t i = e; i != kNil; i = slab_[i].next) {
      slab_[i].list = kDetached;
    }
    while (e != kNil) {
      Entry& entry = slab_[e];
      const std::int32_t next = entry.next;
      if (entry.fn) {
        // Move the action out before running it: a self-cancel from inside
        // the action then sees an empty slot (and returns false) instead of
        // destroying the very callable that is executing.
        sim::InplaceAction fn = std::move(entry.fn);
        sink(entry.host, entry.kind, fn);
      }
      release(e);  // bumps the generation, staling outstanding handles
      e = next;
    }
  }

  Slab slab_;
  std::vector<std::int32_t> free_;
  std::int32_t heads_[kLevels * kSlots];
  std::uint64_t bitmap_[kLevels];
  std::uint64_t base_;  ///< last fully-processed tick
  std::size_t live_{0};
};

}  // namespace ecfd::runtime
