#pragma once

#include <cstdint>

#include "sim/time.hpp"

/// \file event.hpp
/// The typed event schema of the unified observability layer.
///
/// Both Env backends (the deterministic simulator and the UDP DgramEnv)
/// record the same fixed-size binary events into per-host
/// rings (obs/recorder.hpp), so a suspicion flap on real sockets and the
/// same flap in the simulator land in one format and merge into one
/// timeline (obs/timeline.hpp). Events are PODs: recording is a handful of
/// atomic stores, never an allocation, and compiles to nothing when the
/// library is built with -DECFD_OBS_DISABLED.

namespace ecfd::obs {

/// Compile-time event kinds. The numeric values are part of the
/// ecfd.trace.v1 on-disk format — append, never renumber.
enum class EventType : std::uint8_t {
  kNone = 0,         ///< empty slot (never emitted)
  kSend = 1,         ///< a = destination, b = protocol id
  kDeliver = 2,      ///< a = source,      b = protocol id
  kTimerSet = 3,     ///< a = -1,          b = timer id
  kTimerCancel = 4,  ///< a = -1,          b = timer id
  kSuspect = 5,      ///< a = suspected process
  kUnsuspect = 6,    ///< a = unsuspected process
  kLeaderChange = 7, ///< a = new trusted leader
  kRoundStart = 8,   ///< a = round number
  kDecide = 9,       ///< a = round number, b = decided value
  kCrash = 10,       ///< this host crash-stopped
  kDrop = 11,        ///< a = destination, message dropped before the wire
  kVerdict = 12,     ///< a = VerdictState, label = property name
  kNote = 13,        ///< label = tag, b = interned detail (Env::trace text)
  kLeaseGrant = 14,  ///< kv leader lease established; b = lease term
  kLeaseRevoke = 15, ///< kv leader lease lost;        b = lease term
  kWireSend = 16,    ///< frame left for the wire; a = dst, b = causal seq
  kWireDeliver = 17, ///< frame arrived off the wire; a = src, b = origin seq
};

inline constexpr int kNumEventTypes = 18;

/// High-frequency per-message/per-timer events. These go to a host's "hot"
/// ring; everything else (suspicions, leader changes, rounds, decides,
/// crashes, verdicts, notes) goes to a separate "state" ring so that rare
/// protocol transitions are never evicted by message churn.
constexpr bool is_hot_event(EventType t) {
  return (t >= EventType::kSend && t <= EventType::kTimerCancel) ||
         t == EventType::kDrop || t == EventType::kWireSend ||
         t == EventType::kWireDeliver;
}

/// Stable wire/rendering name of an event type ("suspect", "decide", ...).
const char* event_type_name(EventType t);

/// One recorded observation. `host` is the recording process (-1 for
/// system-level observers such as property monitors); `label` indexes the
/// recorder's interned string table (-1 = none). The meaning of `a`/`b` is
/// per-type, documented on EventType.
struct Event {
  TimeUs time{0};
  std::int32_t host{-1};
  std::int32_t a{-1};
  std::int64_t b{0};
  std::int32_t label{-1};
  EventType type{EventType::kNone};
};

}  // namespace ecfd::obs
