#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "net/message.hpp"
#include "obs/recorder.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

/// \file env.hpp
/// The runtime environment a protocol instance runs in.
///
/// Protocols (failure detectors, transformations, consensus) are written
/// against this interface only, so the identical protocol code runs on the
/// deterministic discrete-event simulator (net/process_host.hpp) and on the
/// real threaded runtime (runtime/thread_env.hpp).

namespace ecfd {

/// Protocols name event kinds without the obs:: qualifier.
using obs::EventType;

/// Handle for a pending timer.
using TimerId = std::uint64_t;

inline constexpr TimerId kInvalidTimer = 0;

/// Per-process runtime services.
class Env {
 public:
  virtual ~Env() = default;

  /// Current time (virtual in simulation, wall-clock in the threaded
  /// runtime), microseconds.
  [[nodiscard]] virtual TimeUs now() const = 0;

  /// Sends \p m to process \p dst. The src field is stamped by the
  /// environment. Sending to self is allowed and delivered like any other
  /// message (with minimal delay).
  virtual void send(ProcessId dst, Message m) = 0;

  /// Arms a one-shot timer; \p fn runs in this process's context after
  /// \p delay. Returns an id usable with cancel_timer. Timers die silently
  /// when the process crashes.
  virtual TimerId set_timer(DurUs delay, std::function<void()> fn) = 0;

  /// Cancels a pending timer; ignores unknown/fired ids.
  virtual void cancel_timer(TimerId id) = 0;

  /// This process's id and the universe size n.
  [[nodiscard]] virtual ProcessId self() const = 0;
  [[nodiscard]] virtual int n() const = 0;

  /// Per-process deterministic random stream.
  virtual Rng& rng() = 0;

  /// Records a free-text note as a kNote event (tag and detail interned in
  /// the recorder; no-op unless recording). Cold paths only, and only for
  /// facts no typed event carries.
  virtual void trace(const std::string& tag, const std::string& detail) {
    if (!recording()) return;
    record(EventType::kNote, -1, obs_recorder_->intern(detail),
           obs_recorder_->intern(tag));
  }

  /// Sends \p m to every process except self.
  void broadcast(Message m) {
    for (ProcessId q = 0; q < n(); ++q) {
      if (q != self()) send(q, m);
    }
  }

  /// Records a typed observability event into this process's ring.
  /// Allocation-free, lock-free, and a literal no-op until a backend binds
  /// a ring (or permanently, when built with -DECFD_OBS_DISABLED). This is
  /// the hot-path hook protocols use for suspect/leader/decide events.
  void record(EventType type, std::int32_t a = -1, std::int64_t b = 0,
              std::int32_t label = -1) {
#if defined(ECFD_OBS_DISABLED)
    (void)type; (void)a; (void)b; (void)label;
#else
    if (obs_ring_ == nullptr) return;
    obs::EventRing* ring = obs::is_hot_event(type) ? obs_ring_ : obs_state_ring_;
    ring->push(now(), type, a, b, label);
#endif
  }

  /// True when events recorded here actually land somewhere.
  [[nodiscard]] bool recording() const {
#if defined(ECFD_OBS_DISABLED)
    return false;
#else
    return obs_ring_ != nullptr;
#endif
  }

  /// The recorder this env is bound to (nullptr when not recording); for
  /// cold-path label interning.
  [[nodiscard]] obs::Recorder* recorder() const { return obs_recorder_; }

  /// Backends call this at bind time (before protocol start) to attach the
  /// process's rings for host id \p host (rings must already exist — see
  /// Recorder::bind_hosts). Pass rec == nullptr to detach. Not thread-safe
  /// against concurrent record().
  void bind_obs(obs::Recorder* rec, int host) {
    obs_recorder_ = rec;
    obs_ring_ = rec == nullptr ? nullptr : &rec->ring(host);
    obs_state_ring_ = rec == nullptr ? nullptr : &rec->state_ring(host);
  }

 private:
  obs::Recorder* obs_recorder_{nullptr};
  obs::EventRing* obs_ring_{nullptr};
  obs::EventRing* obs_state_ring_{nullptr};
};

/// Base class for protocol instances hosted on a process.
class Protocol {
 public:
  Protocol(Env& env, ProtocolId id) : env_(env), id_(id) {}
  virtual ~Protocol() = default;

  Protocol(const Protocol&) = delete;
  Protocol& operator=(const Protocol&) = delete;

  /// Invoked once when the system starts.
  virtual void start() {}

  /// Invoked for every message addressed to this protocol id.
  virtual void on_message(const Message& m) = 0;

  [[nodiscard]] ProtocolId protocol_id() const { return id_; }

 protected:
  Env& env_;

 private:
  ProtocolId id_;
};

}  // namespace ecfd
