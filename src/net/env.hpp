#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/message.hpp"
#include "obs/recorder.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

/// \file env.hpp
/// The runtime environment a protocol instance runs in.
///
/// Protocols (failure detectors, transformations, consensus) are written
/// against this interface only, so the identical protocol code runs on the
/// deterministic discrete-event simulator (net/process_host.hpp) and on
/// UDP (transport/dgram_env.hpp). The process's protocol table lives here
/// too: every runtime registers, starts and dispatches to its protocols the
/// same way, so stack builders (consensus/fd_stacks.hpp, LogReplica) take
/// a plain Env&.

namespace ecfd {

/// Protocols name event kinds without the obs:: qualifier.
using obs::EventType;

class Protocol;

/// Handle for a pending timer.
using TimerId = std::uint64_t;

inline constexpr TimerId kInvalidTimer = 0;

/// Per-process runtime services, and the table of protocols the process
/// hosts.
class Env {
 public:
  virtual ~Env();

  /// Current time (virtual in simulation, wall-clock on UDP),
  /// microseconds.
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

  /// Registers a protocol instance; the env owns it. Protocol ids must be
  /// unique within a process, and registration ends when the protocols
  /// start.
  void add_protocol(std::unique_ptr<Protocol> proto);

  /// Constructs and registers a protocol of type P with (Env&, args...).
  template <class P, class... Args>
  P& emplace(Args&&... args) {
    auto owned = std::make_unique<P>(*this, std::forward<Args>(args)...);
    P& ref = *owned;
    add_protocol(std::move(owned));
    return ref;
  }

  /// The protocol registered under \p id (nullptr when absent).
  [[nodiscard]] Protocol* protocol(ProtocolId id) const;

  /// Runs Protocol::on_fd_change() on every registered protocol. A
  /// failure detector calls it the moment its output changes, and only
  /// then, so protocols that wait on that output act at once instead of
  /// on their next poll.
  void fd_changed();

  /// Backends call this at bind time (before protocol start) to attach the
  /// process's rings for host id \p host (rings must already exist — see
  /// Recorder::bind_hosts). Pass rec == nullptr to detach. Not thread-safe
  /// against concurrent record().
  void bind_obs(obs::Recorder* rec, int host) {
    obs_recorder_ = rec;
    obs_ring_ = rec == nullptr ? nullptr : &rec->ring(host);
    obs_state_ring_ = rec == nullptr ? nullptr : &rec->state_ring(host);
  }

 protected:
  /// Runs Protocol::start() on every registered protocol, in registration
  /// order.
  void start_protocols();
  [[nodiscard]] bool protocols_started() const { return started_; }

  /// Hands \p m to the protocol registered under m.protocol, recording
  /// kDeliver first. Returns false, delivering nothing, when no protocol
  /// has that id; the caller decides whether to count the drop. A body
  /// whose per-process fields do not fit n (wire::fits_universe) is
  /// dropped silently, before any on_message.
  bool dispatch(const Message& m);

 private:
  obs::Recorder* obs_recorder_{nullptr};
  obs::EventRing* obs_ring_{nullptr};
  obs::EventRing* obs_state_ring_{nullptr};
  std::vector<std::unique_ptr<Protocol>> protocols_;
  std::unordered_map<ProtocolId, Protocol*> by_id_;
  bool started_{false};
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

  /// Invoked when a failure detector on this process changed its output
  /// (Env::fd_changed). Stacks that do not notify leave it silent.
  virtual void on_fd_change() {}

  [[nodiscard]] ProtocolId protocol_id() const { return id_; }

 protected:
  Env& env_;

 private:
  ProtocolId id_;
};

}  // namespace ecfd
