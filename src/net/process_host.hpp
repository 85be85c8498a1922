#pragma once

#include <unordered_set>

#include "net/env.hpp"
#include "net/faults.hpp"
#include "net/network.hpp"
#include "sim/scheduler.hpp"

/// \file process_host.hpp
/// A simulated process: hosts a stack of protocol instances, implements Env
/// for them, and models crash-stop failures (Section 2.1 — a crashed
/// process permanently stops sending, receiving and executing timers).

namespace ecfd {

class ProcessHost final : public Env {
 public:
  ProcessHost(ProcessId id, int n, sim::Scheduler& sched, Network& network,
              Rng rng);

  /// Starts every registered protocol (in registration order).
  void start() { start_protocols(); }

  /// Crash-stop: irreversibly silences the process.
  void crash();
  [[nodiscard]] bool crashed() const { return crashed_; }
  [[nodiscard]] TimeUs crash_time() const { return crash_time_; }

  /// Delivers an inbound message to the protocol registered under
  /// m.protocol. Messages for crashed hosts or unknown protocols are
  /// dropped.
  void deliver(const Message& m) {
    if (!crashed_) dispatch(m);
  }

  // --- fault-model knobs (check/ scenario pack) ----------------------

  /// Gray failure: the process stays alive but runs slow. Timer delays are
  /// stretched by factor_milli/1000 (1000 = normal speed) and every
  /// outbound message sits an extra `send_extra` in the "NIC" before
  /// entering the network. set_gray(1000, 0) restores normal operation.
  /// Timers armed before the change keep their original deadline; the
  /// protocols' self-rearming timers pick the factor up on the next arm,
  /// which is exactly the creep a degraded-but-alive host exhibits.
  void set_gray(std::uint32_t factor_milli, DurUs send_extra);
  [[nodiscard]] bool gray() const { return fault_.gray(); }

  /// Clock skew: the local clock reads true time + offset + drift, where
  /// drift accumulates at drift_ppm from the moment of the call. The total
  /// error is clamped to +-bound_us when bound_us > 0 — the scenario
  /// injector always passes the bound it declared to the monitors, so a
  /// well-formed schedule can never exceed it (bound_us == 0 leaves the
  /// skew unclamped; only mutation tests use that). Local-duration timer
  /// delays are drift-scaled: a fast clock fires its timers early.
  void set_clock_skew(std::int64_t offset_us, std::int32_t drift_ppm,
                      DurUs bound_us);
  void clear_clock_skew() { set_clock_skew(0, 0, 0); }

  /// Signed local-minus-true clock error right now (0 without skew).
  [[nodiscard]] std::int64_t clock_error() const {
    return fault_.clock_error(sched_.now());
  }

  // --- Env interface -------------------------------------------------
  [[nodiscard]] TimeUs now() const override {
    return sched_.now() + clock_error();
  }
  void send(ProcessId dst, Message m) override;
  TimerId set_timer(DurUs delay, std::function<void()> fn) override;
  void cancel_timer(TimerId id) override;
  [[nodiscard]] ProcessId self() const override { return id_; }
  [[nodiscard]] int n() const override { return n_; }
  Rng& rng() override { return rng_; }

 private:
  ProcessId id_;
  int n_;
  sim::Scheduler& sched_;
  Network& network_;
  Rng rng_;
  bool crashed_{false};
  TimeUs crash_time_{kTimeNever};
  FaultSpec fault_;
  std::unordered_set<TimerId> live_timers_;
};

}  // namespace ecfd
