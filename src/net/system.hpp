#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "net/network.hpp"
#include "net/process_host.hpp"
#include "obs/recorder.hpp"
#include "sim/scheduler.hpp"
#include "sim/stats.hpp"

/// \file system.hpp
/// The top-level simulation harness: scheduler + network + n process hosts
/// + crash scheduling. Tests, benches and examples all drive a System.

namespace ecfd {

class System {
 public:
  /// Creates a system of \p n processes, fully seeded from \p seed.
  System(int n, std::uint64_t seed);

  [[nodiscard]] int n() const { return n_; }

  sim::Scheduler& scheduler() { return sched_; }
  Network& network() { return network_; }
  sim::Counters& counters() { return counters_; }

  /// Attaches a typed event recorder: binds one ring per host (and stamps
  /// the recorder's meta as a virtual-clock "sim" source). Call before
  /// start(); pass nullptr to detach.
  void attach_recorder(obs::Recorder* rec);
  [[nodiscard]] obs::Recorder* recorder() const { return recorder_; }

  ProcessHost& host(ProcessId p) { return *hosts_[static_cast<std::size_t>(p)]; }
  [[nodiscard]] const ProcessHost& host(ProcessId p) const {
    return *hosts_[static_cast<std::size_t>(p)];
  }

  /// Installs one protocol instance per process using \p factory, which
  /// receives the process's Env. Returns the raw pointers (owned by hosts)
  /// indexed by process id.
  template <class P>
  std::vector<P*> install(
      const std::function<std::unique_ptr<P>(Env&, ProcessId)>& factory) {
    std::vector<P*> out;
    out.reserve(static_cast<std::size_t>(n_));
    for (ProcessId p = 0; p < n_; ++p) {
      auto proto = factory(host(p), p);
      out.push_back(proto.get());
      host(p).add_protocol(std::move(proto));
    }
    return out;
  }

  /// Starts every host's protocol stack. Call after installing protocols
  /// and configuring links.
  void start();

  /// Schedules a crash-stop of process \p p at virtual time \p at.
  void crash_at(ProcessId p, TimeUs at);

  /// Crashes \p p immediately.
  void crash_now(ProcessId p);

  /// The set of processes not (yet) crashed.
  [[nodiscard]] ProcessSet alive() const;

  /// The set of processes that have crashed so far.
  [[nodiscard]] ProcessSet crashed() const;

  /// Advances virtual time, executing all events up to \p deadline.
  void run_until(TimeUs deadline) { sched_.run_until(deadline); }

  /// Advances virtual time by \p d from now.
  void run_for(DurUs d) { sched_.run_until(sched_.now() + d); }

  [[nodiscard]] TimeUs now() const { return sched_.now(); }

 private:
  int n_;
  sim::Scheduler sched_;
  sim::Counters counters_;
  Rng master_rng_;
  Network network_;
  std::vector<std::unique_ptr<ProcessHost>> hosts_;
  obs::Recorder* recorder_{nullptr};
  bool started_{false};
};

}  // namespace ecfd
