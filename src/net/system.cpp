#include "net/system.hpp"

#include <cassert>

namespace ecfd {

System::System(int n, std::uint64_t seed)
    : n_(n),
      master_rng_(seed),
      network_(sched_, n, master_rng_.split(), counters_) {
  assert(n > 0);
  hosts_.reserve(static_cast<std::size_t>(n));
  for (ProcessId p = 0; p < n; ++p) {
    hosts_.push_back(std::make_unique<ProcessHost>(
        p, n, sched_, network_, master_rng_.split()));
  }
  network_.set_sink([this](const Message& m) {
    hosts_[static_cast<std::size_t>(m.dst)]->deliver(m);
  });
}

void System::attach_recorder(obs::Recorder* rec) {
  recorder_ = rec;
  network_.set_recorder(rec);
  if (rec == nullptr) {
    for (auto& h : hosts_) h->bind_obs(nullptr, -1);
    return;
  }
  rec->meta().source = "sim";
  rec->meta().clock = obs::ClockDomain::kVirtual;
  rec->meta().wall_epoch_us = 0;
  rec->bind_hosts(n_);
  for (ProcessId p = 0; p < n_; ++p) {
    hosts_[static_cast<std::size_t>(p)]->bind_obs(rec, p);
  }
}

void System::start() {
  assert(!started_ && "System::start called twice");
  started_ = true;
  for (auto& h : hosts_) h->start();
}

void System::crash_at(ProcessId p, TimeUs at) {
  assert(p >= 0 && p < n_);
  sched_.schedule_at(at, [this, p]() { hosts_[static_cast<std::size_t>(p)]->crash(); });
}

void System::crash_now(ProcessId p) {
  assert(p >= 0 && p < n_);
  hosts_[static_cast<std::size_t>(p)]->crash();
}

ProcessSet System::alive() const {
  ProcessSet s(n_);
  for (ProcessId p = 0; p < n_; ++p) {
    if (!hosts_[static_cast<std::size_t>(p)]->crashed()) s.add(p);
  }
  return s;
}

ProcessSet System::crashed() const {
  ProcessSet s(n_);
  for (ProcessId p = 0; p < n_; ++p) {
    if (hosts_[static_cast<std::size_t>(p)]->crashed()) s.add(p);
  }
  return s;
}

}  // namespace ecfd
