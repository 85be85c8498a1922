#include "net/process_host.hpp"

#include <cassert>
#include <utility>

namespace ecfd {

ProcessHost::ProcessHost(ProcessId id, int n, sim::Scheduler& sched,
                         Network& network, Rng rng)
    : id_(id), n_(n), sched_(sched), network_(network), rng_(rng) {}

void ProcessHost::add_protocol(std::unique_ptr<Protocol> proto) {
  assert(proto != nullptr);
  const ProtocolId pid = proto->protocol_id();
  assert(by_id_.find(pid) == by_id_.end() && "duplicate protocol id on host");
  by_id_.emplace(pid, proto.get());
  owned_.push_back(std::move(proto));
}

void ProcessHost::start() {
  for (auto& p : owned_) p->start();
}

void ProcessHost::crash() {
  if (crashed_) return;
  crashed_ = true;
  crash_time_ = sched_.now();
  for (TimerId t : live_timers_) sched_.cancel(t);
  live_timers_.clear();
  record(EventType::kCrash);
}

void ProcessHost::deliver(const Message& m) {
  if (crashed_) return;
  auto it = by_id_.find(m.protocol);
  if (it == by_id_.end()) return;  // no such protocol on this host
  record(EventType::kDeliver, m.src, m.protocol);
  it->second->on_message(m);
}

Protocol* ProcessHost::protocol(ProtocolId id) const {
  auto it = by_id_.find(id);
  return it == by_id_.end() ? nullptr : it->second;
}

void ProcessHost::set_gray(std::uint32_t factor_milli, DurUs send_extra) {
  if (crashed_) return;
  assert(factor_milli > 0);
  fault_.gray_factor_milli = factor_milli;
  fault_.gray_send_extra = send_extra;
}

void ProcessHost::set_clock_skew(std::int64_t offset_us,
                                 std::int32_t drift_ppm, DurUs bound_us) {
  if (crashed_) return;
  assert(drift_ppm > -1'000'000);
  fault_.skew_offset = offset_us;
  fault_.skew_drift_ppm = drift_ppm;
  fault_.skew_bound = bound_us;
  fault_.skew_since = sched_.now();
}

void ProcessHost::send(ProcessId dst, Message m) {
  if (crashed_) return;
  assert(dst >= 0 && dst < n_);
  m.src = id_;
  m.dst = dst;
  record(EventType::kSend, dst, m.protocol);
  if (fault_.gray_send_extra > 0) {
    // The gray NIC: the message leaves the protocol now but only enters
    // the network after the extra latency — unless the host crashed in
    // the meantime (a crash-stop host sends nothing after the crash).
    sched_.schedule_after(fault_.gray_send_extra, [this, m] {
      if (!crashed_) network_.send(m);
    });
    return;
  }
  network_.send(m);
}

TimerId ProcessHost::set_timer(DurUs delay, std::function<void()> fn) {
  if (crashed_) return kInvalidTimer;
  delay = fault_.timer_delay(delay);
  // The wrapper removes its own id from the live set when it fires; the
  // queue discloses the id it will assign, so the closure can carry it by
  // value instead of through a heap-allocated cell.
  const TimerId id = sched_.next_event_id();
  const sim::EventId got =
      sched_.schedule_after(delay, [this, id, fn = std::move(fn)]() {
        live_timers_.erase(id);
        if (!crashed_) fn();
      });
  assert(got == id && "scheduler id prediction out of sync");
  (void)got;
  live_timers_.insert(id);
  record(EventType::kTimerSet, -1, static_cast<std::int64_t>(id));
  return id;
}

void ProcessHost::cancel_timer(TimerId id) {
  if (id == kInvalidTimer) return;
  sched_.cancel(id);
  live_timers_.erase(id);
  record(EventType::kTimerCancel, -1, static_cast<std::int64_t>(id));
}

}  // namespace ecfd
