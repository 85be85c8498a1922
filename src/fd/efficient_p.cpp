#include "fd/efficient_p.hpp"

namespace ecfd::fd {

EfficientP::EfficientP(Env& env) : EfficientP(env, Config{}) {}

EfficientP::EfficientP(Env& env, Config cfg)
    : Protocol(env, protocol_ids::kEfficientP),
      cfg_(cfg),
      candidate_susp_(env.n()),
      local_list_(env.n()),
      adopted_(env.n()),
      last_heard_(static_cast<std::size_t>(env.n()), 0),
      last_alive_(static_cast<std::size_t>(env.n()), 0),
      beat_timeout_(static_cast<std::size_t>(env.n()), cfg.initial_timeout),
      alive_timeout_(static_cast<std::size_t>(env.n()), cfg.initial_timeout) {}

void EfficientP::start() {
  env_.set_timer(env_.rng().range(0, cfg_.period), [this]() { tick(); });
}

ProcessId EfficientP::trusted() const {
  const ProcessId c = candidate_susp_.first_excluded();
  return c == kNoProcess ? env_.self() : c;
}

void EfficientP::tick() {
  const ProcessId candidate = trusted();
  const bool leader_now = candidate == env_.self();
  if (leader_now && !acting_leader_) {
    // Freshly acquired leadership: grant a grace period on the alive
    // inflow (nobody has been reporting to us) — same rationale as CToP.
    const TimeUs now = env_.now();
    for (auto& t : last_alive_) t = now;
    local_list_.clear();
  }
  acting_leader_ = leader_now;

  if (acting_leader_) {
    // Build the list from the I-AM-ALIVE inflow (Fig. 2, Task 3)...
    const TimeUs now = env_.now();
    for (ProcessId q = 0; q < env_.n(); ++q) {
      if (q == env_.self()) continue;
      const auto i = static_cast<std::size_t>(q);
      if (!local_list_.contains(q) && now - last_alive_[i] > alive_timeout_[i]) {
        local_list_.add(q);
        env_.record(EventType::kSuspect, q);
      }
    }
    // ...and publish it piggybacked on the leadership beat (Omega
    // heartbeat + Fig. 2 Task 1, one message).
    env_.broadcast(
        Message::make(protocol_id(), kLeaderList, "effp.leader", local_list_));
    adopted_ = local_list_;
  } else {
    // Monitor the candidate's beats; on timeout, move to the next.
    const auto i = static_cast<std::size_t>(candidate);
    if (env_.now() - last_heard_[i] > beat_timeout_[i]) {
      candidate_susp_.add(candidate);
      env_.record(EventType::kSuspect, candidate);
      env_.record(EventType::kLeaderChange, trusted());
    }
    // Report alive to the (possibly new) candidate (Fig. 2, Task 2).
    const ProcessId target = trusted();
    if (target != env_.self()) {
      env_.send(target, Message::make_empty(protocol_id(), kAlive, "effp.alive"));
    }
  }
  env_.set_timer(cfg_.period, [this]() { tick(); });
}

void EfficientP::on_message(const Message& m) {
  const auto i = static_cast<std::size_t>(m.src);
  switch (m.type) {
    case kLeaderList: {
      const auto* list = m.as<ProcessSet>();
      if (list == nullptr) break;
      last_heard_[i] = env_.now();
      if (candidate_susp_.contains(m.src)) {
        // A lower-ranked candidate is back: roll back, widen its timeout.
        candidate_susp_.remove(m.src);
        beat_timeout_[i] += cfg_.timeout_increment;
        env_.record(EventType::kUnsuspect, m.src);
        env_.record(EventType::kLeaderChange, trusted());
      }
      // Adopt the list only from our current candidate (Fig. 2, Task 5).
      if (m.src == trusted()) {
        adopted_ = *list;
        adopted_.remove(env_.self());
      }
      break;
    }
    case kAlive: {
      last_alive_[i] = env_.now();
      if (local_list_.contains(m.src)) {
        // Fig. 2, Task 4: retract and widen.
        local_list_.remove(m.src);
        alive_timeout_[i] += cfg_.timeout_increment;
        env_.record(EventType::kUnsuspect, m.src);
      }
      break;
    }
    default:
      break;
  }
}

}  // namespace ecfd::fd
