#include "fd/stable_leader.hpp"

#include <algorithm>

namespace ecfd::fd {

StableLeader::StableLeader(Env& env) : StableLeader(env, Config{}) {}

StableLeader::StableLeader(Env& env, Config cfg)
    : Protocol(env, protocol_ids::kStableLeader),
      cfg_(cfg),
      counters_(static_cast<std::size_t>(env.n()), 0),
      last_heard_(static_cast<std::size_t>(env.n()), 0),
      arrivals_(static_cast<std::size_t>(env.n()),
                ArrivalPredictor(ArrivalPredictor::Config::from_timeouts(
                    cfg.initial_timeout, cfg.timeout_increment))) {}

void StableLeader::start() {
  env_.set_timer(env_.rng().range(0, cfg_.period), [this]() { tick(); });
  follow_leader();  // the first leader; no change to announce
  arm_deadline();
}

ProcessId StableLeader::trusted() const {
  ProcessId best = 0;
  for (ProcessId q = 1; q < env_.n(); ++q) {
    if (counters_[static_cast<std::size_t>(q)] <
        counters_[static_cast<std::size_t>(best)]) {
      best = q;
    }
  }
  return best;
}

void StableLeader::restart(std::size_t q) {
  last_heard_[q] = env_.now();
  arrivals_[q].restart();
}

void StableLeader::tick() {
  if (observed_leader_ == env_.self()) {
    env_.broadcast(Message::make(protocol_id(), kOk, "sl.ok", counters_));
  }
  env_.set_timer(cfg_.period, [this]() { tick(); });
}

bool StableLeader::follow_leader() {
  const ProcessId leader = trusted();
  if (leader == observed_leader_) return false;
  ++leader_changes_;
  observed_leader_ = leader;
  env_.record(EventType::kLeaderChange, leader);
  // Fresh leader: we were not hearing its beats before, so grant it the
  // fallback rather than accuse it on stale arrivals.
  restart(static_cast<std::size_t>(leader));
  return true;
}

void StableLeader::arm_deadline() {
  env_.cancel_timer(deadline_timer_);
  deadline_timer_ = kInvalidTimer;
  if (observed_leader_ == env_.self()) return;
  const auto i = static_cast<std::size_t>(observed_leader_);
  // The leader is accused once `now` is past its deadline: 1 us later.
  const DurUs wait = arrivals_[i].deadline(last_heard_[i]) + 1 - env_.now();
  deadline_timer_ = env_.set_timer(std::max<DurUs>(wait, 0), [this]() {
    deadline_timer_ = kInvalidTimer;
    on_deadline();
  });
}

void StableLeader::on_deadline() {
  const ProcessId leader = observed_leader_;
  const auto i = static_cast<std::size_t>(leader);
  if (env_.now() <= arrivals_[i].deadline(last_heard_[i])) {
    arm_deadline();  // a drifting clock fired the timer early
    return;
  }
  // Accuse: charge the leader, widen α, and tell everyone, so counters
  // converge. Should it stay leader, it starts over on the fallback.
  ++counters_[i];
  arrivals_[i].note_mistake();
  restart(i);
  env_.trace("sl.accuse", "p" + std::to_string(leader));
  env_.broadcast(
      Message::make(protocol_id(), kAccuse, "sl.accuse", counters_));
  const bool moved = follow_leader();
  arm_deadline();
  if (moved) env_.fd_changed();
}

void StableLeader::merge(const std::vector<std::uint64_t>& remote) {
  for (std::size_t i = 0; i < counters_.size(); ++i) {
    counters_[i] = std::max(counters_[i], remote[i]);
  }
}

void StableLeader::on_message(const Message& m) {
  const auto* remote = m.as<std::vector<std::uint64_t>>();
  if (remote == nullptr) return;
  merge(*remote);
  if (m.type == kOk) {
    const auto i = static_cast<std::size_t>(m.src);
    last_heard_[i] = env_.now();
    arrivals_[i].observe(last_heard_[i]);
  }
  // A merged accusation can move the argmin; a beat from the leader
  // pushes its deadline forward.
  const bool moved = follow_leader();
  if (moved || (m.type == kOk && m.src == observed_leader_)) arm_deadline();
  if (moved) env_.fd_changed();
}

}  // namespace ecfd::fd
