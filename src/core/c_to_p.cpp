#include "core/c_to_p.hpp"

#include <algorithm>

namespace ecfd::core {

namespace {
constexpr int kAlive = 1;
constexpr int kList = 2;
}

CToP::CToP(Env& env, const LeaderOracle* trusted_src)
    : CToP(env, trusted_src, Config{}) {}

CToP::CToP(Env& env, const LeaderOracle* trusted_src, Config cfg)
    : Protocol(env, protocol_ids::kCToP),
      cfg_(cfg),
      trusted_src_(trusted_src),
      local_list_(env.n()),
      adopted_(env.n()),
      last_alive_(static_cast<std::size_t>(env.n()), 0),
      arrivals_(static_cast<std::size_t>(env.n()),
                fd::ArrivalPredictor(
                    fd::ArrivalPredictor::Config::from_timeouts(
                        cfg.initial_timeout, cfg.timeout_increment))) {}

void CToP::start() {
  env_.set_timer(env_.rng().range(0, cfg_.alive_period),
                 [this]() { alive_tick(); });
  env_.set_timer(env_.rng().range(0, cfg_.list_period),
                 [this]() { leader_tick(); });
}

void CToP::alive_tick() {
  // Task 2: tell my trusted process I am alive. (A self-message would be
  // pointless: the leader never suspects itself.)
  const ProcessId t = trusted_src_->trusted();
  if (t != env_.self()) {
    env_.send(t, Message::make_empty(protocol_id(), kAlive, "ctp.alive"));
  }
  env_.set_timer(cfg_.alive_period, [this]() { alive_tick(); });
}

void CToP::leader_tick() {
  // Task 1. Over an input that does not notify, a role change shows here
  // first.
  follow_leader();
  if (acting_leader_) publish();
  env_.set_timer(cfg_.list_period, [this]() { leader_tick(); });
}

void CToP::on_fd_change() {
  if (follow_leader()) publish();
}

bool CToP::follow_leader() {
  const bool leader_now = trusted_src_->trusted() == env_.self();
  if (leader_now == acting_leader_) return false;
  acting_leader_ = leader_now;
  if (!leader_now) {
    // Stepped down: Task 3 stops, and Task 5 replaces the output with the
    // new leader's first list.
    env_.cancel_timer(task3_timer_);
    task3_timer_ = kInvalidTimer;
    return false;
  }
  // Leadership just acquired (the takeover rule, see c_to_p.hpp). The
  // predecessor whose lists we adopted keeps the predictor they fed, so
  // once dead it is suspected at once; the others reported to it, not to
  // us, so they restart on the fallback instead of being judged on stale
  // arrivals.
  const TimeUs now = env_.now();
  for (ProcessId q = 0; q < env_.n(); ++q) {
    if (q == list_src_) continue;
    const auto i = static_cast<std::size_t>(q);
    last_alive_[i] = now;
    arrivals_[i].restart();
  }
  local_list_.clear();
  env_.trace("ctp.leader", "acquired");
  const bool fresh = task3();
  set_output(local_list_);
  return fresh;
}

bool CToP::task3() {
  const TimeUs now = env_.now();
  bool fresh = false;
  for (ProcessId q = 0; q < env_.n(); ++q) {
    if (q == env_.self()) continue;  // the leader never suspects itself
    const auto i = static_cast<std::size_t>(q);
    if (!local_list_.contains(q) &&
        now > arrivals_[i].deadline(last_alive_[i])) {
      local_list_.add(q);
      env_.record(EventType::kSuspect, q);
      fresh = true;
    }
  }
  arm_task3();
  return fresh;
}

void CToP::arm_task3() {
  env_.cancel_timer(task3_timer_);
  task3_timer_ = kInvalidTimer;
  if (!acting_leader_) return;
  TimeUs next = kTimeNever;
  for (ProcessId q = 0; q < env_.n(); ++q) {
    if (q == env_.self() || local_list_.contains(q)) continue;
    const auto i = static_cast<std::size_t>(q);
    next = std::min(next, arrivals_[i].deadline(last_alive_[i]));
  }
  if (next == kTimeNever) return;
  // q is suspected once `now` is past its deadline: 1 us later.
  task3_timer_ = env_.set_timer(
      std::max<DurUs>(next + 1 - env_.now(), 0), [this]() {
        task3_timer_ = kInvalidTimer;
        if (!task3()) return;  // a drifting clock fired the timer early
        publish();
        set_output(local_list_);
      });
}

void CToP::publish() {
  env_.broadcast(Message::make(protocol_id(), kList, "ctp.list", local_list_));
}

void CToP::set_output(const ProcessSet& out) {
  if (out == adopted_) return;
  adopted_ = out;
  env_.fd_changed();
}

void CToP::on_message(const Message& m) {
  const auto* list = m.as<ProcessSet>();
  if (m.type == kList && list == nullptr) return;
  // Any message of ours, an I-AM-ALIVE or a list, shows its sender alive.
  const auto i = static_cast<std::size_t>(m.src);
  last_alive_[i] = env_.now();
  arrivals_[i].observe(last_alive_[i]);
  bool repaired = false;
  switch (m.type) {
    case kAlive: {
      if (local_list_.contains(m.src)) {
        // Task 4: a suspected process spoke up — mistake; widen α.
        local_list_.remove(m.src);
        arrivals_[i].note_mistake();
        env_.record(EventType::kUnsuspect, m.src);
        repaired = true;
      }
      break;
    }
    case kList: {
      // Task 5: adopt the list, but only from the process we currently
      // trust, and never adopt a suspicion of ourselves.
      if (m.src == trusted_src_->trusted()) {
        ProcessSet adopted = *list;
        adopted.remove(env_.self());
        list_src_ = m.src;
        set_output(adopted);
      }
      break;
    }
    default:
      break;
  }
  if (!acting_leader_) return;
  arm_task3();  // the sender's deadline moved on
  if (repaired) set_output(local_list_);
}

}  // namespace ecfd::core
