#include "core/consensus_c.hpp"

#include <cassert>

namespace ecfd::core {

namespace {
/// RB tag for decision broadcasts.
constexpr int kDecideTag = 1;
}

ConsensusC::ConsensusC(Env& env, const EcfdOracle* fd,
                       broadcast::ReliableBroadcast* rb)
    : ConsensusC(env, fd, rb, Config{}) {}

ConsensusC::ConsensusC(Env& env, const EcfdOracle* fd,
                       broadcast::ReliableBroadcast* rb, Config cfg,
                       ProtocolId pid)
    : ConsensusProtocol(env, pid), cfg_(cfg), fd_(fd), rb_(rb) {
  rb_->set_deliver(
      [this](const broadcast::RbEnvelope& e) { on_rb_deliver(e); });
}

void ConsensusC::start() {
  started_ = true;
  // Classic instances poll from the very start (existing deterministic
  // schedules depend on it). Instances with a wakeup hook are dormant
  // until first proposed — their poll timer arms in begin_round_one(),
  // so a pre-provisioned log slot nobody touches costs nothing.
  if (!on_wakeup_) arm_poll();
  if (proposed_ && round_ == 0) begin_round_one();
}

void ConsensusC::arm_poll() {
  if (poll_armed_ || !started_) return;
  poll_armed_ = true;
  poll_timer_ = env_.set_timer(cfg_.poll_period, [this]() { poll(); });
}

void ConsensusC::propose(consensus::Value v) {
  if (proposed_) return;
  proposed_ = true;
  estimate_ = v;
  ts_ = 0;
  if (started_ && round_ == 0) begin_round_one();
}

void ConsensusC::begin_round_one() {
  arm_poll();
  enter_round(1);
  // Replay everything that arrived before we proposed (e.g. the round-1
  // coordinator announcement of a faster process).
  std::vector<Message> buffered;
  buffered.swap(pre_propose_buffer_);
  for (const Message& m : buffered) on_message(m);
  step();
}

void ConsensusC::on_fd_change() { step(); }

void ConsensusC::poll() {
  poll_timer_ = kInvalidTimer;
  step();
  if (!halted_) {
    poll_timer_ = env_.set_timer(cfg_.poll_period, [this]() { poll(); });
  }
}

void ConsensusC::halt() {
  halted_ = true;
  // A halted instance never steps again: its pending poll would fire empty.
  env_.cancel_timer(poll_timer_);
  poll_timer_ = kInvalidTimer;
}

int ConsensusC::wait_quorum() const {
  const int n = env_.n();
  switch (cfg_.policy) {
    case ReplyPolicy::kMajorityPlusUnsuspected:
    case ReplyPolicy::kFirstMajority:
      return majority();
    case ReplyPolicy::kNMinusF: {
      const int f = cfg_.f >= 0 ? cfg_.f : n - majority();
      return n - f;
    }
  }
  return majority();
}

bool ConsensusC::everyone_accounted(const ProcessSet& responders) const {
  const ProcessSet susp = fd_->suspected();
  for (ProcessId q = 0; q < env_.n(); ++q) {
    if (q == env_.self()) continue;
    if (!responders.contains(q) && !susp.contains(q)) return false;
  }
  return true;
}

bool ConsensusC::wait_satisfied(int total,
                                const ProcessSet& responders) const {
  if (total < wait_quorum()) return false;
  if (cfg_.policy == ReplyPolicy::kMajorityPlusUnsuspected) {
    // The paper's rule: also wait for a reply from every process the ◇C
    // detector does not suspect; strong completeness keeps this live.
    return everyone_accounted(responders);
  }
  return true;
}

void ConsensusC::enter_round(int r) {
  assert(r > round_);
  // Fig. 4, second task, sweep form: before leaving the rounds below r,
  // nack every non-null proposition of those rounds that we never
  // answered. (A coordinator that ends its round with a null proposition
  // skips Phase 3, so the other coordinator's proposition may be sitting
  // unanswered in the store — and that coordinator is waiting for our
  // reply in its Phase 4.)
  for (auto it = proposals_.begin();
       it != proposals_.end() && it->first < r; ++it) {
    for (const ProposalSeen& p : it->second) {
      if (!p.non_null) continue;
      auto [rit, inserted] =
          replied_prop_.try_emplace(it->first, ProcessSet(env_.n()));
      if (rit->second.contains(p.from)) continue;
      rit->second.add(p.from);
      env_.send(p.from, Message::make(protocol_id(), kNack, "cons_c.nack",
                                      RoundOnly{it->first}));
    }
  }

  // Per-round state of strictly earlier rounds can never be read again.
  estimates_.erase(estimates_.begin(), estimates_.lower_bound(r));
  acks_.erase(acks_.begin(), acks_.lower_bound(r));
  announcements_.erase(announcements_.begin(), announcements_.lower_bound(r));
  proposals_.erase(proposals_.begin(), proposals_.lower_bound(r));
  answered_.erase(answered_.begin(), answered_.lower_bound(r));
  replied_prop_.erase(replied_prop_.begin(), replied_prop_.lower_bound(r));

  round_ = r;
  env_.record(EventType::kRoundStart, r);
  phase_ = 0;
  coordinator_ = kNoProcess;
  is_coordinator_ = false;
  sent_non_null_ = false;

  if (cfg_.max_rounds > 0 && round_ > cfg_.max_rounds) {
    gave_up_ = true;
    halt();
  }
}

void ConsensusC::record_estimate(int round, ProcessId from, bool real,
                                 Value v, int ts) {
  auto [it, inserted] = estimates_.try_emplace(round);
  EstimateTally& t = it->second;
  if (inserted) t.responders = ProcessSet(env_.n());
  if (t.responders.contains(from)) return;  // duplicate reply
  t.responders.add(from);
  ++t.total;
  if (real) {
    ++t.real;
    bool better = ts > t.best_ts;
    if (!better && ts == t.best_ts && cfg_.deprioritized.has_value() &&
        t.best == *cfg_.deprioritized && v != *cfg_.deprioritized) {
      better = true;  // real command beats the filler on a timestamp tie
    }
    if (better) {
      t.best_ts = ts;
      t.best = v;
    }
  }
}

void ConsensusC::answer_late_coordinator(ProcessId c, int round) {
  auto [it, inserted] = answered_.try_emplace(round, ProcessSet(env_.n()));
  if (it->second.contains(c)) return;
  it->second.add(c);
  env_.send(c, Message::make(protocol_id(), kNullEstimate, "cons_c.null_est",
                             EstimateBody{round, 0, 0}));
}

void ConsensusC::send_own_estimate() {
  // The coordinator's own estimate enters its tally directly: the paper
  // counts no self-messages.
  record_estimate(round_, env_.self(), /*real=*/true, estimate_, ts_);
}

void ConsensusC::become_coordinator() {
  coordinator_ = env_.self();
  is_coordinator_ = true;
  env_.trace("cons_c.coordinator", "r=" + std::to_string(round_));
  if (!cfg_.merged_phase01) {
    env_.broadcast(Message::make(protocol_id(), kCoordinator, "cons_c.coord",
                                 RoundOnly{round_}));
  } else {
    // Merged Phases 0+1: no announcement; instead everyone scatters null
    // estimates so any coordinator can gather a full round of replies.
    env_.broadcast(Message::make(protocol_id(), kNullEstimate,
                                 "cons_c.null_est",
                                 EstimateBody{round_, 0, 0}));
  }
  // Null-answer any other coordinator already announced for this round.
  auto ann = announcements_.find(round_);
  if (ann != announcements_.end()) {
    for (ProcessId other : ann->second) {
      if (other != env_.self()) answer_late_coordinator(other, round_);
    }
  }
  send_own_estimate();
  phase_ = 2;
}

void ConsensusC::become_participant(ProcessId c) {
  coordinator_ = c;
  is_coordinator_ = false;
  // Phase 1: the (single) real estimate of this round goes to c.
  {
    auto [it, inserted] = answered_.try_emplace(round_, ProcessSet(env_.n()));
    it->second.add(c);
  }
  env_.send(c, Message::make(protocol_id(), kEstimate, "cons_c.estimate",
                             EstimateBody{round_, estimate_, ts_}));
  if (cfg_.merged_phase01) {
    for (ProcessId q = 0; q < env_.n(); ++q) {
      if (q != env_.self() && q != c) {
        env_.send(q, Message::make(protocol_id(), kNullEstimate,
                                   "cons_c.null_est",
                                   EstimateBody{round_, 0, 0}));
      }
    }
  } else {
    // Null-answer the other announced coordinators of this round.
    auto ann = announcements_.find(round_);
    if (ann != announcements_.end()) {
      for (ProcessId other : ann->second) {
        if (other != c) answer_late_coordinator(other, round_);
      }
    }
  }
  phase_ = 3;
}

void ConsensusC::finish_phase2() {
  const EstimateTally& t = estimates_[round_];
  if (t.real >= majority()) {
    // Lemma 1: at most one coordinator per round can get here.
    estimate_ = t.best;
    ts_ = round_;
    sent_non_null_ = true;
    env_.broadcast(Message::make(protocol_id(), kPropose, "cons_c.propose",
                                 ProposeBody{round_, estimate_}));
    // The coordinator adopts its own proposition and acks it.
    auto [it, inserted] = acks_.try_emplace(round_);
    if (inserted) it->second.responders = ProcessSet(env_.n());
    it->second.responders.add(env_.self());
    ++it->second.acks;
    phase_ = 4;
  } else {
    env_.broadcast(Message::make(protocol_id(), kNullPropose,
                                 "cons_c.null_propose", RoundOnly{round_}));
    // Its own null proposition releases the coordinator from Phase 3.
    enter_round(round_ + 1);
  }
}

void ConsensusC::finish_phase4(const AckTally& tally) {
  if (tally.acks >= majority()) {
    // A majority adopted the proposition: lock it in via Reliable
    // Broadcast. Nacks alongside do not matter — the paper's improvement
    // over first-majority waiting.
    rb_->r_broadcast(kDecideTag, DecideBody{round_, estimate_});
  }
  enter_round(round_ + 1);
}

bool ConsensusC::step_once() {
  switch (phase_) {
    case 0: {
      if (fd_->trusted() == env_.self()) {
        become_coordinator();
        return true;
      }
      if (cfg_.merged_phase01) {
        // ◇C only promises that the trusted process is eventually not
        // suspected. Joining it while this module still suspects it would
        // nack at once in Phase 3 and start round after round at one
        // instant, so wait; the poll timer re-checks.
        const ProcessId c = fd_->trusted();
        if (c == kNoProcess || fd_->suspected().contains(c)) return false;
        become_participant(c);
        return true;
      }
      // Adopt the latest announced round >= ours (footnote 2).
      if (!announcements_.empty()) {
        auto last = std::prev(announcements_.end());
        if (last->first >= round_ && !last->second.empty()) {
          const int target_round = last->first;
          const ProcessId c = last->second.front();
          if (target_round > round_) {
            // Coordinators of the rounds we skip get null estimates.
            for (auto& [rk, coords] : announcements_) {
              if (rk >= target_round) break;
              for (ProcessId other : coords) {
                answer_late_coordinator(other, rk);
              }
            }
            enter_round(target_round);
            if (halted_) return false;
          }
          become_participant(c);
          return true;
        }
      }
      return false;  // keep waiting in Phase 0
    }
    case 2: {
      auto it = estimates_.find(round_);
      if (it == estimates_.end()) return false;
      if (!wait_satisfied(it->second.total, it->second.responders)) {
        return false;
      }
      finish_phase2();
      return true;
    }
    case 3: {
      auto it = proposals_.find(round_);
      if (it != proposals_.end()) {
        for (const ProposalSeen& p : it->second) {
          if (p.non_null) {
            // Adopt and ack (to whichever coordinator proposed it).
            estimate_ = p.value;
            ts_ = round_;
            auto [rit, inserted] =
                replied_prop_.try_emplace(round_, ProcessSet(env_.n()));
            rit->second.add(p.from);
            env_.send(p.from, Message::make(protocol_id(), kAck, "cons_c.ack",
                                            RoundOnly{round_}));
            enter_round(round_ + 1);
            return !halted_;
          }
        }
        for (const ProposalSeen& p : it->second) {
          if (!p.non_null && p.from == coordinator_) {
            enter_round(round_ + 1);
            return !halted_;
          }
        }
      }
      // In the merged-phase variant there are no coordinator
      // announcements: a participant picked fd->trusted() blindly, so it
      // must also stop waiting when its leader output moves away from that
      // choice (the chosen process may never have considered itself
      // coordinator, and an accurate detector will never suspect it).
      const bool leader_moved =
          cfg_.merged_phase01 && fd_->trusted() != coordinator_;
      if (coordinator_ != env_.self() &&
          (leader_moved || fd_->suspected().contains(coordinator_))) {
        env_.send(coordinator_, Message::make(protocol_id(), kNack,
                                              "cons_c.nack",
                                              RoundOnly{round_}));
        enter_round(round_ + 1);
        return !halted_;
      }
      return false;
    }
    case 4: {
      auto it = acks_.find(round_);
      if (it == acks_.end()) return false;
      const AckTally& t = it->second;
      if (!wait_satisfied(t.acks + t.nacks, t.responders)) return false;
      finish_phase4(t);
      return true;
    }
    default:
      return false;
  }
}

void ConsensusC::step() {
  while (!halted_ && round_ > 0 && step_once()) {
  }
}

void ConsensusC::on_message(const Message& m) {
  if (halted_) return;
  if (round_ == 0) {
    pre_propose_buffer_.push_back(m);
    if (on_wakeup_ && !wakeup_fired_) {
      wakeup_fired_ = true;
      on_wakeup_();  // may propose() reentrantly; the buffer replays then
    }
    return;
  }
  switch (m.type) {
    case kCoordinator: {
      const auto* b = m.as<RoundOnly>();
      if (b == nullptr) break;
      const int r = b->round;
      if (r < round_ || (r == round_ && phase_ > 0)) {
        // Fig. 4, first task: null estimate to any *other* coordinator of
        // the current or a previous round.
        if (!(r == round_ && m.src == coordinator_)) {
          answer_late_coordinator(m.src, r);
        }
      } else {
        announcements_[r].push_back(m.src);
        step();
      }
      break;
    }
    case kEstimate: {
      const auto* b = m.as<EstimateBody>();
      if (b == nullptr) break;
      record_estimate(b->round, m.src, /*real=*/true, b->value, b->ts);
      step();
      break;
    }
    case kNullEstimate: {
      const auto* b = m.as<EstimateBody>();
      if (b == nullptr) break;
      record_estimate(b->round, m.src, /*real=*/false, 0, 0);
      step();
      break;
    }
    case kPropose: {
      const auto* b = m.as<ProposeBody>();
      if (b == nullptr) break;
      if (b->round < round_) {
        // Fig. 4, second task: nack a late non-null proposition.
        env_.send(m.src, Message::make(protocol_id(), kNack, "cons_c.nack",
                                       RoundOnly{b->round}));
      } else {
        proposals_[b->round].push_back(
            ProposalSeen{m.src, true, b->value});
        step();
      }
      break;
    }
    case kNullPropose: {
      const auto* b = m.as<RoundOnly>();
      if (b != nullptr && b->round >= round_) {
        proposals_[b->round].push_back(ProposalSeen{m.src, false, 0});
        step();
      }
      break;
    }
    case kAck:
    case kNack: {
      const auto* b = m.as<RoundOnly>();
      if (b == nullptr) break;
      auto [it, inserted] = acks_.try_emplace(b->round);
      if (inserted) it->second.responders = ProcessSet(env_.n());
      if (!it->second.responders.contains(m.src)) {
        it->second.responders.add(m.src);
        if (m.type == kAck) {
          ++it->second.acks;
        } else {
          ++it->second.nacks;
        }
        step();
      }
      break;
    }
    default:
      break;
  }
}

void ConsensusC::on_rb_deliver(const broadcast::RbEnvelope& e) {
  const auto* b = e.as<DecideBody>();
  if (e.tag != kDecideTag || b == nullptr) return;
  decide(b->value, b->round);
  halt();
}

}  // namespace ecfd::core
