#include "consensus/chandra_toueg.hpp"

#include <cassert>

namespace ecfd::consensus {

namespace {
constexpr int kDecideTag = 1;
}

ChandraTouegConsensus::ChandraTouegConsensus(Env& env, const SuspectOracle* fd,
                                             broadcast::ReliableBroadcast* rb)
    : ChandraTouegConsensus(env, fd, rb, Config{}) {}

ChandraTouegConsensus::ChandraTouegConsensus(Env& env,
                                             const SuspectOracle* fd,
                                             broadcast::ReliableBroadcast* rb,
                                             Config cfg)
    : ConsensusProtocol(env, protocol_ids::kConsensusCT),
      cfg_(cfg),
      fd_(fd),
      rb_(rb) {
  rb_->set_deliver(
      [this](const broadcast::RbEnvelope& e) { on_rb_deliver(e); });
}

void ChandraTouegConsensus::start() {
  started_ = true;
  env_.set_timer(cfg_.poll_period, [this]() { poll(); });
  if (proposed_ && round_ == 0) begin_round_one();
}

void ChandraTouegConsensus::propose(Value v) {
  if (proposed_) return;
  proposed_ = true;
  estimate_ = v;
  ts_ = 0;
  if (started_ && round_ == 0) begin_round_one();
}

void ChandraTouegConsensus::begin_round_one() {
  enter_round(1);
  std::vector<Message> buffered;
  buffered.swap(pre_propose_buffer_);
  for (const Message& m : buffered) on_message(m);
  step();
}

void ChandraTouegConsensus::poll() {
  if (halted_) return;
  step();
  if (!halted_) env_.set_timer(cfg_.poll_period, [this]() { poll(); });
}

void ChandraTouegConsensus::enter_round(int r) {
  assert(r > round_);
  estimates_.erase(estimates_.begin(), estimates_.lower_bound(r));
  acks_.erase(acks_.begin(), acks_.lower_bound(r));
  proposals_.erase(proposals_.begin(), proposals_.lower_bound(r));

  round_ = r;
  env_.record(EventType::kRoundStart, r);
  is_coordinator_ = coordinator_of(r) == env_.self();

  if (cfg_.max_rounds > 0 && round_ > cfg_.max_rounds) {
    gave_up_ = true;
    halt();
    return;
  }

  // Phase 1: send the estimate to the coordinator (self-estimates enter
  // the tally directly; no self-messages, as in the paper's counting).
  const ProcessId c = coordinator_of(r);
  if (is_coordinator_) {
    auto [it, inserted] = estimates_.try_emplace(r);
    if (inserted) it->second.responders = ProcessSet(env_.n());
    it->second.responders.add(env_.self());
    ++it->second.total;
    it->second.best = estimate_;
    it->second.best_ts = ts_;
    phase_ = 2;
  } else {
    env_.send(c, Message::make(protocol_id(), kEstimate, "ct.estimate",
                               EstimateBody{r, estimate_, ts_}));
    phase_ = 3;
  }
}

bool ChandraTouegConsensus::step_once() {
  switch (phase_) {
    case 2: {  // coordinator gathers the first majority of estimates
      auto it = estimates_.find(round_);
      if (it == estimates_.end() || it->second.total < majority()) {
        return false;
      }
      // Propose the largest-timestamp estimate, adopt it, self-ack.
      estimate_ = it->second.best;
      ts_ = round_;
      env_.broadcast(Message::make(protocol_id(), kPropose, "ct.propose",
                                   ProposeBody{round_, estimate_}));
      auto [ait, inserted] = acks_.try_emplace(round_);
      if (inserted) ait->second.responders = ProcessSet(env_.n());
      ait->second.responders.add(env_.self());
      ++ait->second.acks;
      phase_ = 4;
      return true;
    }
    case 3: {  // participant waits for the proposition or a suspicion
      auto it = proposals_.find(round_);
      const ProcessId c = coordinator_of(round_);
      if (it != proposals_.end()) {
        estimate_ = it->second.value;
        ts_ = round_;
        env_.send(c, Message::make(protocol_id(), kAck, "ct.ack",
                                   RoundOnly{round_}));
        enter_round(round_ + 1);
        return !halted_;
      }
      if (fd_->suspected().contains(c)) {
        env_.send(c, Message::make(protocol_id(), kNack, "ct.nack",
                                   RoundOnly{round_}));
        enter_round(round_ + 1);
        return !halted_;
      }
      return false;
    }
    case 4: {  // coordinator gathers the first majority of ack/nacks
      auto it = acks_.find(round_);
      if (it == acks_.end()) return false;
      const AckTally& t = it->second;
      if (t.acks + t.nacks < majority()) return false;
      if (t.nacks == 0) {
        // All of the first majority adopted the proposition.
        rb_->r_broadcast(kDecideTag, DecideBody{round_, estimate_});
      }
      enter_round(round_ + 1);
      return !halted_;
    }
    default:
      return false;
  }
}

void ChandraTouegConsensus::step() {
  while (!halted_ && round_ > 0 && step_once()) {
  }
}

void ChandraTouegConsensus::on_message(const Message& m) {
  if (halted_) return;
  if (round_ == 0) {
    pre_propose_buffer_.push_back(m);
    return;
  }
  switch (m.type) {
    case kEstimate: {
      const auto* b = m.as<EstimateBody>();
      if (b == nullptr || b->round < round_) break;  // stale: round is over
      auto [it, inserted] = estimates_.try_emplace(b->round);
      if (inserted) it->second.responders = ProcessSet(env_.n());
      if (it->second.responders.contains(m.src)) break;
      it->second.responders.add(m.src);
      ++it->second.total;
      if (b->ts > it->second.best_ts) {
        it->second.best_ts = b->ts;
        it->second.best = b->value;
      }
      step();
      break;
    }
    case kPropose: {
      const auto* b = m.as<ProposeBody>();
      if (b == nullptr || b->round < round_) break;  // acked or nacked it
      proposals_.emplace(b->round, *b);
      step();
      break;
    }
    case kAck:
    case kNack: {
      const auto* b = m.as<RoundOnly>();
      if (b == nullptr || b->round < round_) break;
      auto [it, inserted] = acks_.try_emplace(b->round);
      if (inserted) it->second.responders = ProcessSet(env_.n());
      if (it->second.responders.contains(m.src)) break;
      it->second.responders.add(m.src);
      if (m.type == kAck) {
        ++it->second.acks;
      } else {
        ++it->second.nacks;
      }
      step();
      break;
    }
    default:
      break;
  }
}

void ChandraTouegConsensus::on_rb_deliver(const broadcast::RbEnvelope& e) {
  const auto* b = e.as<DecideBody>();
  if (e.tag != kDecideTag || b == nullptr) return;
  decide(b->value, b->round);
  halt();
}

}  // namespace ecfd::consensus
