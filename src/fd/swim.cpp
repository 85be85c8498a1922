#include "fd/swim.hpp"

#include <algorithm>
#include <cmath>

namespace ecfd::fd {

SwimFd::SwimFd(Env& env) : SwimFd(env, Config{}) {}

SwimFd::SwimFd(Env& env, Config cfg)
    : Protocol(env, protocol_ids::kSwim),
      cfg_(cfg),
      ack_timeout_(cfg.ack_timeout),
      suspected_(env.n()) {
  const double lg = std::log2(static_cast<double>(std::max(2, env.n())));
  gossip_budget_ = 3 * static_cast<int>(std::ceil(lg)) + 4;
}

void SwimFd::start() {
  env_.set_timer(env_.rng().range(0, cfg_.period), [this]() { tick(); });
}

ProcessId SwimFd::trusted() const {
  const ProcessId t = suspected_.first_excluded();
  return t == kNoProcess ? env_.self() : t;
}

std::uint32_t SwimFd::known_incarnation(ProcessId p) const {
  const auto it = peers_.find(p);
  return it == peers_.end() ? 0 : it->second.incarnation;
}

ProcessId SwimFd::random_peer_except(ProcessId skip) const {
  // Uniform over the other n-1 ids; rng() is per-process deterministic.
  auto& rng = const_cast<Env&>(env_).rng();
  auto r = static_cast<ProcessId>(rng.range(0, env_.n() - 2));
  if (r >= skip) ++r;
  return r;
}

void SwimFd::enqueue_update(const SwimUpdate& u) {
  for (Buffered& b : gossip_) {
    if (b.u.subject == u.subject) {
      b.u = u;
      b.sends_left = gossip_budget_;
      return;
    }
  }
  gossip_.push_back(Buffered{u, gossip_budget_});
}

void SwimFd::piggyback(SwimBody& body) {
  int taken = 0;
  for (Buffered& b : gossip_) {
    if (taken >= cfg_.max_piggyback) break;
    body.updates.push_back(b.u);
    --b.sends_left;
    ++taken;
  }
  if (taken > 0) {
    gossip_.erase(std::remove_if(gossip_.begin(), gossip_.end(),
                                 [](const Buffered& b) {
                                   return b.sends_left <= 0;
                                 }),
                  gossip_.end());
  }
}

void SwimFd::send_with_gossip(ProcessId dst, int type, const char* label,
                              SwimBody body) {
  piggyback(body);
  env_.send(dst, Message::make(protocol_id(), type, label, std::move(body)));
}

bool SwimFd::apply_update(const SwimUpdate& u) {
  const ProcessId p = u.subject;
  if (p < 0 || p >= env_.n()) return false;
  if (p == env_.self()) {
    // Someone thinks we are suspect/dead: refute by outliving the claimed
    // incarnation and gossiping the proof. A stale rumor (already outlived)
    // still re-arms the alive assertion — the earlier refutation's gossip
    // may have been lost, and the rumor holder only clears on seeing it.
    if (u.state != kAlive) {
      if (u.incarnation >= self_inc_) self_inc_ = u.incarnation + 1;
      enqueue_update(SwimUpdate{p, self_inc_, kAlive});
      env_.trace("swim.refute", "inc" + std::to_string(self_inc_));
    }
    return false;
  }

  const auto it = peers_.find(p);
  const std::uint32_t cur_inc = it == peers_.end() ? 0 : it->second.incarnation;
  const std::uint8_t cur_state =
      it == peers_.end() ? static_cast<std::uint8_t>(kAlive) : it->second.state;
  bool applied = false;

  switch (u.state) {
    case kAlive: {
      if (u.incarnation <= cur_inc) break;
      const bool refutes = cur_state != kAlive;
      if (refutes && cfg_.mutate_drop_refutations) break;
      peers_[p] = Peer{u.incarnation, kAlive, 0};
      if (refutes) {
        suspected_.remove(p);
        // A refuted suspicion is a mistake: widen the probe window so
        // post-GST mistakes stay finite (eventual strong accuracy).
        ack_timeout_ += cfg_.timeout_increment;
        env_.record(EventType::kUnsuspect, p);
      }
      applied = true;
      break;
    }
    case kSuspect: {
      if (u.incarnation > cur_inc ||
          (u.incarnation == cur_inc && cur_state == kAlive)) {
        peers_[p] = Peer{u.incarnation, kSuspect, env_.now()};
        if (cur_state == kAlive) {
          suspected_.add(p);
          env_.record(EventType::kSuspect, p);
        }
        applied = true;
      }
      break;
    }
    case kDead: {
      if (u.incarnation >= cur_inc && cur_state != kDead) {
        peers_[p] = Peer{u.incarnation, kDead, env_.now()};
        if (cur_state == kAlive) {
          suspected_.add(p);
          env_.record(EventType::kSuspect, p);
        }
        env_.trace("swim.dead", "p" + std::to_string(p));
        applied = true;
      }
      break;
    }
    default:
      break;
  }
  if (applied) {
    enqueue_update(u);
    const ProcessId t = trusted();
    if (t != last_trusted_) {
      last_trusted_ = t;
      env_.record(EventType::kLeaderChange, t);
    }
  }
  return applied;
}

void SwimFd::attach_subject_state(SwimBody& body) {
  // A ping aimed at a peer we hold in suspect/dead state carries that very
  // claim, outside any gossip budget: refutations gossip with a finite
  // budget, so a victim that never saw the original rumor would otherwise
  // stay falsely suspected here forever — direct probes are the backstop
  // that makes the accuracy eventual-STRONG in a fixed universe.
  const auto it = peers_.find(body.subject);
  if (it != peers_.end() && it->second.state != kAlive) {
    body.updates.push_back(
        SwimUpdate{body.subject, it->second.incarnation, it->second.state});
  }
}

void SwimFd::resolve_probe(std::uint64_t seq) {
  const auto it = probes_.find(seq);
  if (it == probes_.end()) return;
  const ProcessId t = it->second.target;
  probes_.erase(it);
  // No direct or indirect ack inside the window: originate a suspicion at
  // the target's currently known incarnation.
  apply_update(SwimUpdate{t, known_incarnation(t), kSuspect});
}

void SwimFd::tick() {
  const TimeUs now = env_.now();

  // Promote expired suspicions to dead (still refutable at a higher
  // incarnation — see the file comment on the crash-stop adaptation).
  for (ProcessId p : suspected_.members()) {
    const auto it = peers_.find(p);
    if (it != peers_.end() && it->second.state == kSuspect &&
        now - it->second.suspected_at > cfg_.suspect_timeout) {
      apply_update(SwimUpdate{p, it->second.incarnation, kDead});
    }
  }

  if (env_.n() > 1) {
    const ProcessId target = random_peer_except(env_.self());
    const std::uint64_t seq = next_seq_++;
    probes_[seq] = Probe{target, false};
    SwimBody body{seq, env_.self(), target, {}};
    attach_subject_state(body);
    send_with_gossip(target, kPing, "swim.ping", std::move(body));
    env_.set_timer(ack_timeout_, [this, seq, target]() {
      if (probes_.find(seq) == probes_.end()) return;  // acked already
      // Missed direct ack: probe indirectly through k random relays.
      ProcessSet chosen(env_.n());
      int relays = 0;
      for (int attempt = 0; attempt < 8 * cfg_.indirect_k && relays < cfg_.indirect_k;
           ++attempt) {
        const ProcessId r = random_peer_except(env_.self());
        if (r == target || chosen.contains(r)) continue;
        chosen.add(r);
        ++relays;
        send_with_gossip(r, kPingReq, "swim.pingreq",
                         SwimBody{seq, env_.self(), target, {}});
      }
      env_.set_timer(ack_timeout_, [this, seq]() { resolve_probe(seq); });
    });
  }

  env_.set_timer(cfg_.period, [this]() { tick(); });
}

void SwimFd::on_message(const Message& m) {
  const auto& b = m.as<SwimBody>();
  for (const SwimUpdate& u : b.updates) apply_update(u);
  switch (m.type) {
    case kPing:
      // Ack to the immediate sender; it forwards when it relayed.
      send_with_gossip(m.src, kAck, "swim.ack",
                       SwimBody{b.seq, b.origin, env_.self(), {}});
      break;
    case kPingReq:
      if (b.subject >= 0 && b.subject < env_.n() && b.subject != env_.self()) {
        SwimBody fwd{b.seq, b.origin, b.subject, {}};
        attach_subject_state(fwd);
        send_with_gossip(b.subject, kPing, "swim.ping", std::move(fwd));
      }
      break;
    case kAck:
      if (b.origin == env_.self()) {
        probes_.erase(b.seq);
      } else if (b.origin >= 0 && b.origin < env_.n()) {
        send_with_gossip(b.origin, kAck, "swim.ack",
                         SwimBody{b.seq, b.origin, b.subject, {}});
      }
      break;
    default:
      break;
  }
}

}  // namespace ecfd::fd
