#include "fd/ring_fd.hpp"

namespace ecfd::fd {

namespace {
constexpr int kQuery = 1;
constexpr int kReply = 2;
}

RingFd::RingFd(Env& env) : RingFd(env, Config{}) {}

RingFd::RingFd(Env& env, Config cfg)
    : Protocol(env, protocol_ids::kRingFd),
      cfg_(cfg),
      suspected_(env.n()),
      known_seq_(static_cast<std::size_t>(env.n()), 0),
      timeout_(static_cast<std::size_t>(env.n()), cfg.initial_timeout),
      last_heard_(static_cast<std::size_t>(env.n()), 0) {}

void RingFd::start() {
  env_.set_timer(env_.rng().range(0, cfg_.period), [this]() { poll(); });
}

ProcessId RingFd::target() const {
  const int n = env_.n();
  for (int step = 1; step < n; ++step) {
    const ProcessId q = (env_.self() + step) % n;
    if (!suspected_.contains(q)) return q;
  }
  // Everyone else suspected: keep probing the immediate successor so that a
  // totally isolated view can still recover.
  return (env_.self() + 1) % n;
}

RingFd::Body RingFd::make_body() const {
  Body b;
  b.seq = known_seq_;
  b.seq[static_cast<std::size_t>(env_.self())] = seq_;
  b.susp = suspected_;
  return b;
}

void RingFd::send_query(ProcessId to) {
  env_.send(to, Message::make(protocol_id(), kQuery, "ring.query", make_body()));
  const TimeUs sent = env_.now();
  env_.set_timer(timeout_[static_cast<std::size_t>(to)], [this, to, sent]() {
    if (last_heard_[static_cast<std::size_t>(to)] < sent &&
        !suspected_.contains(to)) {
      suspected_.add(to);
      env_.record(EventType::kSuspect, to);
    }
  });
}

void RingFd::poll() {
  ++seq_;
  ++polls_;
  send_query(target());

  // Recovery poll: probe one currently suspected process occasionally, so a
  // process everyone suspects (and thus nobody targets) can still clear
  // itself directly. Timeouts of already-suspected processes don't re-arm.
  if (cfg_.recovery_every > 0 && polls_ % cfg_.recovery_every == 0 &&
      !suspected_.empty()) {
    const auto suspects = suspected_.members();
    recovery_cursor_ = (recovery_cursor_ + 1) % static_cast<int>(suspects.size());
    const ProcessId victim = suspects[static_cast<std::size_t>(recovery_cursor_)];
    env_.send(victim,
              Message::make(protocol_id(), kQuery, "ring.query", make_body()));
  }

  env_.set_timer(cfg_.period, [this]() { poll(); });
}

void RingFd::merge(const Body& body) {
  const int n = env_.n();
  for (ProcessId r = 0; r < n; ++r) {
    const auto i = static_cast<std::size_t>(r);
    if (r == env_.self()) continue;
    // Adopt a remote suspicion only when the sender knows r at least as
    // freshly as we do; otherwise it is stale news.
    if (body.susp.contains(r) && body.seq[i] >= known_seq_[i]) {
      if (!suspected_.contains(r)) {
        suspected_.add(r);
        env_.record(EventType::kSuspect, r);
      }
    }
    if (body.seq[i] > known_seq_[i]) {
      known_seq_[i] = body.seq[i];
      if (suspected_.contains(r)) {
        suspected_.remove(r);
        timeout_[i] += cfg_.timeout_increment;
        env_.record(EventType::kUnsuspect, r);
      }
    }
  }
}

void RingFd::on_message(const Message& m) {
  last_heard_[static_cast<std::size_t>(m.src)] = env_.now();
  const auto& body = m.as<Body>();
  // A message from m.src proves it alive right now: treat like a fresh
  // sequence observation even if the numeric seq already reached us via a
  // third party.
  if (suspected_.contains(m.src)) {
    suspected_.remove(m.src);
    timeout_[static_cast<std::size_t>(m.src)] += cfg_.timeout_increment;
    env_.record(EventType::kUnsuspect, m.src);
  }
  merge(body);
  if (m.type == kQuery) {
    env_.send(m.src,
              Message::make(protocol_id(), kReply, "ring.reply", make_body()));
  }
}

ProcessId RingFd::trusted() const {
  const ProcessId first = suspected_.first_excluded();
  // first_excluded covers 0..n-1 and can only fail when everything is
  // suspected, which cannot include self.
  return first == kNoProcess ? env_.self() : first;
}

}  // namespace ecfd::fd
