#include "fd/w_to_s.hpp"

namespace ecfd::fd {

namespace {
constexpr int kSuspects = 1;
}

WToS::WToS(Env& env, const SuspectOracle* input)
    : WToS(env, input, Config{}) {}

WToS::WToS(Env& env, const SuspectOracle* input, Config cfg)
    : Protocol(env, protocol_ids::kWToS),
      cfg_(cfg),
      input_(input),
      output_(env.n()) {}

void WToS::start() {
  env_.set_timer(env_.rng().range(0, cfg_.period), [this]() { tick(); });
}

void WToS::tick() {
  const ProcessSet in = input_->suspected();
  env_.broadcast(Message::make(protocol_id(), kSuspects, "wts.suspects", in));
  // Local suspicions merge immediately (a process trivially "receives" its
  // own broadcast).
  output_ |= in;
  output_.remove(env_.self());
  env_.set_timer(cfg_.period, [this]() { tick(); });
}

void WToS::on_message(const Message& m) {
  const auto* suspects = m.as<ProcessSet>();
  if (m.type != kSuspects || suspects == nullptr) return;
  output_ |= *suspects;
  output_.remove(m.src);  // the message itself proves m.src alive
  output_.remove(env_.self());
}

}  // namespace ecfd::fd
