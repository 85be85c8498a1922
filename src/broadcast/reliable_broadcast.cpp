#include "broadcast/reliable_broadcast.hpp"

namespace ecfd::broadcast {

namespace {
constexpr int kRelay = 1;
}

ReliableBroadcast::ReliableBroadcast(Env& env, ProtocolId pid)
    : Protocol(env, pid) {}

void ReliableBroadcast::diffuse_and_deliver(const RbEnvelope& envelope) {
  if (!seen_.insert(key(envelope)).second) return;  // already delivered
  // Relay first (diffusion), then deliver to the application; the envelope
  // body is shared, so relaying costs no copies.
  env_.broadcast(
      Message::make(protocol_id(), kRelay, "rb.relay", envelope));
  if (deliver_) deliver_(envelope);
}

void ReliableBroadcast::on_message(const Message& m) {
  const auto* envelope = m.as<RbEnvelope>();
  if (m.type != kRelay || envelope == nullptr) return;
  diffuse_and_deliver(*envelope);
}

}  // namespace ecfd::broadcast
