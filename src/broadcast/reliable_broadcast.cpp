#include "broadcast/reliable_broadcast.hpp"

namespace ecfd::broadcast {

namespace {
constexpr int kRelay = 1;
}

ReliableBroadcast::ReliableBroadcast(Env& env, ProtocolId pid)
    : Protocol(env, pid) {}

void ReliableBroadcast::diffuse_and_deliver(const RbEnvelope& envelope,
                                            ProcessId from) {
  if (!seen_.insert(key(envelope)).second) return;  // already delivered
  // Relay first (diffusion), then deliver to the application; the envelope
  // body is shared, so relaying costs no copies. The origin and the process
  // this copy came from have both delivered m already: skip them.
  const Message relay =
      Message::make(protocol_id(), kRelay, "rb.relay", envelope);
  for (ProcessId q = 0; q < env_.n(); ++q) {
    if (q != env_.self() && q != envelope.origin && q != from) {
      env_.send(q, relay);
    }
  }
  if (deliver_) deliver_(envelope);
}

void ReliableBroadcast::on_message(const Message& m) {
  const auto* envelope = m.as<RbEnvelope>();
  if (m.type != kRelay || envelope == nullptr) return;
  diffuse_and_deliver(*envelope, m.src);
}

}  // namespace ecfd::broadcast
