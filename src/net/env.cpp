#include "net/env.hpp"

#include <cassert>
#include <utility>

#include "wire/codec.hpp"

namespace ecfd {

Env::~Env() = default;

void Env::add_protocol(std::unique_ptr<Protocol> proto) {
  assert(proto != nullptr);
  assert(!started_ && "register protocols before start()");
  const bool inserted =
      by_id_.emplace(proto->protocol_id(), proto.get()).second;
  assert(inserted && "duplicate protocol id on this process");
  (void)inserted;
  protocols_.push_back(std::move(proto));
}

Protocol* Env::protocol(ProtocolId id) const {
  const auto it = by_id_.find(id);
  return it == by_id_.end() ? nullptr : it->second;
}

void Env::fd_changed() {
  for (auto& p : protocols_) p->on_fd_change();
}

void Env::start_protocols() {
  started_ = true;
  for (auto& p : protocols_) p->start();
}

bool Env::dispatch(const Message& m) {
  const auto it = by_id_.find(m.protocol);
  if (it == by_id_.end()) return false;
  // A body that does not fit n comes from a forged or corrupt frame; like a
  // body of another kind, it is dropped without a count or an event.
  if (!wire::fits_universe(m, n())) return true;
  record(EventType::kDeliver, m.src, m.protocol);
  it->second->on_message(m);
  return true;
}

}  // namespace ecfd
