#include "fd/omega_from_s.hpp"

#include <algorithm>

namespace ecfd::fd {

namespace {
constexpr int kCounts = 1;
}

OmegaFromS::OmegaFromS(Env& env, const SuspectOracle* input)
    : OmegaFromS(env, input, Config{}) {}

OmegaFromS::OmegaFromS(Env& env, const SuspectOracle* input, Config cfg)
    : Protocol(env, protocol_ids::kOmegaFromS),
      cfg_(cfg),
      input_(input),
      rows_(static_cast<std::size_t>(env.n()),
            std::vector<std::uint64_t>(static_cast<std::size_t>(env.n()), 0)) {}

void OmegaFromS::start() {
  env_.set_timer(env_.rng().range(0, cfg_.period), [this]() { tick(); });
}

void OmegaFromS::tick() {
  auto& mine = rows_[static_cast<std::size_t>(env_.self())];
  const ProcessSet susp = input_->suspected();
  for (ProcessId q = 0; q < env_.n(); ++q) {
    if (q != env_.self() && susp.contains(q)) {
      ++mine[static_cast<std::size_t>(q)];
    }
  }
  env_.broadcast(Message::make(protocol_id(), kCounts, "ofs.counts", mine));
  env_.set_timer(cfg_.period, [this]() { tick(); });
}

void OmegaFromS::on_message(const Message& m) {
  const auto* row = m.as<std::vector<std::uint64_t>>();
  if (m.type != kCounts || row == nullptr) return;
  auto& known = rows_[static_cast<std::size_t>(m.src)];
  for (std::size_t i = 0; i < known.size(); ++i) {
    known[i] = std::max(known[i], (*row)[i]);
  }
}

std::uint64_t OmegaFromS::penalty(ProcessId q) const {
  std::uint64_t total = 0;
  for (const auto& row : rows_) total += row[static_cast<std::size_t>(q)];
  return total;
}

ProcessId OmegaFromS::trusted() const {
  ProcessId best = 0;
  std::uint64_t best_penalty = penalty(0);
  for (ProcessId q = 1; q < env_.n(); ++q) {
    const std::uint64_t s = penalty(q);
    if (s < best_penalty) {
      best = q;
      best_penalty = s;
    }
  }
  return best;
}

}  // namespace ecfd::fd
