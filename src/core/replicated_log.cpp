#include "core/replicated_log.hpp"

#include <algorithm>

namespace ecfd::core {

LogReplica::LogReplica(Env& host, const EcfdOracle* fd, Config cfg)
    : cfg_(cfg),
      decided_(static_cast<std::size_t>(cfg.capacity)),
      proposed_(static_cast<std::size_t>(cfg.capacity), kNoOpCommand),
      sent_(static_cast<std::size_t>(cfg.capacity), 0) {
  assert(cfg_.capacity > 0);
  assert(cfg_.pipeline_depth > 0);
  slots_.reserve(static_cast<std::size_t>(cfg_.capacity));
  ConsensusC::Config slot_cfg = cfg_.consensus;
  slot_cfg.deprioritized = kNoOpCommand;  // real commands win ties
  for (int k = 0; k < cfg_.capacity; ++k) {
    auto& rb = host.emplace<broadcast::ReliableBroadcast>(
        cfg_.protocol_base + 2 * k + 1);
    auto& cons = host.emplace<ConsensusC>(fd, &rb, slot_cfg,
                                          cfg_.protocol_base + 2 * k);
    cons.set_on_decide([this, k](const consensus::Decision& d) {
      on_slot_decided(k, d);
    });
    if (cfg_.quiescent) {
      cons.set_on_wakeup([this, k]() { on_slot_activity(k); });
    }
    slots_.push_back(&cons);
  }
  // Kick slot 0 so the pipeline runs even if nothing is ever submitted
  // (other replicas' slots need our participation). Quiescent logs skip
  // this: slots start on first submit or first foreign traffic.
  propose_next();
}

void LogReplica::submit(consensus::Value command) {
  assert(command != kNoOpCommand);
  pending_.push_back(command);
  propose_next();
}

// Picks the first pending command not already racing in an undecided slot
// (values may repeat, so count occurrences). kNoOpCommand when none.
consensus::Value LogReplica::pick_pending() const {
  std::map<consensus::Value, std::size_t> skipped;
  for (const consensus::Value v : pending_) {
    if (skipped[v] < in_flight_.count(v)) {
      ++skipped[v];
      continue;
    }
    return v;
  }
  return kNoOpCommand;
}

void LogReplica::propose_into(int slot, consensus::Value v) {
  sent_[static_cast<std::size_t>(slot)] = 1;
  proposed_[static_cast<std::size_t>(slot)] = v;
  if (v != kNoOpCommand) in_flight_.insert(v);
  slots_[static_cast<std::size_t>(slot)]->propose(v);
}

// Foreign traffic on a slot this replica has not proposed into: another
// replica started it, so join in — give a pending command a ride when one
// is eligible, otherwise participate with the classic no-op. (Only wired
// up in quiescent mode.)
void LogReplica::on_slot_activity(int slot) {
  if (sent_[static_cast<std::size_t>(slot)] ||
      decided_[static_cast<std::size_t>(slot)].has_value()) {
    return;
  }
  propose_into(slot, pick_pending());
  propose_next();  // the cursor may now skip past this slot
}

void LogReplica::propose_next() {
  // Propose slot k once slot k - pipeline_depth has decided, i.e. keep at
  // most pipeline_depth consecutive slots in flight. With depth 1 this is
  // the classic "wait for the previous decision" rule.
  while (next_proposal_slot_ < cfg_.capacity) {
    const int k = next_proposal_slot_;
    if (sent_[static_cast<std::size_t>(k)] ||
        decided_[static_cast<std::size_t>(k)].has_value()) {
      ++next_proposal_slot_;  // joined via activity, or decided without us
      continue;
    }
    const int gate = k - cfg_.pipeline_depth;
    if (gate >= 0 && !decided_[static_cast<std::size_t>(gate)].has_value())
      break;

    const consensus::Value choice = pick_pending();
    // A quiescent replica with nothing to say leaves the slot dormant
    // instead of burning it on a no-op.
    if (choice == kNoOpCommand && cfg_.quiescent) break;

    // Move the cursor first: at n = 1 the slot decides inside propose(),
    // and the decision runs this loop again from the cursor.
    ++next_proposal_slot_;
    propose_into(k, choice);
  }
}

void LogReplica::on_slot_decided(int slot, const consensus::Decision& d) {
  auto& cell = decided_[static_cast<std::size_t>(slot)];
  if (cell.has_value()) return;
  cell = d;

  // Our proposal for this slot is no longer in flight (whether it won or
  // lost); a losing command stays in pending_ and gets a later slot.
  const consensus::Value ours = proposed_[static_cast<std::size_t>(slot)];
  if (ours != kNoOpCommand) {
    auto it = in_flight_.find(ours);
    if (it != in_flight_.end()) in_flight_.erase(it);
  }

  // Retire the decided command from our queue if we were the origin. Not
  // necessarily the front: with pipelining, a later-proposed command can
  // decide first.
  if (d.value != kNoOpCommand) {
    auto it = std::find(pending_.begin(), pending_.end(), d.value);
    if (it != pending_.end()) pending_.erase(it);
  }

  drain_applied();
  propose_next();
}

void LogReplica::drain_applied() {
  // Apply strictly in slot order; decisions can be learned out of order
  // when a later slot's reliable broadcast overtakes an earlier one.
  while (applied_upto_ < cfg_.capacity &&
         decided_[static_cast<std::size_t>(applied_upto_)].has_value()) {
    const consensus::Decision& dd =
        *decided_[static_cast<std::size_t>(applied_upto_)];
    if (dd.value != kNoOpCommand) {
      Entry e{dd.value, applied_upto_, dd.at};
      log_.push_back(e);
      if (apply_) apply_(e);
    }
    ++applied_upto_;
  }
}

void LogReplica::compact(int upto_slot) {
  const int upto = std::min(upto_slot, applied_upto_);
  if (upto <= compacted_upto_) return;
  log_.erase(std::remove_if(log_.begin(), log_.end(),
                            [upto](const Entry& e) { return e.slot < upto; }),
             log_.end());
  compacted_upto_ = upto;
}

void LogReplica::install_snapshot(int upto_slot) {
  const int upto = std::min(upto_slot, cfg_.capacity);
  if (upto <= applied_upto_) return;

  // Mark the covered slots decided (synthetic no-ops) so the apply loop
  // and the proposal gate both step over them. A real decision arriving
  // later for one of these slots hits the has_value() guard and is
  // ignored — the snapshot already reflects it.
  for (int k = applied_upto_; k < upto; ++k) {
    auto& cell = decided_[static_cast<std::size_t>(k)];
    if (!cell.has_value()) cell = consensus::Decision{kNoOpCommand, 0, 0};
    const consensus::Value ours = proposed_[static_cast<std::size_t>(k)];
    if (ours != kNoOpCommand) {
      auto it = in_flight_.find(ours);
      if (it != in_flight_.end()) in_flight_.erase(it);
    }
  }
  applied_upto_ = upto;
  next_proposal_slot_ = std::max(next_proposal_slot_, upto);
  compact(upto);
  drain_applied();
  propose_next();
}

}  // namespace ecfd::core
