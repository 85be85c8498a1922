#pragma once

#include <cassert>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "broadcast/reliable_broadcast.hpp"
#include "core/consensus_c.hpp"
#include "net/env.hpp"

/// \file replicated_log.hpp
/// State-machine replication on repeated instances of the paper's
/// ◇C-consensus: the canonical application that motivates consensus
/// (Section 1.2). Each log slot is one independent instance of the
/// Figs. 3-4 algorithm; all replicas apply the slot decisions in slot
/// order, so their logs are identical.
///
/// Liveness requires every replica to participate in every slot (a
/// coordinator waits for a reply from every unsuspected process), so a
/// replica with nothing to say proposes a no-op — the classic Multi-Paxos
/// idiom. No-ops consume a slot but are not applied.
///
/// Usage: construct one LogReplica per process (same capacity and
/// protocol_base everywhere), submit() commands at any time, and read the
/// applied log. Slots are proposed strictly in order. With the default
/// pipeline_depth of 1, slot k+1 is proposed once this replica has
/// learned slot k's decision; deeper pipelines keep up to that many
/// consecutive slots in flight, tracking which pending commands are
/// already proposed so the same command is never racing itself in two
/// slots. The same replica runs on both Env backends (simulator and UDP).

namespace ecfd::core {

/// Slot filler proposed when a replica has no pending command.
inline constexpr consensus::Value kNoOpCommand =
    std::numeric_limits<consensus::Value>::min();

class LogReplica {
 public:
  /// Decided, applied log entry (no-ops excluded).
  struct Entry {
    consensus::Value command{};
    int slot{};
    TimeUs decided_at{};
  };

  using ApplyFn = std::function<void(const Entry&)>;

  struct Config {
    /// Number of slots to pre-provision. Consensus instances must exist
    /// on every host before their messages arrive, so the capacity is
    /// fixed up front.
    int capacity{16};
    /// First protocol id of the block used by the instances; slot k
    /// consumes ids base+2k (consensus) and base+2k+1 (broadcast). Must
    /// not collide with other protocols and must match across processes.
    ProtocolId protocol_base{1000};
    /// Max consecutive slots proposed ahead of the decided prefix.
    int pipeline_depth{1};
    /// When false (the classic mode), every replica proposes a no-op the
    /// moment a slot's gate opens, so the pipeline free-runs and the log
    /// consumes slots even while idle — fine for unbounded demos, fatal
    /// for a bounded service log. When true, a replica proposes into a
    /// slot only when it has a pending command or the slot has shown
    /// foreign traffic (another replica proposed first): an idle cluster
    /// consumes no slots at all. A replica that submits while not the
    /// FD leader can leave its slot parked until the leader next
    /// submits — services that redirect writes to the leader (ecfd-kv)
    /// make that window both rare and self-healing, because the retried
    /// client lands on the leader and its submission unparks the slot.
    bool quiescent{false};
    ConsensusC::Config consensus;
  };

  /// Installs the instances on \p host. \p fd is the host's ◇C module
  /// (not owned; must outlive the host).
  LogReplica(Env& host, const EcfdOracle* fd)
      : LogReplica(host, fd, Config{}) {}
  LogReplica(Env& host, const EcfdOracle* fd, Config cfg);

  LogReplica(const LogReplica&) = delete;
  LogReplica& operator=(const LogReplica&) = delete;

  /// Queues \p command (!= kNoOpCommand) for replication.
  void submit(consensus::Value command);

  /// Callback invoked, in slot order, for every applied entry.
  void set_apply(ApplyFn fn) { apply_ = std::move(fn); }

  /// The applied log so far (slot order, no-ops filtered out, compacted
  /// prefix dropped).
  [[nodiscard]] const std::vector<Entry>& log() const { return log_; }

  /// Slots whose decision this replica has learned and applied.
  [[nodiscard]] int applied_slots() const { return applied_upto_; }

  /// Commands submitted here and not yet decided anywhere.
  [[nodiscard]] std::size_t pending() const { return pending_.size(); }

  [[nodiscard]] int capacity() const { return cfg_.capacity; }

  /// True when every slot has been consumed: nothing further can commit.
  [[nodiscard]] bool exhausted() const {
    return applied_upto_ >= cfg_.capacity;
  }

  /// Drops applied log entries for slots < \p upto_slot (the caller holds
  /// a snapshot of the state machine at that point). Clamped to the
  /// applied prefix; monotone.
  void compact(int upto_slot);

  /// Slots below this are compacted away; log() starts here.
  [[nodiscard]] int compacted_upto() const { return compacted_upto_; }

  /// Fast-forwards a lagging replica past slots [0, upto_slot): the
  /// caller has installed a state-machine snapshot covering them, so they
  /// are marked decided-and-applied without running apply callbacks.
  /// Decisions that later arrive for those slots are ignored. No-op when
  /// upto_slot <= applied_slots().
  void install_snapshot(int upto_slot);

 private:
  void on_slot_decided(int slot, const consensus::Decision& d);
  void on_slot_activity(int slot);
  void propose_into(int slot, consensus::Value v);
  [[nodiscard]] consensus::Value pick_pending() const;
  void propose_next();
  void drain_applied();

  Config cfg_;
  std::vector<ConsensusC*> slots_;  // owned by the host
  std::vector<std::optional<consensus::Decision>> decided_;
  std::vector<consensus::Value> proposed_;  // per-slot proposed value
  std::vector<char> sent_;                  // proposed into this slot yet?
  std::vector<consensus::Value> pending_;
  std::multiset<consensus::Value> in_flight_;  // proposed, not yet decided
  std::vector<Entry> log_;
  int next_proposal_slot_{0};
  int applied_upto_{0};
  int compacted_upto_{0};
  ApplyFn apply_;
};

}  // namespace ecfd::core
