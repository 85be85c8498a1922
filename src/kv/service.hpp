#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

#include "broadcast/reliable_broadcast.hpp"
#include "core/ecfd_oracle.hpp"
#include "core/replicated_log.hpp"
#include "kv/command.hpp"
#include "kv/store.hpp"
#include "net/protocol_ids.hpp"
#include "obs/metrics.hpp"

/// \file service.hpp
/// The replicated key-value service: KvStore replicated over LogReplica,
/// with client sessions, command batching, leader-lease reads, and
/// snapshot-based log compaction.
///
/// Slot values are 64-bit ints (consensus::Value), so commands travel in
/// two parts: a BatchBody (many client commands under one unique positive
/// batch id) is disseminated on a dedicated reliable-broadcast instance,
/// and the consensus slot decides only the id. Replicas apply a slot by
/// looking the id up in their delivered-bodies table; when a slot's body
/// has not arrived yet, the apply pipeline stalls (in slot order) until
/// RB delivers it — agreement on ids plus reliable dissemination of
/// bodies yields identical stores everywhere.
///
/// Exactly-once: sessions are replicated state (kOpenSession is a logged
/// command), and every write carries a per-session sequence number that
/// KvStore dedups against its replicated window. A client that times out
/// and retries through a *different* leader still gets each write applied
/// once, because the new leader's store already saw the (session, seq).
///
/// Lease reads: when this replica has been the ◇C trusted process
/// continuously for `lease_establish`, and still is, it serves GET-only
/// requests from local state without a log slot. A detector that
/// notifies (Env::fd_changed) ends the lease the moment its leader output
/// leaves this replica; otherwise the periodic lease check does. ◇C gives
/// *eventual* leader agreement, not bounded-time mutual exclusion, so
/// during pathological periods a lease read can return slightly stale
/// (but committed) data; writes are always serialized through consensus,
/// so state never diverges. Grants
/// and revocations are obs events (kLeaseGrant/kLeaseRevoke) and
/// metrics. Requests that cannot use the lease fall back to
/// through-the-log reads.
///
/// Snapshots: every `snapshot_every` applied slots the service compacts the
/// log prefix it has applied; that point is its compaction floor. Replicas
/// gossip applied watermarks. The store is serialized only when a peer's
/// watermark shows it below this replica's floor: the slots it misses no
/// longer exist here as log entries, so it gets a snapshot image of the
/// store as applied at that moment (at or past the floor), in chunks, once
/// per peer and floor (install-on-join). A cluster with no laggard builds
/// no image; `kv.snapshots.taken` counts the images built.
///
/// The service runs unchanged on both Env backends. Peer traffic
/// (watermarks, snapshot chunks) flows through Env::send; client traffic
/// enters via handle_client() (the UDP node's external-frame handler) or
/// handle_request() (tests) and leaves through the pluggable reply sink.

namespace ecfd::kv {

class KvService final : public Protocol {
 public:
  /// Opaque client identity a reply should be routed back to. For the UDP
  /// node this is SocketEnv's external token (ip:port); tests pick any
  /// value.
  using Token = std::uint64_t;
  using ReplySink = std::function<void(Token, const Reply&)>;

  struct Config {
    std::size_t batch_max_ops{64};   ///< flush when this many cmds queued
    DurUs batch_wait{2'000};         ///< flush at most this long after first
    DurUs lease_establish{500'000};  ///< trusted-self streak before a grant
    DurUs lease_check_every{50'000};
    int snapshot_every{64};          ///< applied slots between compactions
    DurUs gossip_every{200'000};     ///< applied-watermark broadcast period
    std::size_t dedup_window{64};    ///< per-session cached results
    std::size_t max_queued_cmds{4096};  ///< admission bound before kOverloaded
  };

  KvService(Env& env, const core::EcfdOracle* fd, core::LogReplica* log,
            broadcast::ReliableBroadcast* batch_rb)
      : KvService(env, fd, log, batch_rb, Config{}) {}
  KvService(Env& env, const core::EcfdOracle* fd, core::LogReplica* log,
            broadcast::ReliableBroadcast* batch_rb, Config cfg);

  void start() override;
  void on_message(const Message& m) override;
  /// A replica that stops trusting itself gives up its lease at once and
  /// starts its lease_establish streak over; one that starts trusting
  /// itself starts the streak now.
  void on_fd_change() override;

  /// Client entry point. May reply synchronously (redirect, lease read,
  /// validation error, dedup hit) or asynchronously on commit; every
  /// request produces exactly one reply through the sink.
  void handle_request(Token token, const Request& req);

  /// A client frame: a kMsgClientRequest carrying a Request goes to
  /// handle_request(); any other frame is dropped, as on_message drops an
  /// unknown message type.
  void handle_client(Token token, const Message& m);

  /// Where replies to handle_request() clients go. Must be set before the
  /// first request.
  void set_reply_sink(ReplySink sink) { reply_sink_ = std::move(sink); }

  /// Binds service counters/gauges into \p m (nullptr to unbind).
  void bind_metrics(obs::MetricsRegistry* m);

  [[nodiscard]] const KvStore& store() const { return store_; }
  [[nodiscard]] bool lease_valid() const { return lease_valid_; }
  [[nodiscard]] std::int64_t lease_term() const { return lease_term_; }
  /// Slots fully applied to the store (stalled applies excluded).
  [[nodiscard]] int applied_slot() const;
  [[nodiscard]] bool is_leader() const { return fd_->trusted() == env_.self(); }
  [[nodiscard]] std::size_t queued_cmds() const { return batch_.cmds.size(); }

  /// Forces the pending batch out now (tests; avoids waiting batch_wait).
  void flush_batch();

  /// Compacts the log up to the applied slot now, regardless of
  /// snapshot_every. No image is built until a laggard needs one.
  void snapshot_now();

 private:
  struct Waiter {
    Token token{};
    std::uint64_t session{};
    std::uint64_t tag{};
    std::size_t first{};  ///< index range of this request's cmds in batch
    std::size_t count{};
  };

  void reply_to(const Waiter& w, Reply r);
  void enqueue(const Waiter& w, const Request& req);
  void on_batch_delivered(const broadcast::RbEnvelope& e);
  void on_log_entry(const core::LogReplica::Entry& e);
  void drain_applies();
  void apply_batch(int slot, const BatchBody& body);
  void maybe_compact();
  void lease_tick();
  void revoke_lease();
  void gossip_tick();
  void on_peer_applied(ProcessId peer, std::int64_t applied);
  void on_snapshot_chunk(const SnapshotChunk& chunk);
  void send_snapshot_to(ProcessId peer);
  void refresh_gauges();
  [[nodiscard]] bool lease_read_ok(const Request& req) const;

  Config cfg_;
  const core::EcfdOracle* fd_;
  core::LogReplica* log_;
  broadcast::ReliableBroadcast* rb_;
  KvStore store_;
  ReplySink reply_sink_;

  // Batching.
  BatchBody batch_;                 ///< building; id assigned at first cmd
  std::vector<Waiter> batch_waiters_;
  std::uint64_t batch_counter_{0};
  TimerId batch_timer_{kInvalidTimer};

  // Dissemination + apply pipeline.
  std::unordered_map<std::int64_t, BatchBody> bodies_;
  std::unordered_map<std::int64_t, std::vector<Waiter>> waiters_;
  std::deque<core::LogReplica::Entry> apply_queue_;  ///< stalled on bodies

  // Lease.
  bool lease_valid_{false};
  TimeUs trusted_self_since_{kTimeNever};
  std::int64_t lease_term_{0};

  // Snapshots.
  std::uint64_t snap_counter_{0};  ///< images built here (chunk ids)
  int compacted_upto_{0};          ///< the compaction floor
  std::map<ProcessId, int> snap_sent_;  ///< floor of the last image sent
  struct Inbound {
    std::uint64_t id{0};
    int upto_slot{0};
    std::uint32_t total{0};
    std::uint32_t have{0};
    std::vector<std::vector<std::uint8_t>> chunks;
  };
  std::optional<Inbound> inbound_;

  // Metrics (owned by the registry; null when unbound).
  obs::MetricsRegistry::Cell* m_requests_{nullptr};
  obs::MetricsRegistry::Cell* m_redirects_{nullptr};
  obs::MetricsRegistry::Cell* m_lease_reads_{nullptr};
  obs::MetricsRegistry::Cell* m_batches_{nullptr};
  obs::MetricsRegistry::Cell* m_batch_ops_{nullptr};
  obs::MetricsRegistry::Cell* m_overload_{nullptr};
  obs::MetricsRegistry::Cell* m_lease_grants_{nullptr};
  obs::MetricsRegistry::Cell* m_lease_revokes_{nullptr};
  obs::MetricsRegistry::Cell* m_snaps_taken_{nullptr};
  obs::MetricsRegistry::Cell* m_snaps_installed_{nullptr};
  /// The gauges refresh_gauges() writes, registered once by bind_metrics.
  std::array<obs::MetricsRegistry::Cell*, 12> gauges_{};
};

}  // namespace ecfd::kv
