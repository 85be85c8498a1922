#include "kv/service.hpp"

#include <algorithm>

namespace ecfd::kv {
namespace {

/// Peer-relayed requests get tokens in a reserved range so they can never
/// collide with transport-issued external tokens (SocketEnv packs
/// ip:port into the low 48 bits).
constexpr KvService::Token kPeerTokenBase = 0xFFFF'0000'0000'0000ULL;

bool all_gets(const Request& req) {
  return std::all_of(req.ops.begin(), req.ops.end(), [](const Op& op) {
    return op.op == OpKind::kGet;
  });
}

bool op_too_large(const Op& op) {
  return op.key.size() > kMaxKeyBytes || op.value.size() > kMaxValueBytes ||
         op.expected.size() > kMaxValueBytes;
}

}  // namespace

KvService::KvService(Env& env, const core::EcfdOracle* fd,
                     core::LogReplica* log,
                     broadcast::ReliableBroadcast* batch_rb, Config cfg)
    : Protocol(env, protocol_ids::kKvService),
      cfg_(cfg),
      fd_(fd),
      log_(log),
      rb_(batch_rb),
      store_(KvStore::Config{cfg.dedup_window}) {
  rb_->set_deliver(
      [this](const broadcast::RbEnvelope& e) { on_batch_delivered(e); });
  log_->set_apply(
      [this](const core::LogReplica::Entry& e) { on_log_entry(e); });
}

void KvService::start() {
  env_.set_timer(cfg_.lease_check_every, [this] { lease_tick(); });
  env_.set_timer(cfg_.gossip_every, [this] { gossip_tick(); });
}

int KvService::applied_slot() const {
  // Entries stalled on an undelivered body cap the effective watermark.
  return apply_queue_.empty() ? log_->applied_slots()
                              : apply_queue_.front().slot;
}

// ---------------------------------------------------------------- clients

void KvService::handle_request(Token token, const Request& req) {
  handle_request_from(token, /*via_peer=*/false, kNoProcess, req);
}

void KvService::handle_request_from(Token token, bool via_peer,
                                    ProcessId peer, const Request& req) {
  if (m_requests_) m_requests_->fetch_add(1, std::memory_order_relaxed);

  Waiter w;
  w.token = token;
  w.via_peer = via_peer;
  w.peer = peer;
  w.session = req.session;
  w.tag = req.tag;

  Reply r;
  r.session = req.session;
  r.tag = req.tag;

  if (req.version != kProtoVersion) {
    r.status = Status::kBadVersion;
    reply_to(w, std::move(r));
    return;
  }
  for (const Op& op : req.ops) {
    if (op_too_large(op)) {
      r.status = Status::kTooLarge;
      reply_to(w, std::move(r));
      return;
    }
  }
  if (req.ops.empty()) {
    r.status = Status::kOk;
    reply_to(w, std::move(r));
    return;
  }

  // Lease fast path: GET-only requests served from local state while this
  // replica holds the lease. No slot consumed.
  if (lease_read_ok(req)) {
    if (m_lease_reads_) m_lease_reads_->fetch_add(1, std::memory_order_relaxed);
    r.status = Status::kOk;
    for (const Op& op : req.ops) r.results.push_back(store_.read(op.key));
    reply_to(w, std::move(r));
    return;
  }

  // Everything else commits through the log; only the trusted process
  // accepts, others redirect.
  if (!is_leader()) {
    if (m_redirects_) m_redirects_->fetch_add(1, std::memory_order_relaxed);
    r.status = Status::kNotLeader;
    r.leader_hint = fd_->trusted();
    reply_to(w, std::move(r));
    return;
  }

  // Retry short-circuit: if every write in the request already committed
  // (all seqs at-or-below the session watermark and still cached), answer
  // from the dedup window without a new slot. Mixed fresh/old requests
  // fall through to the log — KvStore::apply dedups per command.
  if (store_.has_session(req.session)) {
    bool all_cached = !req.ops.empty();
    std::vector<OpResult> cached;
    for (const Op& op : req.ops) {
      if (op.op == OpKind::kGet || op.op == OpKind::kOpenSession) {
        all_cached = false;
        break;
      }
      auto hit = store_.cached(req.session, op.seq);
      if (!hit) {
        all_cached = false;
        break;
      }
      cached.push_back(std::move(*hit));
    }
    if (all_cached) {
      r.status = Status::kOk;
      r.results = std::move(cached);
      reply_to(w, std::move(r));
      return;
    }
  }

  // Admission: refuse when the log cannot take more slots or too many
  // flushed-but-undecided commands are already queued behind it. The
  // per-batch wire bound is respected by construction: a batch flushes at
  // batch_max_ops and one request adds at most kMaxOpsPerRequest, both
  // far below kMaxOpsPerBatch.
  static_assert(kMaxOpsPerRequest * 2 <= kMaxOpsPerBatch);
  if (log_->exhausted() ||
      log_->applied_slots() + static_cast<int>(log_->pending()) >=
          log_->capacity() ||
      log_->pending() >= cfg_.max_queued_cmds) {
    if (m_overload_) m_overload_->fetch_add(1, std::memory_order_relaxed);
    r.status = Status::kOverloaded;
    reply_to(w, std::move(r));
    return;
  }

  enqueue(w, req);
}

void KvService::enqueue(const Waiter& w, const Request& req) {
  // Never let a batch grow past the wire bound: flush what is queued
  // first if this request would not fit.
  if (batch_.cmds.size() + req.ops.size() > kMaxOpsPerBatch) flush_batch();

  Waiter waiter = w;
  waiter.first = batch_.cmds.size();
  waiter.count = req.ops.size();
  for (const Op& op : req.ops) {
    Cmd c;
    c.session = req.session;
    c.seq = op.seq;
    c.op = op.op;
    c.key = op.key;
    c.value = op.value;
    c.expected = op.expected;
    batch_.cmds.push_back(std::move(c));
  }
  batch_waiters_.push_back(std::move(waiter));

  if (batch_.cmds.size() >= cfg_.batch_max_ops) {
    flush_batch();
  } else if (batch_timer_ == kInvalidTimer) {
    batch_timer_ = env_.set_timer(cfg_.batch_wait, [this] {
      batch_timer_ = kInvalidTimer;
      flush_batch();
    });
  }
}

void KvService::flush_batch() {
  if (batch_timer_ != kInvalidTimer) {
    env_.cancel_timer(batch_timer_);
    batch_timer_ = kInvalidTimer;
  }
  if (batch_.cmds.empty()) return;

  BatchBody body;
  body.id = make_batch_id(env_.self(), ++batch_counter_);
  body.cmds = std::move(batch_.cmds);
  batch_ = BatchBody{};

  waiters_[body.id] = std::move(batch_waiters_);
  batch_waiters_.clear();

  if (m_batches_) m_batches_->fetch_add(1, std::memory_order_relaxed);
  if (m_batch_ops_)
    m_batch_ops_->fetch_add(static_cast<std::int64_t>(body.cmds.size()),
                            std::memory_order_relaxed);

  // RB delivers locally right away (filling bodies_), then diffuses; the
  // slot only ever decides an id some replica has started diffusing.
  log_->submit(body.id);
  rb_->r_broadcast(kRbTagBatch, std::move(body));
}

void KvService::reply_to(const Waiter& w, Reply r) {
  if (w.via_peer) {
    env_.send(w.peer, Message::make<Reply>(protocol_ids::kKvService,
                                           kMsgClientReply, "kv.reply",
                                           std::move(r)));
    return;
  }
  if (reply_sink_) reply_sink_(w.token, r);
}

// ------------------------------------------------------- apply pipeline

void KvService::on_batch_delivered(const broadcast::RbEnvelope& e) {
  if (e.tag != kRbTagBatch) return;
  const auto& body = e.as<BatchBody>();
  bodies_.emplace(body.id, body);
  drain_applies();
}

void KvService::on_log_entry(const core::LogReplica::Entry& e) {
  apply_queue_.push_back(e);
  drain_applies();
}

void KvService::drain_applies() {
  while (!apply_queue_.empty()) {
    const core::LogReplica::Entry e = apply_queue_.front();
    auto it = bodies_.find(e.command);
    if (it == bodies_.end()) return;  // stall until RB delivers the body
    apply_queue_.pop_front();
    apply_batch(e.slot, it->second);
    bodies_.erase(it);
  }
  maybe_snapshot();
  refresh_gauges();
}

void KvService::apply_batch(int slot, const BatchBody& body) {
  std::vector<OpResult> results;
  results.reserve(body.cmds.size());
  for (const Cmd& c : body.cmds) results.push_back(store_.apply(c));

  auto wit = waiters_.find(body.id);
  if (wit == waiters_.end()) return;  // not the origin replica
  for (const Waiter& w : wit->second) {
    Reply r;
    r.session = w.session;
    r.tag = w.tag;
    r.status = Status::kOk;
    r.applied_slot = slot;
    r.results.assign(results.begin() + static_cast<std::ptrdiff_t>(w.first),
                     results.begin() +
                         static_cast<std::ptrdiff_t>(w.first + w.count));
    reply_to(w, std::move(r));
  }
  waiters_.erase(wit);
}

// ------------------------------------------------------------- snapshots

void KvService::maybe_snapshot() {
  if (cfg_.snapshot_every <= 0) return;
  if (applied_slot() - last_snapshot_upto_ < cfg_.snapshot_every) return;
  snapshot_now();
}

void KvService::snapshot_now() {
  const int upto = applied_slot();
  if (upto <= last_snapshot_upto_) return;
  Snapshot s;
  s.id = ++snap_counter_;
  s.upto_slot = upto;
  s.bytes = store_.serialize();
  snapshot_ = std::move(s);
  last_snapshot_upto_ = upto;
  log_->compact(upto);
  if (m_snaps_taken_) m_snaps_taken_->fetch_add(1, std::memory_order_relaxed);
  refresh_gauges();
}

void KvService::gossip_tick() {
  env_.broadcast(Message::make<std::int64_t>(protocol_ids::kKvService,
                                             kMsgApplied, "kv.applied",
                                             applied_slot()));
  env_.set_timer(cfg_.gossip_every, [this] { gossip_tick(); });
}

void KvService::on_peer_applied(ProcessId peer, std::int64_t applied) {
  peer_applied_[peer] = applied;
  // Catch a lagging replica up when it is behind our compaction floor:
  // the slots it is missing no longer exist as log entries here.
  if (snapshot_.has_value() && applied < last_snapshot_upto_ &&
      snap_sent_[peer] != snapshot_->id) {
    snap_sent_[peer] = snapshot_->id;
    send_snapshot_to(peer);
  }
}

void KvService::send_snapshot_to(ProcessId peer) {
  const Snapshot& s = *snapshot_;
  const std::size_t nchunks =
      s.bytes.empty() ? 1
                      : (s.bytes.size() + kMaxSnapshotChunkBytes - 1) /
                            kMaxSnapshotChunkBytes;
  for (std::size_t i = 0; i < nchunks; ++i) {
    SnapshotChunk c;
    c.snap_id = s.id;
    c.upto_slot = s.upto_slot;
    c.index = static_cast<std::uint32_t>(i);
    c.total = static_cast<std::uint32_t>(nchunks);
    const std::size_t off = i * kMaxSnapshotChunkBytes;
    const std::size_t len =
        std::min(kMaxSnapshotChunkBytes, s.bytes.size() - off);
    c.bytes.assign(s.bytes.begin() + static_cast<std::ptrdiff_t>(off),
                   s.bytes.begin() + static_cast<std::ptrdiff_t>(off + len));
    env_.send(peer, Message::make<SnapshotChunk>(protocol_ids::kKvService,
                                                 kMsgSnapshotChunk, "kv.snap",
                                                 std::move(c)));
  }
}

void KvService::on_snapshot_chunk(const SnapshotChunk& chunk) {
  // Stale or already-covered snapshot: ignore.
  if (chunk.upto_slot <= applied_slot()) return;
  if (!inbound_.has_value() || inbound_->id != chunk.snap_id) {
    Inbound in;
    in.id = chunk.snap_id;
    in.upto_slot = chunk.upto_slot;
    in.total = chunk.total;
    in.chunks.resize(chunk.total);
    inbound_ = std::move(in);
  }
  Inbound& in = *inbound_;
  if (chunk.index >= in.total || !in.chunks[chunk.index].empty()) {
    if (chunk.index >= in.total) inbound_.reset();
    return;
  }
  in.chunks[chunk.index] = chunk.bytes;
  if (++in.have < in.total) return;

  std::vector<std::uint8_t> image;
  for (const auto& part : in.chunks)
    image.insert(image.end(), part.begin(), part.end());
  const int upto = in.upto_slot;
  inbound_.reset();

  std::string err;
  if (!store_.deserialize(image, &err)) {
    env_.trace("kv.snapshot_reject", err);
    return;
  }
  // Drop stalled applies the snapshot covers, fast-forward the log, keep
  // anything beyond the snapshot point for normal application.
  while (!apply_queue_.empty() && apply_queue_.front().slot < upto)
    apply_queue_.pop_front();
  log_->install_snapshot(upto);
  last_snapshot_upto_ = std::max(last_snapshot_upto_, upto);
  if (m_snaps_installed_)
    m_snaps_installed_->fetch_add(1, std::memory_order_relaxed);
  env_.trace("kv.snapshot_install", "upto=" + std::to_string(upto));
  drain_applies();
}

// ------------------------------------------------------------------ lease

void KvService::lease_tick() {
  const bool trusted_self = fd_->trusted() == env_.self();
  const TimeUs now = env_.now();
  if (trusted_self) {
    if (trusted_self_since_ == kTimeNever) trusted_self_since_ = now;
    if (!lease_valid_ && now - trusted_self_since_ >= cfg_.lease_establish) {
      lease_valid_ = true;
      ++lease_term_;
      env_.record(EventType::kLeaseGrant, env_.self(), lease_term_);
      if (m_lease_grants_)
        m_lease_grants_->fetch_add(1, std::memory_order_relaxed);
    }
  } else {
    trusted_self_since_ = kTimeNever;
    if (lease_valid_) {
      lease_valid_ = false;
      env_.record(EventType::kLeaseRevoke, env_.self(), lease_term_);
      if (m_lease_revokes_)
        m_lease_revokes_->fetch_add(1, std::memory_order_relaxed);
    }
  }
  refresh_gauges();
  env_.set_timer(cfg_.lease_check_every, [this] { lease_tick(); });
}

bool KvService::lease_read_ok(const Request& req) const {
  return (req.flags & kFlagLeaseRead) != 0 && lease_valid_ && all_gets(req);
}

// -------------------------------------------------------------- messages

void KvService::on_message(const Message& m) {
  switch (m.type) {
    case kMsgClientRequest:
      handle_request_from(kPeerTokenBase |
                              static_cast<Token>(
                                  static_cast<std::uint32_t>(m.src)),
                          /*via_peer=*/true, m.src, m.as<Request>());
      break;
    case kMsgApplied:
      on_peer_applied(m.src, m.as<std::int64_t>());
      break;
    case kMsgSnapshotChunk:
      on_snapshot_chunk(m.as<SnapshotChunk>());
      break;
    default:
      break;  // kMsgClientReply is handled by clients, not the service
  }
}

// --------------------------------------------------------------- metrics

void KvService::bind_metrics(obs::MetricsRegistry* m) {
  metrics_ = m;
  if (m == nullptr) {
    m_requests_ = m_redirects_ = m_lease_reads_ = m_batches_ = m_batch_ops_ =
        m_overload_ = m_lease_grants_ = m_lease_revokes_ = m_snaps_taken_ =
            m_snaps_installed_ = nullptr;
    return;
  }
  m_requests_ = m->counter("kv.requests");
  m_redirects_ = m->counter("kv.redirects");
  m_lease_reads_ = m->counter("kv.lease.reads");
  m_batches_ = m->counter("kv.batches");
  m_batch_ops_ = m->counter("kv.batch.ops");
  m_overload_ = m->counter("kv.overloaded");
  m_lease_grants_ = m->counter("kv.lease.grants");
  m_lease_revokes_ = m->counter("kv.lease.revokes");
  m_snaps_taken_ = m->counter("kv.snapshots.taken");
  m_snaps_installed_ = m->counter("kv.snapshots.installed");
  refresh_gauges();
}

void KvService::refresh_gauges() {
  if (metrics_ == nullptr) return;
  metrics_->set_gauge("kv.store.keys",
                      static_cast<std::int64_t>(store_.size()));
  metrics_->set_gauge("kv.sessions",
                      static_cast<std::int64_t>(store_.session_count()));
  metrics_->set_gauge("kv.applied_slot", applied_slot());
  metrics_->set_gauge("kv.log.entries",
                      static_cast<std::int64_t>(log_->log().size()));
  metrics_->set_gauge("kv.log.compacted_upto", log_->compacted_upto());
  metrics_->set_gauge("kv.lease.valid", lease_valid_ ? 1 : 0);
  metrics_->set_gauge("kv.bodies.pending",
                      static_cast<std::int64_t>(bodies_.size()));
  metrics_->set_gauge("kv.apply.stalled",
                      static_cast<std::int64_t>(apply_queue_.size()));
  metrics_->set_gauge("kv.store.applied_writes", store_.stats().applied_writes);
  metrics_->set_gauge("kv.store.dedup_hits", store_.stats().dedup_hits);
  metrics_->set_gauge("kv.store.out_of_order", store_.stats().out_of_order);
  metrics_->set_gauge("kv.store.log_reads", store_.stats().log_reads);
}

}  // namespace ecfd::kv
