// The replicated kv service end-to-end in the deterministic simulator:
// commit-and-replicate, leader redirects, lease-read fast path, retry
// dedup across a leader failover (the exactly-once guarantee), snapshot
// install-on-join for a partitioned-away replica, and the quiescent-log
// property that an idle cluster consumes no slots.
#include "kv/service.hpp"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/ecfd_compose.hpp"
#include "fd/ring_fd.hpp"
#include "net/protocol_ids.hpp"
#include "net/scenario.hpp"
#include "scenario_util.hpp"
#include "wire/codec.hpp"

namespace ecfd::kv {
namespace {

using testutil::minority;

constexpr std::uint64_t kSess = 0x5E55;

struct Cluster {
  std::unique_ptr<System> sys;
  std::vector<std::unique_ptr<core::EcfdOracle>> oracles;
  std::vector<std::unique_ptr<core::LogReplica>> logs;
  std::vector<KvService*> services;
  /// Replies per host, in arrival order.
  std::map<int, std::vector<Reply>> replies;
};

// Heap-allocated: the reply sinks capture the cluster's address.
std::unique_ptr<Cluster> make_cluster(int n, std::uint64_t seed,
                                      int snapshot_every = 64) {
  auto c = std::make_unique<Cluster>();
  Cluster* cp = c.get();
  c->sys = make_system(testutil::partial_sync_scenario(n, seed));
  std::vector<fd::RingFd*> rings;
  for (ProcessId p = 0; p < n; ++p) {
    rings.push_back(&c->sys->host(p).emplace<fd::RingFd>());
  }
  for (ProcessId p = 0; p < n; ++p) {
    c->oracles.push_back(std::make_unique<core::EcfdFromRing>(rings[p]));
    core::LogReplica::Config lc;
    lc.capacity = 256;
    lc.pipeline_depth = 2;
    lc.quiescent = true;
    c->logs.push_back(std::make_unique<core::LogReplica>(
        c->sys->host(p), c->oracles.back().get(), lc));
    auto& rb = c->sys->host(p).emplace<broadcast::ReliableBroadcast>(
        protocol_ids::kKvBatchRb);
    KvService::Config kc;
    kc.batch_wait = msec(5);
    kc.lease_establish = msec(300);
    kc.gossip_every = msec(100);
    kc.snapshot_every = snapshot_every;
    auto& svc = c->sys->host(p).emplace<KvService>(
        c->oracles.back().get(), c->logs.back().get(), &rb, kc);
    const int host = p;
    svc.set_reply_sink([cp, host](KvService::Token, const Reply& r) {
      cp->replies[host].push_back(r);
    });
    c->services.push_back(&svc);
  }
  return c;
}

Request write_req(std::uint64_t tag, std::uint64_t seq, const std::string& key,
                  const std::string& value) {
  Request req;
  req.version = kProtoVersion;
  req.session = kSess;
  req.tag = tag;
  Op op;
  op.op = OpKind::kPut;
  op.seq = seq;
  op.key = key;
  op.value = value;
  req.ops.push_back(op);
  return req;
}

Request open_req(std::uint64_t tag) {
  Request req;
  req.version = kProtoVersion;
  req.session = kSess;
  req.tag = tag;
  Op op;
  op.op = OpKind::kOpenSession;
  req.ops.push_back(op);
  return req;
}

Request read_req(std::uint64_t tag, const std::string& key, bool lease) {
  Request req;
  req.version = kProtoVersion;
  req.flags = lease ? kFlagLeaseRead : 0;
  req.session = kSess;
  req.tag = tag;
  Op op;
  op.op = OpKind::kGet;
  op.key = key;
  req.ops.push_back(op);
  return req;
}

const Reply* reply_with_tag(const Cluster& c, int host, std::uint64_t tag) {
  auto it = c.replies.find(host);
  if (it == c.replies.end()) return nullptr;
  for (const Reply& r : it->second) {
    if (r.tag == tag) return &r;
  }
  return nullptr;
}

TEST(KvService, CommitsThroughConsensusAndReplicatesEverywhere) {
  auto c = make_cluster(3, 1);
  c->sys->start();
  c->sys->run_until(msec(400));  // FD stabilizes; p0 is the ring leader

  c->services[0]->handle_request(1, open_req(1));
  c->sys->run_until(msec(600));
  c->services[0]->handle_request(1, write_req(2, 1, "alpha", "one"));
  c->services[0]->handle_request(1, write_req(3, 2, "beta", "two"));
  c->sys->run_until(sec(2));

  for (std::uint64_t tag : {1u, 2u, 3u}) {
    const Reply* r = reply_with_tag(*c, 0, tag);
    ASSERT_NE(r, nullptr) << "tag " << tag;
    EXPECT_EQ(r->status, Status::kOk) << "tag " << tag;
  }
  // Every replica applied the same state.
  const std::uint64_t h = c->services[0]->store().content_hash();
  for (int p = 1; p < 3; ++p) {
    EXPECT_EQ(c->services[p]->store().content_hash(), h) << "replica " << p;
  }
  EXPECT_EQ(c->services[0]->store().read("alpha").value, "one");
}

TEST(KvService, NonLeaderRedirectsWithAHint) {
  auto c = make_cluster(3, 2);
  c->sys->start();
  c->sys->run_until(msec(400));

  c->services[1]->handle_request(7, write_req(1, 1, "k", "v"));
  const Reply* r = reply_with_tag(*c, 1, 1);
  ASSERT_NE(r, nullptr) << "redirect is synchronous";
  EXPECT_EQ(r->status, Status::kNotLeader);
  EXPECT_EQ(r->leader_hint, 0);
}

TEST(KvService, LeaseReadsSkipTheLogAndLogReadsDoNot) {
  auto c = make_cluster(3, 3);
  c->sys->start();
  c->sys->run_until(msec(600));  // > lease_establish: leader holds the lease
  ASSERT_TRUE(c->services[0]->lease_valid());

  c->services[0]->handle_request(1, open_req(1));
  c->services[0]->handle_request(1, write_req(2, 1, "k", "v"));
  c->sys->run_until(sec(2));
  const int slots_before = c->services[0]->applied_slot();

  // Lease read: answered synchronously, no new slot, no store log-read.
  c->services[0]->handle_request(1, read_req(3, "k", /*lease=*/true));
  const Reply* lease_reply = reply_with_tag(*c, 0, 3);
  ASSERT_NE(lease_reply, nullptr);
  EXPECT_EQ(lease_reply->status, Status::kOk);
  ASSERT_EQ(lease_reply->results.size(), 1u);
  EXPECT_EQ(lease_reply->results[0].value, "v");
  EXPECT_EQ(c->services[0]->store().stats().log_reads, 0);

  // Through-the-log read: consumes a slot and shows up in log_reads.
  c->services[0]->handle_request(1, read_req(4, "k", /*lease=*/false));
  c->sys->run_until(sec(3));
  const Reply* log_reply = reply_with_tag(*c, 0, 4);
  ASSERT_NE(log_reply, nullptr);
  EXPECT_EQ(log_reply->status, Status::kOk);
  EXPECT_EQ(log_reply->results[0].value, "v");
  EXPECT_GT(c->services[0]->store().stats().log_reads, 0);
  EXPECT_GT(c->services[0]->applied_slot(), slots_before);
}

TEST(KvService, RetriedWriteAcrossLeaderFailoverAppliesExactlyOnce) {
  auto c = make_cluster(3, 4);
  c->sys->start();
  c->sys->run_until(msec(400));

  c->services[0]->handle_request(1, open_req(1));
  c->sys->run_until(msec(700));
  c->services[0]->handle_request(1, write_req(2, 1, "key", "committed"));
  c->sys->run_until(sec(2));
  ASSERT_NE(reply_with_tag(*c, 0, 2), nullptr);
  ASSERT_EQ(reply_with_tag(*c, 0, 2)->status, Status::kOk);

  // The leader vanishes (partition looks like a crash). The client never
  // saw the ack, so it retries the SAME (session, seq) on the new leader.
  c->sys->network().partition(minority(3, 1));
  c->sys->run_until(sec(4));
  ASSERT_TRUE(c->services[1]->is_leader()) << "p1 took over";

  c->services[1]->handle_request(9, write_req(2, 1, "key", "committed"));
  c->sys->run_until(sec(6));

  const Reply* retry = reply_with_tag(*c, 1, 2);
  ASSERT_NE(retry, nullptr);
  EXPECT_EQ(retry->status, Status::kOk) << "retry acked, not re-applied";
  // Exactly-once: the retry was answered from the replicated dedup window
  // (no log slot burned — applied_slot is -1 on a cached reply) and the
  // write was applied exactly once.
  EXPECT_EQ(retry->applied_slot, -1);
  EXPECT_EQ(c->services[1]->store().stats().applied_writes, 1);
  EXPECT_EQ(c->services[1]->store().read("key").value, "committed");
  EXPECT_EQ(c->services[1]->store().session_last_seq(kSess), 1u);
}

TEST(KvService, PartitionedReplicaCatchesUpViaSnapshotInstall) {
  auto c = make_cluster(3, 5, /*snapshot_every=*/8);
  c->sys->start();
  c->sys->run_until(msec(400));

  // p2 misses everything from here on ({p0, p1} vs {p2}).
  c->sys->network().partition(minority(3, 2));
  c->sys->run_until(msec(600));

  c->services[0]->handle_request(1, open_req(1));
  c->sys->run_until(sec(1));
  // Enough separate batches to cross several snapshot boundaries.
  for (std::uint64_t q = 1; q <= 24; ++q) {
    c->services[0]->handle_request(
        1, write_req(1 + q, q, "key" + std::to_string(q), "v"));
    c->sys->run_until(sec(1) + msec(50 * static_cast<int>(q)));
  }
  c->sys->run_until(sec(4));
  ASSERT_EQ(c->services[0]->store().stats().applied_writes, 24);
  ASSERT_GT(c->logs[0]->compacted_upto(), 0) << "leader compacted its log";
  ASSERT_EQ(c->services[2]->applied_slot(), 0) << "p2 saw nothing";

  // Advance the compaction floor over the full run. Decide messages lost
  // to the partition are never retransmitted (RB is one-shot diffusion),
  // so everything the lagger missed must be covered by the snapshot.
  c->services[0]->snapshot_now();

  // Heal: watermark gossip exposes the lagger, snapshot chunks catch it
  // up past the compaction floor, and the log fast-forwards.
  c->sys->network().heal();
  c->sys->run_until(sec(10));

  EXPECT_EQ(c->services[2]->store().content_hash(),
            c->services[0]->store().content_hash());
  EXPECT_GE(c->logs[2]->applied_slots(), c->logs[0]->compacted_upto());
  EXPECT_GT(c->logs[2]->compacted_upto(), 0) << "installed, not replayed";
  // The installed session table keeps dedup working on the joiner.
  EXPECT_EQ(c->services[2]->store().session_last_seq(kSess), 24u);
}

TEST(KvService, LeaderKeepsServingAfterHostileAndMaximalSnapshotChunks) {
  auto c = make_cluster(3, 7);
  c->sys->start();
  c->sys->run_until(msec(600));  // > lease_establish: p0 leads with a lease
  ASSERT_TRUE(c->services[0]->lease_valid());

  // A peer datagram reaches the service only if it decodes. One whose
  // chunk count would size a ~100 GB reassembly table must not.
  SnapshotChunk chunk;
  chunk.snap_id = 0xBAD;
  chunk.upto_slot = 1 << 20;  // far ahead: the service would take it
  chunk.index = 0;
  chunk.total = 0xFFFFFFFFu;
  auto from_peer = [&chunk]() {
    std::vector<std::uint8_t> frame;
    Message m = Message::make(protocol_ids::kKvService, kMsgSnapshotChunk,
                              "kv.snap", chunk);
    m.src = 1;
    m.dst = 0;
    EXPECT_TRUE(wire::encode_message(m, &frame));
    return wire::decode_message(frame);
  };
  ASSERT_FALSE(from_peer().has_value()) << "hostile chunk count decoded";

  // The largest legal chunk: the last of kMaxElements, a full 32 KiB.
  chunk.total = wire::kMaxElements;
  chunk.index = wire::kMaxElements - 1;
  chunk.bytes.assign(kMaxSnapshotChunkBytes, 0x5A);
  const auto legal = from_peer();
  ASSERT_TRUE(legal.has_value());
  c->sys->host(0).deliver(*legal);

  // The leader still commits writes and answers lease reads.
  c->services[0]->handle_request(1, open_req(1));
  c->services[0]->handle_request(1, write_req(2, 1, "k", "v"));
  c->sys->run_until(sec(2));
  c->services[0]->handle_request(1, read_req(3, "k", /*lease=*/true));
  for (std::uint64_t tag : {1u, 2u, 3u}) {
    const Reply* r = reply_with_tag(*c, 0, tag);
    ASSERT_NE(r, nullptr) << "tag " << tag;
    EXPECT_EQ(r->status, Status::kOk) << "tag " << tag;
  }
  EXPECT_EQ(reply_with_tag(*c, 0, 3)->results[0].value, "v");
}

TEST(KvService, IdleClusterConsumesNoSlots) {
  auto c = make_cluster(3, 6);
  c->sys->start();
  c->sys->run_until(sec(5));
  for (int p = 0; p < 3; ++p) {
    EXPECT_EQ(c->logs[p]->applied_slots(), 0) << "replica " << p;
    EXPECT_EQ(c->services[p]->applied_slot(), 0) << "replica " << p;
  }
  // And the leader still established its lease (the lease path is driven
  // by the FD, not by log traffic).
  EXPECT_TRUE(c->services[0]->lease_valid());
}

}  // namespace
}  // namespace ecfd::kv
