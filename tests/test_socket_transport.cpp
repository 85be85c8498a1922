// Integration tests for the UDP socket transport: real datagrams over
// loopback between SocketEnvs running in separate threads. Nondeterministic;
// assertions are eventual with generous real-time deadlines.
#include "transport/socket_env.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "broadcast/reliable_broadcast.hpp"
#include "consensus/bodies.hpp"
#include "consensus/fd_stacks.hpp"
#include "core/consensus_c.hpp"
#include "core/replicated_log.hpp"
#include "fd/heartbeat_p.hpp"
#include "fd/hier_c.hpp"
#include "fd/ring_fd.hpp"
#include "fd/swim.hpp"
#include "kv/service.hpp"
#include "net/protocol_ids.hpp"
#include "net/scenario.hpp"
#include "transport/node_config.hpp"
#include "wire/codec.hpp"

namespace ecfd::transport {
namespace {

/// Builds a loopback peer table on ports picked from the ephemeral-ish
/// range; base is spread per test to avoid clashes between tests running
/// in one ctest invocation.
std::vector<PeerAddr> loopback_peers(int n, std::uint16_t base) {
  std::vector<PeerAddr> peers;
  for (int i = 0; i < n; ++i) {
    peers.push_back({"127.0.0.1", static_cast<std::uint16_t>(base + i)});
  }
  return peers;
}

SocketEnv::Options options(ProcessId self, const std::vector<PeerAddr>& peers) {
  SocketEnv::Options o;
  o.self = self;
  o.peers = peers;
  o.seed = 42;
  return o;
}

class Echo final : public Protocol {
 public:
  explicit Echo(Env& env) : Protocol(env, protocol_ids::kTesting) {}
  void on_message(const Message& m) override {
    if (m.type == 1) {
      ++pings;
      env_.send(m.src, Message::make_empty(protocol_id(), 2, "t.pong"));
    } else if (m.type == 2) {
      ++pongs;
    }
  }
  void ping(ProcessId dst) {
    env_.send(dst, Message::make_empty(protocol_id(), 1, "t.ping"));
  }
  std::atomic<int> pings{0};
  std::atomic<int> pongs{0};
};

TEST(SocketTransport, PingPongOverLoopbackUdp) {
  const auto peers = loopback_peers(2, 21200);
  SocketEnv a(options(0, peers));
  SocketEnv b(options(1, peers));
  std::string error;
  ASSERT_TRUE(a.open(&error)) << error;
  ASSERT_TRUE(b.open(&error)) << error;

  auto& ea = a.emplace<Echo>();
  auto& eb = b.emplace<Echo>();
  a.start();
  b.start();

  ea.ping(1);
  std::thread tb([&] { b.run_until([&] { return eb.pings.load() >= 1; }, sec(5)); });
  const bool got_pong =
      a.run_until([&] { return ea.pongs.load() >= 1; }, sec(5));
  tb.join();

  EXPECT_TRUE(got_pong);
  EXPECT_GE(eb.pings.load(), 1);
  EXPECT_EQ(a.metrics().get("net.sent.p1"), 1);
  EXPECT_GE(b.metrics().get("net.recv.p0"), 1);
  EXPECT_EQ(b.metrics().get("net.decode_error"), 0);
}

TEST(SocketTransport, HeartbeatPDetectsKilledPeerWithinDeadline) {
  // Two processes on loopback UDP; p1 stops participating (its loop is
  // simply never run again — the moral equivalent of kill -9), and p0's
  // heartbeat ◇P must suspect it within the adaptive timeout.
  const auto peers = loopback_peers(2, 21210);
  SocketEnv a(options(0, peers));
  SocketEnv b(options(1, peers));
  std::string error;
  ASSERT_TRUE(a.open(&error)) << error;
  ASSERT_TRUE(b.open(&error)) << error;

  fd::HeartbeatP::Config cfg;
  cfg.period = msec(25);
  cfg.initial_timeout = msec(100);
  cfg.timeout_increment = msec(50);
  auto& fda = a.emplace<fd::HeartbeatP>(cfg);
  auto& fdb = b.emplace<fd::HeartbeatP>(cfg);
  a.start();
  b.start();

  // Phase 1: both alive — p0 must trust p1.
  std::atomic<bool> b_alive{true};
  std::thread tb([&] {
    while (b_alive.load()) b.run_for(msec(20));
  });
  const bool trusted = a.run_until(
      [&] { return !fda.suspected().contains(1); }, sec(5));
  EXPECT_TRUE(trusted);

  // Phase 2: p1 "crashes" — its event loop stops for good.
  b_alive.store(false);
  tb.join();
  (void)fdb;

  const bool suspected = a.run_until(
      [&] { return fda.suspected().contains(1); }, sec(5));
  EXPECT_TRUE(suspected);
  EXPECT_GT(a.metrics().get("msg.hb_p.alive.sent"), 0);
}

TEST(SocketTransport, ConsensusDecidesOneProposedValueOverUdp) {
  // The paper's stack off the simulator: three loopback nodes, each on its
  // own thread, run the ecfd stack with reliable broadcast and ConsensusC,
  // as ecfd_node --consensus does, and node p proposes 1000 + p. Every
  // node must decide, and all on one proposed value.
  constexpr int kN = 3;
  const auto peers = loopback_peers(kN, 21270);
  std::vector<std::unique_ptr<SocketEnv>> envs;
  std::vector<consensus::FdInstallation> stacks;
  std::vector<core::ConsensusC*> cons;
  // A node's decision is written on its own thread and read here after the
  // join; the count tells every loop when to stop.
  std::vector<consensus::Value> decided(kN, -1);
  std::atomic<int> deciders{0};
  for (ProcessId p = 0; p < kN; ++p) {
    auto& env =
        *envs.emplace_back(std::make_unique<SocketEnv>(options(p, peers)));
    std::string error;
    ASSERT_TRUE(env.open(&error)) << error;
    stacks.push_back(
        consensus::install_fd_stack(consensus::FdStack::kEcfd, env));
    auto& rb = env.emplace<broadcast::ReliableBroadcast>();
    cons.push_back(&env.emplace<core::ConsensusC>(stacks.back().ecfd, &rb));
    cons.back()->set_on_decide(
        [&decided, &deciders, p](const consensus::Decision& d) {
          decided[static_cast<std::size_t>(p)] = d.value;
          ++deciders;
        });
  }
  for (ProcessId p = 0; p < kN; ++p) {
    envs[static_cast<std::size_t>(p)]->start();
    cons[static_cast<std::size_t>(p)]->propose(1000 + p);
  }
  std::vector<std::thread> loops;
  for (auto& env : envs) {
    loops.emplace_back([&env, &deciders] {
      env->run_until([&deciders] { return deciders.load() == kN; }, sec(10));
    });
  }
  for (auto& t : loops) t.join();
  ASSERT_EQ(deciders.load(), kN) << "consensus must terminate over UDP";
  for (const consensus::Value v : decided) {
    EXPECT_EQ(v, decided.front());
    EXPECT_GE(v, 1000);
    EXPECT_LT(v, 1000 + kN);
  }
}

TEST(SocketTransport, RegistryStacksMarkedUdpEncodeEveryMessage) {
  // ecfd_node accepts exactly the registry stacks marked udp. Each must
  // get every message through the wire codec.
  std::uint16_t base = 21300;
  for (const consensus::FdStackInfo& info : consensus::all_fd_stacks()) {
    if (!info.udp) continue;
    SCOPED_TRACE(info.name);
    const auto peers = loopback_peers(2, base);
    base += 2;
    SocketEnv a(options(0, peers));
    SocketEnv b(options(1, peers));
    std::string error;
    ASSERT_TRUE(a.open(&error)) << error;
    ASSERT_TRUE(b.open(&error)) << error;
    const auto fa = consensus::install_fd_stack(info.id, a);
    const auto fb = consensus::install_fd_stack(info.id, b);
    a.start();
    b.start();
    for (int i = 0; i < 20; ++i) {
      a.run_for(msec(5));
      b.run_for(msec(5));
    }
    EXPECT_EQ(a.metrics().get("net.encode_error") +
                  b.metrics().get("net.encode_error"),
              0);
    EXPECT_GT(
        a.metrics().get("net.recv.p1") + b.metrics().get("net.recv.p0"), 0);
  }
}

TEST(SocketTransport, InjectedLossAndDelayStillConverge) {
  // Chaos knobs on: 20% injected loss and up to 30ms extra delay. The
  // detector keeps flapping under loss but must still (a) exchange
  // traffic, (b) count drops.
  const auto peers = loopback_peers(2, 21220);
  auto oa = options(0, peers);
  oa.loss = 0.2;
  oa.min_extra_delay = msec(1);
  oa.max_extra_delay = msec(30);
  SocketEnv a(oa);
  SocketEnv b(options(1, peers));
  std::string error;
  ASSERT_TRUE(a.open(&error)) << error;
  ASSERT_TRUE(b.open(&error)) << error;

  auto& ea = a.emplace<Echo>();
  auto& eb = b.emplace<Echo>();
  a.start();
  b.start();

  std::atomic<bool> stop{false};
  std::thread tb([&] {
    while (!stop.load()) b.run_for(msec(10));
  });
  for (int i = 0; i < 200; ++i) ea.ping(1);
  a.run_until([&] { return ea.pongs.load() >= 50; }, sec(10));
  stop.store(true);
  tb.join();

  EXPECT_GE(ea.pongs.load(), 50);
  EXPECT_GT(a.metrics().get("msg.t.ping.dropped"), 0);
  EXPECT_GE(eb.pings.load(), 50);
}

/// Names of the counters in \p m that start with \p prefix and end with
/// \p suffix.
std::set<std::string> counter_names(const obs::MetricsRegistry& m,
                                    const std::string& prefix,
                                    const std::string& suffix) {
  std::set<std::string> out;
  m.for_each_counter([&](const std::string& name, std::int64_t) {
    if (name.rfind(prefix, 0) == 0 && name.size() >= suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      out.insert(name);
    }
  });
  return out;
}

TEST(SocketTransport, CountsEverySendTheLostSubsetAndClientFrames) {
  // The per-label counters mean what the simulator's mean: ".sent" counts
  // every send, ".dropped" the lost subset, and the ".dropped" key appears
  // with the first drop. Client frames count on their own two cells.
  const auto peers = loopback_peers(2, 21250);
  auto oa = options(0, peers);
  oa.loss = 0.5;
  SocketEnv a(oa);
  SocketEnv b(options(1, peers));
  std::string error;
  ASSERT_TRUE(a.open(&error)) << error;
  ASSERT_TRUE(b.open(&error)) << error;
  auto& ea = a.emplace<Echo>();
  auto& eb = b.emplace<Echo>();
  b.set_external_handler([&b](DgramEnv::ExternalToken from, const Message&) {
    b.send_external(from, Message::make_empty(protocol_ids::kTesting, 2,
                                              "t.client_reply"));
  });
  a.start();
  b.start();

  constexpr int kSends = 40;
  for (int i = 1; i <= kSends; ++i) {
    ea.ping(1);
    const std::int64_t dropped = a.metrics().get("msg.t.ping.dropped");
    EXPECT_EQ(a.metrics().get("msg.t.ping.sent"), i);
    EXPECT_EQ(counter_names(a.metrics(), "msg.t.ping.", ".dropped").size(),
              dropped > 0 ? 1u : 0u)
        << "after send " << i;
    a.run_for(msec(1));
  }
  const std::int64_t dropped = a.metrics().get("msg.t.ping.dropped");
  EXPECT_GT(dropped, 0);
  EXPECT_LT(dropped, kSends);
  EXPECT_TRUE(b.run_until(
      [&] { return eb.pings.load() == kSends - dropped; }, sec(5)));
  EXPECT_EQ(b.metrics().get("net.recv.p0"), kSends - dropped);
  EXPECT_TRUE(counter_names(b.metrics(), "net.", "_external").empty())
      << "no client has spoken yet";

  // A client outside the universe: kClient frames in, one reply each.
  const int raw = ::socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(raw, 0);
  timeval tv{5, 0};
  ASSERT_EQ(::setsockopt(raw, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)), 0);
  sockaddr_in to{};
  to.sin_family = AF_INET;
  to.sin_port = htons(peers[1].port);
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &to.sin_addr), 1);
  Message request = Message::make_empty(protocol_ids::kTesting, 1, "t.client");
  request.src = kNoProcess;
  request.dst = 1;
  std::vector<std::uint8_t> frame;
  ASSERT_TRUE(wire::encode_message(request, &frame));
  constexpr int kClient = 3;
  int replies = 0;
  for (int i = 0; i < kClient; ++i) {
    ASSERT_EQ(::sendto(raw, frame.data(), frame.size(), 0,
                       reinterpret_cast<const sockaddr*>(&to), sizeof(to)),
              static_cast<ssize_t>(frame.size()));
    b.run_until([&] { return b.metrics().get("net.sent_external") > i; },
                sec(5));
    std::uint8_t buf[2048];
    if (::recv(raw, buf, sizeof(buf), 0) > 0) ++replies;
  }
  ::close(raw);
  EXPECT_EQ(replies, kClient);
  EXPECT_EQ(b.metrics().get("net.recv_external"), kClient);
  EXPECT_EQ(b.metrics().get("net.sent_external"), kClient);
}

TEST(SocketTransport, SimulatorAndUdpCountTheSameMessageNames) {
  // The ecfd stack (stable Omega -> Fig. 2 CToP) at the node's timings,
  // once in the simulator and once over a loopback pair: both runtimes
  // count through MessageCounters, so the sets of "msg.*.sent" names match.
  consensus::FdTimings timings;
  timings.period = msec(50);
  timings.initial_timeout = msec(250);
  timings.timeout_increment = msec(100);

  ScenarioConfig sc;
  sc.n = 2;
  sc.seed = 3;
  sc.links = LinkKind::kReliable;
  auto sys = make_system(sc);
  for (ProcessId p = 0; p < sc.n; ++p) {
    consensus::install_fd_stack(consensus::FdStack::kEcfd, sys->host(p),
                                timings);
  }
  sys->start();
  sys->run_until(msec(400));
  const auto sim_names = counter_names(sys->metrics(), "msg.", ".sent");

  const auto peers = loopback_peers(2, 21260);
  SocketEnv a(options(0, peers));
  SocketEnv b(options(1, peers));
  std::string error;
  ASSERT_TRUE(a.open(&error)) << error;
  ASSERT_TRUE(b.open(&error)) << error;
  consensus::install_fd_stack(consensus::FdStack::kEcfd, a, timings);
  consensus::install_fd_stack(consensus::FdStack::kEcfd, b, timings);
  a.start();
  b.start();
  for (int i = 0; i < 40; ++i) {
    a.run_for(msec(5));
    b.run_for(msec(5));
  }
  auto udp_names = counter_names(a.metrics(), "msg.", ".sent");
  for (const auto& name : counter_names(b.metrics(), "msg.", ".sent")) {
    udp_names.insert(name);
  }
  EXPECT_EQ(udp_names, sim_names);
  EXPECT_EQ(sim_names.count("msg.sl.ok.sent"), 1u);
}

// --- forged frames ---------------------------------------------------------
//
// Any UDP sender can put any body kind under any (protocol, type), and a
// set or vector over any number of processes. Every reader must drop what
// it cannot use, as it drops an unknown message type.

/// A raw socket aimed at one loopback port: a sender outside the cluster.
class RawSender {
 public:
  explicit RawSender(std::uint16_t port) : fd_(::socket(AF_INET, SOCK_DGRAM, 0)) {
    to_.sin_family = AF_INET;
    to_.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &to_.sin_addr);
    timeval tv{5, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  ~RawSender() { ::close(fd_); }
  RawSender(const RawSender&) = delete;
  RawSender& operator=(const RawSender&) = delete;

  void send(const Message& m) {
    std::vector<std::uint8_t> frame;
    ASSERT_TRUE(wire::encode_message(m, &frame));
    ASSERT_EQ(::sendto(fd_, frame.data(), frame.size(), 0,
                       reinterpret_cast<const sockaddr*>(&to_), sizeof(to_)),
              static_cast<ssize_t>(frame.size()));
  }
  /// The next datagram this socket receives, decoded; nullopt on timeout.
  std::optional<Message> receive() {
    std::uint8_t buf[wire::kMaxFrameBytes];
    const ssize_t got = ::recv(fd_, buf, sizeof(buf), 0);
    if (got <= 0) return std::nullopt;
    return wire::decode_message(buf, static_cast<std::size_t>(got));
  }

 private:
  int fd_;
  sockaddr_in to_{};
};

/// One body of every kind the codec encodes, over \p n processes, then
/// bodies that do not fit n. Protocol, type and addresses are filled in
/// per frame.
std::vector<Message> forged_bodies(int n) {
  const auto body = [](auto b) { return Message::make(0, 0, "forged", b); };
  std::vector<Message> out;
  out.push_back(Message::make_empty(0, 0, "forged"));
  ProcessSet one_suspect(n);
  one_suspect.add(n - 1);
  out.push_back(body(one_suspect));
  out.push_back(body(std::vector<std::uint64_t>(n, 1)));
  out.push_back(body(fd::RingFd::Body{std::vector<std::uint64_t>(n, 1),
                                      one_suspect}));
  out.push_back(body(consensus::EstimateBody{1, 7, 0}));
  out.push_back(body(consensus::ProposeBody{1, 7}));
  out.push_back(body(consensus::RoundOnly{1}));
  out.push_back(body(consensus::DecideBody{1, 7}));
  out.push_back(body(std::int64_t{7}));
  kv::Request request;
  request.ops.push_back(kv::Op{});
  out.push_back(body(request));
  out.push_back(body(kv::Reply{}));
  kv::BatchBody batch;
  batch.id = kv::make_batch_id(1, 1);
  batch.cmds.push_back(kv::Cmd{});
  out.push_back(body(batch));
  kv::SnapshotChunk chunk;
  chunk.total = 1;
  out.push_back(body(chunk));
  out.push_back(body(fd::HierDigest{one_suspect, 0}));
  out.push_back(body(
      fd::SwimBody{1, 0, 1, {fd::SwimUpdate{n - 1, 1, fd::SwimFd::kSuspect}}}));
  // Broadcasts carrying each body above, under the tag every RB consumer
  // reads (consensus decisions and KV batches are both tag 1).
  const std::size_t flat = out.size();
  for (std::size_t i = 0; i < flat; ++i) {
    broadcast::RbEnvelope env;
    env.origin = 1;
    env.seq = i + 1;
    env.tag = 1;
    env.body = out[i].payload;
    env.body_kind = out[i].payload_kind;
    out.push_back(body(env));
  }
  // Bodies that do not fit n.
  out.push_back(body(ProcessSet::full(1)));
  out.push_back(body(ProcessSet::full(n + 1)));
  out.push_back(body(std::vector<std::uint64_t>(1, 1)));
  out.push_back(body(std::vector<std::uint64_t>(n + 1, 1)));
  out.push_back(body(fd::RingFd::Body{{1}, ProcessSet(n)}));
  out.push_back(body(fd::RingFd::Body{std::vector<std::uint64_t>(n, 1),
                                      ProcessSet::full(1)}));
  out.push_back(body(fd::HierDigest{ProcessSet::full(1), 0}));
  out.push_back(body(fd::HierDigest{one_suspect, n + 5}));
  out.push_back(body(fd::SwimBody{1, n + 5, 1, {}}));
  out.push_back(body(
      fd::SwimBody{1, 0, 1, {fd::SwimUpdate{n + 5, 1, fd::SwimFd::kSuspect}}}));
  return out;
}

/// Sum of the frames \p env received from peers.
std::int64_t peer_frames_received(DgramEnv& env) {
  std::int64_t total = 0;
  for (ProcessId p = 0; p < env.n(); ++p) {
    total += env.metrics().get("net.recv.p" + std::to_string(p));
  }
  return total;
}

TEST(SocketTransport, ForgedFramesOfEveryKindAreDropped) {
  // Node 1 of a 3-node cluster whose peers stay silent runs each udp
  // stack with ConsensusC and RB, as ecfd_node --consensus does; the
  // efficient_p node (ecfd_node's default fd) also runs the KV service.
  // A raw socket then sends, for every (protocol, type) those protocols
  // handle and from every node (node 0 is the process every stack trusts
  // first, node 1 the receiver itself), one frame per body of
  // forged_bodies(). The receiver is not node 0: a set over a universe of
  // one that a stack adopted from node 0 would then be out of range for
  // the receiver's own id.
  const int n = 3;
  const ProcessId self = 1;
  const std::vector<Message> bodies = forged_bodies(n);
  std::uint16_t base = 21400;
  for (const consensus::FdStackInfo& info : consensus::all_fd_stacks()) {
    if (!info.udp) continue;
    SCOPED_TRACE(info.name);
    const auto peers = loopback_peers(n, base);
    base += n;
    SocketEnv env(options(self, peers));
    std::string error;
    ASSERT_TRUE(env.open(&error)) << error;
    const auto stack = consensus::install_fd_stack(info.id, env);
    auto& rb = env.emplace<broadcast::ReliableBroadcast>();
    auto& cons = env.emplace<core::ConsensusC>(stack.ecfd, &rb);
    std::vector<ProtocolId> targets;
    // The KV service as ecfd_node wires it, with a lease after 20 ms of
    // trusting itself so that node 1 alone can serve a read.
    std::unique_ptr<core::LogReplica> log;
    kv::KvService* service = nullptr;
    const bool kv = info.id == consensus::FdStack::kEfficientP;
    if (kv) {
      core::LogReplica::Config lc;
      lc.quiescent = true;
      log = std::make_unique<core::LogReplica>(env, stack.ecfd, lc);
      auto& batch_rb =
          env.emplace<broadcast::ReliableBroadcast>(protocol_ids::kKvBatchRb);
      kv::KvService::Config kc;
      kc.lease_establish = msec(20);
      auto& kvs = env.emplace<kv::KvService>(stack.ecfd, log.get(), &batch_rb,
                                             kc);
      service = &kvs;
      kvs.set_reply_sink([&env](kv::KvService::Token token,
                                const kv::Reply& r) {
        env.send_external(token,
                          Message::make(protocol_ids::kKvService,
                                        kv::kMsgClientReply, "kv.reply", r));
      });
      env.set_external_handler(
          [&kvs](DgramEnv::ExternalToken token, const Message& m) {
            kvs.handle_client(token, m);
          });
      // Slot 0's consensus and broadcast instances.
      targets.push_back(lc.protocol_base);
      targets.push_back(lc.protocol_base + 1);
    }
    for (ProtocolId id = protocol_ids::kHeartbeatP; id <= protocol_ids::kSwim;
         ++id) {
      if (env.protocol(id) != nullptr) targets.push_back(id);
    }
    // RB last: a forged decision halts consensus, which then reads no more.
    targets.erase(std::find(targets.begin(), targets.end(),
                            protocol_ids::kReliableBroadcast));
    targets.push_back(protocol_ids::kReliableBroadcast);
    env.start();
    cons.propose(1);
    env.run_for(msec(50));

    RawSender raw(peers[self].port);
    std::int64_t fired = 0;
    const std::int64_t received_before = peer_frames_received(env);
    for (const ProtocolId pid : targets) {
      for (int type = 0; type <= 8; ++type) {
        for (ProcessId src = 0; src < n; ++src) {
          for (Message m : bodies) {
            m.protocol = pid;
            m.type = type;
            m.src = src;
            m.dst = self;
            raw.send(m);
            ++fired;
          }
          // Drain before the socket buffer could overflow.
          env.run_until([&] {
            return peer_frames_received(env) - received_before >= fired;
          }, sec(5));
        }
      }
    }
    EXPECT_EQ(peer_frames_received(env) - received_before, fired);
    EXPECT_EQ(env.metrics().get("net.decode_error"), 0);
    if (kv) {
      // Client frames (no sender id) of every kind but a Request: no reply.
      for (const Message& body : bodies) {
        if (body.payload_kind == PayloadKind::kKvRequest) continue;
        Message m = body;
        m.protocol = protocol_ids::kKvService;
        m.type = kv::kMsgClientRequest;
        m.src = kNoProcess;
        m.dst = self;
        raw.send(m);
      }
      env.run_for(msec(50));
      EXPECT_EQ(env.metrics().get("net.sent_external"), 0);
      // A real lease read is still answered, once node 1 holds the lease:
      // it must first suspect the silent node 0, then trust itself for
      // lease_establish.
      EXPECT_TRUE(env.run_until([&] { return service->lease_valid(); },
                                sec(5)));
      kv::Request get;
      get.session = 1;
      get.tag = 99;
      kv::Op op;
      op.key = "k";
      get.ops.push_back(op);
      Message m = Message::make(protocol_ids::kKvService,
                                kv::kMsgClientRequest, "kv.request", get);
      m.dst = self;
      raw.send(m);
      EXPECT_TRUE(env.run_until(
          [&] { return env.metrics().get("net.sent_external") == 1; },
          sec(5)));
      const auto reply = raw.receive();
      ASSERT_TRUE(reply.has_value());
      const auto* r = reply->as<kv::Reply>();
      ASSERT_NE(r, nullptr);
      EXPECT_EQ(r->tag, 99u);
      EXPECT_EQ(r->status, kv::Status::kOk);
      EXPECT_EQ(r->results.size(), 1u);
    }
    env.run_for(msec(50));  // the stack's timers still run
    EXPECT_EQ(stack.suspect->suspected().universe_size(), n);
    EXPECT_EQ(stack.ecfd->suspected().universe_size(), n);
    EXPECT_GE(stack.ecfd->trusted(), 0);
    EXPECT_LT(stack.ecfd->trusted(), n);
  }
}

TEST(SocketTransport, MisaddressedAndCorruptDatagramsAreCountedNotDelivered) {
  const auto peers = loopback_peers(2, 21230);
  SocketEnv a(options(0, peers));
  std::string error;
  ASSERT_TRUE(a.open(&error)) << error;
  auto& ea = a.emplace<Echo>();
  a.start();

  // Fire raw datagrams at node 0 from a plain socket: garbage bytes, a
  // valid frame addressed to the wrong node, and one legitimate frame.
  const int raw = ::socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(raw, 0);
  sockaddr_in to{};
  to.sin_family = AF_INET;
  to.sin_port = htons(peers[0].port);
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &to.sin_addr), 1);
  const auto fire = [&](const std::vector<std::uint8_t>& bytes) {
    ASSERT_EQ(::sendto(raw, bytes.data(), bytes.size(), 0,
                       reinterpret_cast<const sockaddr*>(&to), sizeof(to)),
              static_cast<ssize_t>(bytes.size()));
  };

  fire({0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x01, 0x02});  // garbage

  Message misaddressed = Message::make_empty(protocol_ids::kTesting, 1, "t.ping");
  misaddressed.src = 1;
  misaddressed.dst = 1;  // not node 0
  std::vector<std::uint8_t> frame;
  ASSERT_TRUE(wire::encode_message(misaddressed, &frame));
  fire(frame);

  Message good = Message::make_empty(protocol_ids::kTesting, 1, "t.ping");
  good.src = 1;
  good.dst = 0;
  ASSERT_TRUE(wire::encode_message(good, &frame));
  fire(frame);
  ::close(raw);

  a.run_until([&] { return ea.pings.load() >= 1; }, sec(5));
  EXPECT_EQ(ea.pings.load(), 1);
  EXPECT_EQ(a.metrics().get("net.decode_error"), 1);
  EXPECT_EQ(a.metrics().get("net.misaddressed"), 1);
}

TEST(SocketTransport, FramesForUnregisteredProtocolsAreCountedNotDelivered) {
  const auto peers = loopback_peers(2, 21240);
  SocketEnv a(options(0, peers));
  SocketEnv b(options(1, peers));
  std::string error;
  ASSERT_TRUE(a.open(&error)) << error;
  ASSERT_TRUE(b.open(&error)) << error;
  auto& ea = a.emplace<Echo>();
  auto& eb = b.emplace<Echo>();
  EXPECT_EQ(a.protocol(protocol_ids::kTesting), &ea);
  EXPECT_EQ(a.protocol(protocol_ids::kTesting + 1), nullptr);
  a.start();
  b.start();

  // One envelope: a frame for an id node 0 never registered, then a ping.
  b.send(0, Message::make_empty(protocol_ids::kTesting + 1, 1, "t.stray"));
  eb.ping(0);
  b.run_for(msec(20));
  a.run_until([&] { return ea.pings.load() >= 1; }, sec(5));
  EXPECT_EQ(ea.pings.load(), 1);
  EXPECT_EQ(a.metrics().get("net.unknown_protocol"), 1);
}

// --- DgramEnv timers (sim::EventQueue under the wall clock) -------------

/// A one-node env on an ephemeral loopback port: enough to drive timers.
std::unique_ptr<SocketEnv> timer_env() {
  auto env = std::make_unique<SocketEnv>(options(0, loopback_peers(1, 0)));
  std::string error;
  EXPECT_TRUE(env->open(&error)) << error;
  return env;
}

TEST(DgramEnvTimers, SameDeadlineTimersFireInArmingOrder) {
  // Armed back to back with one delay, most of these share a microsecond
  // deadline; ties must break by arming order, like the simulator's.
  auto env = timer_env();
  std::vector<int> fired;
  for (int i = 0; i < 100; ++i) {
    env->set_timer(msec(5), [&fired, i] { fired.push_back(i); });
  }
  env->run_until([&] { return fired.size() == 100; }, sec(5));
  ASSERT_EQ(fired.size(), 100u);
  for (std::size_t i = 0; i < fired.size(); ++i) {
    EXPECT_EQ(fired[i], static_cast<int>(i));
  }
}

TEST(DgramEnvTimers, CancelBeforeTheFireSuppressesTheTimer) {
  auto env = timer_env();
  bool doomed_ran = false;
  bool kept_ran = false;
  const TimerId doomed =
      env->set_timer(msec(5), [&] { doomed_ran = true; });
  env->set_timer(msec(10), [&] { kept_ran = true; });
  env->cancel_timer(doomed);
  // The doomed timer was due first, so it would have run by now.
  EXPECT_TRUE(env->run_until([&] { return kept_ran; }, sec(5)));
  EXPECT_FALSE(doomed_ran);
}

TEST(DgramEnvTimers, StaleInvalidAndUnknownCancelsLeaveLiveTimersFiring) {
  auto env = timer_env();
  int first = 0;
  const TimerId fired_id = env->set_timer(0, [&] { ++first; });
  env->run_until([&] { return first == 1; }, sec(5));
  ASSERT_EQ(first, 1);

  // The next timer takes the fired one's queue slot (the low half of an
  // EventId) under a new generation; the stale id must not reach it.
  int live = 0;
  const TimerId reused = env->set_timer(msec(5), [&] { ++live; });
  const TimerId other = env->set_timer(msec(5), [&] { ++live; });
  EXPECT_NE(reused, fired_id);
  EXPECT_EQ(reused & 0xffffffffu, fired_id & 0xffffffffu);
  env->cancel_timer(fired_id);
  env->cancel_timer(kInvalidTimer);
  env->cancel_timer(~TimerId{0});
  env->cancel_timer(other + 1000);
  env->run_until([&] { return live == 2; }, sec(5));
  EXPECT_EQ(live, 2);
  EXPECT_EQ(first, 1);
}

TEST(DgramEnvTimers, ZeroDelaySelfRearmingTimerCannotWedgeRunFor) {
  // The drain fires against a snapshot of the clock, so a zero-delay tick
  // that re-arms itself runs once per loop iteration and run_for still
  // returns on time, with other timers firing alongside it.
  auto env = timer_env();
  int ticks = 0;
  std::function<void()> tick = [&] {
    ++ticks;
    env->set_timer(0, tick);
  };
  env->set_timer(0, tick);
  bool other_ran = false;
  env->set_timer(msec(5), [&] { other_ran = true; });
  const auto t0 = std::chrono::steady_clock::now();
  env->run_for(msec(30));
  const auto took = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(took, std::chrono::seconds(2));
  EXPECT_TRUE(env->run_until([&] { return other_ran; }, sec(5)));
  EXPECT_GT(ticks, 1);
}

TEST(SocketTransport, ConfigParsing) {
  const std::string text = R"(
# demo cluster
[cluster]
seed = 7
fd = heartbeat_p
period_ms = 25
initial_timeout_ms = 100
timeout_increment_ms = 50
consensus = true

[peers]
0 = 127.0.0.1:9100
1 = 127.0.0.1:9101
2 = 127.0.0.1:9102

[chaos]
loss = 0.1
min_delay_ms = 1
max_delay_ms = 5
)";
  std::string error;
  const auto cfg = parse_node_config(text, &error);
  ASSERT_TRUE(cfg.has_value()) << error;
  EXPECT_EQ(cfg->n(), 3);
  EXPECT_EQ(cfg->peers[2].port, 9102);
  EXPECT_EQ(cfg->seed, 7u);
  EXPECT_EQ(cfg->fd, "heartbeat_p");
  EXPECT_TRUE(cfg->consensus);
  EXPECT_EQ(cfg->period, msec(25));
  EXPECT_EQ(cfg->initial_timeout, msec(100));
  EXPECT_DOUBLE_EQ(cfg->loss, 0.1);
  EXPECT_EQ(cfg->max_delay, msec(5));

  // Rejections: gap in the peer table, bad address, unknown key.
  EXPECT_FALSE(parse_node_config("[peers]\n0 = 127.0.0.1:1\n2 = 127.0.0.1:2\n",
                                 &error)
                   .has_value());
  EXPECT_FALSE(
      parse_node_config("[peers]\n0 = nowhere\n", &error).has_value());
  EXPECT_FALSE(parse_node_config("[cluster]\nbogus = 1\n[peers]\n0 = 1.2.3.4:5\n",
                                 &error)
                   .has_value());
  EXPECT_FALSE(parse_node_config("", &error).has_value());

  // The wire path has no keys: a [net] section is an unknown section.
  EXPECT_FALSE(parse_node_config(
                   "[net]\ncoalesce = true\n[peers]\n0 = 127.0.0.1:9100\n",
                   &error)
                   .has_value());
  EXPECT_NE(error.find("unknown section [net]"), std::string::npos) << error;

  // Every *_ms key is bounded by kMaxDurationMs: its twin at the bound
  // parses, one past it, INT64_MAX (whose x1000 would overflow) and a
  // value strtoll cannot represent are all rejected by name.
  const std::string peer = "[peers]\n0 = 127.0.0.1:9100\n";
  const std::string day = std::to_string(kMaxDurationMs);
  const struct {
    const char* section;
    const char* key;
    DurUs NodeConfig::*field;
  } ms_keys[] = {
      {"cluster", "period_ms", &NodeConfig::period},
      {"cluster", "initial_timeout_ms", &NodeConfig::initial_timeout},
      {"cluster", "timeout_increment_ms", &NodeConfig::timeout_increment},
      {"chaos", "min_delay_ms", &NodeConfig::min_delay},
      {"chaos", "max_delay_ms", &NodeConfig::max_delay},
      {"kv", "batch_wait_ms", &NodeConfig::kv_batch_wait},
      {"kv", "lease_establish_ms", &NodeConfig::kv_lease_establish},
  };
  for (const auto& k : ms_keys) {
    SCOPED_TRACE(k.key);
    const auto with = [&](const std::string& v) {
      std::string text = std::string("[") + k.section + "]\n" + k.key +
                         " = " + v + "\n";
      // min_delay_ms may not exceed max_delay_ms.
      if (std::string(k.key) == "min_delay_ms") {
        text += "max_delay_ms = " + day + "\n";
      }
      return text + peer;
    };
    const auto at_bound = parse_node_config(with(day), &error);
    ASSERT_TRUE(at_bound.has_value()) << error;
    EXPECT_EQ((*at_bound).*k.field, msec(kMaxDurationMs));
    for (const std::string& v : {std::to_string(kMaxDurationMs + 1),
                                 std::string("9223372036854775807"),
                                 std::string("99999999999999999999")}) {
      error.clear();
      EXPECT_FALSE(parse_node_config(with(v), &error).has_value()) << v;
      EXPECT_NE(error.find(std::string(k.key) + " must be in"),
                std::string::npos)
          << error;
      EXPECT_NE(error.find(day), std::string::npos) << error;
    }
  }

  // strtoll saturates an out-of-range value; checking ERANGE rejects it
  // for every integer key, not only the bounded durations.
  EXPECT_FALSE(
      parse_node_config("[cluster]\nseed = 99999999999999999999\n" + peer,
                        &error)
          .has_value());

  // loss must lie in [0,1); NaN fails every comparison and is rejected.
  const auto half = parse_node_config("[chaos]\nloss = 0.5\n" + peer, &error);
  ASSERT_TRUE(half.has_value()) << error;
  EXPECT_DOUBLE_EQ(half->loss, 0.5);
  for (const char* v : {"nan", "NaN", "-nan", "1", "inf"}) {
    EXPECT_FALSE(
        parse_node_config(std::string("[chaos]\nloss = ") + v + "\n" + peer,
                          &error)
            .has_value())
        << v;
  }
}

}  // namespace
}  // namespace ecfd::transport
