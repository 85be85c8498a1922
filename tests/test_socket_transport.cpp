// Integration tests for the UDP socket transport: real datagrams over
// loopback between SocketEnvs running in separate threads (mirroring
// test_thread_runtime.cpp). Nondeterministic; assertions are eventual with
// generous real-time deadlines.
#include "transport/socket_env.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "consensus/fd_stacks.hpp"
#include "fd/heartbeat_p.hpp"
#include "net/protocol_ids.hpp"
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
  EXPECT_EQ(a.counters().get("net.sent.p1"), 1);
  EXPECT_GE(b.counters().get("net.recv.p0"), 1);
  EXPECT_EQ(b.counters().get("net.decode_error"), 0);
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
  EXPECT_GT(a.counters().get("msg.hb_p.alive.sent"), 0);
}

TEST(SocketTransport, RegistryStacksMarkedUdpEncodeEveryMessage) {
  // ecfd_node accepts exactly the registry stacks marked udp. Each must
  // get every message through the wire codec; hier_c and swim are marked
  // sim-only because their bodies have no encoding, which this also pins.
  std::uint16_t base = 21300;
  for (const consensus::FdStackInfo& info : consensus::all_fd_stacks()) {
    if (info.id == consensus::FdStack::kScriptedStable) continue;
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
    const std::int64_t failed = a.counters().get("net.encode_error") +
                                b.counters().get("net.encode_error");
    if (info.udp) {
      EXPECT_EQ(failed, 0);
      EXPECT_GT(a.counters().get("net.recv.p1") +
                    b.counters().get("net.recv.p0"),
                0);
    } else {
      EXPECT_GT(failed, 0) << "encodes now: mark it udp";
    }
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
  EXPECT_GT(a.counters().get("msg.t.ping.dropped"), 0);
  EXPECT_GE(eb.pings.load(), 50);
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
  EXPECT_EQ(a.counters().get("net.decode_error"), 1);
  EXPECT_EQ(a.counters().get("net.misaddressed"), 1);
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
}

}  // namespace
}  // namespace ecfd::transport
