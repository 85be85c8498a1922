// Integration tests for the io_uring backend (src/transport/uring_env.*):
// uring<->uring and mixed poll<->uring loopback exchange (the two backends
// speak the same wire format, so a cluster can mix them), the coalescing
// counter contract, and the runtime fallback that makes `--backend uring`
// a request rather than a requirement. Every uring-dependent case SKIPs —
// not fails — where the kernel lacks io_uring (seccomp, old kernel,
// ECFD_URING=OFF builds), mirroring make_net_env's own degrade path.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/protocol_ids.hpp"
#include "transport/dgram_env.hpp"
#include "transport/socket_env.hpp"
#if defined(ECFD_URING)
#include "transport/uring_env.hpp"
#endif

namespace ecfd::transport {
namespace {

std::vector<PeerAddr> loopback_peers(int n, std::uint16_t base) {
  std::vector<PeerAddr> peers;
  for (int i = 0; i < n; ++i) {
    peers.push_back({"127.0.0.1", static_cast<std::uint16_t>(base + i)});
  }
  return peers;
}

DgramEnv::Options options(ProcessId self, const std::vector<PeerAddr>& peers,
                          bool coalesce = false) {
  DgramEnv::Options o;
  o.self = self;
  o.peers = peers;
  o.seed = 42;
  o.coalesce = coalesce;
  return o;
}

/// True when this kernel/build can actually open an io_uring env.
bool uring_works(std::uint16_t probe_port) {
#if defined(ECFD_URING)
  auto env = std::make_unique<UringEnv>(options(0, loopback_peers(1, probe_port)));
  return env->open(nullptr);
#else
  (void)probe_port;
  return false;
#endif
}

#define REQUIRE_URING(port)                                        \
  if (!uring_works(port)) {                                        \
    GTEST_SKIP() << "io_uring unavailable on this kernel/build";   \
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
  int pings = 0;
  int pongs = 0;
};

/// Runs a's loop in this thread and b's in a helper until \p pred holds on
/// a (or the deadline passes); b's loop spins in short slices on an atomic
/// flag (stop() is loop-thread-only, so it cannot be used cross-thread).
void run_pair(DgramEnv& a, DgramEnv& b, const std::function<bool()>& pred,
              DurUs deadline = sec(5)) {
  std::atomic<bool> done{false};
  std::thread tb([&b, &done] {
    while (!done.load()) b.run_for(msec(10));
  });
  a.run_until(pred, deadline);
  done.store(true);
  tb.join();
}

TEST(UringEnv, PingPongOverUring) {
  REQUIRE_URING(24390);
#if defined(ECFD_URING)
  const auto peers = loopback_peers(2, 24300);
  UringEnv a(options(0, peers));
  UringEnv b(options(1, peers));
  std::string error;
  ASSERT_TRUE(a.open(&error)) << error;
  ASSERT_TRUE(b.open(&error)) << error;
  Echo& ea = a.emplace<Echo>();
  Echo& eb = b.emplace<Echo>();
  a.start();
  b.start();
  ea.ping(1);
  run_pair(a, b, [&] { return ea.pongs >= 1; });
  EXPECT_EQ(eb.pings, 1);
  EXPECT_EQ(ea.pongs, 1);
  // Counter contract is backend-independent: frames counted per peer.
  EXPECT_EQ(a.metrics().get("net.sent.p1"), 1);
  EXPECT_EQ(a.metrics().get("net.recv.p1"), 1);
  EXPECT_EQ(std::string(a.backend_name()), "uring");
#endif
}

TEST(UringEnv, InteropPollAndUringInOneCluster) {
  REQUIRE_URING(24391);
#if defined(ECFD_URING)
  // Node 0 runs poll(2), node 1 runs io_uring: same wire format, same
  // cluster. Both directions must deliver.
  const auto peers = loopback_peers(2, 24310);
  SocketEnv a(options(0, peers));
  UringEnv b(options(1, peers));
  std::string error;
  ASSERT_TRUE(a.open(&error)) << error;
  ASSERT_TRUE(b.open(&error)) << error;
  Echo& ea = a.emplace<Echo>();
  Echo& eb = b.emplace<Echo>();
  a.start();
  b.start();
  ea.ping(1);
  run_pair(a, b, [&] { return ea.pongs >= 1; });
  EXPECT_EQ(eb.pings, 1) << "poll -> uring direction failed";
  EXPECT_EQ(ea.pongs, 1) << "uring -> poll direction failed";
#endif
}

TEST(UringEnv, InteropCoalescedEnvelopesAcrossBackends) {
  REQUIRE_URING(24392);
#if defined(ECFD_URING)
  // A coalescing poll sender packs k frames into one envelope datagram;
  // the uring receiver must unpack all k (and vice versa via the pongs).
  const auto peers = loopback_peers(2, 24320);
  SocketEnv a(options(0, peers, /*coalesce=*/true));
  UringEnv b(options(1, peers, /*coalesce=*/true));
  std::string error;
  ASSERT_TRUE(a.open(&error)) << error;
  ASSERT_TRUE(b.open(&error)) << error;
  Echo& ea = a.emplace<Echo>();
  Echo& eb = b.emplace<Echo>();
  a.start();
  b.start();
  constexpr int kBurst = 10;
  for (int i = 0; i < kBurst; ++i) ea.ping(1);
  run_pair(a, b, [&] { return ea.pongs >= kBurst; });
  EXPECT_EQ(eb.pings, kBurst);
  EXPECT_EQ(ea.pongs, kBurst);
  // The counter contract under coalescing: frames stay frame-granular,
  // datagrams shrink, and the batch is visible in the envelope counter.
  EXPECT_EQ(a.metrics().get("net.sent.p1"), kBurst);
  EXPECT_LT(a.metrics().get("net.dgram_sent.p1"), kBurst);
  EXPECT_GE(a.metrics().get("net.envelope_sent"), 1);
  EXPECT_GE(b.metrics().get("net.envelope_recv"), 1);
  EXPECT_EQ(b.metrics().get("net.envelope_decode_error"), 0);
#endif
}

TEST(NetBackendFactory, ParseBackendNames) {
  EXPECT_EQ(parse_backend("poll"), Backend::kPoll);
  EXPECT_EQ(parse_backend("uring"), Backend::kUring);
  EXPECT_FALSE(parse_backend("epoll").has_value());
  EXPECT_FALSE(parse_backend("").has_value());
}

TEST(NetBackendFactory, RuntimeFallbackToPollViaDisableEnv) {
  // ECFD_URING_DISABLE simulates "kernel without io_uring" end to end: the
  // factory must hand back a WORKING poll env and say so in the note —
  // never fail. This is the CI runtime-fallback smoke in library form.
  ASSERT_EQ(setenv("ECFD_URING_DISABLE", "1", 1), 0);
  std::string error;
  std::string note;
  auto env = make_net_env(Backend::kUring,
                          options(0, loopback_peers(1, 24330)), &error, &note);
  unsetenv("ECFD_URING_DISABLE");
  ASSERT_NE(env, nullptr) << error;
  EXPECT_EQ(std::string(env->backend_name()), "poll");
  EXPECT_NE(note.find("poll"), std::string::npos)
      << "fallback note should name the substitute backend: " << note;
}

TEST(NetBackendFactory, PollRequestNeverTouchesUring) {
  std::string error;
  std::string note;
  auto env = make_net_env(Backend::kPoll,
                          options(0, loopback_peers(1, 24331)), &error, &note);
  ASSERT_NE(env, nullptr) << error;
  EXPECT_EQ(std::string(env->backend_name()), "poll");
  EXPECT_TRUE(note.empty()) << note;
}

TEST(NetBackendFactory, UringRequestYieldsUringWhenAvailable) {
  REQUIRE_URING(24393);
  std::string error;
  std::string note;
  auto env = make_net_env(Backend::kUring,
                          options(0, loopback_peers(1, 24332)), &error, &note);
  ASSERT_NE(env, nullptr) << error;
  EXPECT_EQ(std::string(env->backend_name()), "uring");
  EXPECT_TRUE(note.empty()) << note;
}

}  // namespace
}  // namespace ecfd::transport
