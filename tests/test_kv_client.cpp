// Tests for KvClient's retry loop (kv/client.hpp) against scripted
// loopback UDP responders: redirects follow the leader hint, timeouts
// rotate through the server table, and kOverloaded keeps the server but
// waits out the attempt before resending.
#include "kv/client.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <optional>
#include <thread>
#include <vector>

#include "net/protocol_ids.hpp"
#include "wire/codec.hpp"

namespace ecfd::kv {
namespace {

TimeUs now_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One fake server on an ephemeral loopback port. Its script maps the
/// k-th request it receives (k = 0, 1, ...) to a reply status, or to
/// silence.
class Responder {
 public:
  using Script = std::function<std::optional<Status>(int k)>;

  explicit Responder(Script script, std::int32_t leader_hint = -1)
      : script_(std::move(script)), hint_(leader_hint) {
    fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(sa);
    if (fd_ < 0 ||
        ::bind(fd_, reinterpret_cast<const sockaddr*>(&sa), sizeof(sa)) != 0 ||
        ::getsockname(fd_, reinterpret_cast<sockaddr*>(&sa), &len) != 0) {
      ADD_FAILURE() << "cannot bind a loopback UDP socket";
      return;
    }
    port_ = ntohs(sa.sin_port);
    thread_ = std::thread([this] { serve(); });
  }

  ~Responder() {
    stop_ = true;
    if (thread_.joinable()) thread_.join();
    if (fd_ >= 0) ::close(fd_);
  }
  Responder(const Responder&) = delete;
  Responder& operator=(const Responder&) = delete;

  [[nodiscard]] transport::PeerAddr addr() const {
    return {"127.0.0.1", port_};
  }
  [[nodiscard]] int requests() const { return requests_.load(); }

 private:
  void serve() {
    while (!stop_) {
      pollfd pfd{fd_, POLLIN, 0};
      if (::poll(&pfd, 1, 10) <= 0) continue;
      std::uint8_t buf[wire::kMaxFrameBytes];
      sockaddr_in from{};
      socklen_t len = sizeof(from);
      const auto got = ::recvfrom(fd_, buf, sizeof(buf), 0,
                                  reinterpret_cast<sockaddr*>(&from), &len);
      if (got <= 0) continue;
      auto m = wire::decode_message(buf, static_cast<std::size_t>(got));
      if (!m || m->type != kMsgClientRequest || !m->as<Request>()) continue;
      const Request& req = *m->as<Request>();
      const std::optional<Status> status = script_(requests_++);
      if (!status) continue;

      Reply r;
      r.session = req.session;
      r.tag = req.tag;
      r.status = *status;
      if (*status == Status::kNotLeader) r.leader_hint = hint_;
      if (*status == Status::kOk) r.results.resize(req.ops.size());
      Message out = Message::make<Reply>(protocol_ids::kKvService,
                                         kMsgClientReply, "kv.reply", r);
      std::vector<std::uint8_t> frame;
      if (!wire::encode_message(out, &frame)) {
        ADD_FAILURE() << "reply does not encode";
        continue;
      }
      (void)::sendto(fd_, frame.data(), frame.size(), 0,
                     reinterpret_cast<const sockaddr*>(&from), len);
    }
  }

  Script script_;
  std::int32_t hint_;
  int fd_{-1};
  std::uint16_t port_{0};
  std::atomic<int> requests_{0};
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

constexpr DurUs kTimeout = msec(100);

KvClient::Config client_config(std::vector<transport::PeerAddr> servers,
                               int max_attempts) {
  KvClient::Config cc;
  cc.servers = std::move(servers);
  cc.session = 7;
  cc.request_timeout = kTimeout;
  cc.max_attempts = max_attempts;
  return cc;
}

std::optional<Status> silent(int) { return std::nullopt; }

TEST(KvClient, RotatesOnTimeoutFollowsTheHintAndBacksOffWhenOverloaded) {
  // Server 0 never answers, server 1 redirects to server 2, and server 2
  // is overloaded once, then serves.
  Responder mute(silent);
  Responder follower([](int) { return Status::kNotLeader; }, /*hint=*/2);
  Responder leader([](int k) {
    return k == 0 ? Status::kOverloaded : Status::kOk;
  });
  KvClient client(client_config({mute.addr(), follower.addr(), leader.addr()},
                                /*max_attempts=*/10));
  ASSERT_TRUE(client.connect());

  const TimeUs start = now_us();
  EXPECT_EQ(client.put("k", "v"), Status::kOk);
  const TimeUs elapsed = now_us() - start;

  EXPECT_EQ(mute.requests(), 1) << "one timeout, then rotation";
  EXPECT_EQ(follower.requests(), 1) << "the rotation reached server 1";
  EXPECT_EQ(leader.requests(), 2) << "the hint, then the same server again";
  EXPECT_EQ(client.target(), 2);
  const KvClient::Stats& st = client.stats();
  EXPECT_EQ(st.attempts, 4);
  EXPECT_EQ(st.timeouts, 1);
  EXPECT_EQ(st.redirects, 1);
  EXPECT_EQ(st.failures, 0);
  // Server 0's silence costs one whole attempt; kOverloaded costs what is
  // left of the attempt it answered.
  EXPECT_GE(elapsed, 2 * kTimeout) << "resent at once after kOverloaded";
}

TEST(KvClient, AnOverloadedServerIsRetriedOncePerAttemptTimeout) {
  Responder full([](int) { return Status::kOverloaded; });
  KvClient client(client_config({full.addr()}, /*max_attempts=*/3));
  ASSERT_TRUE(client.connect());

  const TimeUs start = now_us();
  EXPECT_EQ(client.put("k", "v"), Status::kTimeout);
  const TimeUs elapsed = now_us() - start;

  EXPECT_EQ(full.requests(), 3);
  const KvClient::Stats& st = client.stats();
  EXPECT_EQ(st.attempts, 3);
  EXPECT_EQ(st.timeouts, 0) << "an answer is not a timeout";
  EXPECT_EQ(st.failures, 1);
  EXPECT_GE(elapsed, 3 * kTimeout) << "the budget went in a burst";
}

TEST(KvClient, SilentServersAreTriedInTurnUntilTheBudgetRunsOut) {
  Responder a(silent);
  Responder b(silent);
  KvClient client(client_config({a.addr(), b.addr()}, /*max_attempts=*/3));
  ASSERT_TRUE(client.connect());

  std::string value;
  EXPECT_EQ(client.get("k", &value), Status::kTimeout);
  EXPECT_EQ(a.requests(), 2);
  EXPECT_EQ(b.requests(), 1);
  EXPECT_EQ(client.stats().timeouts, 3);
  EXPECT_EQ(client.stats().failures, 1);
  EXPECT_EQ(client.target(), 1);
}

}  // namespace
}  // namespace ecfd::kv
