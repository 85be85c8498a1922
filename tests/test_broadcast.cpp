#include "broadcast/reliable_broadcast.hpp"
#include "net/scenario.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace ecfd::broadcast {
namespace {

struct RbWorld {
  std::unique_ptr<System> sys;
  std::vector<ReliableBroadcast*> rb;
  std::vector<std::vector<std::int64_t>> delivered;  // per process
};

RbWorld make(int n, std::uint64_t seed, ScenarioConfig cfg = {}) {
  cfg.n = n;
  cfg.seed = seed;
  RbWorld s;
  s.sys = make_system(cfg);
  s.delivered.resize(static_cast<std::size_t>(n));
  for (ProcessId p = 0; p < n; ++p) {
    auto& rb = s.sys->host(p).emplace<ReliableBroadcast>();
    rb.set_deliver([&s, p](const RbEnvelope& e) {
      const auto* value = e.as<std::int64_t>();
      ASSERT_NE(value, nullptr);
      s.delivered[static_cast<std::size_t>(p)].push_back(*value);
    });
    s.rb.push_back(&rb);
  }
  s.sys->start();
  return s;
}

TEST(ReliableBroadcast, ValidityAllCorrectDeliver) {
  RbWorld s = make(4, 1);
  s.rb[0]->r_broadcast(1, std::int64_t{4242});
  s.sys->run_until(sec(1));
  for (int p = 0; p < 4; ++p) {
    ASSERT_EQ(s.delivered[p].size(), 1u) << "process " << p;
    EXPECT_EQ(s.delivered[p][0], 4242);
  }
}

TEST(ReliableBroadcast, UniformIntegrityNoDuplicates) {
  RbWorld s = make(5, 2);
  s.rb[1]->r_broadcast(1, std::int64_t{1});
  s.rb[1]->r_broadcast(1, std::int64_t{2});
  s.sys->run_until(sec(1));
  for (int p = 0; p < 5; ++p) {
    EXPECT_EQ(s.delivered[p].size(), 2u);
  }
}

TEST(ReliableBroadcast, LocalDeliveryIsImmediate) {
  RbWorld s = make(3, 3);
  s.rb[2]->r_broadcast(7, std::int64_t{7});
  // No simulation time elapsed: the broadcaster has already delivered.
  EXPECT_EQ(s.delivered[2].size(), 1u);
}

TEST(ReliableBroadcast, AgreementUnderLossyLinksViaDiffusion) {
  ScenarioConfig cfg;
  cfg.links = LinkKind::kFairLossy;
  cfg.loss_p = 0.4;
  cfg.force_deliver_every = 5;
  RbWorld s = make(5, 4, cfg);
  s.rb[0]->r_broadcast(1, std::int64_t{1});
  s.sys->run_until(sec(2));
  // Diffusion: everyone relays on first receipt, so even heavy loss cannot
  // keep a correct process from delivering (up to n-1 copies each).
  for (int p = 0; p < 5; ++p) {
    EXPECT_EQ(s.delivered[p].size(), 1u) << "process " << p;
  }
}

TEST(ReliableBroadcast, AgreementWhenOriginCrashesAfterSending) {
  RbWorld s = make(4, 5);
  s.rb[3]->r_broadcast(1, std::int64_t{-1});
  s.sys->crash_now(3);  // crashes right after broadcasting
  s.sys->run_until(sec(1));
  for (int p = 0; p < 3; ++p) {
    EXPECT_EQ(s.delivered[p].size(), 1u) << "process " << p;
  }
}

TEST(ReliableBroadcast, RelaysSkipTheOriginAndTheSender) {
  // With one fixed link delay, every first copy comes straight from the
  // origin, which sends n - 1 frames; each receiver relays to the n - 2
  // processes that are neither itself nor the origin. (n - 1)^2 in all,
  // where relaying to everyone but oneself cost n(n - 1).
  for (int n : {3, 5, 7}) {
    SCOPED_TRACE(n);
    ScenarioConfig cfg;
    cfg.links = LinkKind::kReliable;
    cfg.min_delay = cfg.max_delay = msec(1);
    RbWorld s = make(n, 9, cfg);
    s.rb[1]->r_broadcast(1, std::int64_t{5});
    s.sys->run_until(sec(1));
    EXPECT_EQ(s.sys->metrics().get("msg.rb.relay.sent"), (n - 1) * (n - 1));
    for (int p = 0; p < n; ++p) {
      ASSERT_EQ(s.delivered[p].size(), 1u) << "process " << p;
      EXPECT_EQ(s.delivered[p][0], 5);
    }
  }
}

TEST(ReliableBroadcast, CrashedProcessDoesNotDeliver) {
  RbWorld s = make(3, 6);
  s.sys->crash_now(2);
  s.rb[0]->r_broadcast(1, std::int64_t{1});
  s.sys->run_until(sec(1));
  EXPECT_TRUE(s.delivered[2].empty());
}

TEST(ReliableBroadcast, ManyBroadcastsAllArrive) {
  RbWorld s = make(4, 7);
  for (int i = 0; i < 20; ++i) {
    s.rb[i % 4]->r_broadcast(1, std::int64_t{i});
  }
  s.sys->run_until(sec(2));
  for (int p = 0; p < 4; ++p) {
    EXPECT_EQ(s.delivered[p].size(), 20u);
  }
}

TEST(ReliableBroadcast, EnvelopeCarriesOriginAndTag) {
  ScenarioConfig cfg;
  cfg.n = 2;
  cfg.seed = 8;
  auto sys = make_system(cfg);
  ProcessId got_origin = kNoProcess;
  int got_tag = 0;
  auto& rb0 = sys->host(0).emplace<ReliableBroadcast>();
  rb0.set_deliver([&](const RbEnvelope& e) {
    got_origin = e.origin;
    got_tag = e.tag;
  });
  auto& rb1 = sys->host(1).emplace<ReliableBroadcast>();
  rb1.set_deliver([](const RbEnvelope&) {});
  sys->start();
  rb1.r_broadcast(42, std::int64_t{0});
  sys->run_until(sec(1));
  EXPECT_EQ(got_origin, 1);
  EXPECT_EQ(got_tag, 42);
}

}  // namespace
}  // namespace ecfd::broadcast
