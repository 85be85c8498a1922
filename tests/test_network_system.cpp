#include "net/protocol_ids.hpp"
#include "net/scenario.hpp"
#include "net/system.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace ecfd {
namespace {

/// Minimal protocol: counts received PINGs, echoes PONGs.
class PingPong final : public Protocol {
 public:
  explicit PingPong(Env& env) : Protocol(env, protocol_ids::kTesting) {}

  void on_message(const Message& m) override {
    if (m.type == 1) {
      ++pings;
      env_.send(m.src, Message::make_empty(protocol_id(), 2, "test.pong"));
    } else if (m.type == 2) {
      ++pongs;
    }
  }

  void ping(ProcessId dst) {
    env_.send(dst, Message::make_empty(protocol_id(), 1, "test.ping"));
  }

  int pings{0};
  int pongs{0};
};

std::vector<PingPong*> install_pingpong(System& sys) {
  std::vector<PingPong*> out;
  for (ProcessId p = 0; p < sys.n(); ++p) {
    out.push_back(&sys.host(p).emplace<PingPong>());
  }
  return out;
}

TEST(Network, DeliversMessagesBothWays) {
  System sys(3, 1);
  auto pp = install_pingpong(sys);
  sys.start();
  pp[0]->ping(1);
  pp[0]->ping(2);
  sys.run_until(sec(1));
  EXPECT_EQ(pp[1]->pings, 1);
  EXPECT_EQ(pp[2]->pings, 1);
  EXPECT_EQ(pp[0]->pongs, 2);
}

TEST(Network, SelfSendDelivered) {
  System sys(2, 1);
  auto pp = install_pingpong(sys);
  sys.start();
  pp[0]->ping(0);
  sys.run_until(msec(10));
  EXPECT_EQ(pp[0]->pings, 1);
  EXPECT_EQ(pp[0]->pongs, 1);
}

TEST(Network, ProtocolTableFindsIdsAndDropsUnknownOnes) {
  System sys(2, 1);
  auto pp = install_pingpong(sys);
  EXPECT_EQ(sys.host(1).protocol(protocol_ids::kTesting), pp[1]);
  EXPECT_EQ(sys.host(1).protocol(protocol_ids::kTesting + 1), nullptr);
  sys.start();
  sys.host(0).send(
      1, Message::make_empty(protocol_ids::kTesting + 1, 1, "test.stray"));
  sys.run_until(sec(1));
  EXPECT_EQ(sys.metrics().get("msg.test.stray.sent"), 1);
  EXPECT_EQ(pp[1]->pings, 0);
}

TEST(Network, CountsSentByLabel) {
  System sys(2, 1);
  auto pp = install_pingpong(sys);
  sys.start();
  pp[0]->ping(1);
  pp[0]->ping(1);
  sys.run_until(sec(1));
  EXPECT_EQ(sys.metrics().get("msg.test.ping.sent"), 2);
  EXPECT_EQ(sys.metrics().get("msg.test.pong.sent"), 2);
}

TEST(Network, BlockedLinkDropsSilently) {
  System sys(2, 1);
  auto pp = install_pingpong(sys);
  sys.network().set_blocked(0, 1, true);
  sys.start();
  pp[0]->ping(1);
  sys.run_until(sec(1));
  EXPECT_EQ(pp[1]->pings, 0);
  EXPECT_EQ(sys.network().dropped_total(), 1);
}

TEST(Network, PartitionAndHeal) {
  System sys(4, 1);
  auto pp = install_pingpong(sys);
  ProcessSet left(4);
  left.add(0);
  left.add(1);
  sys.network().partition(left);
  sys.start();
  pp[0]->ping(1);  // same side: delivered
  pp[0]->ping(2);  // across: dropped
  sys.run_until(sec(1));
  EXPECT_EQ(pp[1]->pings, 1);
  EXPECT_EQ(pp[2]->pings, 0);

  sys.network().heal();
  pp[0]->ping(2);
  sys.run_until(sec(2));
  EXPECT_EQ(pp[2]->pings, 1);
}

TEST(System, CrashedProcessIsSilent) {
  System sys(3, 1);
  auto pp = install_pingpong(sys);
  sys.start();
  sys.crash_now(1);
  pp[0]->ping(1);
  sys.run_until(sec(1));
  EXPECT_EQ(pp[1]->pings, 0) << "crashed host must not receive";

  // And it must not send either.
  pp[1]->ping(0);
  sys.run_until(sec(2));
  EXPECT_EQ(pp[0]->pings, 0);
}

TEST(System, CrashAtFiresOnSchedule) {
  System sys(2, 1);
  install_pingpong(sys);
  sys.crash_at(1, msec(100));
  sys.start();
  sys.run_until(msec(50));
  EXPECT_FALSE(sys.host(1).crashed());
  sys.run_until(msec(150));
  EXPECT_TRUE(sys.host(1).crashed());
  EXPECT_EQ(sys.host(1).crash_time(), msec(100));
}

TEST(System, AliveAndCrashedSets) {
  System sys(4, 1);
  install_pingpong(sys);
  sys.start();
  sys.crash_now(2);
  const ProcessSet alive = sys.alive();
  EXPECT_TRUE(alive.contains(0) && alive.contains(1) && alive.contains(3));
  EXPECT_FALSE(alive.contains(2));
  EXPECT_TRUE(sys.crashed().contains(2));
  EXPECT_EQ(sys.crashed().size(), 1);
}

TEST(System, TimersCancelledOnCrash) {
  System sys(2, 1);
  auto pp = install_pingpong(sys);
  sys.start();
  // Host 1 arms a timer that would ping host 0.
  bool fired = false;
  sys.host(1).set_timer(msec(100), [&] {
    fired = true;
    pp[1]->ping(0);
  });
  sys.crash_at(1, msec(50));
  sys.run_until(sec(1));
  EXPECT_FALSE(fired);
  EXPECT_EQ(pp[0]->pings, 0);
}

TEST(System, CancelTimerStopsIt) {
  System sys(1, 1);
  install_pingpong(sys);
  sys.start();
  bool fired = false;
  const TimerId id = sys.host(0).set_timer(msec(10), [&] { fired = true; });
  sys.host(0).cancel_timer(id);
  sys.run_until(sec(1));
  EXPECT_FALSE(fired);
}

TEST(System, DeterministicAcrossRuns) {
  auto run_once = [](std::uint64_t seed) {
    ScenarioConfig cfg;
    cfg.n = 4;
    cfg.seed = seed;
    cfg.links = LinkKind::kReliable;
    auto sys = make_system(cfg);
    std::vector<PingPong*> pp;
    for (ProcessId p = 0; p < sys->n(); ++p) {
      pp.push_back(&sys->host(p).emplace<PingPong>());
    }
    sys->start();
    for (int i = 0; i < 20; ++i) pp[0]->ping(1 + (i % 3));
    sys->run_until(sec(1));
    return sys->network().delivered_total();
  };
  EXPECT_EQ(run_once(99), run_once(99));
}

TEST(Scenario, MakeSystemAppliesCrashes) {
  ScenarioConfig cfg;
  cfg.n = 3;
  cfg.seed = 5;
  cfg.with_crash(2, msec(10));
  auto sys = make_system(cfg);
  for (ProcessId p = 0; p < 3; ++p) sys->host(p).emplace<PingPong>();
  sys->start();
  sys->run_until(msec(20));
  EXPECT_TRUE(sys->host(2).crashed());
}

TEST(Trace, CapturesSendAndCrashEvents) {
#if defined(ECFD_OBS_DISABLED)
  GTEST_SKIP() << "typed events are compiled out (ECFD_OBS=OFF)";
#endif
  System sys(2, 1);
  obs::Recorder rec(64);
  sys.attach_recorder(&rec);
  auto pp = install_pingpong(sys);
  sys.start();
  pp[0]->ping(1);
  sys.run_until(msec(50));
  sys.crash_now(1);
  int sends = 0;
  int crashes = 0;
  for (const obs::Event& e : rec.merged()) {
    if (e.type == obs::EventType::kSend) ++sends;
    if (e.type == obs::EventType::kCrash) {
      ++crashes;
      EXPECT_EQ(e.host, 1);
    }
  }
  EXPECT_EQ(sends, 2) << "ping + pong";
  EXPECT_EQ(crashes, 1);
}

TEST(Scenario, FairLossyLinksLoseSomeMessages) {
  ScenarioConfig cfg;
  cfg.n = 2;
  cfg.seed = 7;
  cfg.links = LinkKind::kFairLossy;
  cfg.loss_p = 0.5;
  auto sys = make_system(cfg);
  std::vector<PingPong*> pp;
  for (ProcessId p = 0; p < 2; ++p) {
    pp.push_back(&sys->host(p).emplace<PingPong>());
  }
  sys->start();
  for (int i = 0; i < 100; ++i) pp[0]->ping(1);
  sys->run_until(sec(5));
  EXPECT_LT(pp[1]->pings, 100);
  EXPECT_GT(pp[1]->pings, 20) << "fairness keeps some getting through";
}

}  // namespace
}  // namespace ecfd
