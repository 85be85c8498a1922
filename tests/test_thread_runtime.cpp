// Integration tests for the non-simulated, std::thread-based runtime.
// These runs are nondeterministic; assertions are eventual with generous
// real-time deadlines.
#include "runtime/thread_env.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>

#include "broadcast/reliable_broadcast.hpp"
#include "core/consensus_c.hpp"
#include "core/ecfd_compose.hpp"
#include "fd/heartbeat_p.hpp"
#include "net/protocol_ids.hpp"

namespace ecfd::runtime {
namespace {

void sleep_ms(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

/// Waits up to `deadline_ms`, polling `pred` every 20ms.
bool eventually(int deadline_ms, const std::function<bool()>& pred) {
  for (int waited = 0; waited < deadline_ms; waited += 20) {
    if (pred()) return true;
    sleep_ms(20);
  }
  return pred();
}

class Counter final : public Protocol {
 public:
  explicit Counter(Env& env) : Protocol(env, protocol_ids::kTesting) {}
  void on_message(const Message& m) override {
    if (m.type == 1) ++received;
  }
  void send_to(ProcessId dst) {
    env_.send(dst, Message::make_empty(protocol_id(), 1, "t.msg"));
  }
  std::atomic<int> received{0};
};

TEST(ThreadRuntime, DeliversMessagesAcrossThreads) {
  ThreadSystem::Config cfg;
  cfg.n = 3;
  cfg.seed = 1;
  ThreadSystem sys(cfg);
  std::vector<Counter*> cs;
  for (ProcessId p = 0; p < 3; ++p) cs.push_back(&sys.host(p).emplace<Counter>());
  sys.start();
  for (int i = 0; i < 10; ++i) cs[0]->send_to(1);
  EXPECT_TRUE(eventually(3000, [&] { return cs[1]->received.load() == 10; }));
  EXPECT_EQ(cs[2]->received.load(), 0);
}

TEST(ThreadRuntime, TimersFire) {
  ThreadSystem::Config cfg;
  cfg.n = 1;
  ThreadSystem sys(cfg);
  sys.host(0).emplace<Counter>();
  sys.start();
  std::atomic<bool> fired{false};
  sys.host(0).post([&sys, &fired]() {
    sys.host(0).set_timer(msec(30), [&fired]() { fired = true; });
  });
  EXPECT_TRUE(eventually(2000, [&] { return fired.load(); }));
}

TEST(ThreadRuntime, CancelledTimerDoesNotFire) {
  ThreadSystem::Config cfg;
  cfg.n = 1;
  ThreadSystem sys(cfg);
  sys.host(0).emplace<Counter>();
  sys.start();
  std::atomic<bool> fired{false};
  std::atomic<bool> armed{false};
  sys.host(0).post([&]() {
    TimerId id = sys.host(0).set_timer(msec(200), [&fired]() { fired = true; });
    sys.host(0).cancel_timer(id);
    armed = true;
  });
  EXPECT_TRUE(eventually(2000, [&] { return armed.load(); }));
  sleep_ms(400);
  EXPECT_FALSE(fired.load());
}

TEST(ThreadRuntime, CrashedHostGoesSilent) {
  ThreadSystem::Config cfg;
  cfg.n = 2;
  ThreadSystem sys(cfg);
  std::vector<Counter*> cs;
  for (ProcessId p = 0; p < 2; ++p) cs.push_back(&sys.host(p).emplace<Counter>());
  sys.start();
  sys.host(1).crash();
  cs[0]->send_to(1);
  sleep_ms(300);
  EXPECT_EQ(cs[1]->received.load(), 0);
}

TEST(ThreadRuntime, HeartbeatDetectorSeesACrash) {
  ThreadSystem::Config cfg;
  cfg.n = 3;
  cfg.seed = 3;
  cfg.min_delay = usec(100);
  cfg.max_delay = msec(2);
  ThreadSystem sys(cfg);
  std::vector<fd::HeartbeatP*> hbs;
  for (ProcessId p = 0; p < 3; ++p) {
    fd::HeartbeatP::Config hc;
    hc.period = msec(20);
    hc.initial_timeout = msec(100);
    hbs.push_back(&sys.host(p).emplace<fd::HeartbeatP>(hc));
  }
  sys.start();
  // A detector's state belongs to its host's worker: read it there.
  const auto suspects = [&](ProcessId p, ProcessId q) {
    std::promise<bool> answer;
    std::future<bool> got = answer.get_future();
    sys.host(p).post(
        [&] { answer.set_value(hbs[p]->suspected().contains(q)); });
    return got.get();
  };
  sleep_ms(300);  // let heartbeats flow
  sys.host(2).crash();
  EXPECT_TRUE(eventually(5000, [&] {
    return suspects(0, 2) && suspects(1, 2);
  }));
  EXPECT_FALSE(suspects(0, 1));
}

TEST(ThreadRuntime, ConsensusOnRealThreads) {
  // The full paper stack — heartbeat ◇P -> ◇C adapter -> ConsensusC with
  // reliable broadcast — running on actual threads.
  constexpr int kN = 3;
  ThreadSystem::Config cfg;
  cfg.n = kN;
  cfg.seed = 4;
  cfg.min_delay = usec(100);
  cfg.max_delay = msec(2);
  ThreadSystem sys(cfg);

  std::vector<std::unique_ptr<core::EcfdFromP>> oracles;
  std::vector<core::ConsensusC*> cons;
  for (ProcessId p = 0; p < kN; ++p) {
    fd::HeartbeatP::Config hc;
    hc.period = msec(20);
    hc.initial_timeout = msec(100);
    auto& hb = sys.host(p).emplace<fd::HeartbeatP>(hc);
    oracles.push_back(std::make_unique<core::EcfdFromP>(&hb));
    auto& rb = sys.host(p).emplace<broadcast::ReliableBroadcast>();
    core::ConsensusC::Config cc;
    cc.poll_period = msec(10);
    cons.push_back(&sys.host(p).emplace<core::ConsensusC>(
        oracles.back().get(), &rb, cc));
  }
  // Decision results cross threads: collect them via the decide callback
  // under a mutex rather than poking protocol state from the test thread.
  std::mutex mu;
  std::vector<consensus::Value> decided;
  for (auto* c : cons) {
    c->set_on_decide([&mu, &decided](const consensus::Decision& d) {
      std::lock_guard<std::mutex> lock(mu);
      decided.push_back(d.value);
    });
  }

  sys.start();
  for (ProcessId p = 0; p < kN; ++p) {
    auto& host = sys.host(p);
    core::ConsensusC* c = cons[static_cast<std::size_t>(p)];
    host.post([c, p]() { c->propose(1000 + p); });
  }
  ASSERT_TRUE(eventually(10000, [&] {
    std::lock_guard<std::mutex> lock(mu);
    return decided.size() == static_cast<std::size_t>(kN);
  })) << "consensus must terminate on the threaded runtime";
  std::lock_guard<std::mutex> lock(mu);
  for (consensus::Value v : decided) {
    EXPECT_EQ(v, decided.front());
    EXPECT_GE(v, 1000);
    EXPECT_LT(v, 1000 + kN);
  }
}

// Regression for the old runtime's cancel_timer leak: cancelling an
// already-fired timer used to insert a tombstone that nothing ever erased.
// A busy arm/fire/cancel cycle must end with zero pending timers and zero
// bookkeeping records.
TEST(ThreadRuntime, TimerBookkeepingDrainsAfterQuiescence) {
  ThreadSystem::Config cfg;
  cfg.n = 1;
  cfg.seed = 11;
  ThreadSystem sys(cfg);
  sys.host(0).emplace<Counter>();
  sys.start();
  std::mutex mu;
  std::vector<TimerId> ids;
  std::atomic<int> fired{0};
  sys.host(0).post([&]() {
    for (int i = 0; i < 50; ++i) {
      TimerId id =
          sys.host(0).set_timer(msec(1 + i % 5), [&fired]() { ++fired; });
      std::lock_guard<std::mutex> lock(mu);
      ids.push_back(id);
    }
    for (int i = 0; i < 50; ++i) {
      TimerId id = sys.host(0).set_timer(msec(40), []() {});
      sys.host(0).cancel_timer(id);  // cancel before fire, on owner
    }
  });
  ASSERT_TRUE(eventually(5000, [&] { return fired.load() == 50; }));
  {
    // Cancel every already-fired timer from a foreign thread — the exact
    // sequence that used to leak one record per call, forever.
    std::lock_guard<std::mutex> lock(mu);
    for (TimerId id : ids) sys.host(0).cancel_timer(id);
    for (TimerId id : ids) sys.host(0).cancel_timer(id);  // and twice
  }
  EXPECT_TRUE(eventually(3000, [&] {
    return sys.host(0).pending_timers() == 0 &&
           sys.host(0).bookkeeping_records() == 0;
  })) << "pending=" << sys.host(0).pending_timers()
      << " bookkeeping=" << sys.host(0).bookkeeping_records();
}

// set_timer/cancel_timer from a non-worker thread (how tests and monitors
// drive hosts) must fire/cancel correctly and leave no indirection records.
TEST(ThreadRuntime, ForeignThreadTimersFireAndCancel) {
  ThreadSystem::Config cfg;
  cfg.n = 2;
  cfg.seed = 13;
  ThreadSystem sys(cfg);
  sys.host(0).emplace<Counter>();
  sys.host(1).emplace<Counter>();
  sys.start();
  std::atomic<bool> fired{false};
  std::atomic<bool> cancelled_fired{false};
  TimerId a = sys.host(0).set_timer(msec(30), [&fired]() { fired = true; });
  EXPECT_NE(a, kInvalidTimer);
  TimerId b = sys.host(1).set_timer(
      msec(150), [&cancelled_fired]() { cancelled_fired = true; });
  sys.host(1).cancel_timer(b);
  EXPECT_TRUE(eventually(3000, [&] { return fired.load(); }));
  sleep_ms(250);
  EXPECT_FALSE(cancelled_fired.load());
  EXPECT_TRUE(eventually(3000, [&] {
    return sys.host(0).bookkeeping_records() == 0 &&
           sys.host(1).bookkeeping_records() == 0 &&
           sys.host(0).pending_timers() == 0 &&
           sys.host(1).pending_timers() == 0;
  }));
}

TEST(ThreadRuntime, TraceRingKeepsLastEvents) {
#if defined(ECFD_OBS_DISABLED)
  GTEST_SKIP() << "trace() lands in the obs recorder, compiled out here";
#endif
  ThreadSystem::Config cfg;
  cfg.n = 1;
  cfg.trace_depth = 4;
  ThreadSystem sys(cfg);
  sys.host(0).emplace<Counter>();
  sys.start();
  std::atomic<bool> done{false};
  sys.host(0).post([&]() {
    for (int i = 0; i < 10; ++i) {
      sys.host(0).trace("t.ring", std::to_string(i));
    }
    done = true;
  });
  ASSERT_TRUE(eventually(3000, [&] { return done.load(); }));
  const auto tr = sys.host(0).recent_trace();
  ASSERT_EQ(tr.size(), 4u);
  EXPECT_EQ(tr[0].detail, "6");
  EXPECT_EQ(tr[3].detail, "9");
  for (const auto& rec : tr) EXPECT_EQ(rec.tag, "t.ring");
}

TEST(ThreadRuntime, TraceIsOffByDefault) {
  ThreadSystem::Config cfg;
  cfg.n = 1;
  ThreadSystem sys(cfg);
  sys.host(0).emplace<Counter>();
  sys.start();
  std::atomic<bool> done{false};
  sys.host(0).post([&]() {
    sys.host(0).trace("t.ring", "x");
    done = true;
  });
  ASSERT_TRUE(eventually(3000, [&] { return done.load(); }));
  EXPECT_TRUE(sys.host(0).recent_trace().empty());
}

// A protocol timer that cancels itself from inside its own callback (and
// re-arms) must not corrupt the wheel — the mid-fire cancel path.
TEST(ThreadRuntime, SelfCancelInsideCallbackIsSafe) {
  ThreadSystem::Config cfg;
  cfg.n = 1;
  cfg.seed = 17;
  ThreadSystem sys(cfg);
  sys.host(0).emplace<Counter>();
  sys.start();
  std::atomic<int> fires{0};
  struct Rearm {
    ThreadSystem& sys;
    std::atomic<int>& fires;
    TimerId id{kInvalidTimer};
    void tick() {
      sys.host(0).cancel_timer(id);  // cancelling the firing timer: no-op
      if (++fires < 5) {
        id = sys.host(0).set_timer(msec(5), [this]() { tick(); });
      }
    }
  };
  auto rearm = std::make_shared<Rearm>(Rearm{sys, fires});
  sys.host(0).post([rearm]() {
    rearm->id = rearm->sys.host(0).set_timer(msec(5), [rearm]() mutable {
      rearm->tick();
    });
  });
  EXPECT_TRUE(eventually(5000, [&] { return fires.load() == 5; }));
  EXPECT_TRUE(eventually(3000, [&] {
    return sys.host(0).pending_timers() == 0;
  }));
}

}  // namespace
}  // namespace ecfd::runtime
