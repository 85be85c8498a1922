// Allocation-regression suite. Links sim/alloc_counter.cpp (the counting
// operator new/delete), so every heap allocation in this process is
// observable. The properties pinned here:
//
//  1. Steady-state schedule/fire on the Scheduler is allocation-free: the
//     4-ary heap reuses generation-tagged slots and InplaceAction stores
//     every callable inline, so once the slab has grown to the working-set
//     size, scheduling another event never touches the heap.
//  2. Steady-state message traffic through the simulated Network is
//     allocation-free: payload bodies come from the per-type freelist
//     behind Message::make, counter labels are interned once, and the
//     delivery closure fits the queue's inline action.
//  3. A broadcast fan-out allocates exactly ONE payload body regardless of
//     fan-out width (the "single shared body" design intent, enforced).

#include <gtest/gtest.h>

#include "consensus/bodies.hpp"
#include "fd/heartbeat_p.hpp"
#include "net/payload_pool.hpp"
#include "net/scenario.hpp"
#include "obs/recorder.hpp"
#include "sim/alloc_counter.hpp"
#include "sim/scheduler.hpp"

namespace ecfd {
namespace {

TEST(AllocCounting, OverrideIsLinked) {
  ASSERT_TRUE(sim::alloc_counting_active());
  const std::uint64_t before = sim::alloc_count();
  auto* p = new int(7);
  EXPECT_GT(sim::alloc_count(), before);
  delete p;
}

TEST(AllocCounting, SteadyStateSchedulePopIsAllocationFree) {
  sim::Scheduler s;
  long long acc = 0;
  // Warm-up: grow the slot slab and the heap array to working-set size.
  for (int i = 0; i < 2048; ++i) {
    s.schedule_after(i % 97, [&acc] { ++acc; });
  }
  s.run();

  const std::uint64_t before = sim::alloc_count();
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 1024; ++i) {
      s.schedule_after(i % 97, [&acc] { ++acc; });
    }
    s.run();
  }
  EXPECT_EQ(sim::alloc_count(), before)
      << "scheduling fired " << acc << " events but allocated";
}

TEST(AllocCounting, SteadyStateCancelIsAllocationFree) {
  sim::Scheduler s;
  std::vector<sim::EventId> ids;
  ids.reserve(4096);
  for (int i = 0; i < 4096; ++i) ids.push_back(s.schedule_after(i + 1, [] {}));
  for (sim::EventId id : ids) s.cancel(id);
  ids.clear();
  s.run();

  const std::uint64_t before = sim::alloc_count();
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 1024; ++i) ids.push_back(s.schedule_after(i + 1, [] {}));
    for (sim::EventId id : ids) s.cancel(id);
    ids.clear();
  }
  EXPECT_EQ(sim::alloc_count(), before);
}

using Body = consensus::ProposeBody;

TEST(AllocCounting, SteadyStateNetworkTrafficIsAllocationFree) {
  ScenarioConfig cfg;
  cfg.n = 8;
  cfg.seed = 5;
  cfg.links = LinkKind::kReliable;
  auto sys = make_system(cfg);
  sys->start();

  auto blast = [&] {
    for (int round = 0; round < 50; ++round) {
      for (ProcessId p = 0; p < cfg.n; ++p) {
        Message m = Message::make<Body>(900, 1, "pool.test", Body{round, p});
        m.src = p;
        for (ProcessId q = 0; q < cfg.n; ++q) {
          if (q == p) continue;
          m.dst = q;
          sys->network().send(m);
        }
      }
      sys->run_for(msec(10));
    }
  };
  blast();  // warm-up: pools, counter slots, heap arrays

  const std::uint64_t before = sim::alloc_count();
  blast();
  EXPECT_EQ(sim::alloc_count(), before);
  EXPECT_GT(sys->network().delivered_total(), 0);
}

TEST(AllocCounting, EventRingPushIsAllocationFree) {
  // The observability hot path: once rings are bound, recording an event
  // is a fetch_add plus atomic stores — never a heap touch, from any type
  // or ring. (Interning is the documented cold-path exception.)
  obs::Recorder rec(1024);
  rec.bind_hosts(4);
  const std::int32_t label = rec.intern("warm");  // cold path, up front

  const std::uint64_t before = sim::alloc_count();
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 1024; ++i) {
      rec.ring(i % 4).push(i, obs::EventType::kSend, i % 4, i, label);
      rec.state_ring(i % 4).push(i, obs::EventType::kSuspect, i % 4);
      rec.system_ring().push(i, obs::EventType::kVerdict, 0, 0, label);
    }
  }
  EXPECT_EQ(sim::alloc_count(), before);
  EXPECT_GT(rec.dropped_total(), 0u);  // rings wrapped; still no allocation
}

// Sink protocol for the recorder steady-state test: registering it makes
// ProcessHost::deliver take the record(kDeliver) path instead of dropping
// the message as unroutable.
struct SinkProto : Protocol {
  explicit SinkProto(Env& env) : Protocol(env, 900) {}
  void on_message(const Message&) override {}
};

TEST(AllocCounting, SteadyStateTrafficWithRecorderIsAllocationFree) {
  // Property 2 with the typed event recorder attached: the record() calls
  // on the send and deliver paths must not reintroduce allocations. Sends
  // go through the host Env (not raw Network::send) so both kSend and
  // kDeliver are actually recorded.
  ScenarioConfig cfg;
  cfg.n = 8;
  cfg.seed = 5;
  cfg.links = LinkKind::kReliable;
  auto sys = make_system(cfg);
  obs::Recorder rec(512);
  sys->attach_recorder(&rec);
  for (ProcessId p = 0; p < cfg.n; ++p) sys->host(p).emplace<SinkProto>();
  sys->start();

  auto blast = [&] {
    for (int round = 0; round < 50; ++round) {
      for (ProcessId p = 0; p < cfg.n; ++p) {
        Message m = Message::make<Body>(900, 1, "pool.test", Body{round, p});
        for (ProcessId q = 0; q < cfg.n; ++q) {
          if (q == p) continue;
          sys->host(p).send(q, m);
        }
      }
      sys->run_for(msec(10));
    }
  };
  blast();  // warm-up

  const std::uint64_t before = sim::alloc_count();
  blast();
  EXPECT_EQ(sim::alloc_count(), before);
#if !defined(ECFD_OBS_DISABLED)
  EXPECT_GT(rec.ring(0).pushed(), 0u);
  EXPECT_GT(rec.dropped_total(), 0u);  // depth 512 wrapped under the churn
#endif
}

TEST(AllocCounting, BroadcastUsesOneSharedBody) {
  // One Message::make + n-1 sends must cost exactly one payload-pool
  // acquisition: the body is shared, never copied per destination.
  ScenarioConfig cfg;
  cfg.n = 8;
  cfg.seed = 9;
  cfg.links = LinkKind::kReliable;  // bounded delays: warm-up bodies come
                                    // back to the pool inside each run_for
  auto sys = make_system(cfg);
  sys->start();

  // Warm the pool so "fresh vs reused" accounting is exercised both ways.
  for (int i = 0; i < 4; ++i) {
    Message warm = Message::make<Body>(900, 2, "pool.bcast", Body{i, i});
    warm.src = 0;
    warm.dst = 1;
    sys->network().send(warm);
    sys->run_for(msec(10));
  }

  const auto before = payload_pool_thread_stats();
  Message m = Message::make<Body>(900, 2, "pool.bcast", Body{1, 2});
  m.src = 0;
  for (ProcessId q = 1; q < cfg.n; ++q) {
    m.dst = q;
    sys->network().send(m);
  }
  const auto mid = payload_pool_thread_stats();
  EXPECT_EQ((mid.fresh + mid.reused) - (before.fresh + before.reused), 1u)
      << "broadcast fan-out must allocate exactly one shared body";

  m.payload.reset();     // drop the sender's reference
  sys->run_for(sec(1));  // deliver everything; body returns to the pool
  const auto after = payload_pool_thread_stats();
  EXPECT_EQ(after.released - mid.released, 1u);
}

TEST(AllocCounting, NetworkAllocatesNoLinkUntilOneIsSet) {
  // Every pair without a link of its own shares the network's one default
  // reliable link, so building the fabric allocates its two n x n tables
  // and nothing per pair; set_links then allocates one link per pair.
  const int n = 128;
  sim::Scheduler sched;
  obs::MetricsRegistry metrics;
  const std::uint64_t before = sim::alloc_count();
  Network net(sched, n, Rng(3), metrics);
  EXPECT_LT(sim::alloc_count() - before, 16u);

  int delivered = 0;
  net.set_sink([&delivered](const Message&) { ++delivered; });
  Message m = Message::make<Body>(900, 3, "pool.link", Body{1, 2});
  m.src = 0;
  m.dst = n - 1;
  net.send(m);
  sched.run_until(sec(1));
  EXPECT_EQ(delivered, 1) << "the shared default link delivers";

  const std::uint64_t links_before = sim::alloc_count();
  net.set_links([](ProcessId, ProcessId) {
    return std::make_unique<ReliableLink>(usec(100), usec(100));
  });
  EXPECT_EQ(sim::alloc_count() - links_before,
            static_cast<std::uint64_t>(n) * (n - 1));
}

}  // namespace
}  // namespace ecfd
