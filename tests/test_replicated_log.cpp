// Tests for state-machine replication on repeated ◇C-consensus
// (core/replicated_log.hpp).
#include "core/replicated_log.hpp"

#include <gtest/gtest.h>

#include "core/ecfd_compose.hpp"
#include "fd/ring_fd.hpp"
#include "fd/scripted_fd.hpp"
#include "net/scenario.hpp"

namespace ecfd::core {
namespace {

struct Cluster {
  std::unique_ptr<System> sys;
  std::vector<std::unique_ptr<EcfdOracle>> oracles;
  std::vector<std::unique_ptr<LogReplica>> replicas;
};

Cluster make_cluster(int n, std::uint64_t seed, int capacity,
                     std::vector<CrashPlan> crashes = {},
                     bool quiescent = false) {
  ScenarioConfig cfg;
  cfg.n = n;
  cfg.seed = seed;
  cfg.links = LinkKind::kPartialSync;
  cfg.gst = msec(100);
  cfg.delta = msec(5);
  cfg.crashes = std::move(crashes);

  Cluster c;
  c.sys = make_system(cfg);
  std::vector<fd::RingFd*> rings;
  for (ProcessId p = 0; p < n; ++p) {
    rings.push_back(&c.sys->host(p).emplace<fd::RingFd>());
  }
  for (ProcessId p = 0; p < n; ++p) {
    c.oracles.push_back(std::make_unique<EcfdFromRing>(rings[p]));
    LogReplica::Config lc;
    lc.capacity = capacity;
    lc.quiescent = quiescent;
    c.replicas.push_back(std::make_unique<LogReplica>(
        c.sys->host(p), c.oracles.back().get(), lc));
  }
  return c;
}

std::vector<consensus::Value> commands_of(const LogReplica& r) {
  std::vector<consensus::Value> out;
  for (const auto& e : r.log()) out.push_back(e.command);
  return out;
}

TEST(LogReplica, AllReplicasApplyIdenticalLogs) {
  auto c = make_cluster(4, 1, 8);
  c.sys->start();
  // Two clients submit interleaved commands.
  c.replicas[0]->submit(101);
  c.replicas[0]->submit(102);
  c.replicas[2]->submit(201);
  c.sys->run_until(sec(10));

  const auto reference = commands_of(*c.replicas[0]);
  EXPECT_EQ(reference.size(), 3u);
  for (int p = 1; p < 4; ++p) {
    EXPECT_EQ(commands_of(*c.replicas[p]), reference) << "replica " << p;
  }
  // Every submitted command made it in.
  for (consensus::Value v : {101, 102, 201}) {
    EXPECT_NE(std::find(reference.begin(), reference.end(), v),
              reference.end())
        << v;
  }
}

TEST(LogReplica, NoOpsFillSlotsWithoutAppearingInTheLog) {
  auto c = make_cluster(3, 2, 5);
  c.sys->start();
  c.sys->run_until(sec(10));  // nobody submits anything
  for (int p = 0; p < 3; ++p) {
    EXPECT_EQ(c.replicas[p]->applied_slots(), 5) << "slots all decided";
    EXPECT_TRUE(c.replicas[p]->log().empty()) << "but nothing applied";
  }
}

TEST(LogReplica, SlotsAreAppliedInOrder) {
  auto c = make_cluster(4, 3, 8);
  std::vector<int> applied_slots;
  c.replicas[1]->set_apply([&applied_slots](const LogReplica::Entry& e) {
    applied_slots.push_back(e.slot);
  });
  c.sys->start();
  for (int i = 0; i < 5; ++i) c.replicas[3]->submit(900 + i);
  c.sys->run_until(sec(12));
  ASSERT_GE(applied_slots.size(), 5u);
  EXPECT_TRUE(std::is_sorted(applied_slots.begin(), applied_slots.end()));
  // Commands from one submitter preserve their submission order.
  const auto cmds = commands_of(*c.replicas[1]);
  std::vector<consensus::Value> mine;
  for (auto v : cmds) {
    if (v >= 900) mine.push_back(v);
  }
  EXPECT_EQ(mine, (std::vector<consensus::Value>{900, 901, 902, 903, 904}));
}

TEST(LogReplica, SurvivesLeaderCrashMidLog) {
  auto c = make_cluster(5, 4, 10, {{0, msec(150)}});
  c.sys->start();
  for (ProcessId p = 1; p < 5; ++p) c.replicas[p]->submit(1000 + p);
  c.sys->run_until(sec(20));
  const auto reference = commands_of(*c.replicas[1]);
  for (int p = 2; p < 5; ++p) {
    EXPECT_EQ(commands_of(*c.replicas[p]), reference);
  }
  // All four survivor commands eventually decided.
  EXPECT_EQ(c.replicas[1]->pending(), 0u);
  EXPECT_GE(reference.size(), 4u);
}

// A recorder on a long-running log must stay bounded. Every decided slot
// records a typed kDecide, and nothing may intern per-slot text beside it:
// each distinct string is one more table entry, until a node's crash image
// has no room left for its labels.
TEST(LogReplica, LongRunInternsABoundedStringTable) {
#if defined(ECFD_OBS_DISABLED)
  GTEST_SKIP() << "the recorder is compiled out (ECFD_OBS=OFF)";
#endif
  constexpr int kSlots = 3000;
  // Quiescent: only the slots in flight poll, so the run stays linear.
  auto c = make_cluster(3, 9, kSlots, {}, /*quiescent=*/true);
  obs::Recorder rec(1024);
  c.sys->attach_recorder(&rec);
  c.sys->start();
  c.sys->run_until(msec(300));  // FD stable; p0 is the ring leader
  for (int i = 0; i < kSlots; ++i) c.replicas[0]->submit(1000 + i);
  while (!c.replicas[0]->exhausted() && c.sys->now() < sec(600)) {
    c.sys->run_for(sec(1));
  }
  ASSERT_EQ(c.replicas[0]->log().size(), static_cast<std::size_t>(kSlots));
  EXPECT_LT(rec.strings().size(), 64u);
}

TEST(LogReplica, CapacityBoundsTheRun) {
  auto c = make_cluster(3, 5, 2);
  c.sys->start();
  for (int i = 0; i < 5; ++i) c.replicas[0]->submit(10 + i);
  c.sys->run_until(sec(10));
  EXPECT_EQ(c.replicas[0]->applied_slots(), 2);
  EXPECT_LE(c.replicas[0]->log().size(), 2u);
  EXPECT_GE(c.replicas[0]->pending(), 3u) << "overflow stays pending";
}

TEST(LogReplica, QuiescentIdleClusterConsumesNoSlots) {
  // The flip side of NoOpsFillSlots: with quiescent mode on, an idle
  // cluster leaves the bounded log untouched — the property the kv
  // service relies on to not burn through its capacity between requests.
  auto c = make_cluster(3, 2, 5, {}, /*quiescent=*/true);
  c.sys->start();
  c.sys->run_until(sec(10));
  for (int p = 0; p < 3; ++p) {
    EXPECT_EQ(c.replicas[p]->applied_slots(), 0) << "replica " << p;
    EXPECT_TRUE(c.replicas[p]->log().empty()) << "replica " << p;
  }
}

TEST(LogReplica, QuiescentClusterStillReplicatesLeaderSubmissions) {
  // Foreign traffic on a slot wakes the dormant instances, so a quiescent
  // log still commits: the leader proposes, everyone else joins in.
  auto c = make_cluster(3, 9, 8, {}, /*quiescent=*/true);
  c.sys->start();
  c.sys->run_until(msec(300));  // FD stable; p0 is the ring leader
  c.replicas[0]->submit(601);
  c.replicas[0]->submit(602);
  c.sys->run_until(sec(10));

  const auto reference = commands_of(*c.replicas[0]);
  EXPECT_EQ(reference, (std::vector<consensus::Value>{601, 602}));
  for (int p = 1; p < 3; ++p) {
    EXPECT_EQ(commands_of(*c.replicas[p]), reference) << "replica " << p;
  }
  // Only the slots that carried commands were consumed; the rest of the
  // bounded log is still available.
  for (int p = 0; p < 3; ++p) {
    EXPECT_LT(c.replicas[p]->applied_slots(), 8) << "replica " << p;
    EXPECT_FALSE(c.replicas[p]->exhausted());
  }
}

TEST(LogReplica, CompactDropsTheAppliedPrefix) {
  auto c = make_cluster(3, 7, 8);
  c.sys->start();
  for (int i = 0; i < 4; ++i) c.replicas[0]->submit(500 + i);
  c.sys->run_until(sec(10));
  auto& r = *c.replicas[0];
  ASSERT_EQ(r.applied_slots(), 8);
  ASSERT_EQ(r.log().size(), 4u);

  const int cut = r.log()[2].slot;  // keep the last two entries
  r.compact(cut);
  EXPECT_EQ(r.compacted_upto(), cut);
  ASSERT_EQ(r.log().size(), 2u);
  for (const auto& e : r.log()) EXPECT_GE(e.slot, cut);

  // Monotone: compacting backwards is a no-op.
  r.compact(0);
  EXPECT_EQ(r.compacted_upto(), cut);
  ASSERT_EQ(r.log().size(), 2u);

  // Clamped to the applied prefix (here: everything).
  r.compact(1000);
  EXPECT_EQ(r.compacted_upto(), 8);
  EXPECT_TRUE(r.log().empty());
}

TEST(LogReplica, InstallSnapshotFastForwardsPastMissedSlots) {
  // The install-on-join flow: a partitioned-away replica misses the whole
  // run (decide messages are one-shot diffusion, never retransmitted), and
  // a snapshot covering the decided prefix fast-forwards it — without
  // running apply callbacks for the covered slots.
  auto c = make_cluster(3, 8, 8);
  int p2_applies = 0;
  c.replicas[2]->set_apply(
      [&p2_applies](const LogReplica::Entry&) { ++p2_applies; });
  c.sys->start();

  ProcessSet majority_side(3);
  majority_side.add(0);
  majority_side.add(1);
  c.sys->network().partition(majority_side);  // {p0, p1} vs {p2}

  for (int i = 0; i < 4; ++i) c.replicas[0]->submit(700 + i);
  c.sys->run_until(sec(10));
  // The majority decided every slot without p2 (it is suspected, so the
  // Phase 2/4 waits don't block on it); p2 learned none of it.
  ASSERT_EQ(c.replicas[0]->applied_slots(), 8);
  ASSERT_EQ(c.replicas[0]->log().size(), 4u);
  ASSERT_EQ(c.replicas[2]->applied_slots(), 0);

  // Shrinking/no-op installs do nothing.
  c.replicas[2]->install_snapshot(0);
  EXPECT_EQ(c.replicas[2]->applied_slots(), 0);

  // The real install: the service hands p2 a state snapshot covering the
  // full decided prefix and fast-forwards the log.
  c.replicas[2]->install_snapshot(8);
  EXPECT_EQ(c.replicas[2]->applied_slots(), 8);
  EXPECT_EQ(c.replicas[2]->compacted_upto(), 8);
  EXPECT_TRUE(c.replicas[2]->log().empty()) << "covered slots not replayed";
  EXPECT_EQ(p2_applies, 0) << "no apply callbacks for installed slots";
  EXPECT_TRUE(c.replicas[2]->exhausted());

  // Healing afterwards changes nothing: stray messages for covered slots
  // are ignored.
  c.sys->network().heal();
  c.sys->run_until(sec(12));
  EXPECT_EQ(c.replicas[2]->applied_slots(), 8);
  EXPECT_EQ(p2_applies, 0);
}

TEST(LogReplica, ScriptedStableClusterIsFast) {
  // With a detector that is stable from the start, every slot should
  // close in a single round; 8 slots complete within a few hundred ms.
  const int n = 4;
  ScenarioConfig cfg;
  cfg.n = n;
  cfg.seed = 6;
  cfg.links = LinkKind::kPartialSync;
  cfg.gst = 0;
  cfg.delta = msec(5);
  auto sys = make_system(cfg);
  std::vector<std::unique_ptr<EcfdOracle>> oracles;
  std::vector<std::unique_ptr<LogReplica>> replicas;
  for (ProcessId p = 0; p < n; ++p) {
    auto& scripted = sys->host(p).emplace<fd::ScriptedFd>(
        fd::stable_script(n, p, ProcessSet(n), 0, 0));
    oracles.push_back(
        std::make_unique<EcfdFromSAndOmega>(&scripted, &scripted));
    LogReplica::Config lc;
    lc.capacity = 8;
    replicas.push_back(std::make_unique<LogReplica>(
        sys->host(p), oracles.back().get(), lc));
  }
  sys->start();
  replicas[1]->submit(42);
  sys->run_until(msec(800));
  EXPECT_EQ(replicas[0]->applied_slots(), 8);
  ASSERT_EQ(replicas[0]->log().size(), 1u);
  EXPECT_EQ(replicas[0]->log()[0].command, 42);
}

}  // namespace
}  // namespace ecfd::core
