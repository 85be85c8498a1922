// Tests for the two-level hierarchical ◇C detector (fd/hier_c.hpp): class
// membership under crashes, cell-leader re-election, whole-cell loss,
// digest staleness across a partition/heal, the O(n) steady-state message
// bound, and bitwise determinism at n=256.
#include "fd/hier_c.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "fd_test_util.hpp"
#include "scenario_util.hpp"

namespace ecfd {
namespace {

using testutil::run_fd_scenario;

testutil::Installer installer(fd::HierC::Config cfg = {}) {
  return [cfg](ProcessHost& host, ProcessId,
               std::vector<std::shared_ptr<void>>&) {
    auto& f = host.emplace<fd::HierC>(cfg);
    return testutil::OracleRefs{&f, &f};
  };
}

ScenarioConfig base_scenario(int n, std::uint64_t seed) {
  return testutil::partial_sync_scenario(n, seed, msec(250), msec(50));
}

TEST(HierC, CellGeometryDefaults) {
  ScenarioConfig cfg = base_scenario(9, 1);
  auto sys = make_system(cfg);
  auto& f = sys->host(4).emplace<fd::HierC>();
  EXPECT_EQ(f.cell_size(), 3);
  EXPECT_EQ(f.n_cells(), 3);
  EXPECT_EQ(f.cell_of(0), 0);
  EXPECT_EQ(f.cell_of(4), 1);
  EXPECT_EQ(f.cell_of(8), 2);
}

TEST(HierC, IsEventuallyConsistentUnderCrashes) {
  // One crash inside a follower cell, one crash of a cell leader.
  auto cfg = base_scenario(9, 2);
  cfg.with_crash(4, msec(700)).with_crash(3, sec(1));
  auto res = run_fd_scenario(cfg, installer(), sec(10));
  EXPECT_TRUE(res.classes.eventually_perfect());
  EXPECT_TRUE(res.classes.eventually_consistent());
  EXPECT_EQ(res.classes.leader, 0);
}

TEST(HierC, TopLeaderCrashReElects) {
  // p0 is both cell-0 leader and top leader; after it crashes the digest
  // leader must converge to p1 (next candidate in the first live cell).
  auto cfg = base_scenario(9, 3);
  cfg.with_crash(0, msec(800));
  auto res = run_fd_scenario(cfg, installer(), sec(10));
  EXPECT_TRUE(res.classes.eventually_consistent());
  EXPECT_EQ(res.classes.leader, 1);
}

TEST(HierC, WholeCellCrashMovesTopLeadership) {
  // Cell 0 dies entirely: top leadership must jump a WHOLE cell (to p3),
  // and every cell-0 member must end up in everyone's digest. This is the
  // scenario the cell-contact rotation exists for — both the believed
  // top leader and its believed successors inside cell 0 are gone.
  auto cfg = base_scenario(9, 4);
  cfg.with_crash(0, msec(600)).with_crash(1, msec(700)).with_crash(2, msec(800));
  auto res = run_fd_scenario(cfg, installer(), sec(12));
  EXPECT_TRUE(res.classes.eventually_perfect());
  EXPECT_TRUE(res.classes.eventually_consistent());
  EXPECT_EQ(res.classes.leader, 3);
}

TEST(HierC, DigestRecoversFromPartitionStaleness) {
  // Partition the first cell away: each side's digests go stale about the
  // other (mass mutual suspicion). After heal, refreshed cell reports must
  // retract every false suspicion and re-converge on p0's digest.
  const int n = 9;
  ScenarioConfig cfg = base_scenario(n, 5);
  cfg.gst = 0;
  auto sys = make_system(cfg);
  std::vector<fd::HierC*> fds;
  for (ProcessId p = 0; p < n; ++p) {
    fds.push_back(&sys->host(p).emplace<fd::HierC>());
  }
  sys->start();
  sys->run_until(msec(500));
  sys->network().partition(testutil::minority(n, 3));  // cell 0 | rest
  sys->run_until(sec(3));
  // Staleness while split: the majority side suspects all of cell 0 and
  // elects p3.
  EXPECT_TRUE(fds[4]->suspected().contains(0));
  EXPECT_EQ(fds[4]->trusted(), 3);
  sys->network().heal();
  sys->run_until(sec(9));
  for (ProcessId p = 0; p < n; ++p) {
    EXPECT_TRUE(fds[p]->suspected().empty()) << "stale digest at p" << p;
    EXPECT_EQ(fds[p]->trusted(), 0) << "leader at p" << p;
  }
}

TEST(HierC, SteadyStateMessageCostIsLinear) {
  // The tentpole claim at module granularity: ~2n messages per period in
  // steady state (each member one cell beat; each cell leader one top beat
  // and one digest re-broadcast), against heartbeat ◇P's n(n-1).
  const int n = 64;
  auto cfg = base_scenario(n, 6);
  cfg.gst = 0;
  auto sys = make_system(cfg);
  for (ProcessId p = 0; p < n; ++p) sys->host(p).emplace<fd::HierC>();
  sys->start();
  sys->run_until(sec(1));  // past bring-up elections
  const auto before = sys->network().sent_total();
  sys->run_until(sec(3));
  const auto sent = sys->network().sent_total() - before;
  fd::HierC::Config defaults;
  const double periods = static_cast<double>(sec(2)) / defaults.period;
  EXPECT_LT(static_cast<double>(sent), periods * 3 * n);
  EXPECT_GT(static_cast<double>(sent), periods * 1 * n);
}

TEST(HierC, DeterministicAtN256) {
  // Same scenario, same seed, two fresh systems: identical message totals
  // and identical final digests at every process.
  auto run_once = [](std::vector<ProcessSet>* susp, std::int64_t* sent) {
    auto cfg = base_scenario(256, 7);
    cfg.with_crash(129, msec(600));  // mid-range non-leader member
    auto sys = make_system(cfg);
    std::vector<fd::HierC*> fds;
    for (ProcessId p = 0; p < 256; ++p) {
      fds.push_back(&sys->host(p).emplace<fd::HierC>());
    }
    sys->start();
    sys->run_until(sec(3));
    for (auto* f : fds) susp->push_back(f->suspected());
    *sent = sys->network().sent_total();
  };
  std::vector<ProcessSet> susp_a, susp_b;
  std::int64_t sent_a = 0, sent_b = 0;
  run_once(&susp_a, &sent_a);
  run_once(&susp_b, &sent_b);
  EXPECT_EQ(sent_a, sent_b);
  ASSERT_EQ(susp_a.size(), susp_b.size());
  for (std::size_t i = 0; i < susp_a.size(); ++i) {
    EXPECT_EQ(susp_a[i], susp_b[i]) << "digest diverged at p" << i;
  }
  EXPECT_TRUE(susp_a[0].contains(129));
}

TEST(HierC, DigestsOfAnotherUniverseAreIgnored) {
  // Digests that do not fit n, sent by p1's cell candidate p0 (a forged
  // UDP frame can carry them): a universe of 1 once aborted on
  // ProcessSet::remove's range assert, and a leader of p9 made p1 trust a
  // process outside the universe.
  const int n = 4;
  auto cfg = base_scenario(n, 12);
  cfg.gst = 0;
  auto sys = make_system(cfg);
  std::vector<fd::HierC*> fds;
  for (ProcessId p = 0; p < n; ++p) {
    fds.push_back(&sys->host(p).emplace<fd::HierC>());
  }
  sys->start();
  sys->run_until(sec(1));
  for (const fd::HierDigest& digest :
       {fd::HierDigest{ProcessSet::full(1), 0},
        fd::HierDigest{ProcessSet(n), 9}}) {
    Message forged = Message::make(protocol_ids::kHierC, /*cell beat=*/1,
                                   "hier.cell_beat", digest);
    forged.src = 0;
    forged.dst = 1;
    sys->network().send(forged);
    for (int step = 0; step < 100; ++step) {
      sys->run_for(usec(100));
      EXPECT_GE(fds[1]->trusted(), 0) << "step " << step;
      EXPECT_LT(fds[1]->trusted(), n) << "step " << step;
      EXPECT_EQ(fds[1]->suspected().universe_size(), n) << "step " << step;
    }
  }
}

TEST(HierC, UnmutatedPassesStuckPropagatorScenario) {
  // The exact scenario check/fuzz.cpp uses to catch Mutant::
  // kStuckCellPropagator, with the hook OFF: the healthy detector must
  // satisfy fd.strong_completeness there, so the mutation test isolates
  // the seeded bug rather than a too-hard scenario (promised in
  // check/mutants.hpp).
  const int n = 5;
  ScenarioConfig cfg;
  cfg.n = n;
  cfg.seed = 11;
  cfg.links = LinkKind::kReliable;
  cfg.with_crash(n - 1, sec(2));
  auto res = run_fd_scenario(cfg, installer(), sec(10));
  EXPECT_TRUE(res.classes.strong_completeness);
  EXPECT_TRUE(res.classes.eventually_consistent());
}

}  // namespace
}  // namespace ecfd
