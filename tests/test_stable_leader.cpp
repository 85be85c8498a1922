// Tests for the stable leader election of fd/stable_leader.hpp
// (Aguilera et al., the paper's reference [2]).
#include "fd/stable_leader.hpp"

#include <gtest/gtest.h>

#include "fd/leader_candidate.hpp"
#include "fd_test_util.hpp"
#include "net/link.hpp"
#include "net/protocol_ids.hpp"
#include "scenario_util.hpp"

namespace ecfd {
namespace {

using testutil::run_fd_scenario;

testutil::Installer installer() {
  return [](ProcessHost& host, ProcessId,
            std::vector<std::shared_ptr<void>>&) {
    auto& fd = host.emplace<fd::StableLeader>();
    return testutil::OracleRefs{nullptr, &fd};
  };
}

ScenarioConfig base_scenario(int n, std::uint64_t seed) {
  return testutil::partial_sync_scenario(n, seed, msec(250), msec(60));
}

TEST(StableLeader, ImplementsOmegaFailureFree) {
  auto res = run_fd_scenario(base_scenario(5, 1), installer(), sec(6));
  EXPECT_TRUE(res.classes.omega);
}

TEST(StableLeader, ReElectsWhenLeaderCrashes) {
  for (const int n : {5, 64}) {
    SCOPED_TRACE(n);
    auto cfg = base_scenario(n, 2);
    cfg.with_crash(0, sec(1));
    auto res = run_fd_scenario(cfg, installer(), sec(8));
    EXPECT_TRUE(res.classes.omega);
    EXPECT_NE(res.classes.leader, 0);
  }
}

TEST(StableLeader, SurvivesCascadingCrashes) {
  auto cfg = base_scenario(6, 3);
  cfg.with_crash(0, msec(800)).with_crash(1, sec(2));
  auto res = run_fd_scenario(cfg, installer(), sec(10));
  EXPECT_TRUE(res.classes.omega)
      << "leader=" << res.classes.leader;
}

TEST(StableLeader, AccusationsGrowForCrashedLeaderOnly) {
  const int n = 4;
  auto cfg = base_scenario(n, 4);
  cfg.gst = 0;
  auto sys = make_system(cfg);
  std::vector<fd::StableLeader*> fds;
  for (ProcessId p = 0; p < n; ++p) {
    fds.push_back(&sys->host(p).emplace<fd::StableLeader>());
  }
  sys->crash_at(0, sec(1));
  sys->start();
  sys->run_until(sec(4));
  EXPECT_GT(fds[1]->accusations(0), 0u);
  EXPECT_EQ(fds[1]->accusations(2), 0u) << "no accusation without timeout";
  // All survivors share the counter view (gossip max-merge).
  EXPECT_EQ(fds[1]->accusations(0), fds[2]->accusations(0));
}

TEST(StableLeader, StabilityLeadershipDoesNotBounceBack) {
  // Contrast with the lowest-id rule: temporarily disconnect p0 so that it
  // gets accused and leadership moves to p1; then heal the partition.
  // LeaderCandidate bounces back to p0 (lowest id wins again); the stable
  // detector keeps p1 (p0's accusation count stays elevated).
  const int n = 4;
  auto cfg = base_scenario(n, 5);
  cfg.gst = 0;
  auto sys = make_system(cfg);
  std::vector<fd::StableLeader*> stable;
  std::vector<fd::LeaderCandidate*> lowest;
  for (ProcessId p = 0; p < n; ++p) {
    stable.push_back(&sys->host(p).emplace<fd::StableLeader>());
    lowest.push_back(&sys->host(p).emplace<fd::LeaderCandidate>());
  }
  sys->start();
  sys->run_until(sec(1));
  EXPECT_EQ(stable[1]->trusted(), 0);
  EXPECT_EQ(lowest[1]->trusted(), 0);

  // Isolate p0 long enough for everyone to give up on it.
  ProcessSet island(n);
  island.add(0);
  sys->network().partition(island);
  sys->run_until(sec(3));
  EXPECT_NE(stable[1]->trusted(), 0);
  EXPECT_NE(lowest[1]->trusted(), 0);
  const ProcessId stable_pick = stable[1]->trusted();

  sys->network().heal();
  sys->run_until(sec(6));
  // The lowest-id rule falls back to p0...
  EXPECT_EQ(lowest[1]->trusted(), 0);
  // ...the stable rule does not (p0 carries its accusations forever).
  EXPECT_EQ(stable[1]->trusted(), stable_pick);
  EXPECT_EQ(stable[2]->trusted(), stable_pick) << "and the view is common";
}

TEST(StableLeader, FewLeaderChangesAfterStabilization) {
  auto cfg = base_scenario(5, 6);
  auto sys = make_system(cfg);
  std::vector<fd::StableLeader*> fds;
  for (ProcessId p = 0; p < 5; ++p) {
    fds.push_back(&sys->host(p).emplace<fd::StableLeader>());
  }
  sys->start();
  sys->run_until(sec(2));
  const int changes_mid = fds[1]->leader_changes();
  sys->run_until(sec(8));
  EXPECT_EQ(fds[1]->leader_changes(), changes_mid)
      << "no further leader changes once stable";
}

TEST(StableLeader, CounterVectorsOfAnotherSizeAreIgnored) {
  // A well-formed sl.ok whose counter vector is not n long, as a forged UDP
  // frame can carry, must leave every counter and the elected leader as
  // they were (merging it once read past the end of a short vector).
  const int n = 3;
  auto sys = make_system(base_scenario(n, 9));
  std::vector<fd::StableLeader*> fds;
  for (ProcessId p = 0; p < n; ++p) {
    fds.push_back(&sys->host(p).emplace<fd::StableLeader>());
  }
  sys->start();
  sys->run_until(sec(2));
  const ProcessId leader = fds[0]->trusted();
  for (const auto& body : {std::vector<std::uint64_t>{7},
                           std::vector<std::uint64_t>{7, 7, 7, 7}}) {
    for (ProcessId p = 0; p < n; ++p) {
      Message forged = Message::make(protocol_ids::kStableLeader, /*ok=*/1,
                                     "sl.ok", body);
      forged.src = (p + 1) % n;
      forged.dst = p;
      sys->network().send(forged);
    }
  }
  sys->run_until(sec(3));
  for (ProcessId p = 0; p < n; ++p) {
    EXPECT_EQ(fds[p]->trusted(), leader) << "p" << p;
    for (ProcessId q = 0; q < n; ++q) {
      EXPECT_LT(fds[p]->accusations(q), 7u) << "p" << p << " on p" << q;
    }
  }
}

// --- the deadline rule, at the timings ecfd_node's INI and kvbench use ---
//
// Period 50 ms, fallback 250 ms, α step 100 ms; α starts at the predictor's
// default margin.

fd::StableLeader::Config node_config() {
  fd::StableLeader::Config c;
  c.period = msec(50);
  c.initial_timeout = msec(250);
  c.timeout_increment = msec(100);
  return c;
}

constexpr DurUs kAlpha = fd::ArrivalPredictor::Config{}.alpha;

TEST(StableLeader, SurvivorsLeaveACrashedLeaderAtItsDeadline) {
  // A survivor's timer sits at its predictor's deadline for the leader:
  // the last beat's arrival + the predicted gap (one period) + α. Once
  // the leader is dead nothing pushes it forward, so the survivor accuses
  // and moves when the deadline passes, or earlier when another
  // survivor's accusation reaches it first. The loop samples each 1 ms.
  const int n = 5;
  const fd::StableLeader::Config c = node_config();
  const ScenarioConfig sc = testutil::partial_sync_scenario(n, 21, /*gst=*/0);
  for (TimeUs crash_at : {sec(2), sec(2) + msec(17), sec(2) + msec(33)}) {
    auto sys = make_system(sc);
    std::vector<fd::StableLeader*> fds;
    for (ProcessId p = 0; p < n; ++p) {
      fds.push_back(&sys->host(p).emplace<fd::StableLeader>(c));
    }
    sys->start();
    sys->run_until(crash_at);
    std::vector<TimeUs> deadline(n, kTimeNever);
    for (ProcessId p = 0; p < n; ++p) ASSERT_EQ(fds[p]->trusted(), 0);
    sys->crash_now(0);
    for (ProcessId p = 1; p < n; ++p) {
      const fd::ArrivalPredictor& pred = fds[p]->predictor(0);
      ASSERT_TRUE(pred.warmed_up()) << "p" << p;
      deadline[p] = pred.deadline(pred.last_arrival());
      ASSERT_LE(deadline[p] - crash_at, c.period + kAlpha + sc.delta)
          << "p" << p << ": the last beat left at most a period ago";
    }

    std::vector<TimeUs> moved(n, kTimeNever);
    while (sys->now() < crash_at + sec(1)) {
      sys->run_for(msec(1));
      for (ProcessId p = 1; p < n; ++p) {
        if (moved[p] == kTimeNever && fds[p]->trusted() != 0) {
          moved[p] = sys->now();
        }
      }
    }
    for (ProcessId p = 1; p < n; ++p) {
      ASSERT_NE(moved[p], kTimeNever) << "p" << p << " still trusts p0";
      EXPECT_LE(moved[p], deadline[p] + msec(1))
          << "p" << p << ", crash at " << crash_at << " us, deadline "
          << (deadline[p] - crash_at) << " us after it";
      EXPECT_EQ(fds[p]->trusted(), 1) << "a common successor";
    }
  }
}

TEST(StableLeader, OneLateBeatCostsOneAccusationAndOneWidening) {
  // p0's beats to p2 travel 1 ms, except that twice one beat is held up
  // 60 ms, so the next beat overtakes it and p2 hears nothing for two
  // periods: one period past the predicted arrival, beyond α but inside
  // α + one step. The first time, p2 accuses p0 and widens α; the second
  // time, the widened margin covers the gap.
  // Counters start at (0, 1, 1) so that p0 stays leader when accused, as
  // it does whenever its rivals carry more accusations than it does.
  const int n = 3;
  const fd::StableLeader::Config c = node_config();
  const DurUs late = msec(60);
  ASSERT_GT(late, c.period) << "the next beat must overtake the late one";
  ASSERT_GT(c.period, kAlpha);
  ASSERT_LT(c.period, kAlpha + c.timeout_increment);
  auto sys = make_system(testutil::partial_sync_scenario(n, 22, /*gst=*/0));
  std::vector<fd::StableLeader*> fds;
  for (ProcessId p = 0; p < n; ++p) {
    fds.push_back(&sys->host(p).emplace<fd::StableLeader>(c));
    Message history = Message::make(protocol_ids::kStableLeader, /*accuse=*/2,
                                    "sl.accuse",
                                    std::vector<std::uint64_t>{0, 1, 1});
    history.src = 1;
    history.dst = p;
    sys->host(p).deliver(history);
  }
  auto link = [&sys](DurUs d) {
    sys->network().set_link(0, 2, std::make_unique<ReliableLink>(d, d));
  };
  link(msec(1));
  auto hold_one_beat = [&](TimeUs at) {
    sys->run_until(at);
    link(msec(1) + late);
    sys->run_until(at + c.period);  // exactly one beat leaves meanwhile
    link(msec(1));
  };
  sys->start();

  hold_one_beat(sec(2));
  sys->run_until(sec(3));
  EXPECT_EQ(fds[2]->accusations(0), 1u) << "the late beat is accused once";
  EXPECT_EQ(fds[2]->predictor(0).alpha(), kAlpha + c.timeout_increment);
  for (ProcessId p = 0; p < n; ++p) {
    EXPECT_EQ(fds[p]->trusted(), 0) << "p0 stays leader at p" << p;
  }

  hold_one_beat(sec(4));
  sys->run_until(sec(5));
  EXPECT_EQ(fds[2]->accusations(0), 1u) << "the same lateness, accused again";
  EXPECT_EQ(fds[2]->predictor(0).alpha(), kAlpha + c.timeout_increment);
  EXPECT_EQ(fds[2]->predictor(0).stats().mistakes, 1);
  EXPECT_EQ(fds[1]->accusations(0), 1u) << "p1 heard p0 in time throughout";
  EXPECT_EQ(fds[1]->predictor(0).stats().mistakes, 0);
  EXPECT_EQ(fds[2]->leader_changes(), 0);
}

}  // namespace
}  // namespace ecfd
