// Determinism regression suite.
//
// The golden hashes below were captured from the lazy-tombstone binary-heap
// EventQueue the repo seeded with (PR 1 state). The indexed 4-ary-heap /
// inline-action rewrite of this PR must not change a single delivery order
// or counter, so the same constants must keep matching. If a future PR
// *deliberately* changes simulation semantics (new message, different
// tie-break), re-capture the constants and say so in the PR description —
// an unexplained mismatch is a determinism bug.
//
// The parallel half asserts that fanning the same cases across a thread
// pool is bit-identical to running them sequentially on the main thread.

#include <gtest/gtest.h>

#include <cstdio>
#include <vector>

#include "fd/heartbeat_p.hpp"
#include "net/scenario.hpp"
#include "runner/fingerprint.hpp"
#include "runner/suite.hpp"
#include "runner/thread_pool.hpp"

namespace ecfd {
namespace {

using runner::CaseMetrics;

/// Full-trace digest of a small crash scenario: every typed event the
/// recorder kept (each send, delivery, timer arm/cancel, suspicion flip and
/// the crash), in merged causal order. The rings are sized so none wraps.
/// The most order-sensitive probe we have short of diffing raw traces.
std::uint64_t traced_detection_hash() {
  ScenarioConfig cfg;
  cfg.n = 4;
  cfg.seed = 7;
  cfg.links = LinkKind::kPartialSync;
  cfg.gst = 0;
  cfg.delta = msec(5);
  auto sys = make_system(cfg);
  obs::Recorder rec(1 << 14);
  sys->attach_recorder(&rec);
  for (ProcessId p = 0; p < cfg.n; ++p) sys->host(p).emplace<fd::HeartbeatP>();
  sys->start();
  sys->crash_at(1, msec(500));
  sys->run_until(sec(2));
  EXPECT_EQ(rec.dropped_total(), 0u) << "a ring wrapped; grow the depth";

  runner::Fnv1a h;
  for (const obs::Event& e : rec.merged()) {
    h.i64(e.time);
    h.i64(e.host);
    h.u64(static_cast<std::uint64_t>(e.type));
    h.i64(e.a);
    h.i64(e.b);
    h.i64(e.label);
  }
  h.u64(runner::fingerprint_counters(sys->metrics()));
  h.u64(sys->scheduler().fired());
  return h.value();
}

// Golden values. E4/E5 captured pre-rewrite; see file comment.
// kGoldenTracedDetection was re-pinned once (from 0xfa6585c475094d51), when
// the string trace (sim::Trace) was deleted: it used to hash the trace's
// "net.send" and suspicion lines and now hashes the recorder's typed
// events, which carry the same sends and flips plus deliveries and timer
// churn. The simulation itself did not change: the counters and the
// fired-event count in the hash, the E4/E5 goldens and the fuzz campaign
// digests are the same as before.
constexpr std::uint64_t kGoldenTracedDetection = 0x4cf7296c0be04d20ULL;
constexpr std::uint64_t kGoldenE4Case = 0x3d39c4265c0163adULL;
// kGoldenE5Case was re-pinned once (from 0xe43cdd4f359bb33e), for two
// changes to what the case sends and fires. Reliable-broadcast relays skip
// the origin and the sender of the copy: 8 fewer messages (989 -> 981),
// 0x48909c9b25966839 alone. A decided ConsensusC cancels its pending poll:
// 6 fewer fired events, one per surviving process, 0xb3e0b9ccb424cb54
// alone. Together: 981 messages, 1932 events.
constexpr std::uint64_t kGoldenE5Case = 0x484c12110e362783ULL;

TEST(Determinism, TracedDetectionMatchesGolden) {
#if defined(ECFD_OBS_DISABLED)
  GTEST_SKIP() << "the digest hashes recorded events (ECFD_OBS=OFF)";
#endif
  const std::uint64_t h = traced_detection_hash();
  std::printf("traced_detection_hash = 0x%016llx\n",
              static_cast<unsigned long long>(h));
  EXPECT_EQ(h, kGoldenTracedDetection);
}

TEST(Determinism, E4CaseMatchesGolden) {
  const CaseMetrics m = runner::run_detection_case(8, 100);
  std::printf("e4 hash = 0x%016llx events=%llu msgs=%lld\n",
              static_cast<unsigned long long>(m.hash),
              static_cast<unsigned long long>(m.events),
              static_cast<long long>(m.msgs));
  EXPECT_EQ(m.hash, kGoldenE4Case);
}

TEST(Determinism, E5CaseMatchesGolden) {
  const CaseMetrics m =
      runner::run_consensus_case(7, 500, consensus::Algo::kEcfdC, 1);
  std::printf("e5 hash = 0x%016llx events=%llu msgs=%lld\n",
              static_cast<unsigned long long>(m.hash),
              static_cast<unsigned long long>(m.events),
              static_cast<long long>(m.msgs));
  EXPECT_EQ(m.hash, kGoldenE5Case);
}

TEST(Determinism, RepeatedRunsIdentical) {
  const std::uint64_t a = traced_detection_hash();
  const std::uint64_t b = traced_detection_hash();
  EXPECT_EQ(a, b);
  const CaseMetrics m1 = runner::run_churn_case(3, 5'000, 50'000);
  const CaseMetrics m2 = runner::run_churn_case(3, 5'000, 50'000);
  EXPECT_EQ(m1.hash, m2.hash);
  EXPECT_EQ(m1.events, m2.events);
}

TEST(Determinism, ParallelRunnerMatchesSequential) {
  auto suite = runner::build_suite(/*quick=*/true);
  ASSERT_FALSE(suite.empty());

  std::vector<CaseMetrics> seq(suite.size());
  for (std::size_t i = 0; i < suite.size(); ++i) seq[i] = suite[i].run();

  std::vector<CaseMetrics> par(suite.size());
  runner::parallel_for(suite.size(), 4,
                       [&](std::size_t i) { par[i] = suite[i].run(); });

  for (std::size_t i = 0; i < suite.size(); ++i) {
    EXPECT_EQ(seq[i].hash, par[i].hash)
        << suite[i].experiment << " " << suite[i].config << " seed "
        << suite[i].seed;
    EXPECT_EQ(seq[i].events, par[i].events);
    EXPECT_EQ(seq[i].msgs, par[i].msgs);
  }
}

}  // namespace
}  // namespace ecfd
