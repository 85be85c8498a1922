// Quick fuzz tier: the *correct* algorithms must survive 64 seeds of
// every fault profile with zero required-property violations, and the
// whole campaign must be bit-deterministic — the combined digest of all
// 256 cases is pinned below. A digest change means the simulation,
// monitors, or schedule generator changed observable behaviour; rerun
// with ECFD_PRINT_FUZZ_DIGEST=1 to print the new value, review the diff
// that caused it, and update the constant deliberately.
//
// The deep campaign (hundreds of seeds per profile, shrinking, repro
// files) lives in tools/ecfd_fuzz; this tier is the ctest-sized slice.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <vector>

#include "check/fuzz.hpp"
#include "runner/fingerprint.hpp"
#include "runner/thread_pool.hpp"

namespace ecfd::check {
namespace {

constexpr int kSeeds = 64;
constexpr FuzzProfile kProfiles[] = {
    FuzzProfile::kCrash,
    FuzzProfile::kPartition,
    FuzzProfile::kLossDelay,
    FuzzProfile::kChurn,
};

// Pinned digest of all 4 profiles x 64 seeds (ecfd_c on the ring stack).
// Computed by this test itself: ECFD_PRINT_FUZZ_DIGEST=1 prints it.
// Re-pinned once from 0x1646cc442f775713 for two changes to what a case
// sends and fires, each of which moves it alone: reliable-broadcast relays
// skip the origin and the sender of the copy (0xe4436d49d37c6110 alone),
// and a decided ConsensusC cancels its pending poll (0x81f3f15583bc12d5
// alone). Every case still reports no violation and no undecided process.
constexpr std::uint64_t kCampaignDigest = 0x8cca8bf21b1b7a71ULL;

struct CaseResult {
  std::uint64_t digest{0};
  int violations{0};
  bool decided{false};
  std::string detail;
};

CaseResult run_one(FuzzProfile profile, std::uint64_t seed) {
  FuzzCaseConfig cfg;
  cfg.profile = profile;
  cfg.seed = seed;
  const FuzzOutcome out = run_fuzz_case(cfg);
  CaseResult r;
  r.digest = out.digest;
  r.violations = static_cast<int>(out.violations.size());
  r.decided = out.every_correct_decided;
  for (const Verdict& v : out.violations) {
    r.detail += std::string(profile_name(profile)) + " seed " +
                std::to_string(seed) + ": " + v.to_string() + "\n";
  }
  return r;
}

TEST(FuzzQuick, CorrectStackSurvivesAllProfilesDigestPinned) {
  std::vector<CaseResult> results(kSeeds * std::size(kProfiles));
  runner::parallel_for(results.size(), runner::ThreadPool::default_threads(),
                       [&](std::size_t i) {
                         const FuzzProfile prof =
                             kProfiles[i / kSeeds];
                         const std::uint64_t seed = 1 + i % kSeeds;
                         results[i] = run_one(prof, seed);
                       });

  runner::Fnv1a combined;
  int total_violations = 0;
  int undecided = 0;
  for (const CaseResult& r : results) {
    combined.u64(r.digest);
    total_violations += r.violations;
    if (!r.decided) ++undecided;
    if (r.violations > 0) ADD_FAILURE() << r.detail;
  }
  EXPECT_EQ(total_violations, 0);
  EXPECT_EQ(undecided, 0) << undecided << " cases left a correct process "
                          << "undecided at the horizon";

  if (std::getenv("ECFD_PRINT_FUZZ_DIGEST") != nullptr) {
    std::printf("campaign digest: 0x%016llx\n",
                static_cast<unsigned long long>(combined.value()));
  }
  EXPECT_EQ(combined.value(), kCampaignDigest)
      << "campaign digest drifted: got 0x" << std::hex << combined.value()
      << " — rerun with ECFD_PRINT_FUZZ_DIGEST=1 and review";
}

// --- the WAN/geo scenario pack -------------------------------------------
//
// Same contract for the four WAN profiles, pinned separately so the LAN
// digest above stays byte-stable evidence that the scenario pack changed
// nothing about pre-existing behaviour.

constexpr FuzzProfile kWanProfiles[] = {
    FuzzProfile::kGeo,
    FuzzProfile::kFlap,
    FuzzProfile::kGray,
    FuzzProfile::kSkew,
};

// Re-pinned once from 0xcd4b5cea3ac4068f, for the same two changes as
// kCampaignDigest: relays that skip the origin and the sender alone give
// 0xa6c1710d8cb82561, the cancelled poll of a decided instance alone
// 0xdcaea519cd8b6c51.
constexpr std::uint64_t kWanCampaignDigest = 0xedab21bfad128bbbULL;

TEST(FuzzQuick, WanPackSurvivesAllProfilesDigestPinned) {
  std::vector<CaseResult> results(kSeeds * std::size(kWanProfiles));
  runner::parallel_for(results.size(), runner::ThreadPool::default_threads(),
                       [&](std::size_t i) {
                         const FuzzProfile prof = kWanProfiles[i / kSeeds];
                         const std::uint64_t seed = 1 + i % kSeeds;
                         results[i] = run_one(prof, seed);
                       });

  runner::Fnv1a combined;
  int total_violations = 0;
  int undecided = 0;
  for (const CaseResult& r : results) {
    combined.u64(r.digest);
    total_violations += r.violations;
    if (!r.decided) ++undecided;
    if (r.violations > 0) ADD_FAILURE() << r.detail;
  }
  EXPECT_EQ(total_violations, 0);
  EXPECT_EQ(undecided, 0) << undecided << " cases left a correct process "
                          << "undecided at the horizon";

  if (std::getenv("ECFD_PRINT_FUZZ_DIGEST") != nullptr) {
    std::printf("wan campaign digest: 0x%016llx\n",
                static_cast<unsigned long long>(combined.value()));
  }
  EXPECT_EQ(combined.value(), kWanCampaignDigest)
      << "WAN campaign digest drifted: got 0x" << std::hex << combined.value()
      << " — rerun with ECFD_PRINT_FUZZ_DIGEST=1 and review";
}

TEST(FuzzQuick, AdaptiveStackSurvivesTheWanPack) {
  // The QoS-adaptive ◇P under every WAN profile, with eventual *strong*
  // accuracy required — the end-to-end claim of the adaptive source.
  std::atomic<int> violations{0};
  std::vector<std::string> details(std::size(kWanProfiles) * 8);
  runner::parallel_for(details.size(), runner::ThreadPool::default_threads(),
                       [&](std::size_t i) {
                         FuzzCaseConfig cfg;
                         cfg.profile = kWanProfiles[i / 8];
                         cfg.seed = 101 + i % 8;
                         cfg.fd = consensus::FdStack::kHeartbeatAdaptive;
                         cfg.require_strong_accuracy = true;
                         const FuzzOutcome out = run_fuzz_case(cfg);
                         if (!out.ok) {
                           violations.fetch_add(1);
                           details[i] = out.violations.front().to_string();
                         }
                       });
  EXPECT_EQ(violations.load(), 0);
  for (const std::string& d : details) {
    if (!d.empty()) ADD_FAILURE() << d;
  }
}

TEST(FuzzQuick, ScalableStacksSurviveMixedProfiles) {
  // The two O(n)-message ◇C constructions (hierarchical and SWIM) across
  // crash, churn, WAN-geo and gray-failure profiles, with eventual strong
  // accuracy required — the class-membership claim behind the E13 scale
  // experiment, at ctest size (the deep campaigns run in tools/ecfd_fuzz
  // and nightly).
  constexpr consensus::FdStack kStacks[] = {consensus::FdStack::kHierC,
                                            consensus::FdStack::kSwim};
  constexpr FuzzProfile kMixed[] = {FuzzProfile::kCrash, FuzzProfile::kChurn,
                                    FuzzProfile::kGeo, FuzzProfile::kGray};
  constexpr int kSeedsPerCell = 4;
  std::atomic<int> violations{0};
  std::vector<std::string> details(std::size(kStacks) * std::size(kMixed) *
                                   kSeedsPerCell);
  runner::parallel_for(details.size(), runner::ThreadPool::default_threads(),
                       [&](std::size_t i) {
                         const std::size_t per_stack =
                             std::size(kMixed) * kSeedsPerCell;
                         FuzzCaseConfig cfg;
                         cfg.fd = kStacks[i / per_stack];
                         cfg.profile = kMixed[(i % per_stack) / kSeedsPerCell];
                         cfg.seed = 201 + i % kSeedsPerCell;
                         cfg.require_strong_accuracy = true;
                         const FuzzOutcome out = run_fuzz_case(cfg);
                         if (!out.ok) {
                           violations.fetch_add(1);
                           details[i] = out.violations.front().to_string();
                         }
                       });
  EXPECT_EQ(violations.load(), 0);
  for (const std::string& d : details) {
    if (!d.empty()) ADD_FAILURE() << d;
  }
}

TEST(FuzzQuick, ShippedEcfdStackSurvivesLanAndWanPacks) {
  // The stack ecfd_node ships and kvbench measures — stable Omega, Fig. 2
  // transformation to ◇P, installed through the shared factory — under all
  // eight profiles, with eventual strong accuracy required (the stack is
  // ◇P, not just ◇C) and every correct process deciding.
  constexpr int kSeedsPerProfile = 6;
  std::vector<FuzzProfile> profiles(std::begin(kProfiles),
                                    std::end(kProfiles));
  profiles.insert(profiles.end(), std::begin(kWanProfiles),
                  std::end(kWanProfiles));
  std::atomic<int> undecided{0};
  std::vector<std::string> details(profiles.size() * kSeedsPerProfile);
  runner::parallel_for(details.size(), runner::ThreadPool::default_threads(),
                       [&](std::size_t i) {
                         FuzzCaseConfig cfg;
                         cfg.profile = profiles[i / kSeedsPerProfile];
                         cfg.seed = 1 + i % kSeedsPerProfile;
                         cfg.fd = consensus::FdStack::kEcfd;
                         cfg.require_strong_accuracy = true;
                         const FuzzOutcome out = run_fuzz_case(cfg);
                         if (!out.every_correct_decided) undecided.fetch_add(1);
                         if (!out.ok) {
                           details[i] = std::string(profile_name(cfg.profile)) +
                                        " seed " + std::to_string(cfg.seed) +
                                        ": " +
                                        out.violations.front().to_string();
                         }
                       });
  EXPECT_EQ(undecided.load(), 0);
  for (const std::string& d : details) {
    if (!d.empty()) ADD_FAILURE() << d;
  }
}

TEST(FuzzQuick, ScheduleGeneratorRespectsInvariants) {
  for (FuzzProfile prof : kProfiles) {
    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
      FuzzCaseConfig cfg;
      cfg.profile = prof;
      cfg.seed = seed;
      const FaultSchedule s = generate_schedule(cfg);
      SCOPED_TRACE(std::string(profile_name(prof)) + " seed " +
                   std::to_string(seed));
      // A majority must stay alive.
      EXPECT_LE(crashed_in(s, cfg.n).size(), (cfg.n - 1) / 2);
      TimeUs last_partition_end = 0;
      TimeUs last_chaos_end = 0;
      for (const FaultEvent& e : s.events) {
        switch (e.kind) {
          case FaultEvent::Kind::kCrash:
            EXPECT_LT(e.at, cfg.chaos_end);
            break;
          case FaultEvent::Kind::kPartitionWindow:
            EXPECT_GE(e.at, last_partition_end) << "windows must not overlap";
            EXPECT_GT(e.until, e.at);
            EXPECT_LE(e.until, cfg.chaos_end);
            EXPECT_GT(e.group.size(), 0);
            EXPECT_LT(e.group.size(), cfg.n);
            last_partition_end = e.until;
            break;
          case FaultEvent::Kind::kChaosWindow:
            EXPECT_GE(e.at, last_chaos_end) << "windows must not overlap";
            EXPECT_GT(e.until, e.at);
            EXPECT_LE(e.until, cfg.chaos_end);
            EXPECT_TRUE(e.chaos.active());
            last_chaos_end = e.until;
            break;
          default:
            ADD_FAILURE() << "WAN event kind in a LAN profile schedule";
        }
      }
      // Determinism of generation itself.
      const FaultSchedule again = generate_schedule(cfg);
      ASSERT_EQ(again.events.size(), s.events.size());
    }
  }
}

}  // namespace
}  // namespace ecfd::check
