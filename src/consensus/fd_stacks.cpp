#include "consensus/fd_stacks.hpp"

#include "core/c_to_p.hpp"
#include "core/ecfd_compose.hpp"
#include "fd/efficient_p.hpp"
#include "fd/heartbeat_p.hpp"
#include "fd/hier_c.hpp"
#include "fd/leader_candidate.hpp"
#include "fd/ring_fd.hpp"
#include "fd/scripted_fd.hpp"
#include "fd/stable_leader.hpp"
#include "fd/swim.hpp"

namespace ecfd::consensus {

const std::vector<FdStackInfo>& all_fd_stacks() {
  static const std::vector<FdStackInfo> kStacks = {
      {FdStack::kRing, "ring", "ring",
       "ring ◇S/◇P with its free leader (◇C at no extra cost)", true},
      {FdStack::kHeartbeatP, "heartbeat_p", "heartbeat",
       "all-to-all heartbeat ◇P, leader = first unsuspected", true},
      {FdStack::kOmegaPlusHeartbeat, "omega_heartbeat", "mix",
       "leader-candidate Omega + heartbeat ◇S, composed", true},
      {FdStack::kEfficientP, "efficient_p", "effp",
       "§4 piggybacked Omega+◇P (cheapest flat full stack)", true},
      {FdStack::kScriptedStable, "scripted", "scripted",
       "scripted: chaos until fd_stable_at, then perfect", false},
      {FdStack::kHeartbeatAdaptive, "heartbeat_adaptive", "adaptive",
       "heartbeat ◇P with Chen-style adaptive timeouts", true},
      {FdStack::kHierC, "hier_c", "hier",
       "two-level hierarchical ◇C: √n cells, O(n) msgs/period", true},
      {FdStack::kSwim, "swim", "swim",
       "SWIM gossip membership as ◇C: O(1) msgs per node per period", true},
      {FdStack::kStableLeader, "stable_leader", "stable",
       "ADFT stable Omega; suspects everyone but the leader", true},
      {FdStack::kEcfd, "ecfd", "ecfd",
       "the paper's stack: stable Omega -> Fig. 2 ◇P, 3(n-1) msgs/period",
       true},
  };
  return kStacks;
}

const FdStackInfo& fd_stack_info(FdStack f) {
  return all_fd_stacks()[static_cast<std::size_t>(f)];
}

const FdStackInfo* fd_stack_by_name(const std::string& s) {
  for (const FdStackInfo& info : all_fd_stacks()) {
    if (s == info.name || s == info.alias) return &info;
  }
  return nullptr;
}

const std::vector<std::string>& fd_msg_prefixes() {
  static const std::vector<std::string> kPrefixes = {
      "msg.hb_p.", "msg.ring.", "msg.lc.",   "msg.ofs.", "msg.effp.",
      "msg.hier.", "msg.swim.", "msg.sl.",   "msg.ctp.",
  };
  return kPrefixes;
}

namespace {

/// A protocol Config with the three shared timing fields set from \p t.
template <class Config>
Config timed(const FdTimings& t) {
  Config c;
  c.period = t.period;
  c.initial_timeout = t.initial_timeout;
  c.timeout_increment = t.timeout_increment;
  return c;
}

/// Fills \p out from a protocol that is a complete ◇C module by itself.
template <class Fd>
void expose(FdInstallation& out, const Fd& fd) {
  out.ecfd = &fd;
  out.suspect = &fd;
  out.leader = &fd;
}

/// Fills \p out from a query-time adapter over the stack's protocols.
void adopt(FdInstallation& out, std::unique_ptr<core::EcfdOracle> a,
           const SuspectOracle* suspect, const LeaderOracle* leader) {
  out.ecfd = a.get();
  out.suspect = suspect != nullptr ? suspect : a.get();
  out.leader = leader != nullptr ? leader : a.get();
  out.owned = std::move(a);
}

}  // namespace

FdInstallation install_fd_stack(FdStack f, Env& host, const FdTimings& timings,
                                const FdStackParams& params) {
  FdInstallation out;
  switch (f) {
    case FdStack::kRing: {
      auto& ring = host.emplace<fd::RingFd>(timed<fd::RingFd::Config>(timings));
      adopt(out, std::make_unique<core::EcfdFromRing>(&ring), &ring, &ring);
      break;
    }
    case FdStack::kHeartbeatP:
    case FdStack::kHeartbeatAdaptive: {
      auto hbc = timed<fd::HeartbeatP::Config>(timings);
      if (f == FdStack::kHeartbeatAdaptive) {
        hbc.adaptive = true;
        hbc.predictor.fallback_timeout = hbc.initial_timeout;
      }
      auto& hb = host.emplace<fd::HeartbeatP>(hbc);
      adopt(out, std::make_unique<core::EcfdFromP>(&hb), &hb, nullptr);
      break;
    }
    case FdStack::kOmegaPlusHeartbeat: {
      auto& hb = host.emplace<fd::HeartbeatP>(
          timed<fd::HeartbeatP::Config>(timings));
      auto& lc = host.emplace<fd::LeaderCandidate>(
          timed<fd::LeaderCandidate::Config>(timings));
      adopt(out, std::make_unique<core::EcfdFromSAndOmega>(&hb, &lc), &hb,
            &lc);
      break;
    }
    case FdStack::kEfficientP:
      expose(out, host.emplace<fd::EfficientP>(
                      timed<fd::EfficientP::Config>(timings)));
      break;
    case FdStack::kScriptedStable: {
      const int n = host.n();
      ProcessId leader = params.leader;
      if (leader == kNoProcess) {
        const ProcessSet correct = ProcessSet::full(n) - params.crashed;
        leader = correct.empty() ? 0 : correct.first();
      }
      auto& scripted = host.emplace<fd::ScriptedFd>(
          params.ewa_only
              ? fd::ewa_only_script(n, host.self(), leader, params.stable_at)
              : fd::stable_script(n, host.self(), params.crashed, leader,
                                  params.stable_at));
      adopt(out,
            std::make_unique<core::EcfdFromSAndOmega>(&scripted, &scripted),
            &scripted, &scripted);
      break;
    }
    case FdStack::kHierC:
      expose(out,
             host.emplace<fd::HierC>(timed<fd::HierC::Config>(timings)));
      break;
    case FdStack::kSwim: {
      // SWIM's direct-ack wait is one probe period, as in its defaults.
      fd::SwimFd::Config sc;
      sc.period = timings.period;
      sc.ack_timeout = timings.period;
      sc.timeout_increment = timings.timeout_increment;
      expose(out, host.emplace<fd::SwimFd>(sc));
      break;
    }
    case FdStack::kStableLeader: {
      auto& sl = host.emplace<fd::StableLeader>(
          timed<fd::StableLeader::Config>(timings));
      adopt(out,
            std::make_unique<core::EcfdFromOmega>(host.n(), host.self(), &sl),
            nullptr, &sl);
      break;
    }
    case FdStack::kEcfd: {
      // The paper's composition: a stable Omega (n-1 beats per period),
      // transformed to ◇P by the Fig. 2 algorithm (2(n-1) more), and
      // re-packaged as a ◇C with the transformed (accurate) lists. Both
      // time peers out on predicted deadlines (fd/adaptive_timeout.hpp).
      auto& sl = host.emplace<fd::StableLeader>(
          timed<fd::StableLeader::Config>(timings));
      core::CToP::Config tc;
      tc.alive_period = timings.period;
      tc.list_period = timings.period;
      tc.initial_timeout = timings.initial_timeout;
      tc.timeout_increment = timings.timeout_increment;
      auto& ctp = host.emplace<core::CToP>(&sl, tc);
      adopt(out, std::make_unique<core::EcfdFromSAndOmega>(&ctp, &sl), &ctp,
            &sl);
      break;
    }
  }
  return out;
}

}  // namespace ecfd::consensus
