#pragma once

#include <memory>
#include <string>
#include <vector>

#include "consensus/harness.hpp"
#include "core/c_to_p.hpp"
#include "core/ecfd_compose.hpp"
#include "core/ecfd_oracle.hpp"
#include "fd/efficient_p.hpp"
#include "fd/heartbeat_p.hpp"
#include "fd/hier_c.hpp"
#include "fd/leader_candidate.hpp"
#include "fd/ring_fd.hpp"
#include "fd/scripted_fd.hpp"
#include "fd/stable_leader.hpp"
#include "fd/swim.hpp"

/// \file fd_stacks.hpp
/// The single failure-detector stack factory, shared by every runtime: the
/// consensus harness, ecfd_sim, ecfd_fuzz and check/fuzz.cpp on the
/// simulator, and ecfd_node on UDP. Each FdStack entry carries its
/// canonical name (pinned by fuzz digests and repro files), a short CLI
/// alias and a help one-liner; install_fd_stack() emplaces the stack's
/// protocols on any host and returns the oracle views. Adding a stack means
/// adding one table row and one installer case here — and APPENDING to the
/// FdStack enum, since fuzz digests hash its ordinal.
///
/// install_fd_stack is templated over the host, like LogReplica's
/// constructor: the simulator's ProcessHost, the sharded ThreadHost and the
/// UDP DgramEnv each expose `emplace<P>(args...)`.

namespace ecfd::consensus {

/// What install_fd_stack() mounted: the oracle views plus an optional
/// query-time adapter the caller must keep alive for the run (protocol
/// instances themselves are owned by the host).
struct FdInstallation {
  std::unique_ptr<core::EcfdOracle> owned;  ///< adapter; null if a protocol
  const core::EcfdOracle* ecfd{nullptr};
  const SuspectOracle* suspect{nullptr};
  const LeaderOracle* leader{nullptr};
};

/// The period/timeout schedule every protocol of a stack runs on. The
/// defaults equal each protocol's own Config defaults, so the simulator
/// (which passes FdTimings{}) builds exactly the configurations its pinned
/// digests were taken on; ecfd_node passes its INI's [cluster] timings.
/// Stacks on predicted deadlines (heartbeat_adaptive, stable_leader, ecfd)
/// use initial_timeout as the fallback before a peer's ArrivalPredictor
/// warms up; stable_leader and ecfd also widen the margin α by
/// timeout_increment on each mistake.
struct FdTimings {
  DurUs period{msec(10)};            ///< beat / poll / probe period
  DurUs initial_timeout{msec(30)};   ///< initial per-target timeout Δ
  DurUs timeout_increment{msec(10)}; ///< Δ (or α) widening per mistake
};

/// Scenario-derived inputs some stacks need (today: kScriptedStable).
struct FdStackParams {
  ProcessSet crashed;            ///< processes the script must suspect
  ProcessId leader{kNoProcess};  ///< scripted post-stability leader
  TimeUs stable_at{0};           ///< scripted stabilization time
  bool ewa_only{false};          ///< scripted: Theorem-3 adversarial ◇S
};

struct FdStackInfo {
  FdStack id;
  const char* name;   ///< canonical (fuzz digests, repro files)
  const char* alias;  ///< short CLI alias, may equal name
  const char* summary;
  /// Runs on ecfd_node: every message body is in the wire codec's registry
  /// and no scenario knowledge is needed (false for the script, and for
  /// hier_c and swim, whose bodies have no wire encoding yet).
  bool udp;
};

/// All stacks, in FdStack ordinal order.
const std::vector<FdStackInfo>& all_fd_stacks();

const FdStackInfo& fd_stack_info(FdStack f);

/// Lookup by canonical name or alias; nullptr when unknown.
const FdStackInfo* fd_stack_by_name(const std::string& s);

/// Counter prefixes ("msg.<label>.") that count as failure-detector
/// traffic in harness cost accounting.
const std::vector<std::string>& fd_msg_prefixes();

namespace detail {

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
inline void adopt(FdInstallation& out, std::unique_ptr<core::EcfdOracle> a,
                  const SuspectOracle* suspect, const LeaderOracle* leader) {
  out.ecfd = a.get();
  out.suspect = suspect != nullptr ? suspect : a.get();
  out.leader = leader != nullptr ? leader : a.get();
  out.owned = std::move(a);
}

}  // namespace detail

/// Installs stack \p f on \p host with \p timings; see FdInstallation for
/// ownership. \p params feeds kScriptedStable only.
template <class Host>
FdInstallation install_fd_stack(FdStack f, Host& host,
                                const FdTimings& timings = {},
                                const FdStackParams& params = {}) {
  using detail::adopt;
  using detail::timed;
  FdInstallation out;
  switch (f) {
    case FdStack::kRing: {
      auto& ring =
          host.template emplace<fd::RingFd>(timed<fd::RingFd::Config>(timings));
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
      auto& hb = host.template emplace<fd::HeartbeatP>(hbc);
      adopt(out, std::make_unique<core::EcfdFromP>(&hb), &hb, nullptr);
      break;
    }
    case FdStack::kOmegaPlusHeartbeat: {
      auto& hb = host.template emplace<fd::HeartbeatP>(
          timed<fd::HeartbeatP::Config>(timings));
      auto& lc = host.template emplace<fd::LeaderCandidate>(
          timed<fd::LeaderCandidate::Config>(timings));
      adopt(out, std::make_unique<core::EcfdFromSAndOmega>(&hb, &lc), &hb,
            &lc);
      break;
    }
    case FdStack::kEfficientP:
      detail::expose(out, host.template emplace<fd::EfficientP>(
                              timed<fd::EfficientP::Config>(timings)));
      break;
    case FdStack::kScriptedStable: {
      const int n = host.n();
      ProcessId leader = params.leader;
      if (leader == kNoProcess) {
        const ProcessSet correct = ProcessSet::full(n) - params.crashed;
        leader = correct.empty() ? 0 : correct.first();
      }
      auto& scripted = host.template emplace<fd::ScriptedFd>(
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
      detail::expose(out, host.template emplace<fd::HierC>(
                              timed<fd::HierC::Config>(timings)));
      break;
    case FdStack::kSwim: {
      // SWIM's direct-ack wait is one probe period, as in its defaults.
      fd::SwimFd::Config sc;
      sc.period = timings.period;
      sc.ack_timeout = timings.period;
      sc.timeout_increment = timings.timeout_increment;
      detail::expose(out, host.template emplace<fd::SwimFd>(sc));
      break;
    }
    case FdStack::kStableLeader: {
      auto& sl = host.template emplace<fd::StableLeader>(
          timed<fd::StableLeader::Config>(timings));
      adopt(out,
            std::make_unique<core::EcfdFromOmega>(host.n(), host.self(), &sl),
            nullptr, &sl);
      break;
    }
    case FdStack::kEcfd: {
      // The paper's composition: a stable Omega, transformed to ◇P by the
      // Fig. 2 algorithm (2(n-1) messages per period in total), and
      // re-packaged as a ◇C with the transformed (accurate) lists. Both
      // time peers out on predicted deadlines (fd/adaptive_timeout.hpp).
      auto& sl = host.template emplace<fd::StableLeader>(
          timed<fd::StableLeader::Config>(timings));
      core::CToP::Config tc;
      tc.alive_period = timings.period;
      tc.list_period = timings.period;
      tc.initial_timeout = timings.initial_timeout;
      tc.timeout_increment = timings.timeout_increment;
      auto& ctp = host.template emplace<core::CToP>(&sl, tc);
      adopt(out, std::make_unique<core::EcfdFromSAndOmega>(&ctp, &sl), &ctp,
            &sl);
      break;
    }
  }
  return out;
}

}  // namespace ecfd::consensus
