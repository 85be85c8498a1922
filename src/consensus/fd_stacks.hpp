#pragma once

#include <memory>
#include <string>
#include <vector>

#include "consensus/harness.hpp"
#include "core/ecfd_oracle.hpp"
#include "net/env.hpp"

/// \file fd_stacks.hpp
/// The single failure-detector stack factory, shared by every runtime: the
/// consensus harness, ecfd_sim, ecfd_fuzz and check/fuzz.cpp on the
/// simulator, and ecfd_node on UDP. Each FdStack entry carries its
/// canonical name (pinned by fuzz digests and repro files), a short CLI
/// alias and a help one-liner; install_fd_stack() emplaces the stack's
/// protocols on any Env and returns the oracle views. Adding a stack means
/// adding one table row and one installer case (fd_stacks.cpp) — and
/// APPENDING to the FdStack enum, since fuzz digests hash its ordinal.

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
  /// Runs on ecfd_node: no scenario knowledge is needed (false for the
  /// script only; every message body has a wire encoding).
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

/// Installs stack \p f on \p host with \p timings; see FdInstallation for
/// ownership. \p params feeds kScriptedStable only.
FdInstallation install_fd_stack(FdStack f, Env& host,
                                const FdTimings& timings = {},
                                const FdStackParams& params = {});

}  // namespace ecfd::consensus
