#pragma once

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "check/sim_monitor.hpp"
#include "net/scenario.hpp"
#include "scenario_util.hpp"

/// \file fd_test_util.hpp
/// Shared scaffolding for failure-detector property tests: build a system
/// from a scenario, install a detector stack on every process, judge it
/// with check::SimMonitor every 5 ms, and map the verdicts onto Fig. 1's
/// classes. Scenario construction itself lives in scenario_util.hpp (pulled
/// in here so FD suites get both with one include).

namespace ecfd::testutil {

/// What the per-process installer hands back for monitoring. Either pointer
/// may be null when the detector has no such output.
struct OracleRefs {
  const SuspectOracle* suspect{nullptr};
  const LeaderOracle* leader{nullptr};
};

/// Installs a detector on host \p host (process \p p). Adapters that are
/// not protocols can be kept alive by pushing them into \p keepalive.
using Installer = std::function<OracleRefs(
    ProcessHost& host, ProcessId p,
    std::vector<std::shared_ptr<void>>& keepalive)>;

struct FdRunResult {
  /// Class membership at the horizon: every property holding at the last
  /// snapshot counts (margin 0).
  check::FdClasses classes;
  std::vector<check::Verdict> verdicts;
  TimeUs horizon{};

  /// The verdict named \p property; a pending one when the run has none.
  [[nodiscard]] check::Verdict verdict(const std::string& property) const {
    for (const check::Verdict& v : verdicts) {
      if (v.property == property) return v;
    }
    check::Verdict missing;
    missing.property = property;
    missing.state = check::VerdictState::kPending;
    return missing;
  }
};

/// Runs one FD scenario end to end. \p prepare, when set, adjusts the built
/// system (links, gray hosts) before it starts.
inline FdRunResult run_fd_scenario(
    const ScenarioConfig& cfg, const Installer& install, TimeUs horizon,
    const std::function<void(System&)>& prepare = {}) {
  auto sys = make_system(cfg);
  if (prepare) prepare(*sys);
  std::vector<std::shared_ptr<void>> keepalive;
  ProcessSet correct = ProcessSet::full(cfg.n);
  for (const CrashPlan& c : cfg.crashes) correct.remove(c.process);
  check::SimMonitor monitor(check::SimMonitor::Config{msec(5)});
  monitor.install(*sys, correct, horizon);
  for (ProcessId p = 0; p < cfg.n; ++p) {
    OracleRefs refs = install(sys->host(p), p, keepalive);
    monitor.attach_fd(p, refs.suspect, refs.leader);
  }
  monitor.start();
  sys->start();
  sys->run_until(horizon);

  FdRunResult out;
  out.classes = monitor.fd()->classes(horizon, 0);
  out.verdicts = monitor.fd()->verdicts();
  out.horizon = horizon;
  return out;
}

}  // namespace ecfd::testutil
