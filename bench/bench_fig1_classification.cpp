// Fig. 1 — the paper's class table, regenerated empirically.
//
// Fig. 1 defines the four eventual failure-detector classes by their
// completeness/accuracy combination:
//
//                  | eventual strong acc. | eventual weak acc.
//   strong compl.  |        ◇P            |        ◇S
//   weak compl.    |        ◇Q            |        ◇W
//
// plus Omega (Property 1) and the paper's ◇C (Definition 1). We run every
// detector implementation in this library through the same crash scenario
// and print which properties its sampled output actually satisfied —
// reproducing the table with measured data instead of definitions. Each
// row names the class the paper places it in; any other class exits 1.

#include <cstring>
#include <memory>

#include "check/sim_monitor.hpp"
#include "core/c_to_p.hpp"
#include "core/ecfd_compose.hpp"
#include "fd/efficient_p.hpp"
#include "fd/heartbeat_p.hpp"
#include "fd/leader_candidate.hpp"
#include "fd/omega_from_s.hpp"
#include "fd/ring_fd.hpp"
#include "fd/scripted_fd.hpp"
#include "fd/stable_leader.hpp"
#include "fd/w_to_s.hpp"
#include "net/scenario.hpp"
#include "table.hpp"

namespace {

using namespace ecfd;

struct OraclePair {
  const SuspectOracle* suspect{nullptr};
  const LeaderOracle* leader{nullptr};
};

/// Adapters that are not protocols are kept alive here for the run.
using Keep = std::vector<std::shared_ptr<void>>;
using Installer = std::function<OraclePair(ProcessHost&, ProcessId, Keep&)>;

check::FdClasses classify(const Installer& install, std::uint64_t seed) {
  ScenarioConfig cfg;
  cfg.n = 6;
  cfg.seed = seed;
  cfg.links = LinkKind::kPartialSync;
  cfg.gst = msec(250);
  cfg.delta = msec(5);
  cfg.pre_gst_max = msec(50);
  cfg.with_crash(2, msec(700));
  cfg.with_crash(5, sec(1));

  auto sys = make_system(cfg);
  Keep keepalive;
  const TimeUs horizon = sec(10);
  ProcessSet correct = ProcessSet::full(cfg.n);
  correct.remove(2);
  correct.remove(5);
  check::SimMonitor monitor(check::SimMonitor::Config{msec(5)});
  monitor.install(*sys, correct, horizon);
  for (ProcessId p = 0; p < cfg.n; ++p) {
    OraclePair o = install(sys->host(p), p, keepalive);
    monitor.attach_fd(p, o.suspect, o.leader);
  }
  monitor.start();
  sys->start();
  sys->run_until(horizon);
  return monitor.fd()->classes(horizon, 0);
}

const char* yn(bool b) { return b ? "yes" : "-"; }

}  // namespace

int main(int argc, char** argv) {
  ecfd::bench::init(argc, argv, "fig1_classification");
  ecfd::bench::section("Fig. 1: measured class membership of every detector");
  std::cout << "scenario: n=6, crashes of p2@700ms and p5@1s, GST=250ms; "
               "10s sampled run.\nSC/WC = strong/weak completeness, "
               "ESA/EWA = eventual strong/weak accuracy.\n";

  ecfd::bench::Table table({"detector", "SC", "WC", "ESA", "EWA", "Omega",
                            "dC", "class"});
  table.print_header();

  int mismatches = 0;
  auto row = [&](const char* name, const char* expected, std::uint64_t seed,
                 const Installer& install) {
    const ecfd::check::FdClasses c = classify(install, seed);
    table.print_row(name, yn(c.strong_completeness), yn(c.weak_completeness),
                    yn(c.eventual_strong_accuracy),
                    yn(c.eventual_weak_accuracy), yn(c.omega),
                    yn(c.eventually_consistent()), c.name());
    if (std::strcmp(c.name(), expected) != 0) {
      std::cerr << "MISMATCH: " << name << " measured " << c.name()
                << ", the paper places it in " << expected << "\n";
      ++mismatches;
    }
  };

  row("heartbeatP", "dP", 1, [](ProcessHost& h, ProcessId, Keep&) {
    auto& fd = h.emplace<fd::HeartbeatP>();
    return OraclePair{&fd, nullptr};
  });

  row("ring", "dP+dC", 2, [](ProcessHost& h, ProcessId, Keep&) {
    auto& fd = h.emplace<fd::RingFd>();
    return OraclePair{&fd, &fd};
  });

  row("efficientP", "dP+dC", 3, [](ProcessHost& h, ProcessId, Keep&) {
    auto& fd = h.emplace<fd::EfficientP>();
    return OraclePair{&fd, &fd};
  });

  row("leader-cand", "Omega", 4, [](ProcessHost& h, ProcessId, Keep&) {
    auto& fd = h.emplace<fd::LeaderCandidate>();
    return OraclePair{nullptr, &fd};
  });

  row("stable-ldr", "Omega", 5, [](ProcessHost& h, ProcessId, Keep&) {
    auto& fd = h.emplace<fd::StableLeader>();
    return OraclePair{nullptr, &fd};
  });

  // Weakly complete input lifted to ◇S by the CT transformation: only p0's
  // module ever suspects the crashed processes directly.
  row("WtoS(weak)", "dP", 6, [](ProcessHost& h, ProcessId p, Keep&) {
    const int n = h.n();
    ProcessSet crashed(n);
    crashed.add(2);
    crashed.add(5);
    std::vector<fd::ScriptedFd::Step> steps;
    steps.push_back({0, ProcessSet(n), 0});
    if (p == 0) steps.push_back({sec(2), crashed, 0});
    auto& in = h.emplace<fd::ScriptedFd>(steps);
    auto& out = h.emplace<fd::WToS>(&in);
    return OraclePair{&out, nullptr};
  });

  row("hb+OmegaFromS", "dP+dC", 7, [](ProcessHost& h, ProcessId, Keep& keep) {
    auto& hb = h.emplace<fd::HeartbeatP>();
    auto& om = h.emplace<fd::OmegaFromS>(&hb);
    auto c = std::make_shared<core::EcfdFromSAndOmega>(&hb, &om);
    keep.push_back(c);
    return OraclePair{c.get(), c.get()};
  });

  row("Omega->dC", "dC", 8, [](ProcessHost& h, ProcessId p, Keep& keep) {
    auto& lc = h.emplace<fd::LeaderCandidate>();
    auto c = std::make_shared<core::EcfdFromOmega>(h.n(), p, &lc);
    keep.push_back(c);
    return OraclePair{c.get(), c.get()};
  });

  row("CToP(Fig.2)", "dP+dC", 9, [](ProcessHost& h, ProcessId, Keep&) {
    auto& omega = h.emplace<fd::LeaderCandidate>();
    auto& ctp = h.emplace<core::CToP>(&omega);
    return OraclePair{&ctp, &omega};
  });

  std::cout << "\nExpected per the paper: heartbeat/ring/efficientP/CToP "
               "reach dP (hence dS/dC with a leader); the Omega-only "
               "detectors satisfy Property 1 only; Omega->dC is dC but NOT "
               "dP (worst accuracy); WtoS lifts weak to strong "
               "completeness.\n";
  const int rc = ecfd::bench::finish();
  return mismatches > 0 ? 1 : rc;
}
