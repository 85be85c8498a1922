#include "check/thread_monitor.hpp"

#include <cctype>
#include <chrono>
#include <set>
#include <sstream>

namespace ecfd::check {

namespace {

/// Extracts process ids from "p<digits>" tokens in a witness string (the
/// format fd_monitor's pname() emits).
std::set<ProcessId> processes_in_witness(const std::string& witness, int n) {
  std::set<ProcessId> out;
  for (std::size_t i = 0; i < witness.size(); ++i) {
    if (witness[i] != 'p') continue;
    if (i > 0 && (std::isalnum(static_cast<unsigned char>(witness[i - 1])) ||
                  witness[i - 1] == '_')) {
      continue;  // 'p' inside a word, not a process name
    }
    std::size_t j = i + 1;
    long id = 0;
    while (j < witness.size() &&
           std::isdigit(static_cast<unsigned char>(witness[j]))) {
      id = id * 10 + (witness[j] - '0');
      ++j;
    }
    if (j > i + 1 && id < n) out.insert(static_cast<ProcessId>(id));
    i = j - 1;
  }
  return out;
}

}  // namespace

ThreadedFdMonitor::ThreadedFdMonitor(runtime::ThreadSystem& sys,
                                     FdPropertyMonitor::Config cfg)
    : sys_(sys),
      monitor_(std::move(cfg)),
      suspects_(static_cast<std::size_t>(sys.n()), nullptr),
      leaders_(static_cast<std::size_t>(sys.n()), nullptr),
      replies_(std::make_shared<Replies>()) {
  replies_->suspected.resize(static_cast<std::size_t>(sys.n()));
  replies_->trusted.resize(static_cast<std::size_t>(sys.n()));
}

void ThreadedFdMonitor::attach(ProcessId p, const SuspectOracle* s,
                               const LeaderOracle* l) {
  suspects_[static_cast<std::size_t>(p)] = s;
  leaders_[static_cast<std::size_t>(p)] = l;
}

void ThreadedFdMonitor::sample(DurUs timeout) {
  const int n = sys_.n();
  Replies& r = *replies_;
  std::uint64_t round;
  {
    std::lock_guard<std::mutex> lk(r.mu);
    round = ++r.round;
    r.count = 0;
    for (auto& s : r.suspected) s.reset();
    for (auto& t : r.trusted) t.reset();
  }

  ProcessSet crashed(n);
  int expected = 0;
  for (ProcessId p = 0; p < n; ++p) {
    const auto i = static_cast<std::size_t>(p);
    runtime::ThreadHost& host = sys_.host(p);
    if (host.crashed()) {
      crashed.add(p);
      continue;
    }
    const SuspectOracle* s = suspects_[i];
    const LeaderOracle* l = leaders_[i];
    if (s == nullptr && l == nullptr) continue;
    ++expected;
    // The read happens on the host's own thread: oracle state is only ever
    // touched there, so this is the race-free way to observe it. The
    // closure owns everything it touches except the oracles, which live
    // as long as the host.
    host.post([replies = replies_, s, l, i, round] {
      std::optional<ProcessSet> susp;
      std::optional<ProcessId> trusted;
      if (s != nullptr) susp = s->suspected();
      if (l != nullptr) trusted = l->trusted();
      std::lock_guard<std::mutex> lk(replies->mu);
      if (round != replies->round) return;  // stale reply
      replies->suspected[i] = std::move(susp);
      replies->trusted[i] = std::move(trusted);
      ++replies->count;
      replies->cv.notify_all();
    });
  }

  FdPropertyMonitor::Snapshot snap;
  {
    std::unique_lock<std::mutex> lk(r.mu);
    r.cv.wait_for(lk, std::chrono::microseconds(timeout),
                  [&] { return r.count >= expected; });
    snap.suspected = r.suspected;
    snap.trusted = r.trusted;
  }
  snap.time = sys_.now();
  snap.crashed = crashed;
  monitor_.observe(snap);
  if (obs::Recorder* rec = sys_.recorder()) {
    transitions_.record(*rec, snap.time, monitor_.verdicts());
  }
}

std::string ThreadedFdMonitor::violation_report() const {
  constexpr std::size_t kMaxTracedHosts = 4;
  std::ostringstream os;
  std::set<ProcessId> implicated;
  for (const Verdict& v : monitor_.verdicts()) {
    if (v.state == VerdictState::kHolding) continue;
    os << v.to_string() << '\n';
    for (ProcessId p : processes_in_witness(v.witness, sys_.n())) {
      implicated.insert(p);
    }
  }
  std::size_t traced = 0;
  for (ProcessId p : implicated) {
    if (traced == kMaxTracedHosts) {
      os << "  (further implicated hosts omitted)\n";
      break;
    }
    const auto events = sys_.host(p).recent_trace();
    if (events.empty()) continue;
    ++traced;
    os << "  recent trace of p" << p << ":\n";
    for (const auto& e : events) {
      os << "    t=" << e.time << "us " << e.tag;
      if (!e.detail.empty()) os << " " << e.detail;
      os << '\n';
    }
  }
  return os.str();
}

}  // namespace ecfd::check
