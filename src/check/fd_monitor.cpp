#include "check/fd_monitor.hpp"

#include <algorithm>
#include <cassert>
#include <string>

namespace ecfd::check {

namespace {

std::string pname(ProcessId p) { return "p" + std::to_string(p); }

}  // namespace

const char* FdClasses::name() const {
  if (eventually_consistent() && eventually_perfect()) return "dP+dC";
  if (eventually_perfect()) return "dP";
  if (eventually_consistent()) return "dC";
  if (eventually_strong()) return "dS";
  if (eventually_quasi_perfect()) return "dQ";
  if (eventually_weak()) return "dW";
  if (omega) return "Omega";
  return "-";
}

void FdPropertyMonitor::EventualState::update(TimeUs now, bool now_ok,
                                              const std::string& why) {
  if (now_ok) {
    if (!ok) {
      ok = true;
      holds_since = now;
    }
    return;
  }
  ok = false;
  last_violation = now;
  witness = why;
  ++violations;
}

Verdict FdPropertyMonitor::EventualState::verdict(const char* name,
                                                  bool required) const {
  Verdict v;
  v.property = name;
  v.eventual = true;
  v.required = required;
  v.state = ok ? VerdictState::kHolding : VerdictState::kPending;
  v.holds_since = holds_since;
  v.violated_at = last_violation;
  // Keep the last violation description even while holding: for a property
  // that stabilized too late, "why not earlier" IS the witness.
  v.witness = witness;
  v.violations = violations;
  return v;
}

FdPropertyMonitor::FdPropertyMonitor(Config cfg) : cfg_(std::move(cfg)) {
  assert(cfg_.n > 0);
  unsuspected_since_.assign(static_cast<std::size_t>(cfg_.n), 0);
  prev_trusted_.assign(static_cast<std::size_t>(cfg_.n), std::nullopt);
}

void FdPropertyMonitor::observe(const Snapshot& snap) {
  assert(snap.time >= last_time_ && "snapshots must be time-ordered");
  assert(static_cast<int>(snap.suspected.size()) == cfg_.n);
  assert(static_cast<int>(snap.trusted.size()) == cfg_.n);
  last_time_ = snap.time;
  ++snapshots_;
  const TimeUs now = snap.time;
  const auto& correct = cfg_.correct;
  // Every family is evaluated on every snapshot, so one whose first output
  // shows up late is judged over the whole run, its silent snapshots
  // counting as violations; verdicts() lists only the families seen.
  for (ProcessId q : correct.members()) {
    const auto i = static_cast<std::size_t>(q);
    suspect_seen_ = suspect_seen_ || snap.suspected[i].has_value();
    leader_seen_ = leader_seen_ || snap.trusted[i].has_value();
  }

  // Detection witnesses: per victim, the first snapshot where the crash
  // was visible and, per observer, when its suspicion of the victim was
  // first sampled and when its current unbroken run of it began.
  for (ProcessId c : snap.crashed.members()) {
    auto w = std::find_if(detections_.begin(), detections_.end(),
                          [c](const DetectionWitness& d) {
                            return d.victim == c;
                          });
    const bool fresh = w == detections_.end();
    if (fresh) {
      const std::vector<TimeUs> never(static_cast<std::size_t>(cfg_.n),
                                      kTimeNever);
      w = detections_.insert(w, DetectionWitness{c, now, never, never});
    }
    for (ProcessId q : correct.members()) {
      const auto i = static_cast<std::size_t>(q);
      const auto& sq = snap.suspected[i];
      const bool suspects = sq.has_value() && sq->contains(c);
      if (suspects && w->first_suspect[i] == kTimeNever) {
        w->first_suspect[i] = now;
      }
      auto& since = w->suspect_since[i];
      if (!suspects) {
        since = kTimeNever;
      } else if (since == kTimeNever) {
        since = fresh ? 0 : now;
      }
    }
  }

  // Strong completeness: every process crashed by now is suspected by
  // every correct process.
  {
    bool ok = true;
    std::string why;
    for (ProcessId c : snap.crashed.members()) {
      for (ProcessId q : correct.members()) {
        const auto& sq = snap.suspected[static_cast<std::size_t>(q)];
        if (!sq.has_value() || !sq->contains(c)) {
          ok = false;
          why = pname(q) + " does not suspect crashed " + pname(c);
          break;
        }
      }
      if (!ok) break;
    }
    completeness_.update(now, ok, why);
  }

  // Eventual strong accuracy: no correct process suspected by any
  // correct process.
  {
    bool ok = true;
    std::string why;
    for (ProcessId q : correct.members()) {
      const auto& sq = snap.suspected[static_cast<std::size_t>(q)];
      if (!sq.has_value()) {
        ok = false;
        why = pname(q) + " has no suspect output";
        break;
      }
      for (ProcessId c : correct.members()) {
        if (sq->contains(c)) {
          ok = false;
          why = pname(q) + " suspects correct " + pname(c);
          break;
        }
      }
      if (!ok) break;
    }
    strong_accuracy_.update(now, ok, why);
  }

  // Eventual weak accuracy: track, per correct candidate c, the suffix
  // during which no correct process suspects c.
  {
    bool any_candidate = false;
    ProcessId suspected_everyone_witness = kNoProcess;
    for (ProcessId c : correct.members()) {
      bool clean = true;
      for (ProcessId q : correct.members()) {
        const auto& sq = snap.suspected[static_cast<std::size_t>(q)];
        if (!sq.has_value() || sq->contains(c)) {
          clean = false;
          suspected_everyone_witness = q;
          break;
        }
      }
      auto& since = unsuspected_since_[static_cast<std::size_t>(c)];
      if (clean) {
        if (since == kTimeNever) since = now;
        any_candidate = true;
      } else {
        since = kTimeNever;
      }
    }
    if (!any_candidate) {
      ++ewa_bad_samples_;
      ewa_last_bad_ = now;
      ewa_witness_ = "every correct process is suspected (last: " +
                     pname(suspected_everyone_witness) +
                     " suspects the final candidate)";
    }
  }

  // Leader agreement (Omega, Property 1): all correct processes trust
  // the same correct process — and keep trusting it (a change of the
  // common leader resets the suffix, so a forever-flapping Omega never
  // stabilizes even when the flaps are synchronized).
  {
    bool ok = true;
    std::string why;
    ProcessId common = kNoProcess;
    for (ProcessId q : correct.members()) {
      const auto& tq = snap.trusted[static_cast<std::size_t>(q)];
      if (!tq.has_value() || *tq == kNoProcess) {
        ok = false;
        why = pname(q) + " has no leader output";
        break;
      }
      if (common == kNoProcess) {
        common = *tq;
      } else if (*tq != common) {
        ok = false;
        why = pname(q) + " trusts " + pname(*tq) + " but " +
              pname(correct.first()) + " trusts " + pname(common);
        break;
      }
    }
    if (ok && !correct.contains(common)) {
      ok = false;
      why = "common leader " + pname(common) + " is faulty";
    }
    if (ok && prev_common_leader_ != kNoProcess &&
        common != prev_common_leader_) {
      ok = false;
      why = "common leader changed " + pname(prev_common_leader_) +
            " -> " + pname(common);
    }
    prev_common_leader_ = ok ? common : kNoProcess;
    leader_agreement_.update(now, ok, why);
  }

  // Leader stability (per process): trusted_q unchanged since the last
  // snapshot, for every correct q. Informational — subsumed by
  // agreement's permanence clause, but a far more precise witness for
  // flapping detectors.
  {
    bool ok = true;
    std::string why;
    for (ProcessId q : correct.members()) {
      const auto& tq = snap.trusted[static_cast<std::size_t>(q)];
      auto& prev = prev_trusted_[static_cast<std::size_t>(q)];
      if (prev.has_value() && tq.has_value() && *prev != *tq) {
        ok = false;
        why = pname(q) + " switched leader " + pname(*prev) + " -> " +
              pname(*tq);
      }
      prev = tq;
    }
    leader_stability_.update(now, ok, why);
  }

  // ◇C coupling clause (Definition 1, third clause): eventually
  // trusted_p ∉ suspected_p at every correct p.
  {
    bool ok = true;
    std::string why;
    for (ProcessId q : correct.members()) {
      const auto& tq = snap.trusted[static_cast<std::size_t>(q)];
      const auto& sq = snap.suspected[static_cast<std::size_t>(q)];
      if (!tq.has_value() || !sq.has_value()) continue;
      if (*tq != kNoProcess && sq->contains(*tq)) {
        ok = false;
        why = pname(q) + " suspects its own trusted " + pname(*tq);
        break;
      }
    }
    coupling_.update(now, ok, why);
  }
}

std::vector<Verdict> FdPropertyMonitor::verdicts() const {
  // Before the first snapshot nothing is known to hold: every property is
  // listed, pending.
  const bool unobserved = snapshots_ == 0;
  std::vector<Verdict> out;
  if (unobserved || suspect_seen_) {
    out.push_back(completeness_.verdict("fd.strong_completeness", true));

    // Eventual weak accuracy: the earliest clean suffix over candidates.
    Verdict ewa;
    ewa.property = "fd.eventual_weak_accuracy";
    ewa.eventual = true;
    ewa.required = true;
    ewa.violations = ewa_bad_samples_;
    const ProcessId best = ewa_candidate();
    if (best == kNoProcess) {
      ewa.state = VerdictState::kPending;
      ewa.violated_at = ewa_last_bad_;
      ewa.witness = ewa_witness_.empty()
                        ? std::string("no unsuspected correct candidate")
                        : ewa_witness_;
    } else {
      ewa.state = VerdictState::kHolding;
      ewa.holds_since = unsuspected_since_[static_cast<std::size_t>(best)];
      ewa.witness = "witness " + pname(best);
    }
    out.push_back(ewa);

    out.push_back(strong_accuracy_.verdict("fd.eventual_strong_accuracy",
                                           cfg_.require_strong_accuracy));
  }
  if (unobserved || leader_seen_) {
    out.push_back(leader_agreement_.verdict("fd.leader_agreement", true));
    out.push_back(leader_stability_.verdict("fd.leader_stability", false));
  }
  if (unobserved || (suspect_seen_ && leader_seen_)) {
    out.push_back(coupling_.verdict("fd.coupling", true));
  }
  if (unobserved) {
    for (Verdict& v : out) {
      v.state = VerdictState::kPending;
      v.witness = "no snapshot observed";
    }
  }
  return out;
}

ProcessId FdPropertyMonitor::ewa_candidate() const {
  ProcessId best = kNoProcess;
  TimeUs best_since = kTimeNever;
  for (ProcessId c : cfg_.correct.members()) {
    const TimeUs since = unsuspected_since_[static_cast<std::size_t>(c)];
    if (since < best_since) {
      best_since = since;
      best = c;
    }
  }
  return best;
}

Verdict FdPropertyMonitor::weak_completeness() const {
  // Per victim, the observer whose unbroken suspicion began earliest; the
  // property stabilized when the last victim got such an observer.
  Verdict v;
  v.property = "fd.weak_completeness";
  for (const DetectionWitness& d : detections_) {
    const TimeUs since =
        *std::min_element(d.suspect_since.begin(), d.suspect_since.end());
    if (since == kTimeNever) {
      v.state = VerdictState::kPending;
      v.witness = "no correct process keeps suspecting crashed " +
                  pname(d.victim);
      break;
    }
    v.holds_since = std::max(v.holds_since, since);
  }
  return v;
}

FdClasses FdPropertyMonitor::classes(TimeUs end, DurUs margin) const {
  FdClasses c;
  for (const Verdict& v : verdicts()) {
    const bool ok = satisfied(v, end, margin);
    if (v.property == "fd.strong_completeness") c.strong_completeness = ok;
    if (v.property == "fd.eventual_weak_accuracy") {
      c.eventual_weak_accuracy = ok;
    }
    if (v.property == "fd.eventual_strong_accuracy") {
      c.eventual_strong_accuracy = ok;
    }
    if (v.property == "fd.leader_agreement") c.omega = ok;
    if (v.property == "fd.coupling") c.coupling = ok;
  }
  c.weak_completeness =
      suspect_seen_ && satisfied(weak_completeness(), end, margin);
  if (c.omega) c.leader = prev_common_leader_;
  if (c.eventual_weak_accuracy) c.ewa_witness = ewa_candidate();
  return c;
}

}  // namespace ecfd::check
