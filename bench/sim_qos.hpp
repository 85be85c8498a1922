#pragma once

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <utility>
#include <vector>

#include "obs/qos.hpp"
#include "obs/recorder.hpp"

/// \file sim_qos.hpp
/// QoS of a finished simulated run, read from the recorder's state rings
/// through obs::QosScoreboard — the engine ecfd_node's /qos endpoint and
/// `ecfd_trace --qos` use — at transition granularity. A bench must not
/// print numbers it could not measure, so qos_of() exits 1 when the build
/// has the recorder compiled out (ECFD_OBS=OFF) or when a state ring
/// wrapped and lost transitions.

namespace ecfd::bench {

/// Folds every transition \p rec recorded into a scoreboard whose window is
/// [0, end]. Give \p rec a depth of at least Recorder::kStateDepth, so its
/// state rings get their full size. \p crashes lists (host, true crash
/// time) from the fault schedule: a host stamps its own kCrash on its
/// local clock, which a skewed host runs ahead of true time.
inline obs::QosScoreboard qos_of(
    const obs::Recorder& rec, TimeUs end,
    const std::vector<std::pair<int, TimeUs>>& crashes = {}) {
#if defined(ECFD_OBS_DISABLED)
  std::cerr << "QoS is read from recorded events; this build has "
               "ECFD_OBS=OFF\n";
  std::exit(1);
#endif
  for (int p = 0; p < rec.hosts(); ++p) {
    if (rec.state_ring(p).dropped() > 0) {
      std::cerr << "state ring of p" << p << " wrapped ("
                << rec.state_ring(p).dropped()
                << " transitions lost); refusing to report QoS\n";
      std::exit(1);
    }
  }
  obs::QosScoreboard sb(rec.hosts());
  for (const auto& [host, at] : crashes) sb.note_crash(host, at);
  sb.ingest(obs::Event{});  // an ignored event at t=0 opens the P_A window
  sb.ingest_all(rec.merged());
  sb.finalize(end);
  return sb;
}

/// Totals over the ordered pairs (observer, peer) whose observer never
/// crashed.
struct QosTotals {
  std::int64_t mistakes{0};  ///< closed false-suspicion episodes
  double accuracy{1.0};      ///< mean per-pair P_A
};

inline QosTotals totals_of(const obs::QosScoreboard& sb) {
  QosTotals t;
  double pa_sum = 0;
  int pairs = 0;
  for (int o = 0; o < sb.n(); ++o) {
    if (sb.crash_time(o) != kTimeNever) continue;
    for (int p = 0; p < sb.n(); ++p) {
      if (p == o) continue;
      t.mistakes += sb.cell(o, p).mistakes;
      pa_sum += sb.query_accuracy(o, p);
      ++pairs;
    }
  }
  if (pairs > 0) t.accuracy = pa_sum / pairs;
  return t;
}

}  // namespace ecfd::bench
