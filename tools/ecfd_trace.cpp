// ecfd_trace — cross-backend timeline reconstruction.
//
// Reads one or more ecfd.trace.v1 files (written by ecfd_sim --trace,
// ecfd_fuzz --replay --trace, bench_runner --trace, or one ecfd_node
// --trace per OS process), merges them onto a single time axis, and
// renders the result:
//
//   ecfd_trace [--text FILE|-] [--chrome FILE|-] [--qos FILE|-]
//              [--stats] [--postmortem FILE]... [TRACE...]
//
//   --text OUT    human-readable timeline, one event per line
//                 (default when no output flag is given: --text -)
//   --chrome OUT  Chrome-trace JSON for chrome://tracing or Perfetto:
//                 one Chrome "process" per host, suspicion intervals,
//                 leader epochs and consensus rounds as spans
//   --qos OUT     per-peer FD QoS scoreboard (Chen/Toueg/Aguilera T_D,
//                 T_M, T_MR, P_A) replayed from the merged timeline's
//                 kSuspect/kUnsuspect/kCrash transitions
//   --stats       per-host and per-type event counts to stderr
//   --postmortem FILE  read an ecfd.postmortem.v1 crash image (written
//                 by ecfd_node --postmortem) as an input; its rings merge
//                 into the timeline like any trace, a summary of the
//                 death goes to stderr, and the timeline ends at a
//                 synthetic crash event stamped by the signal handler
//
// Merging: virtual-time traces (simulator) pass through unchanged;
// monotonic traces (UDP nodes) are aligned by their recorded wall-clock
// epochs, so the per-process traces of a real cluster line up on one
// axis. Mixing the two kinds is allowed but the
// axes are unrelated, so a warning is printed.
//
// Exit code: 0 on success, 1 when any input failed to parse, 2 on usage
// errors.

#include <array>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/flight.hpp"
#include "obs/qos.hpp"
#include "obs/timeline.hpp"

using namespace ecfd;

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: ecfd_trace [--text FILE|-] [--chrome FILE|-] "
               "[--qos FILE|-] [--stats] [--postmortem FILE]... "
               "[TRACE...]\n");
}

/// Writes via \p render either to stdout ("-") or to \p path.
bool write_output(const std::string& path, const char* what,
                  const std::function<void(std::ostream&)>& render) {
  if (path == "-") {
    render(std::cout);
    return true;
  }
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "ecfd_trace: cannot open %s for %s\n", path.c_str(),
                 what);
    return false;
  }
  render(os);
  return true;
}

void print_stats(const obs::MergedTimeline& t) {
  std::map<int, std::int64_t> per_host;
  std::array<std::int64_t, obs::kNumEventTypes> per_type{};
  for (const obs::Event& e : t.events) {
    ++per_host[e.host];
    ++per_type[static_cast<std::size_t>(e.type)];
  }
  std::fprintf(stderr, "hosts=%d events=%zu dropped=%llu clock=%s\n", t.n,
               t.events.size(), static_cast<unsigned long long>(t.dropped),
               t.monotonic ? "monotonic" : "virtual");
  for (std::size_t i = 1; i < per_type.size(); ++i) {
    if (per_type[i] == 0) continue;
    std::fprintf(stderr, "  %-14s %lld\n",
                 obs::event_type_name(static_cast<obs::EventType>(i)),
                 static_cast<long long>(per_type[i]));
  }
  for (const auto& [host, count] : per_host) {
    if (host < 0) {
      std::fprintf(stderr, "  monitor: %lld events\n",
                   static_cast<long long>(count));
    } else {
      std::fprintf(stderr, "  p%d: %lld events\n", host,
                   static_cast<long long>(count));
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string text_out;
  std::string chrome_out;
  std::string qos_out;
  bool stats = false;
  std::vector<std::string> inputs;
  std::vector<std::string> postmortems;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--help" || a == "-h") {
      usage();
      return 0;
    } else if (a == "--text") {
      text_out = next();
    } else if (a == "--chrome") {
      chrome_out = next();
    } else if (a == "--qos") {
      qos_out = next();
    } else if (a == "--postmortem") {
      postmortems.push_back(next());
    } else if (a == "--stats") {
      stats = true;
    } else if (!a.empty() && a[0] == '-' && a != "-") {
      std::fprintf(stderr, "unknown flag %s\n", a.c_str());
      usage();
      return 2;
    } else {
      inputs.push_back(a);
    }
  }
  if (inputs.empty() && postmortems.empty()) {
    usage();
    return 2;
  }
  if (text_out.empty() && chrome_out.empty() && qos_out.empty() && !stats) {
    text_out = "-";
  }

  std::vector<obs::TimelineDoc> docs;
  bool any_virtual = false;
  bool any_monotonic = false;
  for (const std::string& path : postmortems) {
    obs::TimelineDoc doc;
    obs::PostmortemInfo info;
    std::string error;
    if (!obs::read_postmortem(path, &doc, &info, &error)) {
      std::fprintf(stderr, "ecfd_trace: %s: %s\n", path.c_str(),
                   error.c_str());
      return 1;
    }
    if (info.signal != 0) {
      std::fprintf(stderr,
                   "ecfd_trace: %s: node %d died on signal %d at t=%lldus "
                   "(%llu snapshots, %zu events recovered)\n",
                   path.c_str(), info.node, info.signal,
                   static_cast<long long>(info.crash_time_us),
                   static_cast<unsigned long long>(info.snapshots),
                   doc.events.size());
    } else {
      std::fprintf(stderr,
                   "ecfd_trace: %s: node %d exited cleanly (%llu snapshots, "
                   "%zu events)\n",
                   path.c_str(), info.node,
                   static_cast<unsigned long long>(info.snapshots),
                   doc.events.size());
    }
    doc.origin = path;
    (doc.meta.clock == obs::ClockDomain::kVirtual ? any_virtual
                                                  : any_monotonic) = true;
    docs.push_back(std::move(doc));
  }
  for (const std::string& path : inputs) {
    std::ifstream is(path);
    if (!is) {
      std::fprintf(stderr, "ecfd_trace: cannot read %s\n", path.c_str());
      return 1;
    }
    std::ostringstream buf;
    buf << is.rdbuf();
    std::string error;
    auto doc = obs::parse_trace_json(buf.str(), &error);
    if (!doc) {
      std::fprintf(stderr, "ecfd_trace: %s: %s\n", path.c_str(),
                   error.c_str());
      return 1;
    }
    doc->origin = path;
    (doc->meta.clock == obs::ClockDomain::kVirtual ? any_virtual
                                                   : any_monotonic) = true;
    docs.push_back(std::move(*doc));
  }
  if (any_virtual && any_monotonic) {
    std::fprintf(stderr,
                 "ecfd_trace: warning: merging virtual-time and wall-clock "
                 "traces; the time axes are unrelated\n");
  }

  const obs::MergedTimeline merged = obs::merge(docs);
  if (merged.dropped > 0) {
    std::fprintf(stderr,
                 "ecfd_trace: warning: %llu events were lost to ring "
                 "overwrite before export (raise the trace depth for full "
                 "history)\n",
                 static_cast<unsigned long long>(merged.dropped));
  }

  if (stats) print_stats(merged);
  if (!text_out.empty() &&
      !write_output(text_out, "text timeline",
                    [&](std::ostream& os) { obs::write_text(os, merged); })) {
    return 1;
  }
  if (!chrome_out.empty() &&
      !write_output(chrome_out, "chrome trace", [&](std::ostream& os) {
        obs::write_chrome_trace(os, merged);
      })) {
    return 1;
  }
  if (!qos_out.empty()) {
    obs::QosScoreboard qos(merged.n);
    qos.ingest_all(merged.events);
    qos.finalize(merged.events.empty() ? 0 : merged.events.back().time);
    if (!write_output(qos_out, "qos scoreboard",
                      [&](std::ostream& os) { qos.write_table(os); })) {
      return 1;
    }
  }
  return 0;
}
