#include "obs/timeline.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <tuple>

#include "obs/json.hpp"

namespace ecfd::obs {

namespace {

/// Reverse of event_type_name(); kNone for unknown names (forward compat:
/// a newer writer's types render as gaps, not parse failures).
EventType event_type_from_name(const std::string& name) {
  for (int i = 1; i < kNumEventTypes; ++i) {
    const auto t = static_cast<EventType>(i);
    if (name == event_type_name(t)) return t;
  }
  return EventType::kNone;
}

const std::string& label_of(const MergedTimeline& t, std::int32_t id) {
  static const std::string kEmpty;
  if (id < 0 || static_cast<std::size_t>(id) >= t.strings.size()) return kEmpty;
  return t.strings[static_cast<std::size_t>(id)];
}

}  // namespace

std::optional<TimelineDoc> parse_trace_json(const std::string& text,
                                            std::string* error) {
  std::string parse_error;
  const json::Value root = json::parse(text, &parse_error);
  auto fail = [&](const std::string& what) -> std::optional<TimelineDoc> {
    if (error != nullptr) *error = what;
    return std::nullopt;
  };
  if (!parse_error.empty()) return fail("bad JSON: " + parse_error);
  if (root.kind() != json::Value::Kind::kObject) {
    return fail("trace document is not a JSON object");
  }
  if (root.at("schema").as_string() != "ecfd.trace.v1") {
    return fail("schema is not ecfd.trace.v1");
  }

  TimelineDoc doc;
  doc.meta.source = root.at("source").as_string();
  const std::string clock = root.at("clock").as_string();
  if (clock == "virtual") {
    doc.meta.clock = ClockDomain::kVirtual;
  } else if (clock == "monotonic") {
    doc.meta.clock = ClockDomain::kMonotonic;
  } else {
    return fail("clock must be \"virtual\" or \"monotonic\"");
  }
  doc.meta.wall_epoch_us = root.at("wall_epoch_us").as_int();
  doc.n = static_cast<int>(root.at("n").as_int());
  doc.dropped = static_cast<std::uint64_t>(root.at("dropped").as_int());
  for (const json::Value& s : root.at("strings").as_array()) {
    doc.strings.push_back(s.as_string());
  }
  const json::Array& events = root.at("events").as_array();
  doc.events.reserve(events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    const json::Array& row = events[i].as_array();
    if (row.size() != 6) {
      return fail("event " + std::to_string(i) +
                  " is not a 6-element [time, host, type, a, b, label] row");
    }
    Event e;
    e.time = row[0].as_int();
    e.host = static_cast<std::int32_t>(row[1].as_int());
    e.type = event_type_from_name(row[2].as_string());
    e.a = static_cast<std::int32_t>(row[3].as_int());
    e.b = row[4].as_int();
    e.label = static_cast<std::int32_t>(row[5].as_int());
    if (e.type != EventType::kNone) doc.events.push_back(e);
  }
  return doc;
}

TimelineDoc snapshot_doc(const Recorder& rec, std::string origin) {
  TimelineDoc doc;
  doc.meta = rec.meta();
  doc.n = rec.hosts();
  doc.dropped = rec.dropped_total();
  doc.strings = rec.strings();
  doc.events = rec.merged();
  doc.origin = std::move(origin);
  return doc;
}

namespace {

/// Per-doc clock refinement from wire-level causal edges.
///
/// Wall-clock epoch calibration (wall_epoch_us differences) is only as good
/// as CLOCK_REALTIME agreement between the processes. When traces carry
/// kWireSend/kWireDeliver pairs (the causal-seq wire flag), every matched
/// frame gives a one-way delay observation d = recv_j - send_i =
/// latency + (err_j - err_i); the minimum over many frames approaches the
/// floor latency plus the offset error (standard NTP reasoning). With both
/// directions measured, (d_ij - d_ji) / 2 estimates err_j - err_i with the
/// symmetric part of the latency cancelled. Corrections propagate over a
/// BFS spanning tree anchored at \p anchor; docs without a causal path to
/// the anchor keep the epoch-only calibration.
///
/// \p offsets are the already-computed epoch rebases; returns an extra
/// per-doc additive correction.
std::vector<std::int64_t> causal_corrections(
    const std::vector<TimelineDoc>& docs,
    const std::vector<std::int64_t>& offsets, std::size_t anchor) {
  std::vector<std::int64_t> corr(docs.size(), 0);
  if (docs.size() < 2) return corr;

  // host -> the unique monotonic doc that recorded its kWireSend events
  // (-1 unknown, -2 ambiguous: the host appears in several docs).
  std::map<std::int32_t, int> host_doc;
  // (sender, receiver, seq) -> epoch-rebased send time.
  std::map<std::tuple<std::int32_t, std::int32_t, std::int64_t>, TimeUs>
      send_at;
  for (std::size_t d = 0; d < docs.size(); ++d) {
    if (docs[d].meta.clock != ClockDomain::kMonotonic) continue;
    for (const Event& e : docs[d].events) {
      if (e.type != EventType::kWireSend) continue;
      auto [it, inserted] = host_doc.emplace(e.host, static_cast<int>(d));
      if (!inserted && it->second != static_cast<int>(d)) it->second = -2;
      send_at[{e.host, e.a, e.b}] = e.time + offsets[d];
    }
  }
  if (host_doc.empty()) return corr;

  // Minimum observed one-way delay per ordered doc pair.
  std::map<std::pair<int, int>, std::int64_t> min_delay;
  for (std::size_t d = 0; d < docs.size(); ++d) {
    if (docs[d].meta.clock != ClockDomain::kMonotonic) continue;
    for (const Event& e : docs[d].events) {
      if (e.type != EventType::kWireDeliver) continue;
      const auto src_doc = host_doc.find(e.a);
      if (src_doc == host_doc.end() || src_doc->second < 0 ||
          src_doc->second == static_cast<int>(d)) {
        continue;
      }
      const auto sent = send_at.find({e.a, e.host, e.b});
      if (sent == send_at.end()) continue;
      const std::int64_t delay = (e.time + offsets[d]) - sent->second;
      const std::pair<int, int> key{src_doc->second, static_cast<int>(d)};
      auto [it, inserted] = min_delay.emplace(key, delay);
      if (!inserted && delay < it->second) it->second = delay;
    }
  }

  // BFS from the anchor over doc pairs measured in both directions.
  std::vector<bool> placed(docs.size(), false);
  placed[anchor] = true;
  std::vector<std::size_t> frontier{anchor};
  while (!frontier.empty()) {
    std::vector<std::size_t> next;
    for (const std::size_t i : frontier) {
      for (std::size_t j = 0; j < docs.size(); ++j) {
        if (placed[j]) continue;
        const auto fwd = min_delay.find({static_cast<int>(i),
                                         static_cast<int>(j)});
        const auto rev = min_delay.find({static_cast<int>(j),
                                         static_cast<int>(i)});
        if (fwd == min_delay.end() || rev == min_delay.end()) continue;
        // (d_ij - d_ji) / 2 estimates err_j - err_i on the raw rebased
        // clocks; subtracting it (relative to i's own correction) aligns j.
        corr[j] = corr[i] - (fwd->second - rev->second) / 2;
        placed[j] = true;
        next.push_back(j);
      }
    }
    frontier = std::move(next);
  }
  return corr;
}

}  // namespace

MergedTimeline merge(const std::vector<TimelineDoc>& docs) {
  MergedTimeline out;
  std::int64_t min_epoch = 0;
  bool have_epoch = false;
  std::size_t anchor = 0;
  for (std::size_t d = 0; d < docs.size(); ++d) {
    out.n = std::max(out.n, docs[d].n);
    out.dropped += docs[d].dropped;
    if (docs[d].meta.clock == ClockDomain::kMonotonic) {
      out.monotonic = true;
      if (!have_epoch || docs[d].meta.wall_epoch_us < min_epoch) {
        min_epoch = docs[d].meta.wall_epoch_us;
        have_epoch = true;
        anchor = d;
      }
    }
  }

  std::map<std::string, std::int32_t> merged_ids;
  auto intern = [&](const std::string& s) {
    auto it = merged_ids.find(s);
    if (it != merged_ids.end()) return it->second;
    const auto id = static_cast<std::int32_t>(out.strings.size());
    out.strings.push_back(s);
    merged_ids.emplace(s, id);
    return id;
  };

  // Epoch rebases first, then the causal refinement computed on top.
  std::vector<std::int64_t> offsets(docs.size(), 0);
  for (std::size_t d = 0; d < docs.size(); ++d) {
    if (docs[d].meta.clock == ClockDomain::kMonotonic) {
      offsets[d] = docs[d].meta.wall_epoch_us - min_epoch;
    }
  }
  const std::vector<std::int64_t> corr =
      causal_corrections(docs, offsets, anchor);

  struct Tagged {
    Event e;
    std::size_t doc;
    std::size_t idx;
  };
  std::vector<Tagged> all;
  for (std::size_t d = 0; d < docs.size(); ++d) {
    const TimelineDoc& doc = docs[d];
    const std::int64_t offset =
        doc.meta.clock == ClockDomain::kMonotonic ? offsets[d] + corr[d] : 0;
    // One-time remap of this doc's label ids into the merged table.
    std::vector<std::int32_t> remap(doc.strings.size());
    for (std::size_t i = 0; i < doc.strings.size(); ++i) {
      remap[i] = intern(doc.strings[i]);
    }
    for (std::size_t i = 0; i < doc.events.size(); ++i) {
      Event e = doc.events[i];
      e.time += offset;
      e.label = e.label >= 0 && static_cast<std::size_t>(e.label) < remap.size()
                    ? remap[static_cast<std::size_t>(e.label)]
                    : -1;
      if (e.type == EventType::kNote && e.b >= 0 &&
          static_cast<std::size_t>(e.b) < remap.size()) {
        e.b = remap[static_cast<std::size_t>(e.b)];
      }
      all.push_back(Tagged{e, d, i});
      out.n = std::max(out.n, e.host + 1);
    }
  }
  std::stable_sort(all.begin(), all.end(), [](const Tagged& x, const Tagged& y) {
    if (x.e.time != y.e.time) return x.e.time < y.e.time;
    if (x.e.host != y.e.host) return x.e.host < y.e.host;
    if (x.doc != y.doc) return x.doc < y.doc;
    return x.idx < y.idx;
  });
  out.events.reserve(all.size());
  for (const Tagged& t : all) out.events.push_back(t.e);
  return out;
}

void write_text(std::ostream& os, const MergedTimeline& t) {
  std::string line;
  for (const Event& e : t.events) {
    line.clear();
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%12lld us  ",
                  static_cast<long long>(e.time));
    line += buf;
    if (e.host < 0) {
      line += "sys ";
    } else {
      std::snprintf(buf, sizeof(buf), "p%-3d", e.host);
      line += buf;
    }
    line += " ";
    switch (e.type) {
      case EventType::kSend:
        line += "send -> p" + std::to_string(e.a) +
                " proto=" + std::to_string(e.b);
        break;
      case EventType::kDeliver:
        line += "deliver <- p" + std::to_string(e.a) +
                " proto=" + std::to_string(e.b);
        break;
      case EventType::kTimerSet:
        line += "timer_set id=" + std::to_string(e.b);
        break;
      case EventType::kTimerCancel:
        line += "timer_cancel id=" + std::to_string(e.b);
        break;
      case EventType::kSuspect:
        line += "suspect p" + std::to_string(e.a);
        break;
      case EventType::kUnsuspect:
        line += "unsuspect p" + std::to_string(e.a);
        break;
      case EventType::kLeaderChange:
        line += "leader -> p" + std::to_string(e.a);
        break;
      case EventType::kRoundStart:
        line += "round " + std::to_string(e.a) + " start";
        break;
      case EventType::kDecide:
        line += "decide round=" + std::to_string(e.a) +
                " value=" + std::to_string(e.b);
        break;
      case EventType::kCrash:
        line += "crash";
        break;
      case EventType::kDrop:
        line += "drop -> p" + std::to_string(e.a);
        break;
      case EventType::kVerdict:
        line += "verdict " + label_of(t, e.label) +
                " state=" + std::to_string(e.a);
        break;
      case EventType::kNote:
        line += label_of(t, e.label);
        {
          const std::string& detail =
              label_of(t, static_cast<std::int32_t>(e.b));
          if (!detail.empty()) line += ": " + detail;
        }
        break;
      case EventType::kLeaseGrant:
        line += "lease_grant term=" + std::to_string(e.b);
        break;
      case EventType::kLeaseRevoke:
        line += "lease_revoke term=" + std::to_string(e.b);
        break;
      case EventType::kWireSend:
        line += "wire_send -> p" + std::to_string(e.a) +
                " seq=" + std::to_string(e.b);
        break;
      case EventType::kWireDeliver:
        line += "wire_deliver <- p" + std::to_string(e.a) +
                " seq=" + std::to_string(e.b);
        break;
      case EventType::kNone:
        line += "?";
        break;
    }
    if (!label_of(t, e.label).empty() && e.type != EventType::kVerdict &&
        e.type != EventType::kNote) {
      line += "  [" + label_of(t, e.label) + "]";
    }
    os << line << "\n";
  }
}

namespace {

/// Chrome lanes per host: one row per subsystem keeps the timeline legible.
int lane_of(EventType t) {
  switch (t) {
    case EventType::kSend:
    case EventType::kDeliver:
    case EventType::kDrop:
    case EventType::kTimerSet:
    case EventType::kTimerCancel:
    case EventType::kWireSend:
    case EventType::kWireDeliver:
      return 0;  // net
    case EventType::kSuspect:
    case EventType::kUnsuspect:
    case EventType::kLeaderChange:
      return 1;  // fd
    case EventType::kRoundStart:
    case EventType::kDecide:
      return 2;  // consensus
    default:
      return 3;  // notes / crash / verdicts
  }
}

struct ChromeWriter {
  std::string j;
  bool first{true};

  void open() { j += "{\"traceEvents\": [\n"; }

  void event_start() {
    j += first ? "  " : ",\n  ";
    first = false;
  }

  void metadata(int pid, int tid, const std::string& kind,
                const std::string& name) {
    event_start();
    j += "{\"ph\": \"M\", \"pid\": " + std::to_string(pid);
    if (tid >= 0) j += ", \"tid\": " + std::to_string(tid);
    j += ", \"name\": \"" + kind + "\", \"args\": {\"name\": \"";
    json::escape_into(&j, name);
    j += "\"}}";
  }

  void instant(const std::string& name, TimeUs ts, int pid, int tid,
               const std::string& args_json) {
    event_start();
    j += "{\"ph\": \"i\", \"s\": \"t\", \"name\": \"";
    json::escape_into(&j, name);
    j += "\", \"ts\": " + std::to_string(ts) +
         ", \"pid\": " + std::to_string(pid) +
         ", \"tid\": " + std::to_string(tid) + ", \"args\": " + args_json +
         "}";
  }

  void span(const std::string& name, TimeUs ts, TimeUs end, int pid, int tid,
            const std::string& args_json) {
    const TimeUs dur = end > ts ? end - ts : 1;
    event_start();
    j += "{\"ph\": \"X\", \"name\": \"";
    json::escape_into(&j, name);
    j += "\", \"ts\": " + std::to_string(ts) +
         ", \"dur\": " + std::to_string(dur) +
         ", \"pid\": " + std::to_string(pid) +
         ", \"tid\": " + std::to_string(tid) + ", \"args\": " + args_json +
         "}";
  }

  void close(const MergedTimeline& t) {
    j += "\n],\n";
    j += "\"displayTimeUnit\": \"ms\",\n";
    j += "\"otherData\": {\"schema\": \"ecfd.trace.v1\", \"n\": " +
         std::to_string(t.n) +
         ", \"dropped\": " + std::to_string(t.dropped) + ", \"clock\": \"" +
         (t.monotonic ? "monotonic" : "virtual") + "\"}\n}\n";
  }
};

}  // namespace

void write_chrome_trace(std::ostream& os, const MergedTimeline& t) {
  ChromeWriter w;
  w.open();

  const int monitor_pid = t.n;  // synthetic process for host=-1 observers
  for (int p = 0; p < t.n; ++p) {
    w.metadata(p, -1, "process_name", "p" + std::to_string(p));
    w.metadata(p, 0, "thread_name", "net");
    w.metadata(p, 1, "thread_name", "fd");
    w.metadata(p, 2, "thread_name", "consensus");
    w.metadata(p, 3, "thread_name", "notes");
  }
  w.metadata(monitor_pid, -1, "process_name", "monitor");
  w.metadata(monitor_pid, 3, "thread_name", "verdicts");

  TimeUs end_time = 0;
  for (const Event& e : t.events) end_time = std::max(end_time, e.time);
  ++end_time;  // open intervals close just past the last event

  // Interval state reconstructed from the point events, per host.
  struct HostState {
    std::map<int, TimeUs> suspected_since;  // victim -> start
    int leader{-1};
    TimeUs leader_since{0};
    int round{-1};
    TimeUs round_since{0};
  };
  std::map<int, HostState> hosts;

  for (const Event& e : t.events) {
    const int pid = e.host < 0 ? monitor_pid : e.host;
    const int tid = lane_of(e.type);
    const std::string& label = label_of(t, e.label);
    std::string args = "{\"a\": " + std::to_string(e.a) +
                       ", \"b\": " + std::to_string(e.b);
    if (!label.empty()) {
      args += ", \"label\": \"";
      json::escape_into(&args, label);
      args += "\"";
    }
    args += "}";

    std::string name = event_type_name(e.type);
    HostState& hs = hosts[pid];
    switch (e.type) {
      case EventType::kSend:
      case EventType::kDeliver:
      case EventType::kDrop:
      case EventType::kWireSend:
      case EventType::kWireDeliver:
        name += e.type == EventType::kDeliver ||
                        e.type == EventType::kWireDeliver
                    ? " p"
                    : " -> p";
        name += std::to_string(e.a);
        break;
      case EventType::kSuspect:
        name += " p" + std::to_string(e.a);
        hs.suspected_since.emplace(e.a, e.time);
        break;
      case EventType::kUnsuspect: {
        name += " p" + std::to_string(e.a);
        auto it = hs.suspected_since.find(e.a);
        if (it != hs.suspected_since.end()) {
          w.span("suspect p" + std::to_string(e.a), it->second, e.time, pid,
                 1, "{\"victim\": " + std::to_string(e.a) + "}");
          hs.suspected_since.erase(it);
        }
        break;
      }
      case EventType::kLeaderChange:
        name += " -> p" + std::to_string(e.a);
        if (hs.leader >= 0) {
          w.span("leader p" + std::to_string(hs.leader), hs.leader_since,
                 e.time, pid, 1,
                 "{\"leader\": " + std::to_string(hs.leader) + "}");
        }
        hs.leader = e.a;
        hs.leader_since = e.time;
        break;
      case EventType::kRoundStart:
        name = "round " + std::to_string(e.a);
        if (hs.round >= 0) {
          w.span("round " + std::to_string(hs.round), hs.round_since, e.time,
                 pid, 2, "{\"round\": " + std::to_string(hs.round) + "}");
        }
        hs.round = e.a;
        hs.round_since = e.time;
        break;
      case EventType::kDecide:
        name = "decide r" + std::to_string(e.a) + "=" + std::to_string(e.b);
        if (hs.round >= 0) {
          w.span("round " + std::to_string(hs.round), hs.round_since, e.time,
                 pid, 2, "{\"round\": " + std::to_string(hs.round) + "}");
          hs.round = -1;
        }
        break;
      case EventType::kVerdict:
        name = "verdict " + label + " s" + std::to_string(e.a);
        break;
      case EventType::kNote: {
        name = label.empty() ? "note" : label;
        const std::string& detail =
            label_of(t, static_cast<std::int32_t>(e.b));
        if (!detail.empty()) {
          args = "{\"detail\": \"";
          json::escape_into(&args, detail);
          args += "\"}";
        }
        break;
      }
      default:
        break;
    }
    w.instant(name, e.time, pid, tid, args);
  }

  // Close the intervals still open at the end of the trace (a crashed
  // leader stays suspected forever: that open span IS the finding).
  for (auto& [pid, hs] : hosts) {
    for (const auto& [victim, since] : hs.suspected_since) {
      w.span("suspect p" + std::to_string(victim), since, end_time, pid, 1,
             "{\"victim\": " + std::to_string(victim) + "}");
    }
    if (hs.leader >= 0) {
      w.span("leader p" + std::to_string(hs.leader), hs.leader_since,
             end_time, pid, 1,
             "{\"leader\": " + std::to_string(hs.leader) + "}");
    }
    if (hs.round >= 0) {
      w.span("round " + std::to_string(hs.round), hs.round_since, end_time,
             pid, 2, "{\"round\": " + std::to_string(hs.round) + "}");
    }
  }

  w.close(t);
  os << w.j;
}

}  // namespace ecfd::obs
