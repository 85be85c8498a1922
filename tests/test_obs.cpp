// Tests for the observability layer (src/obs/): event rings, the dual
// hot/state routing, the metrics registry's histogram bucketing, trace
// JSON round-trips, cross-document merging, and the determinism guarantee
// that the same sim seed yields byte-identical trace files.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/table.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/timeline.hpp"
#include "runner/suite.hpp"

namespace ecfd::obs {
namespace {

// --- EventRing --------------------------------------------------------

TEST(EventRing, KeepsNewestOnOverflow) {
  EventRing ring;
  ring.init(/*host=*/3, /*depth=*/8);
  ASSERT_EQ(ring.capacity(), 8u);
  for (int i = 0; i < 20; ++i) {
    ring.push(/*time=*/i, EventType::kSend, /*a=*/i);
  }
  EXPECT_EQ(ring.pushed(), 20u);
  EXPECT_EQ(ring.dropped(), 12u);

  std::vector<Event> events;
  ring.snapshot(&events);
  ASSERT_EQ(events.size(), 8u);
  // Oldest-first, and only the newest 8 survive: times 12..19.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].time, static_cast<TimeUs>(12 + i));
    EXPECT_EQ(events[i].host, 3);
    EXPECT_EQ(events[i].type, EventType::kSend);
  }
}

TEST(EventRing, CapacityRoundsUpToPowerOfTwo) {
  EventRing ring;
  ring.init(0, 5);
  EXPECT_EQ(ring.capacity(), 8u);
}

TEST(EventRing, UninitializedRingIsNoOp) {
  EventRing ring;
  EXPECT_FALSE(ring.enabled());
  ring.push(1, EventType::kSend, 0);  // must not crash
  EXPECT_EQ(ring.pushed(), 0u);
}

TEST(EventRing, WraparoundSequencePreservesOrderAcrossManyLaps) {
  EventRing ring;
  ring.init(0, 4);
  for (int i = 0; i < 1000; ++i) ring.push(i, EventType::kDeliver, i);
  std::vector<Event> events;
  std::vector<std::uint64_t> seqs;
  ring.snapshot(&events, &seqs);
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].time, static_cast<TimeUs>(996 + i));
    EXPECT_EQ(seqs[i], 996u + i);
  }
}

// --- Hot/state routing ------------------------------------------------

TEST(EventRouting, HotEventsAreChurnStateEventsAreTransitions) {
  EXPECT_TRUE(is_hot_event(EventType::kSend));
  EXPECT_TRUE(is_hot_event(EventType::kDeliver));
  EXPECT_TRUE(is_hot_event(EventType::kTimerSet));
  EXPECT_TRUE(is_hot_event(EventType::kTimerCancel));
  EXPECT_TRUE(is_hot_event(EventType::kDrop));
  EXPECT_FALSE(is_hot_event(EventType::kSuspect));
  EXPECT_FALSE(is_hot_event(EventType::kUnsuspect));
  EXPECT_FALSE(is_hot_event(EventType::kLeaderChange));
  EXPECT_FALSE(is_hot_event(EventType::kRoundStart));
  EXPECT_FALSE(is_hot_event(EventType::kDecide));
  EXPECT_FALSE(is_hot_event(EventType::kCrash));
  EXPECT_FALSE(is_hot_event(EventType::kVerdict));
  EXPECT_FALSE(is_hot_event(EventType::kNote));
}

TEST(Recorder, StateRingSurvivesHotChurn) {
  // The dual-ring guarantee: one early suspicion outlives any amount of
  // message traffic that overflows the hot ring.
  Recorder rec(/*depth=*/8);
  rec.bind_hosts(1);
  rec.state_ring(0).push(5, EventType::kSuspect, /*a=*/2);
  for (int i = 0; i < 10'000; ++i) {
    rec.ring(0).push(10 + i, EventType::kSend, 1);
  }
  bool suspect_survived = false;
  for (const Event& e : rec.merged()) {
    if (e.type == EventType::kSuspect && e.time == 5 && e.a == 2) {
      suspect_survived = true;
    }
  }
  EXPECT_TRUE(suspect_survived);
  EXPECT_GT(rec.dropped_total(), 0u);
}

TEST(Recorder, MergedOrdersByTimeThenHost) {
  Recorder rec(8);
  rec.bind_hosts(2);
  rec.ring(1).push(30, EventType::kSend, 0);
  rec.ring(0).push(10, EventType::kSend, 1);
  rec.state_ring(0).push(20, EventType::kSuspect, 1);
  const std::vector<Event> m = rec.merged();
  ASSERT_EQ(m.size(), 3u);
  EXPECT_EQ(m[0].time, 10);
  EXPECT_EQ(m[1].time, 20);
  EXPECT_EQ(m[2].time, 30);
}

TEST(Recorder, InternIsStableAndResolvable) {
  Recorder rec(8);
  const std::int32_t a = rec.intern("hb_p.suspect");
  const std::int32_t b = rec.intern("other");
  EXPECT_EQ(rec.intern("hb_p.suspect"), a);
  EXPECT_NE(a, b);
  EXPECT_EQ(rec.string_at(a), "hb_p.suspect");
  EXPECT_EQ(rec.string_at(-1), "");
}

// --- Histogram --------------------------------------------------------

TEST(Histogram, BucketEdges) {
  // Bucket 0 = {<=0}; bucket i >= 1 covers [2^(i-1), 2^i).
  EXPECT_EQ(Histogram::bucket_of(0), 0);
  EXPECT_EQ(Histogram::bucket_of(-5), 0);
  EXPECT_EQ(Histogram::bucket_of(1), 1);
  EXPECT_EQ(Histogram::bucket_of(2), 2);
  EXPECT_EQ(Histogram::bucket_of(3), 2);
  EXPECT_EQ(Histogram::bucket_of(4), 3);
  EXPECT_EQ(Histogram::bucket_of(7), 3);
  EXPECT_EQ(Histogram::bucket_of(8), 4);
  EXPECT_EQ(Histogram::bucket_of((std::int64_t{1} << 40)), 41);
  // The last bucket is open-ended: clamp, don't overflow.
  EXPECT_EQ(Histogram::bucket_of(std::int64_t{1} << 62),
            Histogram::kBuckets - 1);

  for (int i = 1; i < Histogram::kBuckets - 1; ++i) {
    // Every bucket's lower bound lands in that bucket; one less lands in
    // the previous one.
    EXPECT_EQ(Histogram::bucket_of(Histogram::bucket_lower(i)), i);
    if (i >= 2) {
      EXPECT_EQ(Histogram::bucket_of(Histogram::bucket_lower(i) - 1), i - 1);
    }
  }
}

TEST(Histogram, ObserveAccumulatesCountSumBuckets) {
  Histogram h;
  h.observe(0);
  h.observe(1);
  h.observe(1);
  h.observe(1000);
  EXPECT_EQ(h.count(), 4);
  EXPECT_EQ(h.sum(), 1002);
  EXPECT_EQ(h.bucket_count(0), 1);
  EXPECT_EQ(h.bucket_count(1), 2);
  EXPECT_EQ(h.bucket_count(Histogram::bucket_of(1000)), 1);
}

TEST(MetricsRegistry, JsonIsDeterministicAndTagged) {
  MetricsRegistry m;
  m.add("b.second", 2);
  m.add("a.first", 1);
  m.histogram("lat")->observe(5);
  std::ostringstream os1;
  std::ostringstream os2;
  m.write_json(os1, "test");
  m.write_json(os2, "test");
  EXPECT_EQ(os1.str(), os2.str());
  EXPECT_NE(os1.str().find("\"schema\": \"ecfd.metrics.v1\""),
            std::string::npos);
  // Keys sorted: a.first before b.second.
  EXPECT_LT(os1.str().find("a.first"), os1.str().find("b.second"));
}

/// True when no byte below 0x20 sits inside a string literal of \p doc.
bool control_free_strings(const std::string& doc) {
  bool in_string = false;
  for (std::size_t i = 0; i < doc.size(); ++i) {
    const auto c = static_cast<unsigned char>(doc[i]);
    if (!in_string) {
      in_string = c == '"';
    } else if (c < 0x20) {
      return false;
    } else if (c == '\\') {
      ++i;  // the escaped character
    } else if (c == '"') {
      in_string = false;
    }
  }
  return true;
}

TEST(JsonEscape, WritersEscapeControlCharactersInStrings) {
  // A metric name and a bench cell with a newline and a raw \x01: both
  // writers must emit them escaped, so strict readers accept the output.
  const std::string odd = "odd\nname\x01\"q\\";
  MetricsRegistry m;
  m.add(odd, 3);
  std::ostringstream metrics;
  m.write_json(metrics, odd);
  EXPECT_TRUE(control_free_strings(metrics.str())) << metrics.str();
  std::string error;
  const json::Value doc = json::parse(metrics.str(), &error);
  ASSERT_TRUE(error.empty()) << error;
  EXPECT_EQ(doc.at("source").as_string(), odd);
  EXPECT_EQ(doc.at("counters").at(odd).as_int(), 3);

  std::string path = testing::TempDir() + "obs_json_escape.json";
  char arg0[] = "test_obs";
  char flag[] = "--json";
  char* argv[] = {arg0, flag, path.data()};
  bench::init(3, argv, "json_escape");
  bench::section(odd);
  bench::Table t({"cell"});
  t.print_header();
  t.print_row(odd);
  ASSERT_EQ(bench::finish(), 0);
  std::ifstream in(path);
  std::stringstream table;
  table << in.rdbuf();
  EXPECT_TRUE(control_free_strings(table.str())) << table.str();
  const json::Value report = json::parse(table.str(), &error);
  ASSERT_TRUE(error.empty()) << error;
  const json::Value& first = report.at("tables").as_array().at(0);
  EXPECT_EQ(first.at("section").as_string(), odd);
  EXPECT_EQ(first.at("rows").as_array().at(0).as_array().at(0).as_string(),
            odd);
}

// --- Trace JSON round-trip and merge ----------------------------------

Recorder& tiny_recorder(Recorder& rec) {
  rec.bind_hosts(2);
  rec.ring(0).push(10, EventType::kSend, 1, /*b=*/7);
  rec.ring(1).push(12, EventType::kDeliver, 0, 7);
  rec.state_ring(1).push(20, EventType::kSuspect, 0);
  rec.state_ring(1).push(40, EventType::kUnsuspect, 0);
  rec.state_ring(0).push(30, EventType::kNote, -1, rec.intern("detail"),
                         rec.intern("tag"));
  rec.system_ring().push(50, EventType::kVerdict, 1,
                         0, rec.intern("fd.strong_completeness"));
  return rec;
}

TEST(Timeline, TraceJsonRoundTrips) {
  Recorder rec(16);
  tiny_recorder(rec);
  std::ostringstream os;
  rec.write_trace_json(os);

  std::string error;
  const auto doc = parse_trace_json(os.str(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_EQ(doc->n, 2);
  EXPECT_EQ(doc->meta.clock, ClockDomain::kVirtual);
  ASSERT_EQ(doc->events.size(), 6u);

  // Same canonical order as Recorder::merged(); labels resolve through the
  // parsed string table.
  const Event& note = doc->events[3];
  EXPECT_EQ(note.type, EventType::kNote);
  EXPECT_EQ(doc->strings[static_cast<std::size_t>(note.label)], "tag");
  EXPECT_EQ(doc->strings[static_cast<std::size_t>(note.b)], "detail");
  const Event& verdict = doc->events[5];
  EXPECT_EQ(verdict.type, EventType::kVerdict);
  EXPECT_EQ(verdict.host, -1);
}

TEST(Timeline, ParseRejectsWrongSchema) {
  std::string error;
  EXPECT_FALSE(
      parse_trace_json("{\"schema\": \"nope.v1\"}", &error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST(Timeline, MergeCalibratesMonotonicEpochs) {
  Recorder r1(8);
  r1.bind_hosts(1);
  r1.meta().source = "socket";
  r1.meta().clock = ClockDomain::kMonotonic;
  r1.meta().wall_epoch_us = 1'000'000;
  r1.ring(0).push(0, EventType::kSend, 1);

  Recorder r2(8);
  r2.bind_hosts(2);
  r2.meta().source = "socket";
  r2.meta().clock = ClockDomain::kMonotonic;
  r2.meta().wall_epoch_us = 1'000'500;
  r2.ring(1).push(0, EventType::kDeliver, 0);

  const MergedTimeline t =
      merge({snapshot_doc(r1, "n0"), snapshot_doc(r2, "n1")});
  EXPECT_TRUE(t.monotonic);
  EXPECT_EQ(t.n, 2);
  ASSERT_EQ(t.events.size(), 2u);
  // Earliest epoch is t=0; the second doc's events shift by the epoch gap.
  EXPECT_EQ(t.events[0].time, 0);
  EXPECT_EQ(t.events[1].time, 500);
}

TEST(Timeline, MergeReinternsLabels) {
  Recorder r1(8);
  r1.bind_hosts(1);
  r1.state_ring(0).push(1, EventType::kNote, -1, r1.intern("d1"),
                        r1.intern("shared"));
  Recorder r2(8);
  r2.bind_hosts(1);
  // Interned in a different order, so the raw ids differ across docs.
  r2.state_ring(0).push(2, EventType::kNote, -1, r2.intern("shared"),
                        r2.intern("d2"));

  const MergedTimeline t =
      merge({snapshot_doc(r1, "a"), snapshot_doc(r2, "b")});
  ASSERT_EQ(t.events.size(), 2u);
  EXPECT_EQ(t.strings[static_cast<std::size_t>(t.events[0].label)], "shared");
  EXPECT_EQ(t.strings[static_cast<std::size_t>(t.events[0].b)], "d1");
  EXPECT_EQ(t.strings[static_cast<std::size_t>(t.events[1].label)], "d2");
  EXPECT_EQ(t.strings[static_cast<std::size_t>(t.events[1].b)], "shared");
}

TEST(Timeline, ChromeExportReconstructsSuspicionSpans) {
  Recorder rec(16);
  rec.bind_hosts(1);
  rec.state_ring(0).push(100, EventType::kSuspect, 0);
  rec.state_ring(0).push(400, EventType::kUnsuspect, 0);
  rec.state_ring(0).push(500, EventType::kLeaderChange, 0);

  const MergedTimeline t = merge({snapshot_doc(rec, "test")});
  std::ostringstream os;
  write_chrome_trace(os, t);
  const std::string j = os.str();
  EXPECT_NE(j.find("\"traceEvents\""), std::string::npos);
  // The suspect/unsuspect pair must come back as one "X" span of dur 300.
  EXPECT_NE(j.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(j.find("\"name\": \"suspect p0\""), std::string::npos);
  EXPECT_NE(j.find("\"dur\": 300"), std::string::npos);
  EXPECT_NE(j.find("\"schema\": \"ecfd.trace.v1\""), std::string::npos);
}

// --- Determinism: same seed => byte-identical trace -------------------

TEST(Timeline, SameSimSeedYieldsByteIdenticalTraces) {
  // Two independent recorders observing two runs of the same seeded
  // simulation must serialize to identical bytes — the property that lets
  // a trace artifact stand in for the run in CI diffs.
  Recorder rec1(1024);
  Recorder rec2(1024);
  const runner::CaseMetrics m1 =
      runner::run_consensus_case(5, 42, consensus::Algo::kEcfdC, 1, &rec1);
  const runner::CaseMetrics m2 =
      runner::run_consensus_case(5, 42, consensus::Algo::kEcfdC, 1, &rec2);
  EXPECT_EQ(m1.hash, m2.hash);

  std::ostringstream os1;
  std::ostringstream os2;
  rec1.write_trace_json(os1);
  rec2.write_trace_json(os2);
  const std::string t1 = os1.str();
  ASSERT_FALSE(t1.empty());
  EXPECT_EQ(t1, os2.str());

  // And recording must not perturb the simulation itself.
  const runner::CaseMetrics bare =
      runner::run_consensus_case(5, 42, consensus::Algo::kEcfdC, 1);
  EXPECT_EQ(bare.hash, m1.hash);

  // The file parses back to the events the recorder held.
  std::string error;
  const auto doc = parse_trace_json(t1, &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_EQ(doc->events.size(), rec1.merged().size());
}

// --- Causal clock refinement ------------------------------------------

Event wire_event(TimeUs t, int host, EventType type, int other,
                 std::int64_t seq) {
  Event e;
  e.time = t;
  e.host = host;
  e.type = type;
  e.a = other;
  e.b = seq;
  return e;
}

TEST(Timeline, WireSeqEdgesCorrectPerProcessClockError) {
  // Two monotonic docs with IDENTICAL wall epochs, but doc B's clock reads
  // 5000us ahead of true time — an error wall-epoch calibration cannot
  // see. The seq-matched wire edges can: A->B one-way delays read 5000us
  // too long, B->A reads 5000us too short, and the NTP-style half
  // difference recovers the 5000us correction exactly (symmetric links).
  //
  // True story (200us latency each way):
  //   A sends seq 1 at true t=1000, B delivers at true 1200 (records 6200)
  //   B sends seq 1 at true t=2000 (records 7000), A delivers at 2200
  TimelineDoc a;
  a.meta.source = "socket";
  a.meta.clock = ClockDomain::kMonotonic;
  a.meta.wall_epoch_us = 1'000'000;
  a.n = 2;
  a.events.push_back(
      wire_event(1000, 0, EventType::kWireSend, /*dst=*/1, /*seq=*/1));
  a.events.push_back(
      wire_event(2200, 0, EventType::kWireDeliver, /*src=*/1, /*seq=*/1));

  TimelineDoc b = a;
  b.events.clear();
  b.events.push_back(
      wire_event(6200, 1, EventType::kWireDeliver, /*src=*/0, /*seq=*/1));
  b.events.push_back(
      wire_event(7000, 1, EventType::kWireSend, /*dst=*/0, /*seq=*/1));

  const MergedTimeline t = merge({a, b});
  ASSERT_EQ(t.events.size(), 4u);
  TimeUs b_deliver = -1;
  TimeUs b_send = -1;
  for (const Event& e : t.events) {
    if (e.host == 1 && e.type == EventType::kWireDeliver) b_deliver = e.time;
    if (e.host == 1 && e.type == EventType::kWireSend) b_send = e.time;
  }
  // Without the refinement these would sit at 6200/7000; corrected they
  // land at the true 1200/2000.
  EXPECT_EQ(b_deliver, 1200);
  EXPECT_EQ(b_send, 2000);
  // And the merged order is now the true causal order: A's send first,
  // then B's delivery of it.
  EXPECT_EQ(t.events.front().type, EventType::kWireSend);
  EXPECT_EQ(t.events.front().host, 0);
}

TEST(Timeline, DocsWithoutWireEdgesKeepEpochOnlyCalibration) {
  // No seq-matched frames between the docs: the refinement must leave the
  // epoch-difference offsets untouched rather than guess.
  TimelineDoc a;
  a.meta.clock = ClockDomain::kMonotonic;
  a.meta.wall_epoch_us = 1'000'000;
  a.n = 2;
  a.events.push_back(wire_event(100, 0, EventType::kSend, 1, 0));

  TimelineDoc b = a;
  b.meta.wall_epoch_us = 1'003'000;  // started 3ms later
  b.events.clear();
  b.events.push_back(wire_event(100, 1, EventType::kSend, 0, 0));

  const MergedTimeline t = merge({a, b});
  ASSERT_EQ(t.events.size(), 2u);
  EXPECT_EQ(t.events[0].time, 100);   // doc A: earliest epoch = base
  EXPECT_EQ(t.events[1].time, 3100);  // doc B: rebased by the epoch delta
}

}  // namespace
}  // namespace ecfd::obs
