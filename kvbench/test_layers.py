"""Checks the trace -> per-layer extraction of kvbench/layers.py on a canned
ecfd.trace.v1 file whose answers are known by construction.

    python3 -m unittest discover -s kvbench -p 'test_*.py'
"""

import json
import os
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import layers  # noqa: E402

EPOCH = 1_000_000_000
CANNED = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "testdata", "canned.trace.json")


def rings_from_trace(doc):
    """Rings of an ecfd.trace.v1 document (parsed JSON). A trace file merges
    a host's rings, so they are split again by event type; a ring counts as
    wrapped when the file reports dropped events."""
    epoch = doc.get("wall_epoch_us", 0)
    wrapped = doc.get("dropped", 0) > 0
    per = {}
    for t, host, etype, a, b, _label in doc["events"]:
        kind = layers.HOT if etype in layers.HOT_TYPES else layers.STATE
        per.setdefault((host, kind), []).append((t + epoch, host, etype, a, b))
    rings = []
    for (host, kind), events in sorted(per.items()):
        events.sort(key=lambda e: e[0])
        rings.append(layers.Ring(host, kind, events,
                                 events[0][0] if wrapped else None,
                                 events[-1][0]))
    return rings


def canned_rings():
    with open(CANNED) as f:
        return rings_from_trace(json.load(f))


def leader_state():
    return [r for r in canned_rings()
            if r.kind == layers.STATE and r.host == 0][0]


def pm_image(node, epoch, base_env, rings):
    """A minimal ecfd.postmortem.v1 image: header, then for each (kind,
    depth, events) a ring descriptor and its slots, events placed at
    seq % depth with seq counting from 0."""
    body = b""
    for kind, depth, events in rings:
        body += layers.PM_RING_DESC.pack(node, kind, depth, len(events))
        slots = [b"\0" * layers.PM_EVENT.size] * depth
        for seq, (t, etype, a, b) in enumerate(events):
            slots[seq % depth] = layers.PM_EVENT.pack(
                t, b, a, -1, layers.EVENT_TYPES.index(etype), 0)
        body += b"".join(slots)
    size = layers.PM_HEADER.size + len(body)
    header = layers.PM_HEADER.pack(
        layers.PM_MAGIC, 1, layers.PM_HEADER.size, node, 3, epoch, -1,
        base_env, 0, 1, size, 0, 1, b"socket", 0, 0, 0, 0, 0, 0, 0,
        layers.PM_HEADER.size, len(rings))
    return header + body


class CannedTrace(unittest.TestCase):
    def test_rings_split_by_kind(self):
        rings = canned_rings()
        kinds = {(r.host, r.kind) for r in rings}
        self.assertIn((0, layers.HOT), kinds)
        self.assertIn((0, layers.STATE), kinds)
        for r in rings:
            self.assertIsNone(r.lo)  # the file dropped nothing
            hot = r.kind == layers.HOT
            self.assertTrue(all((e[2] in layers.HOT_TYPES) == hot
                                for e in r.events))

    def test_wire_latencies_inside_window(self):
        hot = [r for r in canned_rings() if r.kind == layers.HOT]
        win = layers.common_window(hot, EPOCH, EPOCH + 100_000)
        self.assertEqual(sorted(layers.wire_latencies(hot, win)),
                         [40, 60, 100])

    def test_slot_latencies_pair_in_order(self):
        # The slot started at 4000 is in flight at 4500; its decide at 5000
        # is skipped.
        got, in_flight = layers.slot_latencies(leader_state(),
                                               (EPOCH + 4_500, EPOCH + 100_000))
        self.assertEqual(got, [300, 500, 800])
        self.assertEqual(in_flight, 0)

    def test_slot_in_flight_at_window_start_is_skipped(self):
        # The slot started at 12000 is still in flight at 12050: the decide
        # at 12500 is its, and the slot started at 12100 decides at 12900.
        got, _ = layers.slot_latencies(leader_state(),
                                       (EPOCH + 12_050, EPOCH + 100_000))
        self.assertEqual(got, [800])

    def test_slots_of_a_wrapped_ring_need_a_carried_count(self):
        whole = leader_state()
        early = [e for e in whole.events if e[0] <= EPOCH + 12_000]
        late = [e for e in whole.events if e[0] >= EPOCH + 12_000]
        first = layers.Ring(0, layers.STATE, early, None, EPOCH + 12_050)
        wrapped = layers.Ring(0, layers.STATE, late, EPOCH + 12_000, whole.hi)
        self.assertEqual(layers.slot_latencies(
            wrapped, (EPOCH + 12_050, EPOCH + 100_000)), (None, None))
        out = layers.window_samples([[wrapped]], EPOCH + 12_050,
                                    EPOCH + 100_000, leader=0, settle_us=0)
        self.assertEqual(out["slot_us"], [])
        self.assertEqual(out["state_segments"], [])
        # A count the caller knows at lo works on a wrapped ring, but only
        # for a segment that starts at lo.
        out = layers.window_samples([[wrapped]], EPOCH + 12_050,
                                    EPOCH + 100_000, leader=0, settle_us=0,
                                    in_flight_at_lo=1)
        self.assertEqual(out["slot_us"], [800])
        out = layers.window_samples([[wrapped]], EPOCH + 11_500,
                                    EPOCH + 100_000, leader=0, settle_us=0,
                                    in_flight_at_lo=0)
        self.assertEqual(out["state_segments"], [])
        # Seen first unwrapped, the slot in flight at 12050 carries over.
        # The slot started at 12000 decided after the first snapshot and
        # belongs to neither segment.
        out = layers.window_samples([[first], [wrapped]], EPOCH + 4_500,
                                    EPOCH + 100_000, leader=0, settle_us=0)
        self.assertEqual(out["slot_us"], [300, 800])
        self.assertEqual(out["state_segments"],
                         [(EPOCH + 4_500, EPOCH + 12_050),
                          (EPOCH + 12_050, EPOCH + 12_900)])

    def test_failover_stages(self):
        survivors = [r for r in canned_rings()
                     if r.kind == layers.STATE and r.host != 0]
        st = layers.failover_times(survivors, 0, EPOCH + 200_000)
        self.assertEqual(st["detect_ms"], 500.0)
        self.assertEqual(st["leader_ms"], 270.0)
        self.assertEqual(st["lease_ms"], 760.0)
        self.assertEqual(st["rounds_per_slot"], 1.5)

    def test_window_samples_count_each_frame_once(self):
        rings = canned_rings()
        # Two snapshots of the same rings: the second adds nothing.
        out = layers.window_samples([rings, rings], EPOCH + 4_500,
                                    EPOCH + 100_000, leader=0, settle_us=0)
        self.assertEqual(sorted(out["wire_us"]), [40, 60, 100])
        self.assertEqual(out["slot_us"], [300, 500, 800])
        self.assertEqual(len(out["hot_segments"]), 1)


class Postmortem(unittest.TestCase):
    def test_wrapped_ring_keeps_newest_in_order(self):
        hot = [(10 * i, "send", 1, 5) for i in range(6)]
        state = [(7, "suspect", 2, 0), (9, "leader_change", 1, 0)]
        blob = pm_image(1, EPOCH, 100, [(0, 4, hot), (1, 4, state)])
        rings = layers.parse_postmortem(blob)
        self.assertEqual(len(rings), 2)
        h, s = rings
        self.assertEqual([e[0] - EPOCH for e in h.events], [20, 30, 40, 50])
        self.assertEqual(h.lo, EPOCH + 20)  # wrapped: starts at its oldest
        self.assertEqual(h.hi, EPOCH + 100)
        self.assertIsNone(s.lo)             # never wrapped
        self.assertEqual([e[2] for e in s.events],
                         ["suspect", "leader_change"])
        self.assertTrue(all(e[1] == 1 for e in h.events + s.events))

    def test_rejects_truncated_image(self):
        blob = pm_image(0, EPOCH, 0, [(0, 4, [])])
        with self.assertRaises(ValueError):
            layers.parse_postmortem(blob[:-8])
        with self.assertRaises(ValueError):
            layers.parse_postmortem(b"ECFDPM01")


class Registries(unittest.TestCase):
    def test_deltas_and_histogram_means(self):
        before = [{"counters": {"kv.batches": 2, "net.sent.p1": 5},
                   "histograms": {"net.send_batch": {"count": 1, "sum": 2}}},
                  {"counters": {"kv.batches": 0}, "histograms": {}}]
        after = [{"counters": {"kv.batches": 6, "net.sent.p1": 9,
                               "net.sent.p2": 1},
                  "histograms": {"net.send_batch": {"count": 5, "sum": 14}}},
                 {"counters": {"kv.batches": 3}, "histograms": {}}]
        self.assertEqual(layers.counter_delta(before, after, "kv.batches"), 7)
        self.assertEqual(layers.prefix_delta(before, after, "net.sent.p"), 5)
        self.assertEqual(
            layers.histogram_mean(before, after, "net.send_batch"), 3.0)
        self.assertEqual(layers.percentile([5, 1, 3, 2, 4], 50), 3.0)
        self.assertEqual(layers.percentile([], 99), 0.0)


if __name__ == "__main__":
    unittest.main()
