"""Per-layer figures from the nodes' own records.

Inputs are what `ecfd_node` already writes: ecfd.metrics.v1 registries
(scraped over /metrics.json) and the typed event rings, read from its
ecfd.postmortem.v1 flight image (the node refreshes it every report period,
and it survives SIGKILL). Everything here is a pure function of those
inputs, so kvbench/test_layers.py can check it on a canned trace.

Ring coverage: a node's rings hold its last 4096 events per ring, so a ring
that has wrapped says nothing about time before its oldest event. Every
figure drawn from events is computed only over the window that all the
rings it reads still cover (`common_window`).
"""

import statistics
import struct

EVENT_TYPES = [
    "none", "send", "deliver", "timer_set", "timer_cancel", "suspect",
    "unsuspect", "leader_change", "round_start", "decide", "crash", "drop",
    "verdict", "note", "lease_grant", "lease_revoke", "wire_send",
    "wire_deliver",
]
HOT_TYPES = {"send", "deliver", "timer_set", "timer_cancel", "drop",
             "wire_send", "wire_deliver"}
HOT, STATE = 0, 1

# ecfd.postmortem.v1 layout (src/obs/flight.cpp pins it with static_asserts).
PM_MAGIC = b"ECFDPM01"
PM_HEADER = struct.Struct("<8sIIiiqqqqQQII16sIIIIIIIII")
PM_RING_DESC = struct.Struct("<iIQQ")
PM_EVENT = struct.Struct("<qqiiII")


class Ring:
    """One event ring of one host. Events are (wall_us, host, type, a, b),
    oldest first. [lo, hi] is the wall-clock span the ring is known to
    cover; lo is None when the ring never wrapped (it covers everything
    since the node started)."""

    def __init__(self, host, kind, events, lo, hi):
        self.host, self.kind, self.events = host, kind, events
        self.lo, self.hi = lo, hi


def parse_postmortem(blob):
    """Rings of one ecfd.postmortem.v1 image (hot and state; the system
    ring is empty on a node). Raises ValueError on a malformed image."""
    if len(blob) < PM_HEADER.size:
        raise ValueError("postmortem image shorter than its header")
    h = PM_HEADER.unpack_from(blob, 0)
    magic, version, node, epoch = h[0], h[1], h[3], h[5]
    base_env_us, file_bytes, rings_off, ring_count = h[7], h[10], h[21], h[22]
    if magic != PM_MAGIC or version != 1 or file_bytes != len(blob):
        raise ValueError("not an ecfd.postmortem.v1 image")
    rings = []
    off = rings_off
    for _ in range(ring_count):
        host, kind, depth, head = PM_RING_DESC.unpack_from(blob, off)
        off += PM_RING_DESC.size
        if off + depth * PM_EVENT.size > len(blob):
            raise ValueError("ring slots out of bounds")
        events = []
        for seq in range(max(0, head - depth), head):
            t, b, a, _label, etype, _ = PM_EVENT.unpack_from(
                blob, off + (seq % depth) * PM_EVENT.size)
            if etype == 0 or etype >= len(EVENT_TYPES):
                continue
            events.append((t + epoch, node, EVENT_TYPES[etype], a, b))
        off += depth * PM_EVENT.size
        if kind in (HOT, STATE):
            lo = events[0][0] if head > depth and events else None
            rings.append(Ring(node, kind, events, lo, base_env_us + epoch))
    return rings


def common_window(rings, lo, hi):
    """[lo, hi] narrowed to the span every ring covers; None if empty."""
    for r in rings:
        if r.lo is not None:
            lo = max(lo, r.lo)
        hi = min(hi, r.hi)
    return (lo, hi) if hi > lo else None


def wire_latencies(hot_rings, window):
    """One-way wire delays (us) of peer frames sent inside `window`: each
    wire_send (a = dst, b = causal seq) matched to the receiver's
    wire_deliver (a = src, b = the same seq)."""
    if window is None:
        return []
    lo, hi = window
    sent = {}
    for r in hot_rings:
        for t, host, etype, a, b in r.events:
            if etype == "wire_send" and lo <= t <= hi:
                sent[(host, a, b)] = t
    out = []
    for r in hot_rings:
        for t, host, etype, a, b in r.events:
            if etype == "wire_deliver":
                t0 = sent.get((a, host, b))
                if t0 is not None:
                    out.append(t - t0)
    return out


def slot_latencies(leader_state, window, in_flight=None):
    """Leader-side consensus time per log slot (us), for slots whose
    round-1 round_start lies inside `window` = [lo, hi], to the matching
    decide. Returns (latencies, slots in flight at hi).

    Events carry no slot number, so starts and decides are paired first in,
    first out: the mean is exact, single pairs may swap when slots decide
    out of order. The first decides at or after lo belong to the slots
    still in flight at lo. `in_flight` is that count when the caller knows
    it (from an earlier snapshot); otherwise it is counted from the ring's
    events before lo, which needs a ring that never wrapped (it then holds
    every slot since the node started). Returns (None, None) when the count
    is unknown."""
    lo, hi = window
    if in_flight is None:
        if leader_state.lo is not None:
            return None, None
        in_flight = 0
        for t, _host, etype, a, _b in leader_state.events:
            if t >= lo:
                break
            if etype == "round_start" and a == 1:
                in_flight += 1
            elif etype == "decide":
                in_flight -= 1
    skip = running = in_flight
    starts, decides = [], []
    for t, _host, etype, a, _b in leader_state.events:
        if t < lo:
            continue
        if etype == "round_start" and a == 1 and t <= hi:
            starts.append(t)
            running += 1
        elif etype == "decide":
            if t <= hi:
                running -= 1
            if skip:
                skip -= 1
            else:
                decides.append(t)
    return [d - s for s, d in zip(starts, decides)], running


def window_samples(snapshots, lo, hi, leader, settle_us=20_000,
                   in_flight_at_lo=None):
    """Wire and slot latencies over [lo, hi] from successive snapshots of
    every node's rings (a list, oldest first, of lists of Rings).

    Each snapshot contributes the part of its common window that is newer
    than what the previous snapshot contributed, so no frame or slot counts
    twice; the last settle_us of a snapshot is left to the next one, so a
    frame or slot still in flight when it was taken is not lost.

    Slot pairing needs the leader's slots in flight at each segment's start
    (see slot_latencies). It is in_flight_at_lo for the first segment, when
    the caller knows it (0 for a window begun on an idle log), and the
    count at the end of the previous segment after that, so a state ring
    that has wrapped since still pairs correctly. A segment whose count is
    unknown is left uncovered. Returns the samples and the covered segments
    per ring kind."""
    out = {"wire_us": [], "slot_us": [], "hot_segments": [],
           "state_segments": []}
    done = {"hot": lo, "state": lo}
    in_flight = in_flight_at_lo  # at done["state"], if known
    for rings in snapshots:
        groups = {
            "hot": [r for r in rings if r.kind == HOT],
            "state": [r for r in rings if r.kind == STATE
                      and r.host == leader],
        }
        for kind, group in groups.items():
            if not group:
                continue
            win = common_window(group, done[kind],
                                min(hi, min(r.hi for r in group) - settle_us))
            if win is None:
                continue
            if kind == "hot":
                out["wire_us"] += wire_latencies(group, win)
            else:
                known = in_flight if win[0] == done["state"] else None
                slots, carry = slot_latencies(group[0], win, known)
                if slots is None:
                    continue  # not covered: slots in flight at lo unknown
                out["slot_us"] += slots
                in_flight = carry
            done[kind] = win[1]
            out[kind + "_segments"].append(win)
    return out


def failover_times(survivor_state, victim, kill_us):
    """Stage times (ms) after the victim was killed at wall time kill_us,
    from the survivors' state rings:
      detect  first survivor suspects the victim
      leader  last survivor's leader_change to a live node
      lease   the new leader's lease_grant
    and rounds_per_slot, the mean decide round of slots decided after the
    kill (the paper predicts 1 once the detector has stabilised)."""
    detect, leader, lease, rounds = [], {}, [], []
    for r in survivor_state:
        for t, host, etype, a, _b in r.events:
            if t < kill_us:
                continue
            if etype == "suspect" and a == victim:
                detect.append(t)
            elif etype == "leader_change" and a != victim:
                leader.setdefault(host, t)
            elif etype == "lease_grant":
                lease.append(t)
            elif etype == "decide":
                rounds.append(a)

    def ms(ts):
        return (min(ts) - kill_us) / 1000.0 if ts else None

    return {
        "detect_ms": ms(detect),
        "leader_ms": (max(leader.values()) - kill_us) / 1000.0
        if leader else None,
        "lease_ms": ms(lease),
        "rounds_per_slot": statistics.fmean(rounds) if rounds else None,
    }


def counter_delta(before, after, name):
    """Sum over nodes of a counter's growth between two scrapes (lists of
    ecfd.metrics.v1 documents, one per node)."""
    return sum(a["counters"].get(name, 0) - b["counters"].get(name, 0)
               for b, a in zip(before, after))


def prefix_delta(before, after, prefix):
    """counter_delta summed over every counter whose name starts with
    prefix (e.g. the per-peer net.sent.pN family)."""
    names = set()
    for doc in after:
        names.update(k for k in doc["counters"] if k.startswith(prefix))
    return sum(counter_delta(before, after, k) for k in names)


def histogram_mean(before, after, name):
    """Mean observed value of a histogram over the interval, all nodes."""
    count = total = 0
    for b, a in zip(before, after):
        hb = b.get("histograms", {}).get(name, {"count": 0, "sum": 0})
        ha = a.get("histograms", {}).get(name, {"count": 0, "sum": 0})
        count += ha["count"] - hb["count"]
        total += ha["sum"] - hb["sum"]
    return total / count if count else 0.0


def percentile(values, p):
    """Nearest-rank percentile; 0 for an empty sample."""
    if not values:
        return 0.0
    v = sorted(values)
    rank = max(1, -(-len(v) * p // 100))
    return float(v[min(len(v), int(rank)) - 1])
