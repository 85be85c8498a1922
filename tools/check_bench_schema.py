#!/usr/bin/env python3
"""Validate ecfd observability/benchmark JSON by SCHEMA, never by value.

Usage:
  check_bench_schema.py BASELINE.json CANDIDATE.json
  check_bench_schema.py --metrics FILE.json
  check_bench_schema.py --trace FILE.json
  check_bench_schema.py --chrome FILE.json
  check_bench_schema.py --bench-net FILE.json
  check_bench_schema.py --bench-fd-scale FILE.json
  check_bench_schema.py --bench-obs FILE.json
  check_bench_schema.py --postmortem FILE.bin

Default mode compares two ecfd.bench.v1 reports. Wall-clock benchmark
numbers move between machines and runs, so CI cannot gate on them. What CI
*can* gate on is the report shape: same schema tag, same bench name, same
table sections in the same order, same column headers, rows present with
the right arity. A refactor that silently drops a table or renames a column
fails here; a slower runner does not.

The flag modes validate a single file against the corresponding fixed
schema: --metrics checks an ecfd.metrics.v1 registry dump, --trace an
ecfd.trace.v1 typed event trace, --chrome a Chrome-trace JSON export
(the object form with "traceEvents"), --bench-net an ecfd.bench_net.v1
real-network benchmark report (bench/bench_net). The bench_net shape is
pinned here rather than diffed against a baseline because its rows carry
an availability flag: a runner without io_uring still emits all four
backend x coalesce rows, just marked available=0, and the validator
enforces exactly that invariant.

--bench-fd-scale validates the checked-in FULL report of
bench/bench_e13_scale_fd (BENCH_FD_SCALE.json): the four-section shape
with every required (stack, n) row present, plus the experiment's one
machine-independent claim — the headline per-node message-cost ratio at
n=4096, which comes from exact counts on the deterministic simulator and
must show both scalable stacks >= 10x cheaper than the flat heartbeat.
Wall-clock cells (sections 2 and 3) are checked for presence and type
only, per the schema-not-values rule above.

--bench-obs validates the checked-in bench/bench_obs report
(BENCH_OBS.json): the three-section shape (recorder_push, qos_ingest,
flight_snapshot) with every required case row present; measurement cells
are type-checked only. --postmortem validates an ecfd.postmortem.v1 crash
image byte-for-byte against the documented binary layout — an independent
reimplementation of the header/ring/metric structs from src/obs/flight.cpp,
so a C++-side layout drift that the C++ reader would silently follow still
fails CI. It prints how full the image's string region is and fails when
it is more than half full.

Exit status: 0 on match, 1 on mismatch (with a diff-style explanation on
stderr), 2 on unreadable input.
"""

import json
import sys

TRACE_EVENT_TYPES = {
    "send", "deliver", "timer_set", "timer_cancel", "drop", "suspect",
    "unsuspect", "leader_change", "round_start", "decide", "crash",
    "verdict", "note", "lease_grant", "lease_revoke", "wire_send",
    "wire_deliver",
}


def fail(msg: str) -> None:
    print(f"schema mismatch: {msg}", file=sys.stderr)
    sys.exit(1)


def load(path: str):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def check_host(doc, path: str) -> None:
    """Validates the optional 'host' block (machine facts for reading a
    report's absolute numbers; never compared across files)."""
    host = doc.get("host")
    if host is None:
        return
    if not isinstance(host, dict):
        fail(f"{path}: 'host' is not an object")
    for key in ("hardware_threads", "page_size"):
        if not isinstance(host.get(key), int) or host[key] <= 0:
            fail(f"{path}: host.{key} missing or not a positive integer")
    if host.get("build_type") not in ("release", "debug"):
        fail(f"{path}: host.build_type '{host.get('build_type')}' "
             "not 'release'/'debug'")


def table_shape(doc, path: str):
    """Reduce a report to its comparable shape."""
    for key in ("schema", "bench", "tables"):
        if key not in doc:
            fail(f"{path}: missing top-level key '{key}'")
    check_host(doc, path)
    shape = []
    for i, t in enumerate(doc["tables"]):
        for key in ("section", "headers", "rows"):
            if key not in t:
                fail(f"{path}: tables[{i}] missing '{key}'")
        if not t["rows"]:
            fail(f"{path}: tables[{i}] ('{t['section']}') has no rows")
        for j, row in enumerate(t["rows"]):
            if len(row) != len(t["headers"]):
                fail(
                    f"{path}: tables[{i}] row {j} has {len(row)} cells "
                    f"for {len(t['headers'])} headers"
                )
        shape.append((t["section"], tuple(t["headers"])))
    return doc["schema"], doc["bench"], shape


def check_metrics(path: str) -> int:
    """Validates one ecfd.metrics.v1 registry dump."""
    doc = load(path)
    if doc.get("schema") != "ecfd.metrics.v1":
        fail(f"{path}: schema tag '{doc.get('schema')}' != 'ecfd.metrics.v1'")
    if not isinstance(doc.get("source"), str) or not doc["source"]:
        fail(f"{path}: missing/empty 'source'")
    for section in ("counters", "gauges"):
        if not isinstance(doc.get(section), dict):
            fail(f"{path}: '{section}' is not an object")
        for name, v in doc[section].items():
            if not isinstance(v, int):
                fail(f"{path}: {section}['{name}'] is not an integer")
    if not isinstance(doc.get("histograms"), dict):
        fail(f"{path}: 'histograms' is not an object")
    for name, h in doc["histograms"].items():
        for key in ("count", "sum", "buckets"):
            if key not in h:
                fail(f"{path}: histograms['{name}'] missing '{key}'")
        if not isinstance(h["buckets"], list) or not all(
            isinstance(b, int) and b >= 0 for b in h["buckets"]
        ):
            fail(f"{path}: histograms['{name}'].buckets malformed")
        if sum(h["buckets"]) != h["count"]:
            fail(
                f"{path}: histograms['{name}'] bucket sum "
                f"{sum(h['buckets'])} != count {h['count']}"
            )
    print(
        f"metrics schema OK: {path}, {len(doc['counters'])} counters, "
        f"{len(doc['gauges'])} gauges, {len(doc['histograms'])} histograms"
    )
    return 0


def check_trace(path: str) -> int:
    """Validates one ecfd.trace.v1 typed event trace."""
    doc = load(path)
    if doc.get("schema") != "ecfd.trace.v1":
        fail(f"{path}: schema tag '{doc.get('schema')}' != 'ecfd.trace.v1'")
    if doc.get("source") not in ("sim", "runtime", "socket"):
        fail(f"{path}: unknown source '{doc.get('source')}'")
    if doc.get("clock") not in ("virtual", "monotonic"):
        fail(f"{path}: unknown clock '{doc.get('clock')}'")
    for key in ("wall_epoch_us", "n", "depth", "dropped"):
        if not isinstance(doc.get(key), int):
            fail(f"{path}: '{key}' missing or not an integer")
    strings = doc.get("strings")
    if not isinstance(strings, list) or not all(
        isinstance(s, str) for s in strings
    ):
        fail(f"{path}: 'strings' is not a list of strings")
    events = doc.get("events")
    if not isinstance(events, list):
        fail(f"{path}: 'events' is not a list")
    n = doc["n"]
    for i, e in enumerate(events):
        if not isinstance(e, list) or len(e) != 6:
            fail(f"{path}: events[{i}] is not a 6-element row")
        time_us, host, etype, a, b, label = e
        if not isinstance(time_us, int) or time_us < 0:
            fail(f"{path}: events[{i}] bad time {time_us!r}")
        if not isinstance(host, int) or host < -1 or host >= max(n, 1):
            fail(f"{path}: events[{i}] host {host!r} out of range for n={n}")
        if etype not in TRACE_EVENT_TYPES:
            fail(f"{path}: events[{i}] unknown type '{etype}'")
        if not isinstance(label, int) or label >= len(strings):
            fail(f"{path}: events[{i}] label {label!r} out of string table")
    print(f"trace schema OK: {path}, n={n}, {len(events)} events")
    return 0


def check_chrome(path: str) -> int:
    """Validates a Chrome-trace JSON export (the object form)."""
    doc = load(path)
    if not isinstance(doc.get("traceEvents"), list):
        fail(f"{path}: 'traceEvents' is not a list")
    if not doc["traceEvents"]:
        fail(f"{path}: empty traceEvents")
    phases = {"M", "i", "X"}
    for i, e in enumerate(doc["traceEvents"]):
        ph = e.get("ph")
        if ph not in phases:
            fail(f"{path}: traceEvents[{i}] unknown phase '{ph}'")
        if "pid" not in e:
            fail(f"{path}: traceEvents[{i}] missing 'pid'")
        if ph != "M":
            if "ts" not in e or "name" not in e:
                fail(f"{path}: traceEvents[{i}] ({ph}) missing ts/name")
            if ph == "X" and "dur" not in e:
                fail(f"{path}: traceEvents[{i}] span missing 'dur'")
    other = doc.get("otherData", {})
    if other.get("schema") != "ecfd.trace.v1":
        fail(f"{path}: otherData.schema != 'ecfd.trace.v1'")
    print(f"chrome trace OK: {path}, {len(doc['traceEvents'])} events")
    return 0


# The pinned shape of an ecfd.bench_net.v1 report: section -> headers.
# bench_net always emits one row per {poll,uring} x {single,coalesced}
# combination; rows where the backend cannot run carry available=0.
BENCH_NET_SECTIONS = (
    ("pair_throughput",
     ("backend", "coalesce", "available", "frames", "frames_per_s",
      "p50_us", "p99_us")),
    ("storm",
     ("backend", "coalesce", "available", "nodes", "frames",
      "frames_per_s", "dgrams_per_frame")),
    ("coalescing_ablation",
     ("backend", "coalesce", "available", "period_ms",
      "dgrams_per_peer_tick", "detect_ms")),
)
BENCH_NET_COMBOS = (("poll", 0), ("poll", 1), ("uring", 0), ("uring", 1))


def check_bench_net(path: str) -> int:
    """Validates one ecfd.bench_net.v1 real-network benchmark report."""
    doc = load(path)
    if doc.get("schema") != "ecfd.bench_net.v1":
        fail(f"{path}: schema tag '{doc.get('schema')}' != 'ecfd.bench_net.v1'")
    if doc.get("bench") != "bench_net":
        fail(f"{path}: bench name '{doc.get('bench')}' != 'bench_net'")
    check_host(doc, path)
    tables = doc.get("tables")
    if not isinstance(tables, list) or len(tables) != len(BENCH_NET_SECTIONS):
        got = len(tables) if isinstance(tables, list) else type(tables).__name__
        fail(f"{path}: expected {len(BENCH_NET_SECTIONS)} tables, got {got}")
    for i, ((section, headers), t) in enumerate(zip(BENCH_NET_SECTIONS, tables)):
        if t.get("section") != section:
            fail(f"{path}: tables[{i}] section '{t.get('section')}' "
                 f"!= '{section}'")
        if tuple(t.get("headers", ())) != headers:
            fail(f"{path}: tables[{i}] ('{section}') headers "
                 f"{t.get('headers')} != {list(headers)}")
        rows = t.get("rows")
        if not isinstance(rows, list) or len(rows) != len(BENCH_NET_COMBOS):
            fail(f"{path}: tables[{i}] ('{section}') must have exactly "
                 f"{len(BENCH_NET_COMBOS)} rows (one per backend x coalesce)")
        for j, row in enumerate(rows):
            if len(row) != len(headers):
                fail(f"{path}: tables[{i}] row {j} has {len(row)} cells "
                     f"for {len(headers)} headers")
            backend, coalesce = BENCH_NET_COMBOS[j]
            if row[0] != backend or row[1] != coalesce:
                fail(f"{path}: tables[{i}] row {j} is "
                     f"({row[0]!r}, {row[1]!r}), expected "
                     f"({backend!r}, {coalesce})")
            if row[2] not in (0, 1):
                fail(f"{path}: tables[{i}] row {j} available={row[2]!r} "
                     "not in {0, 1}")
            for cell in row[3:]:
                if not isinstance(cell, (int, float)):
                    fail(f"{path}: tables[{i}] row {j} non-numeric "
                         f"measurement {cell!r}")
    avail = sum(r[2] for r in tables[0]["rows"])
    print(f"bench_net schema OK: {path}, {len(tables)} sections, "
          f"{avail}/{len(BENCH_NET_COMBOS)} combos available")
    return 0


# The pinned shape of the full bench_e13_scale_fd report: per section, the
# headers and the (stack, n) rows it must contain. Sections 2/3 carry
# wall-clock or machine-local numbers, so only presence and numeric type
# are enforced; section 1 and the headline come from exact deterministic
# counts, which is why the 10x ratio gate below is safe in CI.
FD_SCALE_MIN_RATIO = 10.0
FD_SCALE_SECTIONS = (
    ("E13 steady-state message cost (deterministic sim)",
     ("stack", "n", "period_ms", "msgs_per_node_per_period",
      "msgs_per_node_per_sec", "total_msgs"),
     (("heartbeat_p", 256), ("heartbeat_p", 1024), ("heartbeat_p", 4096),
      ("efficient_p", 256), ("efficient_p", 1024), ("efficient_p", 4096),
      ("hier_c", 256), ("hier_c", 1024), ("hier_c", 4096),
      ("hier_c", 16384),
      ("swim", 256), ("swim", 1024), ("swim", 4096), ("swim", 16384))),
    ("E13 detection latency (threaded runtime)",
     ("stack", "n", "period_ms", "detect_first_ms", "detect_p50_ms",
      "detect_max_ms", "detected", "observers", "msgs_per_node_per_sec"),
     (("heartbeat_p", 256), ("heartbeat_p", 1024),
      ("hier_c", 256), ("hier_c", 1024),
      ("swim", 256), ("swim", 1024))),
    ("E13 per-host memory (threaded runtime, constructed stacks)",
     ("stack", "n", "heap_mb", "kb_per_host"),
     (("heartbeat_p", 256), ("heartbeat_p", 1024), ("heartbeat_p", 4096),
      ("heartbeat_p", 16384),
      ("hier_c", 256), ("hier_c", 1024), ("hier_c", 4096),
      ("hier_c", 16384),
      ("swim", 256), ("swim", 1024), ("swim", 4096), ("swim", 16384))),
    ("E13 headline: per-node message cost at n=4096",
     ("stack", "msgs_per_node_per_period", "flat_ratio"),
     (("heartbeat_p", None), ("hier_c", None), ("swim", None))),
)


def check_bench_fd_scale(path: str) -> int:
    """Validates the checked-in bench_e13_scale_fd full report."""
    doc = load(path)
    if doc.get("schema") != "ecfd.bench.v1":
        fail(f"{path}: schema tag '{doc.get('schema')}' != 'ecfd.bench.v1'")
    if doc.get("bench") != "e13_scale_fd":
        fail(f"{path}: bench name '{doc.get('bench')}' != 'e13_scale_fd'")
    check_host(doc, path)
    tables = doc.get("tables")
    if not isinstance(tables, list) or len(tables) != len(FD_SCALE_SECTIONS):
        got = len(tables) if isinstance(tables, list) else type(tables).__name__
        fail(f"{path}: expected {len(FD_SCALE_SECTIONS)} tables "
             f"(full-mode report), got {got}")
    for i, ((section, headers, required), t) in enumerate(
        zip(FD_SCALE_SECTIONS, tables)
    ):
        if t.get("section") != section:
            fail(f"{path}: tables[{i}] section '{t.get('section')}' "
                 f"!= '{section}'")
        if tuple(t.get("headers", ())) != headers:
            fail(f"{path}: tables[{i}] ('{section}') headers "
                 f"{t.get('headers')} != {list(headers)}")
        rows = t.get("rows")
        if not isinstance(rows, list):
            fail(f"{path}: tables[{i}] ('{section}') rows missing")
        seen = {}
        for j, row in enumerate(rows):
            if len(row) != len(headers):
                fail(f"{path}: tables[{i}] row {j} has {len(row)} cells "
                     f"for {len(headers)} headers")
            for cell in row[1:]:
                if not isinstance(cell, (int, float)):
                    fail(f"{path}: tables[{i}] row {j} non-numeric "
                         f"measurement {cell!r}")
            key = (row[0], row[1] if "n" in headers else None)
            seen[key] = row
        for key in required:
            if key not in seen:
                fail(f"{path}: tables[{i}] ('{section}') missing required "
                     f"row {key}")
    # The experiment's headline claim, from exact deterministic counts:
    # both scalable stacks >= FD_SCALE_MIN_RATIO x cheaper per node than
    # the flat heartbeat at n=4096.
    head = {r[0]: r for r in tables[3]["rows"]}
    for stack in ("hier_c", "swim"):
        ratio = head[stack][2]
        if ratio < FD_SCALE_MIN_RATIO:
            fail(f"{path}: headline flat_ratio for {stack} is {ratio}, "
                 f"must be >= {FD_SCALE_MIN_RATIO}")
    # Strong completeness at scale: every detection-latency row must show
    # all observers detecting the crash within the bench deadline.
    for row in tables[1]["rows"]:
        detected, observers = row[6], row[7]
        if detected != observers:
            fail(f"{path}: detection row {row[0]} n={row[1]} has "
                 f"{detected}/{observers} observers detecting the crash")
    ratios = {s: round(head[s][2], 1) for s in ("hier_c", "swim")}
    print(f"bench_fd_scale schema OK: {path}, {len(tables)} sections, "
          f"n=4096 flat ratios {ratios}")
    return 0


# The pinned shape of the bench_obs report (BENCH_OBS.json): per section,
# the headers and the leading cells of every required row. Wall-clock
# costs move between machines, so only presence and numeric type of the
# measurement cells are enforced.
BENCH_OBS_SECTIONS = (
    ("recorder_push",
     ("case", "threads", "ops", "ns_op"),
     (("hot_push",), ("disabled_push",), ("contended_push",))),
    ("qos_ingest",
     ("case", "n", "ops", "ns_op"),
     (("ingest",), ("export_gauges",))),
    ("flight_snapshot",
     ("case", "depth", "ops", "us_op"),
     (("snapshot", 1024), ("crash_dump", 1024),
      ("snapshot", 4096), ("crash_dump", 4096),
      ("snapshot", 16384), ("crash_dump", 16384))),
)


def check_bench_obs(path: str) -> int:
    """Validates the checked-in bench_obs report."""
    doc = load(path)
    if doc.get("schema") != "ecfd.bench.v1":
        fail(f"{path}: schema tag '{doc.get('schema')}' != 'ecfd.bench.v1'")
    if doc.get("bench") != "obs":
        fail(f"{path}: bench name '{doc.get('bench')}' != 'obs'")
    check_host(doc, path)
    tables = doc.get("tables")
    if not isinstance(tables, list) or len(tables) != len(BENCH_OBS_SECTIONS):
        got = len(tables) if isinstance(tables, list) else type(tables).__name__
        fail(f"{path}: expected {len(BENCH_OBS_SECTIONS)} tables, got {got}")
    for i, ((section, headers, required), t) in enumerate(
        zip(BENCH_OBS_SECTIONS, tables)
    ):
        if t.get("section") != section:
            fail(f"{path}: tables[{i}] section '{t.get('section')}' "
                 f"!= '{section}'")
        if tuple(t.get("headers", ())) != headers:
            fail(f"{path}: tables[{i}] ('{section}') headers "
                 f"{t.get('headers')} != {list(headers)}")
        rows = t.get("rows")
        if not isinstance(rows, list):
            fail(f"{path}: tables[{i}] ('{section}') rows missing")
        seen = set()
        for j, row in enumerate(rows):
            if len(row) != len(headers):
                fail(f"{path}: tables[{i}] row {j} has {len(row)} cells "
                     f"for {len(headers)} headers")
            for cell in row[1:]:
                if not isinstance(cell, (int, float)):
                    fail(f"{path}: tables[{i}] row {j} non-numeric "
                         f"measurement {cell!r}")
            seen.add(tuple(row[:len(required[0])]))
        for key in required:
            if key not in seen:
                fail(f"{path}: tables[{i}] ('{section}') missing required "
                     f"row {key}")
    print(f"bench_obs schema OK: {path}, {len(tables)} sections")
    return 0


# ecfd.postmortem.v1 binary layout, mirrored from src/obs/flight.cpp (the
# structs there carry static_asserts pinning these sizes). Little-endian,
# naturally aligned.
PM_MAGIC = b"ECFDPM01"
PM_HEADER_FMT = "<8sIIiiqqqqQQII16sIIIIIIIII"  # 136 bytes
PM_HEADER_BYTES = 136
PM_RING_DESC_FMT = "<iIQQ"   # host, kind, depth, head = 24 bytes
PM_RING_DESC_BYTES = 24
PM_METRIC_FMT = "<I52sq"     # kind, name, value = 64 bytes
PM_METRIC_BYTES = 64
PM_RAW_EVENT_FMT = "<qqiiII"  # time, b, a, label, type, pad = 32 bytes
PM_RAW_EVENT_BYTES = 32
PM_NUM_EVENT_TYPES = 18


def check_postmortem(path: str) -> int:
    """Validates one ecfd.postmortem.v1 crash image structurally, without
    going through the C++ reader: an independent check that the on-disk
    layout still matches the documented format."""
    import struct

    try:
        with open(path, "rb") as f:
            blob = f.read()
    except OSError as e:
        print(f"cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    if len(blob) < PM_HEADER_BYTES:
        fail(f"{path}: {len(blob)} bytes is smaller than the header")
    (magic, version, header_bytes, node, n, wall_epoch_us, crash_time_us,
     base_env_time_us, base_mono_us, snapshot_count, file_bytes,
     crash_signal, clock, source, strings_off, strings_cap, strings_len,
     string_count, metrics_off, metrics_cap, metrics_count, rings_off,
     ring_count) = struct.unpack_from(PM_HEADER_FMT, blob, 0)
    if magic != PM_MAGIC:
        fail(f"{path}: magic {magic!r} != {PM_MAGIC!r}")
    if version != 1:
        fail(f"{path}: version {version} != 1")
    if header_bytes != PM_HEADER_BYTES:
        fail(f"{path}: header_bytes {header_bytes} != {PM_HEADER_BYTES}")
    if file_bytes != len(blob):
        fail(f"{path}: header says {file_bytes} bytes, file has {len(blob)}")
    if node < 0 or n <= 0 or node >= n:
        fail(f"{path}: node {node} out of range for n={n}")
    if clock not in (0, 1):
        fail(f"{path}: clock {clock} not 0 (virtual) / 1 (monotonic)")
    src = source.split(b"\0", 1)[0].decode("ascii", "replace")
    if not src:
        fail(f"{path}: empty source string")
    if snapshot_count == 0:
        fail(f"{path}: snapshot_count is 0 (open() always dumps once)")
    if strings_len > strings_cap or strings_off + strings_len > len(blob):
        fail(f"{path}: string table [{strings_off}, +{strings_len}] "
             "out of bounds")
    # Labels are interned once per distinct string; a region filling up
    # means something interns per event, and labels interned after it is
    # full render blank.
    if 2 * strings_len > strings_cap:
        fail(f"{path}: string region {strings_len}/{strings_cap} bytes "
             "is more than half full")
    if metrics_count > metrics_cap:
        fail(f"{path}: metrics_count {metrics_count} > cap {metrics_cap}")
    if metrics_off + metrics_count * PM_METRIC_BYTES > len(blob):
        fail(f"{path}: metrics region out of bounds")
    for i in range(metrics_count):
        kind, name, _value = struct.unpack_from(
            PM_METRIC_FMT, blob, metrics_off + i * PM_METRIC_BYTES)
        if kind not in (0, 1):
            fail(f"{path}: metric[{i}] kind {kind} not counter/gauge")
        if b"\0" not in name:
            fail(f"{path}: metric[{i}] name not NUL-terminated")
    if ring_count == 0:
        fail(f"{path}: no rings persisted")
    events = 0
    off = rings_off
    for i in range(ring_count):
        if off + PM_RING_DESC_BYTES > len(blob):
            fail(f"{path}: ring[{i}] descriptor out of bounds")
        host, kind, depth, head = struct.unpack_from(
            PM_RING_DESC_FMT, blob, off)
        if host < -1 or host >= n:
            fail(f"{path}: ring[{i}] host {host} out of range for n={n}")
        if kind not in (0, 1, 2):
            fail(f"{path}: ring[{i}] kind {kind} not hot/state/system")
        if depth == 0 or depth & (depth - 1):
            fail(f"{path}: ring[{i}] depth {depth} not a power of two")
        off += PM_RING_DESC_BYTES
        if off + depth * PM_RAW_EVENT_BYTES > len(blob):
            fail(f"{path}: ring[{i}] slots out of bounds")
        live = min(head, depth)
        for j in range(live):
            _t, _b, _a, _label, etype, _pad = struct.unpack_from(
                PM_RAW_EVENT_FMT, blob, off + j * PM_RAW_EVENT_BYTES)
            if etype >= PM_NUM_EVENT_TYPES:
                fail(f"{path}: ring[{i}] slot {j} event type {etype} "
                     f"out of range")
        events += live
        off += depth * PM_RAW_EVENT_BYTES
    death = (f"signal {crash_signal}" if crash_signal else "orderly close")
    print(f"postmortem OK: {path}, node {node}/{n}, source '{src}', "
          f"{ring_count} rings, {events} events, {snapshot_count} "
          f"snapshots, strings {strings_len}/{strings_cap} bytes "
          f"({string_count} strings), {death}")
    return 0


def main() -> int:
    if len(sys.argv) == 3 and sys.argv[1] in (
        "--metrics", "--trace", "--chrome", "--bench-net", "--bench-fd-scale",
        "--bench-obs", "--postmortem"
    ):
        mode, path = sys.argv[1], sys.argv[2]
        if mode == "--metrics":
            return check_metrics(path)
        if mode == "--trace":
            return check_trace(path)
        if mode == "--bench-net":
            return check_bench_net(path)
        if mode == "--bench-fd-scale":
            return check_bench_fd_scale(path)
        if mode == "--bench-obs":
            return check_bench_obs(path)
        if mode == "--postmortem":
            return check_postmortem(path)
        return check_chrome(path)
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base_path, cand_path = sys.argv[1], sys.argv[2]
    b_schema, b_bench, b_shape = table_shape(load(base_path), base_path)
    c_schema, c_bench, c_shape = table_shape(load(cand_path), cand_path)

    if b_schema != c_schema:
        fail(f"schema tag '{c_schema}' != baseline '{b_schema}'")
    if b_bench != c_bench:
        fail(f"bench name '{c_bench}' != baseline '{b_bench}'")
    if len(b_shape) != len(c_shape):
        fail(f"{len(c_shape)} tables vs baseline's {len(b_shape)}")
    for i, ((bs, bh), (cs, ch)) in enumerate(zip(b_shape, c_shape)):
        if bs != cs:
            fail(f"tables[{i}] section '{cs}' != baseline '{bs}'")
        if bh != ch:
            fail(f"tables[{i}] ('{bs}') headers {list(ch)} != baseline {list(bh)}")
    print(f"schema OK: {c_bench}, {len(c_shape)} tables match {base_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
