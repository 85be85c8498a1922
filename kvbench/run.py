#!/usr/bin/env python3
"""KV benchmark: what a user of ecfd-kv pays, on a real 3-node UDP cluster.

    python3 kvbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of an ecfd checkout. The first run builds the cluster
daemon (tools/ecfd_node.cpp) and the load generator (kvbench/load.cpp) from
source, in Release, under $CARGO_TARGET_DIR (default .bench_build).

A run starts CYCLES fresh clusters of three `ecfd_node --kv` processes
(fd = ecfd, the paper's stack) on loopback UDP with no injected loss or
delay, one after the other, and reports the median over clusters of each
figure. Nodes are children of this script: wait4() reaps them and gives
their peak RSS, and the kernel's per-task runtime their CPU inside the
window. One generator process (kvbench_load) drives them through
kv::KvClient, one thread per session. A cluster's life:

  setup     spawn until the first acked write and the first lease read
  window    the workload's load, for --seconds / CYCLES
  read-back every acked write is read back; a lost one fails the run
  failover  open loop, 50% reads; the node reporting "leader":true is
            SIGKILLed and the schedule runs on until a survivor has acked
            a write and served a lease read
  read-back again, on the survivors

--trace 0 prints the end-to-end metrics. --trace 1 runs the workload once
untraced and once with the nodes' recorders on (flight images + live
/metrics.json) and prints the per-layer metrics and the tracing overhead.
The last stdout line is the result object; earlier lines describe the host
and the trace windows the per-layer figures were computed over.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
import urllib.request

sys.dont_write_bytecode = True  # leave nothing in the checkout
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import layers  # noqa: E402

SESSIONS = min(4, os.cpu_count() or 1)
REPORT_MS = 100          # node report period; also refreshes flight images
FAILOVER_RATE = 400.0    # ops/s, open loop, well below kv_write capacity
KILL_AFTER_MS = 300      # into the failover phase
LINGER_MS = 200          # after recovery, before the phase ends
FAILOVER_CAP_MS = 8000   # a failover that takes longer fails the run
SAMPLE_MS = 200          # flight-image copies during a traced window
CYCLES = 5               # fresh clusters per run, each set up and killed
# Time limit of one cluster beyond its window: setup, read tail, read-backs
# and a failover of up to FAILOVER_CAP_MS. A hung cluster trips it.
CYCLE_LIMIT_S = FAILOVER_CAP_MS // 1000 + 4
TAGS = ("win", "reads", "fo", "rb", "rbk")  # generator sample pools
READ_TAIL_MS = 1000      # read-mostly phase after a write-only window

# The workloads. Keys are per session; zipf 0 means uniform.
WORKLOADS = {
    "kv_write": dict(loop="closed", read_pct=0, zipf=0.0, keys=1000,
                     backend="poll"),
    "kv_read": dict(loop="closed", read_pct=95, zipf=0.99, keys=1000,
                    backend="poll"),
    "kv_mixed_uring": dict(loop="closed", read_pct=50, zipf=0.0, keys=1000,
                           backend="uring"),
    "failover": dict(loop="open", read_pct=50, zipf=0.0, keys=1000,
                     backend="poll"),
}


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def mono_us():
    return time.monotonic_ns() // 1000


# ----------------------------------------------------------------- build

def build(root, bench_dir):
    """Configures and builds kvbench/CMakeLists.txt in Release; returns
    (node binary, generator binary). Exits 2 when the checkout lacks the
    sources or the build fails."""
    for need in ("src/CMakeLists.txt", "tools/ecfd_node.cpp"):
        if not os.path.isfile(os.path.join(root, need)):
            log(f"kvbench: {need} missing; run from the root of a checkout")
            sys.exit(2)
    out = os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                            ".bench_build"), "kvbench")
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "build.log"), "w") as lf:
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps = [["cmake", "-S", bench_dir, "-B", out, *gen,
                  "-DCMAKE_BUILD_TYPE=Release"],
                 ["cmake", "--build", out, "-j", str(os.cpu_count() or 1)]]
        for cmd in steps:
            if subprocess.call(cmd, stdout=lf, stderr=subprocess.STDOUT) != 0:
                log(f"kvbench: build failed; see {lf.name}")
                sys.exit(2)
    node, load = os.path.join(out, "ecfd_node"), os.path.join(out,
                                                              "kvbench_load")
    build_type = ""
    with open(os.path.join(out, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1].strip()
    info = json.loads(subprocess.check_output([load, "--build-info"]))
    if build_type != "Release" or not info.get("optimized"):
        log(f"kvbench: refusing a non-Release build ({build_type!r})")
        sys.exit(2)
    return node, load, out


def host_block():
    return {"hardware_threads": os.cpu_count(), "kernel": platform.release(),
            "machine": platform.machine(), "python": platform.python_version(),
            "page_size": os.sysconf("SC_PAGE_SIZE"), "build_type": "Release",
            "sessions": SESSIONS}


# --------------------------------------------------------------- cluster

def free_ports(count, kind):
    """Ports the kernel just confirmed free (bound, then released)."""
    socks = []
    try:
        for _ in range(count):
            s = socket.socket(socket.AF_INET, kind)
            s.bind(("127.0.0.1", 0))
            socks.append(s)
        return [s.getsockname()[1] for s in socks]
    finally:
        for s in socks:
            s.close()


class Cluster:
    """Three ecfd_node --kv children on loopback UDP."""

    def __init__(self, node_bin, rundir, name, backend, seed, traced):
        self.dir = os.path.join(rundir, name)
        os.makedirs(self.dir)
        self.ports = free_ports(3, socket.SOCK_DGRAM)
        self.http = free_ports(3, socket.SOCK_STREAM) if traced else []
        ini = os.path.join(self.dir, "cluster.ini")
        with open(ini, "w") as f:
            f.write(f"[cluster]\nseed = {seed}\nfd = ecfd\nperiod_ms = 50\n"
                    "initial_timeout_ms = 250\ntimeout_increment_ms = 100\n"
                    f"backend = {backend}\n\n[kv]\nenabled = 1\n"
                    "capacity = 16384\npipeline_depth = 4\n"
                    "batch_max_ops = 64\nbatch_wait_ms = 2\n"
                    "lease_establish_ms = 500\nsnapshot_every = 64\n"
                    "dedup_window = 64\n\n[peers]\n")
            for i, p in enumerate(self.ports):
                f.write(f"{i} = 127.0.0.1:{p}\n")
        self.latest = [None] * 3
        self.backends_seen = set()
        self.lock = threading.Lock()
        self.procs, self.readers, self.rusage, self.dead = [], [], {}, set()
        self.t_spawn = mono_us()
        for i in range(3):
            cmd = [node_bin, "--config", ini, "--id", str(i), "--kv",
                   "--report-ms", str(REPORT_MS)]
            if traced:
                cmd += ["--metrics-port", str(self.http[i]),
                        "--postmortem", self.pm_path(i)]
            err = open(os.path.join(self.dir, f"node{i}.err"), "w")
            p = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                 text=True)
            err.close()
            self.procs.append(p)
            t = threading.Thread(target=self._read, args=(i, p), daemon=True)
            t.start()
            self.readers.append(t)

    def pm_path(self, i):
        return os.path.join(self.dir, f"node{i}.pm")

    def _read(self, i, p):
        for line in p.stdout:
            try:
                rep = json.loads(line)
            except ValueError:
                continue
            with self.lock:
                self.latest[i] = rep
                self.backends_seen.add(rep.get("backend"))

    def servers(self):
        return ",".join(f"127.0.0.1:{p}" for p in self.ports)

    def leader(self):
        """The one live node whose latest report says "leader":true."""
        deadline = time.monotonic() + 2.0
        while time.monotonic() < deadline:
            with self.lock:
                ids = [i for i, r in enumerate(self.latest)
                       if i not in self.dead and r is not None
                       and r.get("kv", {}).get("leader")]
            if len(ids) == 1:
                return ids[0]
            time.sleep(REPORT_MS / 2000.0)
        raise RuntimeError("no single leader in the node reports")

    def scrape(self):
        docs = []
        for port in self.http:
            url = f"http://127.0.0.1:{port}/metrics.json"
            with urllib.request.urlopen(url, timeout=5) as resp:
                docs.append(json.loads(resp.read()))
        return docs

    def read_flight(self, i):
        """Node i's flight image, read until two reads agree, so a refresh
        in progress is never seen half-written."""
        for _ in range(20):
            with open(self.pm_path(i), "rb") as f:
                a = f.read()
            with open(self.pm_path(i), "rb") as f:
                b = f.read()
            if a == b:
                return a
            time.sleep(0.002)
        raise RuntimeError(f"flight image of node {i} never settled")

    def flight_rings(self, ids):
        return [r for i in ids
                for r in layers.parse_postmortem(self.read_flight(i))]

    def sample_flight(self, stop, out):
        """Appends a copy of all three flight images to `out` every
        SAMPLE_MS until `stop` is set, and once more after. A ring spans
        well under a second of a busy window, so one copy at the end would
        see only the window's tail."""
        while not stop.wait(SAMPLE_MS / 1000.0):
            out.append([self.read_flight(i) for i in range(3)])
        out.append([self.read_flight(i) for i in range(3)])

    def stop(self):
        """SIGTERM the survivors, reap every child with wait4()."""
        for i, p in enumerate(self.procs):
            if i not in self.dead:
                try:
                    p.send_signal(signal.SIGTERM)
                except ProcessLookupError:
                    pass
        for i, p in enumerate(self.procs):
            if p.returncode is not None:
                continue
            _, status, ru = os.wait4(p.pid, 0)
            p.returncode = status  # reaped here; keeps Popen from waiting
            self.rusage[i] = ru
        for t in self.readers:
            t.join(timeout=2)
        for p in self.procs:
            p.stdout.close()

    def cpu_ns(self):
        """On-CPU time of each node so far, from the kernel's per-task
        runtime (ns) summed over the node's threads."""
        out = []
        for p in self.procs:
            total = 0
            task_dir = f"/proc/{p.pid}/task"
            for tid in os.listdir(task_dir):
                try:
                    with open(f"{task_dir}/{tid}/schedstat") as f:
                        total += int(f.read().split()[0])
                except (FileNotFoundError, ProcessLookupError):
                    pass  # the thread exited between listdir and open
            out.append(total)
        return out

    def max_rss_mb(self):
        return max(ru.ru_maxrss for ru in self.rusage.values()) / 1024.0


class Generator:
    """The kvbench_load child, one JSON reply per command."""

    def __init__(self, load_bin):
        self.p = subprocess.Popen([load_bin], stdin=subprocess.PIPE,
                                  stdout=subprocess.PIPE, text=True,
                                  bufsize=1)

    def cmd(self, line):
        self.p.stdin.write(line + "\n")
        self.p.stdin.flush()
        reply = self.p.stdout.readline()
        if not reply:
            raise RuntimeError(f"generator died on: {line}")
        out = json.loads(reply)
        if not out.get("ok"):
            raise RuntimeError(f"generator refused: {line} -> {reply.strip()}")
        return out

    def close(self):
        try:
            self.p.stdin.write("quit\n")
            self.p.stdin.close()
        except (BrokenPipeError, ValueError):
            pass
        try:
            self.p.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.p.kill()
            self.p.wait()


# ------------------------------------------------------------------ runs

class Run:
    """Clusters of one workload run, plus what they measured."""

    def __init__(self, args, name, bins, rundir, traced):
        self.args, self.traced = args, traced
        self.node_bin, self.load_bin = bins
        self.rundir = rundir
        self.name, self.wl = name, WORKLOADS[name]
        self.gen = None
        self.clusters = 0
        self.live = []
        self.setups, self.cycles = [], []
        self.attempted = self.failed = self.lost = 0
        self.problems = []

    def spec(self, tag, loop, ms, read_pct, rate=0.0, extra=""):
        wl = self.wl
        return (f"phase tag={tag} loop={loop} ms={ms} rate={rate} "
                f"read_pct={read_pct} keys={wl['keys']} zipf={wl['zipf']} "
                f"value_bytes=100 {extra}")

    def new_cluster(self):
        self.clusters += 1
        seed = self.args.seed * 1000 + self.clusters
        last_err = None
        for attempt in range(3):
            name = f"{'t' if self.traced else 'u'}{self.clusters}.{attempt}"
            c = Cluster(self.node_bin, self.rundir, name, self.wl["backend"],
                        seed, self.traced)
            self.live.append(c)
            self.gen.cmd(f"servers {c.servers()}")
            r = self.gen.cmd(f"probe {seed}")
            if any(p.poll() is not None for p in c.procs):
                # Lost the race for a port between the check and the bind.
                last_err = "a node exited at start"
                c.dead.update(range(3))
                self.teardown(c)
                continue
            self.setups.append((r["ready_mono_us"] - c.t_spawn) / 1e6)
            return c, seed
        raise RuntimeError(last_err)

    def teardown(self, c):
        c.stop()
        self.live.remove(c)
        want = self.wl["backend"]
        with c.lock:
            seen = set(c.backends_seen)
        if seen != {want}:
            self.problems.append(f"backend guard: nodes reported {sorted(seen)}"
                                 f", workload needs {want}")

    def cycle(self, window_ms, loop, rate):
        """One cluster: setup, window, failover, read-back, teardown."""
        c, seed = self.new_cluster()
        self.gen.cmd(f"sessions {SESSIONS} {seed} {self.clusters}")
        cyc = {}
        stop, snaps = threading.Event(), []
        if self.traced:
            cyc["m0"] = c.scrape()
            sampler = threading.Thread(target=c.sample_flight,
                                       args=(stop, snaps), daemon=True)
            sampler.start()
        cpu0 = c.cpu_ns()
        try:
            cyc["window"] = self.gen.cmd(self.spec(
                "win", loop, window_ms, self.wl["read_pct"], rate))
        finally:
            stop.set()
        cyc["window_cpu_us"] = [(b - a) / 1000
                                for a, b in zip(cpu0, c.cpu_ns())]
        if self.traced:
            sampler.join()
            cyc["m1"] = c.scrape()
            cyc["snapshots"] = snaps
        if self.wl["read_pct"] == 0:
            # A write-only window has no read latency to report; a short
            # read-mostly phase (kv_read's mix) on the same healthy cluster
            # supplies it. All-GET sessions would saturate the leader, and
            # the figure would follow CPU contention, not the read path.
            self.gen.cmd(self.spec("reads", "closed", READ_TAIL_MS, 95))
        self.read_back("rb")
        victim = c.leader()
        # On the failover workload the outage is the workload itself.
        fo_tag = "win" if self.name == "failover" else "fo"
        pid = c.procs[victim].pid
        fo = self.gen.cmd(self.spec(
            fo_tag, "open", FAILOVER_CAP_MS, 50, FAILOVER_RATE,
            f"kill_after_ms={KILL_AFTER_MS} victim_pid={pid} "
            f"victim_id={victim} linger_ms={LINGER_MS}"))
        c.dead.add(victim)
        cyc.update(victim=victim, fo=fo)
        survivors = [i for i in range(3) if i != victim]
        if self.traced:
            cyc["rings2"] = c.flight_rings(survivors)
        if not fo["recovered"]:
            self.problems.append("failover: service did not come back within "
                                 f"{FAILOVER_CAP_MS} ms")
        self.read_back("rbk")
        self.teardown(c)
        cyc["rss_mb"] = c.max_rss_mb()
        cyc["stats"] = {tag: self.gen.cmd(f"stats {tag}") for tag in TAGS}
        for st in cyc["stats"].values():
            self.attempted += st["attempted"]
            self.failed += st["failed"]
        self.cycles.append(cyc)

    def read_back(self, tag):
        """Reads back every acked write; a lost one fails the run."""
        ver = self.gen.cmd(f"verify {tag}")
        self.lost += ver["lost"]
        if ver["lost"]:
            self.problems.append(f"read-back: {ver['lost']} acked writes lost")

    def measure(self):
        """The workload once: CYCLES fresh clusters, each measured for an
        equal share of --seconds. Figures vary more from one cluster to the
        next than within one, so the run reports medians over several
        short clusters rather than one long one."""
        window_ms = self.args.seconds * 1000 // CYCLES
        rate = FAILOVER_RATE if self.wl["loop"] == "open" else 0.0
        for _ in range(CYCLES):
            # A fresh generator too: its threads' placement is part of what
            # differs between clusters.
            self.gen = Generator(self.load_bin)
            self.cycle(window_ms, self.wl["loop"], rate)
            self.gen.close()
            self.gen = None
        if self.failed:
            self.problems.append(f"{self.failed} failed or refused ops")

    def close(self):
        for c in list(self.live):
            for i, p in enumerate(c.procs):
                if p.returncode is None:
                    try:
                        p.kill()
                    except ProcessLookupError:
                        pass
            c.dead.update(range(3))
            c.stop()
        self.live = []
        if self.gen is not None:
            self.gen.close()


def ok_ops(st):
    return st["attempted"] - st["failed"]


def ops_per_s(cyc):
    win = cyc["stats"]["win"]
    return ok_ops(win) / (win["elapsed_us"] / 1e6)


def end_to_end(run):
    """Each figure is the median over the run's clusters of that cluster's
    own figure."""
    def med(f):
        return statistics.median(f(c) for c in run.cycles)

    def reads(c):
        # A write-only window has no reads; its read tail stands in.
        st = c["stats"]
        return st["reads"] if st["win"]["reads"] == 0 else st["win"]

    def cpu_per_op(c):
        # Window only: a node's whole life (wait4) also holds its setup,
        # the failover and the read-backs, which at a few seconds per
        # cluster would outweigh the workload's own cost.
        return sum(c["window_cpu_us"]) / max(1, w_ops(c))

    # The p99s go out with the per-layer figures, ungated: on a shared
    # machine a disturbance of a minute or two lifts the tails of every
    # cluster in the runs it overlaps, and their ten-seed spread reached
    # 0.3 where the p50s stayed near 0.14.
    tails = {
        "write_p99_us": (med(lambda c: c["stats"]["win"]["write_p99_us"]),
                         "us"),
        "read_p99_us": (med(lambda c: reads(c)["read_p99_us"]), "us"),
    }
    return {
        "setup_s": (statistics.median(run.setups), "s"),
        "ops_per_s": (med(ops_per_s), "ops/s"),
        "write_p50_us": (med(lambda c: c["stats"]["win"]["write_p50_us"]),
                         "us"),
        "read_p50_us": (med(lambda c: reads(c)["read_p50_us"]), "us"),
        "unavail_write_ms": (med(lambda c: c["fo"]["write_after_kill_us"])
                             / 1000, "ms"),
        "unavail_read_ms": (med(lambda c: c["fo"]["read_after_kill_us"])
                            / 1000, "ms"),
        "cpu_us_per_op": (med(cpu_per_op), "us"),
        "node_rss_mb": (med(lambda c: c["rss_mb"]), "MB"),
    }, tails, {"clusters": len(run.cycles),
        "write_samples": sum(c["stats"]["win"]["writes"] for c in run.cycles),
        "read_samples": sum(reads(c)["reads"] for c in run.cycles)}


def per_layer(run, untraced_ops_per_s, micro):
    """Per-layer figures of a traced Run, and the end-to-end metric each
    should move, on which workload:

      client.attempts_per_req, .timeouts, .redirects
                      -> unavail_write_ms (failover); gen.late_p99_us
                         checks the open-loop generator kept its schedule
      kv.ops_per_batch -> write_p50_us, ops_per_s (kv_write)
      kv.lease_read_share -> read_p50_us (kv_read)
      kv.overloaded   must stay 0; a refusal fails the run
      store.*_ns, wire.*_ns -> cpu_us_per_op, ops_per_s (kv_read)
      log.slots_per_s, consensus.slot_p50_us/p99_us
                      -> ops_per_s, write_p50_us/p99_us (kv_write)
      consensus.rounds_per_slot -> unavail_write_ms (failover)
      rb.frames_per_op -> cpu_us_per_op (kv_write)
      fd.detect_ms, fd.leader_ms -> unavail_write_ms (failover)
      lease.grant_ms  -> unavail_read_ms (failover)
      fd.mistakes     -> write_p99_us (kv_write)
      net.*, node.*_cpu_us_per_op -> ops_per_s, *_p99_us (kv_read)
      trace.overhead_pct: ops_per_s lost to recording
      write_p99_us, read_p99_us: the untraced pass's tails, reported here
                      rather than gated (see end_to_end)
    """
    def total(tags, key):
        return sum(c["stats"][t][key] for c in run.cycles for t in tags)

    client = {k: total(("win", "fo"), k)
              for k in ("requests", "attempts", "timeouts", "redirects")}
    # Lateness of the open-loop schedule while the cluster was whole.
    late_tag = "win" if run.wl["loop"] == "open" else "fo"
    late = statistics.median(c["stats"][late_tag]["late_p99_us"]
                             for c in run.cycles)
    # The registry deltas below span the window phase alone; on failover
    # the "win" pool also holds the failover phase.
    reads = sum(c["window"]["reads"] for c in run.cycles)
    writes = sum(c["window"]["writes"] for c in run.cycles)
    slot, wire, stages = [], [], []
    batches = batch_ops = lease_reads = overloaded = rb_relay = 0
    slots_per_s, mistakes, sent, dgrams = [], 0, 0, 0
    send_b, recv_b, leader_cpu, follower_cpu = [], [], [], []
    for c in run.cycles:
        m0, m1, w, v = c["m0"], c["m1"], c["window"], c["victim"]
        w_lo, w_hi = w["start_wall_us"], w["end_wall_us"]
        batches += layers.counter_delta(m0, m1, "kv.batches")
        batch_ops += layers.counter_delta(m0, m1, "kv.batch.ops")
        lease_reads += layers.counter_delta(m0, m1, "kv.lease.reads")
        overloaded += layers.counter_delta(m0, m1, "kv.overloaded")
        rb_relay += layers.counter_delta(m0, m1, "msg.rb.relay.sent")
        mistakes += layers.counter_delta(m0, m1, "qos.mistakes")
        sent += layers.prefix_delta(m0, m1, "net.sent.p")
        dgrams += layers.prefix_delta(m0, m1, "net.dgram_sent.p")
        send_b.append(layers.histogram_mean(m0, m1, "net.send_batch"))
        recv_b.append(layers.histogram_mean(m0, m1, "net.recv_batch"))
        applied = (m1[v]["gauges"].get("kv.applied_slot", 0)
                   - m0[v]["gauges"].get("kv.applied_slot", 0))
        slots_per_s.append(applied / ((w_hi - w_lo) / 1e6))

        snaps = [[r for blob in snap for r in layers.parse_postmortem(blob)]
                 for snap in c["snapshots"]]
        # Every request before the window was acked, so it starts on an
        # idle log: no slot in flight.
        got = layers.window_samples(snaps, w_lo, w_hi, v, in_flight_at_lo=0)
        slot += got["slot_us"]
        wire += got["wire_us"]
        for kind in ("hot", "state"):
            segs = got[kind + "_segments"]
            covered = sum(hi - lo for lo, hi in segs) / 1000
            merged = []
            for lo, hi in segs:
                if merged and merged[-1][1] == lo:
                    merged[-1][1] = hi
                else:
                    merged.append([lo, hi])
            spans = ", ".join(f"{(lo - w_lo) / 1000:.0f}-"
                              f"{(hi - w_lo) / 1000:.0f}" for lo, hi in merged)
            print(f"trace window, {kind} rings: {covered:.0f} of "
                  f"{(w_hi - w_lo) / 1000:.0f} ms covered, in ms from "
                  f"window start: [{spans}]")

        st = layers.failover_times(
            [r for r in c["rings2"] if r.kind == layers.STATE], v,
            c["fo"]["kill_wall_us"])
        stages.append(st)
        # Inside the window; the victim led it.
        cpu = c["window_cpu_us"]
        leader_cpu.append(cpu[v] / max(1, w_ops(c)))
        follower_cpu += [cpu[i] / max(1, w_ops(c)) for i in range(3)
                         if i != v]

    def med(key):
        vals = [st[key] for st in stages if st[key] is not None]
        return statistics.median(vals) if vals else -1.0

    traced_ops_per_s = statistics.median(ops_per_s(c) for c in run.cycles)
    return {
        "client.attempts_per_req": (client["attempts"] / max(
            1, client["requests"]), "ratio"),
        "client.timeouts": (client["timeouts"], "count"),
        "client.redirects": (client["redirects"], "count"),
        "gen.late_p99_us": (late, "us"),
        "kv.ops_per_batch": (batch_ops / max(1, batches), "ops"),
        "kv.lease_read_share": (lease_reads / reads if reads else 0.0,
                                "ratio"),
        "kv.overloaded": (overloaded, "count"),
        "store.apply_ns": (micro["apply_ns"], "ns"),
        "store.read_ns": (micro["read_ns"], "ns"),
        "wire.encode_ns": (micro["encode_ns"], "ns"),
        "wire.decode_ns": (micro["decode_ns"], "ns"),
        "log.slots_per_s": (statistics.median(slots_per_s), "1/s"),
        "consensus.slot_p50_us": (layers.percentile(slot, 50), "us"),
        "consensus.slot_p99_us": (layers.percentile(slot, 99), "us"),
        "consensus.rounds_per_slot": (med("rounds_per_slot"), "rounds"),
        "rb.frames_per_op": (rb_relay / writes if writes else 0.0,
                             "frames"),
        "fd.detect_ms": (med("detect_ms"), "ms"),
        "fd.leader_ms": (med("leader_ms"), "ms"),
        "lease.grant_ms": (med("lease_ms"), "ms"),
        "fd.mistakes": (mistakes, "count"),
        "net.dgrams_per_frame": (dgrams / max(1, sent), "ratio"),
        "net.send_batch_mean": (statistics.fmean(send_b), "dgrams"),
        "net.recv_batch_mean": (statistics.fmean(recv_b), "dgrams"),
        "net.wire_p50_us": (layers.percentile(wire, 50), "us"),
        "net.wire_p99_us": (layers.percentile(wire, 99), "us"),
        "node.leader_cpu_us_per_op": (statistics.fmean(leader_cpu), "us"),
        "node.follower_cpu_us_per_op": (statistics.fmean(follower_cpu), "us"),
        "trace.overhead_pct": (100.0 * (untraced_ops_per_s - traced_ops_per_s)
                               / untraced_ops_per_s, "%"),
    }, {"slot_samples": len(slot), "wire_samples": len(wire),
        "overloaded": overloaded}


def w_ops(c):
    return c["window"]["attempted"] - c["window"]["failed"]


def self_test_passes():
    """Runs kvbench/test_layers.py: the per-layer figures are only as good
    as the extraction it checks."""
    import io
    import unittest
    suite = unittest.defaultTestLoader.loadTestsFromName("test_layers")
    result = unittest.TextTestRunner(stream=io.StringIO()).run(suite)
    return result.wasSuccessful()


def on_alarm(*_):
    raise TimeoutError("run exceeded its time limit")


def run_workload(args, name, bins, out):
    """One workload: returns its result object (see the module doc)."""
    rundir = os.path.join(out, f"run-{os.getpid()}")
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)
    runs = []
    # A hung cluster must not outlive the run: each pass is the window plus
    # CYCLES clusters' overhead, and --trace 1 makes two passes.
    passes = 1 + args.trace
    signal.alarm(passes * (args.seconds + CYCLES * CYCLE_LIMIT_S) + 20)
    try:
        first = Run(args, name, bins, rundir, traced=False)
        runs.append(first)
        first.measure()
        e2e, tails, notes = end_to_end(first)
        problems = list(first.problems)
        attempted, failed = first.attempted, first.failed
        if args.trace:
            traced = Run(args, name, bins, rundir, traced=True)
            runs.append(traced)
            traced.measure()
            wl = WORKLOADS[name]
            traced.gen = Generator(bins[1])
            micro = traced.gen.cmd(
                f"micro seed={args.seed} ms=400 keys={wl['keys']} "
                f"zipf={wl['zipf']} read_pct={wl['read_pct']} "
                "value_bytes=100")
            metrics, lnotes = per_layer(traced, e2e["ops_per_s"][0], micro)
            metrics = {**tails, **metrics}
            notes.update(lnotes)
            problems += traced.problems
            if not self_test_passes():
                problems.append("trace extraction self-test failed")
            if lnotes["overloaded"]:
                problems.append(f"kv.overloaded = {lnotes['overloaded']}")
            attempted += traced.attempted
            failed += traced.failed
        else:
            metrics = e2e
    finally:
        signal.alarm(0)
        for r in runs:
            r.close()
        shutil.rmtree(rundir, ignore_errors=True)

    print("samples: " + json.dumps(notes), flush=True)
    for p in problems:
        print(f"FAILED: {p}", flush=True)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": round(float(v), 6), "unit": u}
                    for k, (v, u) in metrics.items()},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    root = os.getcwd()
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    node_bin, load_bin, out = build(root, bench_dir)
    print("host: " + json.dumps(host_block()), flush=True)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(3))
    signal.signal(signal.SIGALRM, on_alarm)

    if args.workload != "all":
        result = run_workload(args, args.workload, (node_bin, load_bin), out)
    else:
        # Every workload in turn; the last line merges them, metric names
        # prefixed by workload.
        result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name in WORKLOADS:
            r = run_workload(args, name, (node_bin, load_bin), out)
            print(f"{name}: " + json.dumps(r), flush=True)
            result["correct"] = result["correct"] and r["correct"]
            result["attempted"] += r["attempted"]
            result["failed"] += r["failed"]
            for k, v in r["metrics"].items():
                result["metrics"][f"{name}.{k}"] = v
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
