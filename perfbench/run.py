#!/usr/bin/env python3
"""Benchmark for the bufsize CLI and sizing daemon.

Builds the `bufsize` executable from the source tree around this directory
(`dune build`), generates seeded inputs, drives the program for a fixed
wall-clock window, checks every answer, and prints one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (perfbench/README.md says why each exists):

  cold_size    `bufsize size --json` on bridged three-bus SoCs, one process
               per request, so every request pays the whole cold pipeline
               (parse, split, CTMDP build, joint LP, occupancy, allocation).
  mesh_damq    `bufsize topo` on 2x2 NoC meshes with shared router buffers:
               static sizing plus the DAMQ shared-pool LPs per router.
  kron         `bufsize kron`: the exact un-split bridged model solved through
               the Kronecker/SAN descriptor by power iteration.
  warm_daemon  `bufsize serve` answering `size` requests whose keys were all
               solved during set-up, so every measured request is a cache hit.

With --trace 0 the run reports end-to-end metrics (the 10th percentile of
request latency and of set-up time, peak RSS of the program).  With
--trace 1 it enables the program's own spans (BUFSIZE_METRICS for CLI runs,
per-request telemetry for the daemon) and reports the per-layer split, with
the median and 90th percentile of the traced latencies, instead.

Everything the run writes stays under .perfbench/ at the source root.
"""

import argparse
import ctypes
import json
import math
import os
import random
import re
import signal
import socket
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = ".perfbench"
EXE = "./_build/default/bin/bufsize_cli.exe"
INPUTS = 8  # distinct inputs per run, cycled round-robin
# Time figures are reported as this percentile of their samples.  The CPUs
# of a shared host switch between speed levels for periods of about a
# second to tens of seconds; the median of a run follows the share of time
# spent at the slow level, a low percentile stays on the fast one.
TIME_QUANTILE = 0.1
SIZE_BUDGET = 64
SIZE_MAX_STATES = 40


class BenchError(Exception):
    """The benchmark itself could not run (no source tree, build failure,
    daemon that never came up): exit non-zero without a result line."""


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def program_env(**extra):
    # The program sees none of the caller's BUFSIZE_* knobs or OCaml runtime
    # overrides, and keeps its temporary files inside the checkout.  One
    # domain: on a small shared machine a second domain costs more than it
    # buys and ties every timing to the load on a second CPU.
    env = {
        k: v
        for k, v in os.environ.items()
        if not k.startswith("BUFSIZE_") and k != "OCAMLRUNPARAM"
    }
    env["TMPDIR"] = os.path.abspath(WORK)
    env["BUFSIZE_NUM_DOMAINS"] = "1"
    env.update(extra)
    return env


def build():
    for path in ("dune-project", "bin/bufsize_cli.ml", "lib"):
        if not os.path.exists(path):
            raise BenchError("no bufsize source tree at %s (missing %s)" % (ROOT, path))
    t0 = time.perf_counter()
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", EXE],
            stdout=sys.stderr,
            stderr=sys.stderr,
            stdin=subprocess.DEVNULL,
            env=program_env(DUNE_CACHE="disabled"),
        )
    except FileNotFoundError:
        raise BenchError("dune is not on PATH")
    if r.returncode != 0 or not os.path.exists(EXE):
        raise BenchError("dune build failed with exit code %d" % r.returncode)
    log("built %s in %.1f s" % (EXE, time.perf_counter() - t0))


# --------------------------------------------------------------- inputs

SOC_FLOWS = [
    ("cpu0", "mem0"), ("cpu1", "io1"), ("cpu2", "cpu0"), ("mem1", "cpu1"),
    ("mem2", "io0"), ("io0", "mem1"), ("io2", "cpu2"), ("io1", "io2"),
]


def soc_spec(rng):
    """Three buses in a chain joined by two bridges, three processors per
    bus, a fixed flow pattern with seeded rates.  Bus service rates keep
    every bus at 80% utilisation, so the structure (and the work) is the
    same for every seed while the numbers differ."""
    buses = ["cpu", "mem", "io"]
    rates = [round(rng.uniform(0.55, 0.65), 3) for _ in SOC_FLOWS]
    load = [0.0, 0.0, 0.0]
    for (src, dst), rate in zip(SOC_FLOWS, rates):
        a, b = sorted((buses.index(src[:-1]), buses.index(dst[:-1])))
        for k in range(a, b + 1):
            load[k] += rate
    lines = ["bus %s rate %.4f" % (bus, l / 0.8) for bus, l in zip(buses, load)]
    lines += ["proc %s%d on %s" % (bus, i, bus) for bus in buses for i in range(3)]
    lines += ["bridge b01 cpu mem", "bridge b12 mem io"]
    lines += ["flow %s -> %s rate %.3f" % (s, d, r) for (s, d), r in zip(SOC_FLOWS, rates)]
    return "\n".join(lines) + "\n"


def mesh_spec(rng):
    """A 2x2 router mesh with a shared (DAMQ) buffer per router and one
    network interface per router; every NI sends to the next router's NI in
    row-major order (the diagonal hops are two-hop XY routes) at seeded
    rates."""
    cells = ["r0c0", "r0c1", "r1c0", "r1c1"]
    lines = ["mesh noc rows 2 cols 2 rate 2.0"]
    for c in cells:
        lines += ["shared_buffer noc_%s" % c, "proc ni_%s on noc_%s" % (c, c)]
    for i, c in enumerate(cells):
        d = cells[(i + 1) % len(cells)]
        lines.append("flow ni_%s -> ni_%s rate %.3f" % (c, d, rng.uniform(0.19, 0.21)))
    return "\n".join(lines) + "\n"


def kron_params(rng):
    return {
        "lambda-x": round(rng.uniform(1.45, 1.55), 3),
        "lambda-y": round(rng.uniform(1.15, 1.25), 3),
        "cross": round(rng.uniform(0.24, 0.26), 3),
        "mu-x": 2.4,
        "mu-y": 2.2,
    }


def write_input(i, text):
    path = os.path.join(WORK, "input%d.txt" % i)
    with open(path, "w") as f:
        f.write(text)
    return path


def size_args(path):
    return ["size", "-f", path, "-b", str(SIZE_BUDGET), "--max-states", str(SIZE_MAX_STATES),
            "--json"]


def check_sizing(result):
    words = [a["words"] for a in result["allocation"]]
    if any(not isinstance(w, int) or w < 0 for w in words):
        return "negative or fractional allocation"
    if sum(words) != SIZE_BUDGET or result["total_words"] != SIZE_BUDGET:
        return "allocation does not spend the budget exactly"
    loss = result["predicted_loss_rate"]
    if not (math.isfinite(loss) and loss >= 0):
        return "predicted loss rate %r" % loss
    return None


# ------------------------------------------------------- trace analysis

# Span-name prefixes per pipeline layer.  A span's self time (duration
# minus its children's) is charged to the first layer whose prefix matches;
# everything else (sizing/serve orchestration: split, cache lookup,
# allocation, reply encoding) is "orchestration".
LAYERS = [
    ("build", ("sizing.build", "lp_formulation.assemble_joint")),
    ("lp", ("simplex", "lp.", "lp_formulation.solve_joint", "step:", "ctmdp")),
    ("occupancy", ("sizing.occupancy", "sizing.subsystem")),
    ("stationary", ("san.", "ctmc", "policy_iteration", "value_iteration")),
]
LAYER_NAMES = [name for name, _ in LAYERS] + ["orchestration"]

COUNTERS = {
    "lp_pivots": ("simplex.pivots", "simplex_revised.pivots"),
    "lp_solves": ("lp.solves",),
    "san_sweeps": ("san.sweeps",),
    "cache_hits": ("cache.sizing.hits", "cache.lp.hits"),
    "cache_misses": ("cache.sizing.misses", "cache.lp.misses"),
}


def layer_of(span_name):
    for name, prefixes in LAYERS:
        if span_name.startswith(prefixes):
            return name
    return "orchestration"


def span_profile(spans):
    """Service time (the outermost spans), minor words allocated inside
    them, and self time per layer, from span records with id, parent,
    name, dur_us and alloc_minor_words."""
    ids = {s["id"] for s in spans}
    child_us = {}
    for s in spans:
        child_us[s["parent"]] = child_us.get(s["parent"], 0.0) + s["dur_us"]
    layers = dict.fromkeys(LAYER_NAMES, 0.0)
    service_us = alloc_w = 0.0
    for s in spans:
        layers[layer_of(s["name"])] += max(0.0, s["dur_us"] - child_us.get(s["id"], 0.0))
        if s["parent"] not in ids:
            service_us += s["dur_us"]
            alloc_w += s.get("alloc_minor_words") or 0.0
    return service_us / 1e3, alloc_w, layers


def read_jsonl_trace(path):
    spans, counters = [], {}
    with open(path) as f:
        for line in f:
            o = json.loads(line)
            if o.get("type") == "span":
                spans.append(o)
            elif o.get("type") == "counter":
                counters[o["name"]] = o["value"]
    return spans, counters


def counter_sample(counters):
    return {k: sum(counters.get(n, 0) for n in names) for k, names in COUNTERS.items()}


class Sample:
    """One measured request: client-observed latency plus, when traced,
    the program's own account of where the time went."""

    def __init__(self, latency_ms):
        self.latency_ms = latency_ms
        self.queue_ms = 0.0
        self.service_ms = 0.0
        self.alloc_w = 0.0
        self.layers = {}
        self.counts = {}


# --------------------------------------------------------- CLI workloads


def run_program(args, env):
    """Run the program once; returns (exit code, stdout, seconds)."""
    with open(os.path.join(WORK, "program.stderr"), "wb") as err:
        t0 = time.perf_counter()
        p = subprocess.run([EXE] + args, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                           stderr=err, env=env)
        elapsed = time.perf_counter() - t0
    return p.returncode, p.stdout.decode(), elapsed


PR_SET_CHILD_SUBREAPER = 36


def become_subreaper():
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise BenchError("prctl(PR_SET_CHILD_SUBREAPER): %s" % os.strerror(ctypes.get_errno()))


def program_peak_rss_kib(args, env):
    """Peak RSS of one run of the program.  wait4 on a direct child would
    report at least this script's own RSS, because Linux carries the
    parent's high-water mark through fork and exec.  So a small shell
    starts the program in the background and exits; the orphan is
    re-parented to this process (a child subreaper), which reaps it."""
    sh = subprocess.run(
        ["/bin/sh", "-c", '"$0" "$@" </dev/null >/dev/null 2>&1 & echo $!', EXE] + args,
        stdout=subprocess.PIPE, env=env, check=True)
    pid = int(sh.stdout)
    _, status, usage = os.wait4(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise BenchError("program failed while measuring its memory: %s" % " ".join(args))
    return usage.ru_maxrss


WALL_MS = re.compile(r"[0-9.]+ ms")


class CliWorkload:
    """One fresh `bufsize` process per request, so nothing is cached."""

    run_counts = None  # counters come per request, from each trace dump
    setup_period_s = 0.5

    def __init__(self, rng, trace):
        self.trace = trace
        self.inputs = [self.make_input(rng, i) for i in range(INPUTS)]
        self.expected = {}
        self.trace_path = os.path.join(WORK, "trace.jsonl")
        self.env = program_env(BUFSIZE_METRICS=self.trace_path) if trace else program_env()

    def setup(self):
        # Set-up is start-up: launch the program on the first input in a
        # mode that parses and validates it without the full solve.
        code, _, elapsed = run_program(self.startup_args(), self.env)
        if code != 0:
            raise BenchError("start-up command failed: %s" % " ".join(self.startup_args()))
        return elapsed

    def request(self, i):
        code, out, elapsed = run_program(self.args(i), self.env)
        if code != 0:
            return None, "exit code %d" % code
        try:
            problem = self.check(out)
        except (ValueError, KeyError, TypeError) as e:
            problem = "unreadable output: %r" % e
        # Same input, same answer: the program is deterministic.  Solver
        # health lines carry wall-clock times, which are masked.
        answer = WALL_MS.sub("ms", out)
        if problem is None and answer != self.expected.setdefault(i, answer):
            problem = "output differs from an earlier run on the same input"
        if problem is not None:
            return None, problem
        sample = Sample(elapsed * 1e3)
        if self.trace:
            spans, counters = read_jsonl_trace(self.trace_path)
            sample.service_ms, sample.alloc_w, sample.layers = span_profile(spans)
            sample.counts = counter_sample(counters)
        return sample, None

    def close(self):
        """Peak RSS over one more run of every input, after the window."""
        if self.trace:
            return 0
        return max(program_peak_rss_kib(self.args(i), self.env) for i in range(INPUTS))


class ColdSize(CliWorkload):
    def make_input(self, rng, i):
        return write_input(i, soc_spec(rng))

    def startup_args(self):
        return ["info", "-f", self.inputs[0]]

    def args(self, i):
        return size_args(self.inputs[i])

    def check(self, out):
        return check_sizing(json.loads(out))


TOTALS = re.compile(r"totals: loss static (\S+) damq (\S+) separate (\S+)")


class MeshDamq(CliWorkload):
    def make_input(self, rng, i):
        return write_input(i, mesh_spec(rng))

    def startup_args(self):
        return ["info", "-f", self.inputs[0]]

    def args(self, i):
        return ["topo", "-f", self.inputs[i], "-b", "24", "--max-states", "24", "--sharing",
                "damq"]

    def check(self, out):
        if "degraded" in out:
            return "a solver fell back to a degraded answer"
        m = TOTALS.search(out)
        if not m or "sharing comparison: 4 bus(es)" not in out:
            return "no sharing comparison for the four routers"
        static, damq, separate = (float(x) for x in m.groups())
        if not all(math.isfinite(x) and x >= 0 for x in (static, damq, separate)):
            return "non-finite loss totals"
        # The DAMQ pool can always mimic the static partition.
        if damq > static:
            return "DAMQ loss %g exceeds static loss %g" % (damq, static)
        return None


JOINT = re.compile(r"joint SAN solve: (\d+) states, (\d+) sweeps, residual (\S+)")
LOSS = re.compile(r"loss\s+x (\S+)\s+bridge (\S+)\s+y (\S+)")


class Kron(CliWorkload):
    K = 8  # every queue capacity: (K+1)^3 = 729 joint states

    def make_input(self, rng, i):
        return [x for k, v in kron_params(rng).items() for x in ("--" + k, str(v))]

    def startup_args(self):
        return ["kron", "--kx", "1", "--ky", "1"] + self.inputs[0]

    def args(self, i):
        return ["kron", "--kx", str(self.K), "--ky", str(self.K)] + self.inputs[i]

    def check(self, out):
        m, loss = JOINT.search(out), LOSS.search(out)
        if not m or not loss:
            return "no joint SAN solve in the output"
        states, residual = int(m.group(1)), float(m.group(3))
        if states != (self.K + 1) ** 3:
            return "%d joint states, expected %d" % (states, (self.K + 1) ** 3)
        if not residual <= 1e-9:
            return "residual %g" % residual
        if not all(0 <= float(x) <= 1 for x in loss.groups()):
            return "loss probabilities outside [0, 1]"
        return None


# ---------------------------------------------------------- the daemon


class Daemon:
    """A `bufsize serve` child and one persistent client connection."""

    def __init__(self, trace):
        sock_path = os.path.join(WORK, "serve.sock")
        args = ["serve", "--socket", sock_path, "--workers", "1"]
        if trace:
            # Enables the metrics registry so the `metrics` op reports
            # solver counters; spans come from per-request telemetry.
            args += ["--metrics-json", os.path.join(WORK, "serve-metrics.json")]
        self.err = open(os.path.join(WORK, "serve.stderr"), "wb")
        self.proc = subprocess.Popen([EXE] + args, stdin=subprocess.DEVNULL, stdout=self.err,
                                     stderr=self.err, env=program_env())
        self.conn = self.reader = None
        try:
            self.connect(sock_path)
        except BaseException:
            self.stop()
            raise

    def connect(self, sock_path):
        deadline = time.perf_counter() + 30
        while self.conn is None:
            if os.waitpid(self.proc.pid, os.WNOHANG)[0] != 0:
                self.proc.returncode = -1
                raise BenchError("bufsize serve exited during start-up")
            conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                conn.connect(sock_path)
                self.conn = conn
            except OSError:
                conn.close()
                if time.perf_counter() > deadline:
                    raise BenchError("bufsize serve did not accept connections within 30 s")
                time.sleep(0.002)
        self.reader = self.conn.makefile("rb")
        if self.call_json({"id": 0, "op": "ping"}).get("status") != "ok":
            raise BenchError("bufsize serve did not answer ping")

    def call(self, line):
        self.conn.sendall(line)
        reply = self.reader.readline()
        if not reply:
            raise BenchError("bufsize serve closed the connection")
        return reply

    def call_json(self, obj):
        return json.loads(self.call((json.dumps(obj) + "\n").encode()))

    def stop(self):
        """SIGTERM (the daemon drains, then exits); returns its peak RSS in
        KiB, read from /proc before the signal (wait4 would report at least
        this script's own RSS, see program_peak_rss_kib)."""
        if self.reader is not None:
            self.reader.close()
            self.conn.close()
        rss_kib = 0
        if self.proc.returncode is None:
            with open("/proc/%d/status" % self.proc.pid) as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        rss_kib = int(line.split()[1])
            self.proc.send_signal(signal.SIGTERM)
            deadline = time.perf_counter() + 20
            pid = 0
            while pid == 0 and time.perf_counter() < deadline:
                time.sleep(0.005)
                pid, status = os.waitpid(self.proc.pid, os.WNOHANG)
            if pid == 0:
                self.proc.kill()
                _, status = os.waitpid(self.proc.pid, 0)
            self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.err.close()
        return rss_kib


class WarmDaemon:
    """`bufsize serve` with every request key solved during set-up: the
    measured path is parse, split, cache hit, allocation and reply."""

    setup_period_s = 2.0

    def __init__(self, rng, trace):
        # Client, IO domain and worker hand every request to each other.
        # On one CPU each hand-off is a plain context switch; spread over
        # several it is a cross-CPU wake-up, whose cost varies far more.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        self.trace = trace
        self.specs = [soc_spec(rng) for _ in range(INPUTS)]
        self.requests = []
        for i, spec in enumerate(self.specs):
            req = {"id": i, "op": "size", "spec": spec, "budget": SIZE_BUDGET,
                   "max_states": SIZE_MAX_STATES}
            if trace:
                req["telemetry"] = True
            self.requests.append((json.dumps(req) + "\n").encode())
        self.expected = None
        self.daemon = None
        self.peak_rss_kib = 0
        self.counters0 = None
        self.run_counts = dict.fromkeys(COUNTERS, 0) if trace else None

    def setup(self):
        """(Re)start the daemon and prime its cache with every input; the
        run's set-up samples are these restarts, spread through the run."""
        self.stop_daemon()
        t0 = time.perf_counter()
        self.daemon = Daemon(self.trace)
        replies = [json.loads(self.daemon.call(r)) for r in self.requests]
        elapsed = time.perf_counter() - t0
        if any(r.get("status") != "ok" for r in replies):
            raise BenchError("a priming request failed")
        results = [r["result"] for r in replies]
        if self.expected is None:
            self.expected = results
            self.check_against_cli()
        elif results != self.expected:
            raise BenchError("a restarted daemon answered differently")
        if self.trace:
            self.counters0 = self.daemon_counters()
        return elapsed

    def check_against_cli(self):
        # The daemon and the one-shot CLI render sizing results through the
        # same serializer: their answers must agree exactly.
        for i, spec in enumerate(self.specs):
            code, out, _ = run_program(size_args(write_input(i, spec)), program_env())
            if code != 0 or json.loads(out) != self.expected[i]:
                raise BenchError("daemon answer for input %d differs from `bufsize size`" % i)
            problem = check_sizing(self.expected[i])
            if problem:
                raise BenchError("input %d: %s" % (i, problem))

    def daemon_counters(self):
        return self.daemon.call_json({"id": -1, "op": "metrics"})["metrics"]["counters"]

    def stop_daemon(self):
        """Stop the current daemon, first adding its solver counters since
        priming to the run's totals."""
        if self.daemon is None:
            return
        try:
            if self.counters0 is not None:
                c1 = self.daemon_counters()
                delta = counter_sample({k: v - self.counters0.get(k, 0) for k, v in c1.items()})
                for k, v in delta.items():
                    self.run_counts[k] += v
        finally:
            self.peak_rss_kib = max(self.peak_rss_kib, self.daemon.stop())
            self.daemon = None
            self.counters0 = None

    def request(self, i):
        t0 = time.perf_counter()
        line = self.daemon.call(self.requests[i])
        elapsed = time.perf_counter() - t0
        try:
            reply = json.loads(line)
        except ValueError:
            return None, "unparsable reply"
        if reply.get("status") != "ok":
            return None, "status %s" % reply.get("status")
        if reply.get("result") != self.expected[i]:
            return None, "warm answer differs from the cold one"
        sample = Sample(elapsed * 1e3)
        if self.trace:
            tel = reply["telemetry"]
            _, sample.alloc_w, sample.layers = span_profile(tel["spans"])
            sample.queue_ms = tel["queue_ms"]
            sample.service_ms = tel["service_ms"]
        return sample, None

    def close(self):
        self.stop_daemon()
        return self.peak_rss_kib


WORKLOADS = {
    "cold_size": ColdSize,
    "mesh_damq": MeshDamq,
    "kron": Kron,
    "warm_daemon": WarmDaemon,
}


# ------------------------------------------------------------ reporting


def percentile(values, q):
    """Nearest-rank percentile."""
    xs = sorted(values)
    return xs[max(0, math.ceil(q * len(xs)) - 1)]


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(samples, setup_times, rss_kib):
    return {
        "latency_p10_ms": metric(percentile([s.latency_ms for s in samples], TIME_QUANTILE), "ms"),
        "peak_rss_mb": metric(rss_kib / 1024.0, "MB"),
        "setup_s": metric(percentile(setup_times, TIME_QUANTILE), "s"),
    }


def per_layer(samples, run_counts):
    """The traced latency's median and p90, the TIME_QUANTILE percentile
    per request of the service and overhead times, shares of the run's
    totals for the layer split, and per-request means for the solver
    counters (taken from the daemon's metrics registry when the run was
    against it)."""
    lat = [s.latency_ms for s in samples]
    out = {
        "latency_p50_ms": metric(percentile(lat, 0.5), "ms"),
        "latency_p90_ms": metric(percentile(lat, 0.9), "ms"),
        "service_ms": metric(percentile([s.service_ms for s in samples], TIME_QUANTILE), "ms"),
        "overhead_ms": metric(
            percentile([s.latency_ms - s.queue_ms - s.service_ms for s in samples],
                       TIME_QUANTILE), "ms"),
        "queue_pct": metric(
            100.0 * sum(s.queue_ms for s in samples) / sum(s.latency_ms for s in samples), "%"),
        "alloc_mwords": metric(statistics.median(s.alloc_w for s in samples) / 1e6, "Mwords"),
    }
    self_total = sum(sum(s.layers.values()) for s in samples) or 1.0
    for name in LAYER_NAMES:
        out[name + "_pct"] = metric(100.0 * sum(s.layers[name] for s in samples) / self_total, "%")
    for name in COUNTERS:
        if run_counts is not None:
            total = run_counts[name]
        else:
            total = sum(s.counts[name] for s in samples)
        out[name] = metric(total / len(samples), "count/op")
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = ap.parse_args()

    os.chdir(ROOT)
    os.makedirs(WORK, exist_ok=True)
    build()
    become_subreaper()
    rng = random.Random("%s/%d" % (opts.workload, opts.seed))
    wl = WORKLOADS[opts.workload](rng, bool(opts.trace))
    samples, failures = [], []
    try:
        setup_times = [wl.setup()]
        now = time.perf_counter()
        deadline = now + opts.seconds
        next_setup = now + wl.setup_period_s
        attempted = 0
        while now < deadline:
            # Set-up is sampled through the run, like the requests, so both
            # see the same mix of host speeds.
            if now >= next_setup:
                setup_times.append(wl.setup())
                next_setup = time.perf_counter() + wl.setup_period_s
            sample, problem = wl.request(attempted % INPUTS)
            if problem is None:
                samples.append(sample)
            else:
                failures.append(problem)
                log("request %d failed: %s" % (attempted, problem))
            attempted += 1
            now = time.perf_counter()
    finally:
        rss_kib = wl.close()
    if not samples:
        raise BenchError("no request succeeded")
    if opts.trace:
        metrics = per_layer(samples, wl.run_counts)
    else:
        metrics = end_to_end(samples, setup_times, rss_kib)
    log("%s seed %d: %d requests, %d failed" % (opts.workload, opts.seed, attempted,
                                                  len(failures)))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    try:
        main()
    except BenchError as e:
        log(str(e))
        sys.exit(2)
