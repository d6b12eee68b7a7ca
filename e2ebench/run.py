#!/usr/bin/env python3
"""End-to-end benchmark for storemlp.

    python3 e2ebench/run.py --workload sim_stream_pc --seed 1 \
        --seconds 10 --trace 0

Run from the repository root. Builds the repository's Release (LTO)
tree into .bench_build (first run only; later runs are incremental),
runs the workload's set-up, then repeats its timed operation for
--seconds, checks the stats digest of every simulated run against
e2ebench/references.json, and prints one JSON result as the last line
of stdout. With --trace 1 it runs the in-process tracer
(storemlp_layertrace) instead and reports the per-layer metrics.
`--record` rewrites references.json from the current build.
See e2ebench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import re
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = ROOT / ".bench_build"
WORK = BUILD / "work"
TOOLS = BUILD / "storemlp" / "tools"
TRACER = BUILD / "storemlp_layertrace"
REFERENCES = BENCH / "references.json"
CONFIGS = ROOT / "configs"

NPROC = len(os.sched_getaffinity(0))
# Sweep workers: half the CPUs. On a shared 4-CPU host a batch on 3 or
# 4 workers spread ~24% between runs (co-tenant contention hits every
# busy CPU); on 2 workers it spread ~6%, like the single-run workloads.
JOBS = max(1, min(4, NPROC // 2))
TOOL_SEEDS = list(range(1, 17))  # inputs are drawn from these
OP_DEADLINE_S = 60.0
PORT_DEADLINE_S = 10.0
BUILD_DEADLINE_S = 850.0
MIN_OPS = 3

# Run lengths per workload (simulated instructions).
SIM_WARMUP, SIM_MEASURE = 2_000_000, 6_000_000
FILE_RECORDS, FILE_WARMUP = 3_000_000, 500_000
FILE_CONFIGS = ["wc1", "wc2", "wc3"]
SWEEP_WARMUP, SWEEP_MEASURE = 200_000, 400_000
MC_CORES, MC_CHIPS, MC_SMAC = 4, 2, 8192
MC_WARMUP, MC_MEASURE = 500_000, 1_500_000
SETUP_REPS = 3
TRACE_REPS = 2
REPLAY_WARMUP, REPLAY_MEASURE = 500_000, 1_500_000

END_TO_END = {
    "wall_s": "s", "sim_minsts_per_s": "Minst/s", "cpu_s": "s",
    "peak_rss_mb": "MB", "setup_s": "s",
}

# Per-layer metrics: name -> unit (README.md maps each to the
# end-to-end metric and workload it should move).
PER_LAYER = {
    "trace.generate.self_s": "s",
    "trace.generate.minsts_per_s": "Minst/s",
    "trace.lanes.self_s": "s",
    "trace.rewrite.self_s": "s",
    "trace.rewrite.expansion": "ratio",
    "trace.encode.self_s": "s",
    "trace.encode.mrec_per_s": "Mrec/s",
    "trace.encode.bytes_per_rec": "B/rec",
    "trace.decode.self_s": "s",
    "trace.decode.mrec_per_s": "Mrec/s",
    "trace.cache.hits": "count",
    "trace.cache.misses": "count",
    "trace.cache.hit_ratio": "ratio",
    "trace.cache.evictions": "count",
    "cache.replay.minsts_per_s": "Minst/s",
    "cache.l2_miss_per_kinst": "1/kinst",
    "core.engine.self_s": "s",
    "core.engine.minsts_per_s": "Minst/s",
    "core.engine.epochs_per_kinst": "1/kinst",
    "core.multicore.self_s": "s",
    "core.multicore.minsts_per_s": "Minst/s",
    "coherence.invalidations_per_kinst": "1/kinst",
    "coherence.dirty_transfers": "count",
    "smac.probe_hits": "count",
    "core.sweep.runs": "count",
    "core.sweep.runs_failed": "count",
    "core.sweep.retries": "count",
    "core.sweep.run_ms_p50": "ms",
    "core.sweep.run_ms_p90": "ms",
    "core.sweep.worker_busy_frac": "ratio",
    "stats.export.self_s": "s",
    "stats.json_bytes_per_run": "B",
    "net.overhead_s": "s",
    "net.frames": "count",
    "net.bytes": "B",
    "net.reconnects": "count",
    "net.first_result_s": "s",
    "core.config.parse_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.accounted_frac": "ratio",
}


class BenchError(Exception):
    """Set-up failure: no result is printed and the exit code is 2."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------
# Processes: every child gets a deadline and is reaped with its rusage
# ---------------------------------------------------------------------

class Proc:
    """A child process with a stdout file, a deadline and rusage."""

    serial = 0

    def __init__(self, cmd, out_path=None):
        self.cmd = [str(c) for c in cmd]
        self.out_path = out_path
        Proc.serial += 1
        self.err_path = WORK / f"stderr.{os.getpid()}.{Proc.serial}"
        with open(out_path or os.devnull, "wb") as out, \
                open(self.err_path, "wb") as err:
            self.t0 = time.perf_counter()
            self.popen = subprocess.Popen(self.cmd, stdout=out, stderr=err,
                                          cwd=WORK)
        self.pidfd = os.pidfd_open(self.popen.pid)
        self.status = None  # exit code, or None while running
        self.timed_out = False
        self.wall = self.cpu = 0.0
        self.rss_kb = 0

    def running(self):
        return self.status is None and not select.select(
            [self.pidfd], [], [], 0)[0]

    def wait(self, deadline_s):
        """Reap within deadline_s, killing the child on overrun."""
        if self.status is not None:
            return self.status
        ready = select.select([self.pidfd], [], [], max(0.0, deadline_s))[0]
        if not ready:
            self.timed_out = True
            os.kill(self.popen.pid, signal.SIGKILL)
        _, raw, ru = os.wait4(self.popen.pid, 0)
        self.wall = time.perf_counter() - self.t0
        os.close(self.pidfd)
        self.status = os.waitstatus_to_exitcode(raw)
        self.popen.returncode = self.status
        self.cpu = ru.ru_utime + ru.ru_stime
        self.rss_kb = ru.ru_maxrss
        if self.ok():
            self.err_path.unlink(missing_ok=True)
        return self.status

    def kill(self):
        if self.status is None:
            try:
                os.kill(self.popen.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            self.wait(5.0)

    def ok(self):
        return self.status == 0 and not self.timed_out

    def why(self):
        if self.timed_out:
            return "deadline exceeded"
        err = self.err_path.read_text(errors="replace").strip()
        return f"exit {self.status}: {err[-300:]}"


def run(cmd, out_path=None, deadline_s=OP_DEADLINE_S):
    p = Proc(cmd, out_path)
    p.wait(deadline_s)
    return p


# ---------------------------------------------------------------------
# Build and provenance
# ---------------------------------------------------------------------

def build():
    WORK.mkdir(parents=True, exist_ok=True)
    # Compiler and tool temporaries stay inside the checkout too.
    (BUILD / "tmp").mkdir(exist_ok=True)
    os.environ["TMPDIR"] = str(BUILD / "tmp")
    t_end = time.monotonic() + BUILD_DEADLINE_S
    steps = []
    if not (BUILD / "build.ninja").exists():
        steps.append(["cmake", "-S", BENCH, "-B", BUILD, "-G", "Ninja",
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "e2ebench_all",
                  "-j", str(NPROC)])
    for cmd in steps:
        p = run(cmd, WORK / "build.log", t_end - time.monotonic())
        if not p.ok():
            log((WORK / "build.log").read_text(errors="replace")[-3000:])
            raise BenchError(f"build step failed ({p.why()}): {cmd}")


def provenance(seed, tool_seed):
    cache = (BUILD / "CMakeCache.txt").read_text(errors="replace")
    m = re.search(r"^CMAKE_BUILD_TYPE:\w+=(.*)$", cache, re.M)
    ninja = (BUILD / "build.ninja").read_text(errors="replace")
    rev = ""
    if (ROOT / ".git").exists():  # a checkout may be no git repository
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True,
                                 timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for sub in ("src", "tools", "CMakeLists.txt"):
        base = ROOT / sub
        for f in sorted([base] if base.is_file() else base.rglob("*")):
            if f.is_file():
                h.update(str(f.relative_to(ROOT)).encode())
                h.update(f.read_bytes())
    return {
        "git_rev": rev or "unavailable",
        "source_sha256": h.hexdigest()[:16],
        "nproc": NPROC,
        "jobs": JOBS,
        "build_type": m.group(1) if m else "unknown",
        "lto": "-flto" in ninja,
        "workload_seed": seed,
        "tool_seed": tool_seed,
    }


# ---------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------

TIMING_KEY = re.compile(r"(^|\.)timing\.|wall|Ms$")


def stats_digest(stats):
    """Digest of the simulated stats, timing fields excluded."""
    kept = {k: v for k, v in stats.items() if not TIMING_KEY.search(k)}
    text = json.dumps(kept, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()[:16]


class Checker:
    """Counts simulated runs and compares digests with references."""

    def __init__(self, refs):
        self.refs = refs  # name -> digest for this workload and seed
        self.attempted = 0
        self.failed = 0
        self.seen = {}

    def fail(self, what, n=1):
        self.attempted += n
        self.failed += n
        log(f"FAILED {what}")

    def check(self, name, digest):
        self.attempted += 1
        self.seen[name] = digest
        want = self.refs.get(name) if self.refs is not None else digest
        if digest != want:
            self.failed += 1
            log(f"FAILED {name}: digest {digest} != reference {want}")


# ---------------------------------------------------------------------
# Workloads. An op returns {wall, cpu, rss_kb, insts} (None if failed).
# ---------------------------------------------------------------------

class Workload:
    name = ""

    def __init__(self, tool_seed, checker):
        self.seed = tool_seed
        self.chk = checker
        self.setup_samples = []  # (wall, rss_kb) per set-up

    def setup(self):
        pass

    def record(self):
        self.setup()
        self.op()

    def sim_op(self, args, doc_name, warmup_total):
        """One storemlp_sim invocation checked as run `doc_name`."""
        out = WORK / f"{doc_name}.json"
        p = run([TOOLS / "storemlp_sim", *args, "--seed", self.seed,
                 "--format=json", "--out", out])
        try:
            if not p.ok():
                raise ValueError(p.why())
            stats = json.loads(out.read_text())["stats"]
        except (ValueError, KeyError) as e:
            self.chk.fail(f"{doc_name}: {e}")
            return None
        self.chk.check(doc_name, stats_digest(stats))
        return {"wall": p.wall, "cpu": p.cpu, "rss_kb": p.rss_kb,
                "insts": warmup_total + stats["core.instructions"]}

    def tracer_args(self):
        return []


class SimStreamPc(Workload):
    name = "sim_stream_pc"
    ARGS = ["--stream", "--workload", "database", "--model", "pc"]

    def setup(self):
        # Bring the machine to its measured interval: start-up, cache
        # construction, L2 prefill and the warmup simulation.
        for _ in range(SETUP_REPS):
            r = self.sim_op(self.ARGS + ["--warmup", SIM_WARMUP,
                                         "--measure", 0], "setup", 0)
            if r:
                self.setup_samples.append((r["wall"], r["rss_kb"]))

    def op(self):
        return self.sim_op(self.ARGS + ["--warmup", SIM_WARMUP, "--measure",
                                        SIM_MEASURE], "sim", SIM_WARMUP)

    def tracer_args(self):
        return ["--warmup", SIM_WARMUP, "--measure", SIM_MEASURE,
                "--replay-warmup", REPLAY_WARMUP,
                "--replay-measure", REPLAY_MEASURE]


class TraceFileWc(Workload):
    name = "trace_file_wc"

    def __init__(self, *a):
        super().__init__(*a)
        self.trace = WORK / "specjbb_wc.trc"
        self.traced_trace = WORK / "specjbb_wc_traced.trc"

    def setup(self):
        for _ in range(SETUP_REPS):
            self.trace.unlink(missing_ok=True)
            p = run([TOOLS / "storemlp_tracegen", "--workload", "specjbb",
                     "--wc", "--compress", "--count", FILE_RECORDS,
                     "--seed", self.seed, "--out", self.trace])
            if not p.ok() or not self.trace.exists():
                self.chk.fail(f"tracegen: {p.why()}")
                continue
            self.setup_samples.append((p.wall, p.rss_kb))
            self.chk.check("trace_file", file_digest(self.trace))

    def op(self):
        total = {"wall": 0.0, "cpu": 0.0, "rss_kb": 0, "insts": 0}
        for cfg in FILE_CONFIGS:
            r = self.sim_op(["--workload", "specjbb", "--config",
                             CONFIGS / f"{cfg}.cfg", "--trace", self.trace,
                             "--warmup", FILE_WARMUP], cfg, FILE_WARMUP)
            if r is None:
                return None
            for k in ("wall", "cpu", "insts"):
                total[k] += r[k]
            total["rss_kb"] = max(total["rss_kb"], r["rss_kb"])
        return total

    def tracer_args(self):
        return ["--count", FILE_RECORDS, "--warmup", FILE_WARMUP,
                "--trace-path", self.traced_trace,
                "--configs", ",".join(str(CONFIGS / f"{c}.cfg")
                                      for c in FILE_CONFIGS)]


SWEEP_REQUEST = ["--dir", CONFIGS, "--workload", "all", "--models", "pc;wc",
                 "--warmup", SWEEP_WARMUP, "--measure", SWEEP_MEASURE,
                 "--stream"]


def sweep_docs(path):
    """Run documents of a JSON-lines sweep output, by run name."""
    docs = {}
    for line in Path(path).read_text().splitlines():
        doc = json.loads(line)
        if doc.get("meta", {}).get("kind") == "run":
            docs[doc["run"]["name"]] = doc
    return docs


class SweepLoopback(Workload):
    name = "sweep_loopback"
    RUNS = 9 * 4 * 2  # configs x workloads x models

    def op(self):
        port_file = WORK / "sweepd.port"
        port_file.unlink(missing_ok=True)
        out = WORK / "sweepc.jsonl"
        daemon = Proc([TOOLS / "storemlp_sweepd", "--port", 0, "--port-file",
                       port_file, "--jobs", JOBS, "--once"])
        client = None
        try:
            port = None
            t_end = time.perf_counter() + PORT_DEADLINE_S
            while time.perf_counter() < t_end and daemon.running():
                text = port_file.read_text() if port_file.exists() else ""
                if text.endswith("\n"):
                    port = int(text)
                    break
                time.sleep(0.0005)
            if port is None:
                self.chk.fail("sweepd never wrote its port file", self.RUNS)
                return None
            self.setup_samples.append((time.perf_counter() - daemon.t0, 0))
            client = run([TOOLS / "storemlp_sweepc", "--port", port,
                          "--seed", self.seed, "--out", out,
                          *SWEEP_REQUEST])
            if not client.ok():
                self.chk.fail(f"sweepc: {client.why()}", self.RUNS)
                return None
            daemon.wait(PORT_DEADLINE_S)
            if not daemon.ok():
                self.chk.fail(f"sweepd: {daemon.why()}", self.RUNS)
                return None
        finally:
            daemon.kill()  # no-op once reaped
        try:
            docs = sweep_docs(out)
        except (ValueError, KeyError) as e:
            self.chk.fail(f"sweepc output: {e}", self.RUNS)
            return None
        if len(docs) != self.RUNS:
            self.chk.fail(f"sweep returned {len(docs)} of {self.RUNS} runs",
                          self.RUNS - len(docs))
        insts = 0
        for name, doc in sorted(docs.items()):
            self.chk.check(name, stats_digest(doc["stats"]))
            insts += SWEEP_WARMUP + doc["stats"]["core.instructions"]
        return {"wall": client.wall, "cpu": client.cpu + daemon.cpu,
                "rss_kb": max(client.rss_kb, daemon.rss_kb), "insts": insts}

    def local_sweep(self):
        """The same request in-process (storemlp_sweep): remote = local."""
        out = WORK / "sweep_local.jsonl"
        p = run([TOOLS / "storemlp_sweep", "--jobs", JOBS, "--seed",
                 self.seed, "--format=json", "--out", out, *SWEEP_REQUEST])
        if not p.ok():
            self.chk.fail(f"storemlp_sweep: {p.why()}", self.RUNS)
            return {}
        return {n: stats_digest(d["stats"])
                for n, d in sweep_docs(out).items()}

    def record(self):
        for name, digest in self.local_sweep().items():
            self.chk.check(name, digest)

    def tracer_args(self):
        return ["--config-dir", CONFIGS, "--jobs", JOBS,
                "--warmup", SWEEP_WARMUP, "--measure", SWEEP_MEASURE]


class MulticoreSmac(Workload):
    name = "multicore_smac"
    ARGS = ["--workload", "database", "--cores", MC_CORES, "--chips",
            MC_CHIPS, "--smac-entries", MC_SMAC, "--moesi"]

    def setup(self):
        for _ in range(SETUP_REPS):
            r = self.sim_op(self.ARGS + ["--warmup", MC_WARMUP,
                                         "--measure", 0], "setup", 0)
            if r:
                self.setup_samples.append((r["wall"], r["rss_kb"]))

    def op(self):
        return self.sim_op(self.ARGS + ["--warmup", MC_WARMUP, "--measure",
                                        MC_MEASURE], "mc",
                           MC_CORES * MC_WARMUP)

    def tracer_args(self):
        return ["--warmup", MC_WARMUP, "--measure", MC_MEASURE,
                "--cores", MC_CORES, "--chips", MC_CHIPS,
                "--smac-entries", MC_SMAC]


WORKLOADS = {w.name: w for w in
             (SimStreamPc, TraceFileWc, SweepLoopback, MulticoreSmac)}


# ---------------------------------------------------------------------
# Untraced run: the end-to-end metrics
# ---------------------------------------------------------------------

def timed_ops(wl, seconds):
    """Repeat the workload's op for `seconds` (at least MIN_OPS); stop
    early once MIN_OPS ops have failed, as the run is lost anyway."""
    ops = []
    t0 = time.perf_counter()
    n = 0
    while n < MIN_OPS or time.perf_counter() - t0 < seconds:
        n += 1
        r = wl.op()
        if r is not None:
            ops.append(r)
        elif n - len(ops) >= MIN_OPS:
            break
    return ops


def end_to_end(wl, seconds):
    wl.setup()
    ops = timed_ops(wl, seconds)
    if isinstance(wl, SweepLoopback):
        local = wl.local_sweep()
        for name, digest in local.items():
            if wl.chk.seen.get(name) != digest:
                wl.chk.fail(f"{name}: remote != local")
    if not ops or not wl.setup_samples:
        return {}, ops
    med = statistics.median
    # Highest RSS of any process, as the median over operations (and
    # over set-ups): single samples of the same command differ by MBs.
    rss_kb = max(med(o["rss_kb"] for o in ops),
                 med(rss for _, rss in wl.setup_samples))
    return {
        "wall_s": med(o["wall"] for o in ops),
        "sim_minsts_per_s": med(o["insts"] / o["wall"] for o in ops) / 1e6,
        "cpu_s": med(o["cpu"] for o in ops),
        "peak_rss_mb": rss_kb / 1024.0,
        "setup_s": med(wall for wall, _ in wl.setup_samples),
    }, ops


# ---------------------------------------------------------------------
# Traced run: the per-layer metrics
# ---------------------------------------------------------------------

def self_times(spans):
    """Span index -> duration minus the union of its children."""
    kids = {}
    for i, s in enumerate(spans):
        kids.setdefault(s["parent"], []).append(i)
    out = {}
    for i, s in enumerate(spans):
        covered, cur_start, cur_end = 0.0, None, None
        for a, b in sorted((max(spans[k]["start"], s["start"]),
                            min(spans[k]["end"], s["end"]))
                           for k in kids.get(i, [])):
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out[i] = (s["end"] - s["start"]) - covered
    return out


class TraceView:
    """Queries over the tracer's spans, counters and documents."""

    def __init__(self, data):
        self.spans = data["spans"]
        self.self_s = self_times(self.spans)
        self.counts = {(c["run"], c["name"]): c["value"]
                       for c in data["counts"]}
        self.docs = data["docs"]
        self.reps = sorted({s["run"] for s in self.spans
                            if s["name"] == "op"})

    def self_sum(self, run, name):
        return sum(self.self_s[i] for i, s in enumerate(self.spans)
                   if s["run"] == run and s["name"] == name)

    def dur(self, run, name):
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["run"] == run and s["name"] == name)

    def count(self, run, name):
        return self.counts.get((run, name), 0.0)

    def stats(self, run):
        return [json.loads(d["json"])["stats"] for d in self.docs
                if d["run"] == run]

    def per_rep(self, fn):
        return statistics.median(fn(r) for r in self.reps)


def ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(wl, tv, untraced_wall):
    m = dict.fromkeys(PER_LAYER, 0.0)
    med = tv.per_rep
    aux = max(tv.reps) + 1
    op_wall = med(lambda r: tv.dur(r, "op"))
    m["trace.overhead_frac"] = ratio(op_wall, untraced_wall) - 1.0
    m["stats.export.self_s"] = med(lambda r: tv.self_sum(r, "stats.export"))

    def engine(warmup_total):
        m["core.engine.self_s"] = med(lambda r: tv.self_sum(r, "core.engine"))
        insts = lambda r: sum(warmup_total + s["core.instructions"]
                              for s in tv.stats(r))
        m["core.engine.minsts_per_s"] = med(lambda r: ratio(
            insts(r), tv.self_sum(r, "core.engine"))) / 1e6
        m["core.engine.epochs_per_kinst"] = med(lambda r: 1000 * ratio(
            sum(s["core.epochs"] for s in tv.stats(r)),
            sum(s["core.instructions"] for s in tv.stats(r))))
        m["trace.lanes.self_s"] = med(lambda r: tv.self_sum(r, "trace.lanes"))

    def accounted(layers):
        m["trace.accounted_frac"] = med(lambda r: ratio(
            sum(tv.self_sum(r, n) for n in layers), tv.dur(r, "op")))

    if isinstance(wl, SimStreamPc):
        engine(SIM_WARMUP)
        m["trace.generate.self_s"] = med(
            lambda r: tv.self_sum(r, "trace.generate"))
        m["trace.generate.minsts_per_s"] = med(lambda r: ratio(
            tv.count(r, "trace.generate.records"),
            tv.self_sum(r, "trace.generate"))) / 1e6
        m["cache.replay.minsts_per_s"] = ratio(
            tv.count(aux, "cache.replay.records"),
            tv.self_sum(aux, "cache.replay")) / 1e6
        m["cache.l2_miss_per_kinst"] = tv.count(
            aux, "cache.replay.l2_miss_per_kinst")
        accounted(["trace.generate", "trace.lanes", "core.engine",
                   "stats.export"])
    elif isinstance(wl, TraceFileWc):
        engine(FILE_WARMUP)
        s = -1  # the set-up spans
        m["trace.generate.self_s"] = tv.self_sum(s, "trace.generate")
        m["trace.generate.minsts_per_s"] = ratio(
            tv.count(s, "trace.generate.records"), m["trace.generate.self_s"]
        ) / 1e6
        m["trace.rewrite.self_s"] = tv.self_sum(s, "trace.rewrite")
        m["trace.rewrite.expansion"] = ratio(tv.count(s, "trace.rewrite.out"),
                                             tv.count(s, "trace.rewrite.in"))
        m["trace.encode.self_s"] = tv.self_sum(s, "trace.encode")
        m["trace.encode.mrec_per_s"] = ratio(
            tv.count(s, "trace.encode.records"), m["trace.encode.self_s"]
        ) / 1e6
        m["trace.encode.bytes_per_rec"] = ratio(
            tv.count(s, "trace.encode.bytes"),
            tv.count(s, "trace.encode.records"))
        m["trace.decode.self_s"] = med(
            lambda r: tv.self_sum(r, "trace.decode"))
        m["trace.decode.mrec_per_s"] = med(lambda r: ratio(
            tv.count(r, "trace.decode.records"),
            tv.self_sum(r, "trace.decode"))) / 1e6
        accounted(["trace.decode", "trace.lanes", "core.engine",
                   "stats.export"])
    elif isinstance(wl, SweepLoopback):
        runs = lambda r: tv.count(r, "core.sweep.runs")
        m["core.config.parse_s"] = tv.self_sum(-1, "core.config")
        m["core.sweep.runs"] = med(runs)
        m["core.sweep.runs_failed"] = med(
            lambda r: tv.count(r, "core.sweep.failed"))
        m["core.sweep.retries"] = med(
            lambda r: tv.count(r, "core.sweep.retries"))

        def run_ms(r):
            pre = "core.sweep.run_ms."
            return sorted(v for (run, k), v in tv.counts.items()
                          if run == r and k.startswith(pre))

        def pct(r, q):
            v = run_ms(r)
            return v[min(len(v) - 1, int(q * len(v)))] if v else 0.0

        m["core.sweep.run_ms_p50"] = med(lambda r: pct(r, 0.5))
        m["core.sweep.run_ms_p90"] = med(lambda r: pct(r, 0.9))
        m["core.sweep.worker_busy_frac"] = med(lambda r: ratio(
            sum(run_ms(r)) / 1000.0,
            tv.count(r, "core.sweep.jobs") * tv.dur(r, "core.sweep")))
        m["stats.json_bytes_per_run"] = med(lambda r: ratio(
            tv.count(r, "stats.json_bytes"), runs(r)))
        for k in ("hits", "misses", "evictions"):
            m[f"trace.cache.{k}"] = med(
                lambda r: tv.count(r, f"trace.cache.{k}"))
        m["trace.cache.hit_ratio"] = ratio(
            m["trace.cache.hits"],
            m["trace.cache.hits"] + m["trace.cache.misses"])
        m["net.overhead_s"] = med(lambda r: tv.dur(r, "net.remote") -
                                  tv.dur(r, "core.sweep"))
        m["net.first_result_s"] = med(lambda r: tv.dur(r, "net.first_result"))
        m["net.reconnects"] = med(lambda r: tv.count(r, "net.reconnects"))
        m["net.frames"] = tv.count(aux, "net.frames")
        m["net.bytes"] = tv.count(aux, "net.bytes")
        m["trace.rewrite.self_s"] = tv.self_sum(aux, "trace.rewrite")
        m["trace.rewrite.expansion"] = ratio(
            tv.count(aux, "trace.rewrite.records"),
            tv.count(aux, "trace.generate.records"))
    elif isinstance(wl, MulticoreSmac):
        mc = "core.multicore"
        m[mc + ".self_s"] = med(lambda r: tv.self_sum(r, mc))
        insts = lambda r: sum(MC_CORES * MC_WARMUP + s["core.instructions"]
                              for s in tv.stats(r))
        m[mc + ".minsts_per_s"] = med(lambda r: ratio(
            insts(r), tv.self_sum(r, mc))) / 1e6
        st = tv.stats(tv.reps[0])[0]
        m["coherence.invalidations_per_kinst"] = 1000 * ratio(
            st["coherence.invalidations"], st["core.instructions"])
        m["coherence.dirty_transfers"] = st["coherence.dirtyTransfers"]
        m["smac.probe_hits"] = sum(v for k, v in st.items()
                                   if re.fullmatch(r"chip\d+\.smac\.probeHits",
                                                   k))
        accounted([mc, "stats.export"])
    return m


def traced(wl, seconds):
    """Untraced ops for the overhead baseline, then the tracer."""
    wl.setup()
    ops = timed_ops(wl, seconds / 2)
    out = WORK / f"spans_{wl.name}.json"
    p = run([TRACER, "--workload", wl.name, "--seed", wl.seed,
             "--reps", TRACE_REPS, "--out", out, *wl.tracer_args()],
            deadline_s=150)
    if not p.ok():
        wl.chk.fail(f"storemlp_layertrace: {p.why()}")
        return {}, ops
    tv = TraceView(json.loads(out.read_text()))
    for d in tv.docs:
        wl.chk.check(d["name"], stats_digest(json.loads(d["json"])["stats"]))
    if isinstance(wl, TraceFileWc):
        wl.chk.check("trace_file", file_digest(wl.traced_trace))
    lost = sum(int(tv.count(r, "net.failed")) for r in tv.reps)
    if lost:
        wl.chk.fail("runs of the in-process remote batch", lost)
    if not ops:
        return {}, ops
    untraced_wall = statistics.median(o["wall"] for o in ops)
    return layer_metrics(wl, tv, untraced_wall), ops


# ---------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------

def record_references():
    refs = {}
    for name, cls in WORKLOADS.items():
        refs[name] = {}
        for ts in TOOL_SEEDS:
            chk = Checker(None)
            cls(ts, chk).record()
            if chk.failed:
                raise BenchError(f"{name} seed {ts}: a run failed")
            refs[name][str(ts)] = chk.seen
            log(f"recorded {name} seed {ts}: {len(chk.seen)} digests")
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="rewrite references.json from this build")
    args = ap.parse_args()
    if not args.record and not args.workload:
        ap.error("--workload is required")

    try:
        build()
        if args.record:
            record_references()
            return 0
        tool_seed = TOOL_SEEDS[args.seed % len(TOOL_SEEDS)]
        refs = json.loads(REFERENCES.read_text())
        chk = Checker(refs[args.workload].get(str(tool_seed), {}))
        wl = WORKLOADS[args.workload](tool_seed, chk)
        prov = provenance(args.seed, tool_seed)
        prov["loadavg_start"] = os.getloadavg()
        t0 = time.perf_counter()
        if args.trace:
            metrics, ops = traced(wl, args.seconds)
            units = PER_LAYER
        else:
            metrics, ops = end_to_end(wl, args.seconds)
            units = END_TO_END
        prov["loadavg_end"] = os.getloadavg()
        prov["elapsed_s"] = time.perf_counter() - t0
        prov["ops"] = len(ops)
    except BenchError as e:
        log(f"error: {e}")
        return 2

    correct = chk.failed == 0 and set(metrics) == set(units)
    result = {
        "correct": correct,
        "attempted": max(chk.attempted, 1),
        "failed": chk.failed if chk.attempted else 1,
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in units.items() if k in metrics},
    }
    (BUILD / "results").mkdir(exist_ok=True)
    (BUILD / "results" / f"{args.workload}-seed{args.seed}"
     f"-trace{args.trace}.json").write_text(json.dumps(
        {"provenance": prov, "result": result, "ops": ops}, indent=1))
    print(json.dumps({"provenance": prov}))
    for k, v in result["metrics"].items():
        print(f"{args.workload} {k} = {v['value']:.6g} {v['unit']}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
