#!/usr/bin/env python3
"""Narada-C++ benchmark: builds the program from this checkout and runs one
workload of BENCHMARK.json.

    python3 perfbench/run.py --workload detect-c1 --seed 0 --seconds 30 --trace 0

With --trace 0 it measures the end-to-end metrics with tracing off; with
--trace 1 it runs one untraced pass, then the traced driver
(perfbench-trace trace ...), and reports the per-layer metrics.  Outputs are
checked against perfbench/expected/ and BENCH_pipeline.json; a mismatch
prints "correct": false and exits 1.  The last stdout line is the JSON
result.  `--record` re-records perfbench/expected/<workload>.json (only for
a change that is meant to alter program output).  See perfbench/NOTES.md.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected"
CLASSES = ["C%d" % i for i in range(1, 10)]
# Workload seeds with recorded expected outputs.  --seed n selects
# POOL[n % 4]; workload seed 1 reproduces BENCH_pipeline.json.  The four
# do the same generation work within 5% (19 or 20 step-limited candidates).
POOL = (1, 12, 2, 15)
PROC_TIMEOUT = 170
SETUP_REPEATS = 9
SERVE_CYCLES = 3
SERVE_MAX_ROUNDS = 10  # Keeps edits below the daemon's 64-entry detect memo.
PINNED_COUNTERS = ("runtime.steps", "detect.hb_reports", "detect.step_limit_runs")
DETECT_COUNTERS = PINNED_COUNTERS + (
    "detect.quarantined", "detect.tests_run", "detect.races_reproduced")
SYNTH_TIMES = re.compile(rb"\(analysis [0-9.]+s, synthesis [0-9.]+s\)")


class BenchError(Exception):
    pass


class Proc:
    def __init__(self, wall, cpu, rss_mb, rc, out, err):
        self.wall, self.cpu, self.rss_mb = wall, cpu, rss_mb
        self.rc, self.out, self.err = rc, out, err


class Pass:
    """One pass of a workload: its time, CPU, memory and checked units."""

    def __init__(self, wall=0.0, cpu=0.0, rss_mb=0.0):
        self.wall, self.cpu, self.rss_mb = wall, cpu, rss_mb
        self.units = 0         # tests, requests or generation units
        self.failed_units = 0  # quarantined / skipped / failed, + mismatches
        self.requests_ms = []  # latency of each command or daemon submit
        self.parts = []        # (name, (wall, cpu or None)) per part


class Bench:
    def __init__(self, args, narada, driver, work):
        self.args, self.narada, self.driver, self.work = args, narada, driver, work
        self.seed = POOL[args.seed % len(POOL)]
        self.mismatches = []

    def check(self, ok, what):
        if not ok:
            self.mismatches.append(what)
            print("MISMATCH: %s" % what, file=sys.stderr)
        return ok

    def run(self, argv, cwd=None):
        """Runs one program process; its own rusage gives CPU and peak RSS."""
        out_path, err_path = self.work / "proc.out", self.work / "proc.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([str(a) for a in argv], stdout=out,
                                    stderr=err, cwd=cwd)
            timer = threading.Timer(PROC_TIMEOUT, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Proc(wall, usage.ru_utime + usage.ru_stime,
                    usage.ru_maxrss / 1024.0, proc.returncode,
                    out_path.read_bytes(), err_path.read_bytes())

    def expected(self, workload):
        path = EXPECTED / ("%s.json" % workload)
        if not path.is_file():
            raise BenchError("missing %s (run with --record)" % path)
        return json.loads(path.read_text())[str(self.seed)]


# --------------------------------------------------------------------------
# Build
# --------------------------------------------------------------------------

def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file() or \
            not (ROOT / "tools" / "narada-cli.cpp").is_file():
        raise BenchError("program sources not found in %s" % ROOT)
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    cache = build_dir / "CMakeCache.txt"
    if cache.is_file() and ("CMAKE_HOME_DIRECTORY:INTERNAL=%s\n" % HERE) \
            not in cache.read_text():
        shutil.rmtree(build_dir)
    build_dir.mkdir(parents=True, exist_ok=True)
    log_path = build_dir / "perfbench-build.log"
    with open(log_path, "ab") as log:
        steps = []
        if not cache.is_file():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir)]
                         + generator)
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", str(build_dir), "--parallel", jobs])
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=log) != 0:
                tail = log_path.read_text(errors="replace")[-3000:]
                raise BenchError("build failed:\n%s" % tail)
    return build_dir / "narada-cli", build_dir / "perfbench-trace"


# --------------------------------------------------------------------------
# Passes
# --------------------------------------------------------------------------

def sha256(data):
    return hashlib.sha256(data).hexdigest()


def race_set(report):
    return sorted("%s|%d|%d" % (r["key"], r["reproduced"], r["harmful"])
                  for r in report.get("races", []))


def pinned_c1():
    """The race set and counters BENCH_pipeline.json pins for C1."""
    pinned = json.loads((ROOT / "BENCH_pipeline.json").read_text())
    c1 = pinned["benches"]["pipeline:C1"]
    return race_set(c1), {k: c1["counters"][k] for k in PINNED_COUNTERS}


def detect_argv(b, workload, report):
    cls, extra = {"detect-c1": ("C1", []),
                  "explore-c6": ("C6", ["--explore", "systematic"])}[workload]
    return [b.driver, "cli", b.seed, "detect", "corpus:" + cls, "--jobs", "1",
            *extra, "--report", report]


def detect_observe(b, workload):
    """Runs the workload's detect command once; returns (proc, observation)."""
    report = b.work / "detect.report.json"
    proc = b.run(detect_argv(b, workload, report))
    if proc.rc != 0:
        raise BenchError("%s exited %d: %s" % (workload, proc.rc,
                                               proc.err[-2000:].decode()))
    rep = json.loads(report.read_text())
    return proc, {"stdout_sha256": sha256(proc.out), "races": race_set(rep),
                  "counters": {k: rep["counters"].get(k, 0)
                               for k in DETECT_COUNTERS}}


def detect_pass(b, workload):
    proc, seen = detect_observe(b, workload)
    want = b.expected(workload)
    ok = b.check(seen["stdout_sha256"] == want["stdout_sha256"],
                 "%s stdout differs from the recorded one" % workload)
    ok &= b.check(seen["races"] == want["races"],
                  "%s race set differs from the recorded one" % workload)
    ok &= b.check(seen["counters"] == want["counters"],
                  "%s counters %s != recorded %s"
                  % (workload, seen["counters"], want["counters"]))
    if workload == "detect-c1" and b.seed == 1:
        races, counters = pinned_c1()
        ok &= b.check(seen["races"] == races,
                      "detect-c1 race set differs from BENCH_pipeline.json")
        got = {k: seen["counters"][k] for k in PINNED_COUNTERS}
        ok &= b.check(got == counters, "detect-c1 counters %s != "
                      "BENCH_pipeline.json %s" % (got, counters))
    p = Pass(proc.wall, proc.cpu, proc.rss_mb)
    p.units = seen["counters"]["detect.tests_run"]
    p.failed_units = seen["counters"]["detect.quarantined"] + (0 if ok else 1)
    p.requests_ms = [proc.wall * 1000.0]
    return p


def gen_commands(b):
    for cls in CLASSES:
        yield cls + "/gen", ["synthesize", "corpus:" + cls, "--jobs", "1",
                             "--gen-seeds", "--seed", b.seed]
        yield cls + "/hand", ["synthesize", "corpus:" + cls, "--jobs", "1"]


def gen_observe(b):
    """Runs the 18 gen-seeds commands once; returns (pass, observation)."""
    p, seen = Pass(), {}
    report = b.work / "synth.report.json"
    for name, argv in gen_commands(b):
        proc = b.run([b.narada, *argv, "--report", report])
        if proc.rc != 0:
            raise BenchError("%s exited %d: %s" % (name, proc.rc,
                                                   proc.err[-2000:].decode()))
        c = json.loads(report.read_text())["counters"]
        seen[name] = sha256(SYNTH_TIMES.sub(b"(analysis -, synthesis -)",
                                            proc.out))
        p.wall += proc.wall
        p.cpu += proc.cpu
        p.rss_mb = max(p.rss_mb, proc.rss_mb)
        p.requests_ms.append(proc.wall * 1000.0)
        p.parts.append((name, (proc.wall, proc.cpu)))
        p.units += c.get("gen.candidates", 0) + c.get("synth.pairs_generated", 0)
        p.failed_units += (c.get("gen.quarantined", 0)
                           + c.get("synth.pairs_skipped.internal_fault", 0)
                           + c.get("synth.pairs_skipped.worker_crash", 0))
    return p, seen


def gen_pass(b):
    p, seen = gen_observe(b)
    want = b.expected("gen-seeds")
    for name, digest in seen.items():
        if not b.check(digest == want.get(name),
                       "gen-seeds %s stdout differs from the recorded one"
                       % name):
            p.failed_units += 1
    return p


def setup_cli(b):
    """Input preparation for the CLI workloads: the program must start and
    list its built-in corpus.  Median of SETUP_REPEATS launches."""
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = b.run([b.narada, "corpus"])
        text = proc.out.decode(errors="replace")
        if proc.rc != 0 or not all(c in text for c in CLASSES):
            raise BenchError("narada-cli corpus did not list C1..C9")
        samples.append(proc.wall)
    return samples


def timed_passes(seconds, one_pass):
    """Repeats passes while another one (at the median pass time so far)
    still fits in `seconds`; always at least one."""
    passes, start = [], time.perf_counter()
    while True:
        passes.append(one_pass())
        est = stats.median([p.wall for p in passes])
        if time.perf_counter() - start + est > seconds:
            return passes


# --------------------------------------------------------------------------
# serve-mix
# --------------------------------------------------------------------------

class Daemon:
    """One `narada-cli serve --cache --racedb` process in `directory`."""

    SOCKET = "s.sock"  # Relative: the checkout path may exceed sun_path.

    def __init__(self, b, directory):
        self.b, self.dir = b, directory
        self.log = open(directory / "daemon.log", "ab")
        self.proc = subprocess.Popen(
            [str(b.narada), "serve", "--socket", self.SOCKET, "--cache",
             "serve.cache", "--racedb", "serve.racedb"],
            cwd=directory, stdout=self.log, stderr=self.log)
        self.usage = None
        if self.client("ping").rc != 0:
            self.kill()
            raise BenchError("serve daemon never answered ping")

    def client(self, *args):
        return self.b.run([self.b.driver, "client", self.SOCKET, *args],
                          cwd=self.dir)

    def cpu(self):
        fields = (Path("/proc/%d/stat" % self.proc.pid).read_text()
                  .rsplit(")", 1)[1].split())
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self):
        self.client("shutdown")
        timer = threading.Timer(PROC_TIMEOUT, self.proc.kill)
        timer.start()
        try:
            _, status, self.usage = os.wait4(self.proc.pid, 0)
        finally:
            timer.cancel()
            self.log.close()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        return self.usage.ru_maxrss / 1024.0

    def kill(self):
        if self.proc.returncode is None:
            self.proc.kill()
            self.proc.wait()
        self.log.close()


def parse_requests(b, proc):
    """Client lines "<kind> <class> <round> <seconds> <ok> <why>"."""
    if proc.rc != 0:
        raise BenchError("serve client exited %d: %s"
                         % (proc.rc, proc.err[-2000:].decode()))
    rows = [line.split() for line in proc.out.decode().splitlines()]
    for kind, cls, rnd, _, ok, why in rows:
        b.check(ok == "1", "serve-mix %s %s round %s: %s" % (kind, cls, rnd, why))
    return rows


def serve_setup(b, directory):
    """Cold priming submit per class, then a daemon restart on the saved
    cache and race database until it answers ping."""
    start = time.perf_counter()
    daemon = Daemon(b, directory)
    try:
        parse_requests(b, daemon.client("prime", ".", b.seed))
        rss = daemon.stop()
        daemon = Daemon(b, directory)
    except BaseException:
        daemon.kill()
        raise
    return time.perf_counter() - start, daemon, rss


def serve_cycle(b, cycle, budget, max_rounds=SERVE_MAX_ROUNDS):
    """One daemon lifetime: set-up, then closed-loop rounds within budget."""
    directory = b.work / ("cycle%d" % cycle)
    directory.mkdir()
    setup, daemon, rss = serve_setup(b, directory)
    passes = []
    try:
        start = time.perf_counter()
        for rnd in range(max_rounds):
            cpu0 = daemon.cpu()
            rows = parse_requests(b, daemon.client("round", ".", b.seed, rnd))
            p = Pass(cpu=daemon.cpu() - cpu0)
            p.requests_ms = [float(r[3]) * 1000.0 for r in rows]
            p.parts = [(r[0] + "/" + r[1], (float(r[3]), None)) for r in rows]
            p.wall = sum(p.requests_ms) / 1000.0
            p.units = len(rows)
            p.failed_units = sum(1 for r in rows if r[4] != "1")
            passes.append(p)
            est = stats.median([q.wall for q in passes])
            if len(passes) >= 2 and time.perf_counter() - start + est > budget:
                break
        rss = max(rss, daemon.stop())
    except BaseException:
        daemon.kill()
        raise
    for p in passes:
        p.rss_mb = rss
    return setup, passes


def serve_run(b, seconds):
    setups, passes = [], []
    for cycle in range(SERVE_CYCLES):
        setup, ps = serve_cycle(b, cycle, seconds / SERVE_CYCLES - 1.0)
        setups.append(setup)
        passes += ps
    return setups, passes


# --------------------------------------------------------------------------
# Metrics
# --------------------------------------------------------------------------

def median_pass(passes):
    """(wall, cpu) of the median pass.  A pass made of named parts (the
    commands of gen-seeds, the requests of a serve-mix round) is rebuilt
    from per-part medians, so a burst of host contention during one part
    does not move the figure; a one-command pass is the median over
    passes."""
    parts = {}
    for p in passes:
        for name, sample in p.parts:
            parts.setdefault(name, []).append(sample)
    walls = [p.wall for p in passes]
    cpus = [p.cpu for p in passes]
    if not parts:
        return stats.median(walls), stats.median(cpus)

    def rebuilt(index):
        return sum(stats.median([s[index] for s in samples])
                   * len(samples) / len(passes)
                   for samples in parts.values())
    part_cpu = all(s[1] is not None for v in parts.values() for s in v)
    return rebuilt(0), rebuilt(1) if part_cpu else stats.median(cpus)


def end_to_end(setups, passes):
    requests = [ms for p in passes for ms in p.requests_ms]
    units = sum(p.units for p in passes)
    failed = sum(p.failed_units for p in passes)
    top = stats.highest_percentile(requests)
    print("passes=%d (wall s q1/median/q3 %.3f/%.3f/%.3f) units=%d "
          "failed_units=%d" % ((len(passes),)
                               + stats.quartiles([p.wall for p in passes])
                               + (units, failed)))
    print("requests=%d latency p50 %.3f ms, %s" % (
        len(requests), stats.median(requests),
        "p%g %.3f ms (>=10 requests beyond it)" % top if top
        else "too few requests for a tail percentile"))
    wall, cpu = median_pass(passes)
    return {
        "setup_s": stats.median(setups),
        "run_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": max(p.rss_mb for p in passes),
        "ok_frac": 1.0 - failed / units if units else 0.0,
    }


def self_times(spans):
    """Per span name: (count, total seconds, self seconds).  A span's self
    time is its duration minus the part its children cover."""
    children = {}
    for _, _, start, end, parent in spans:
        children.setdefault(parent, []).append((start, end))
    table = {}
    for index, (name, _, start, end, _) in enumerate(spans):
        covered, cursor = 0.0, start
        for c_start, c_end in sorted(children.get(index, [])):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        count, total, own = table.get(name, (0, 0.0, 0.0))
        table[name] = (count + 1, total + end - start,
                       own + (end - start) - covered)
    return table


def traced(b, workload, untraced_run_s):
    out = b.work / "trace.json"
    proc = b.run([b.driver, "trace", workload, b.seed, out, b.work])
    if proc.rc != 0:
        raise BenchError("traced run exited %d: %s"
                         % (proc.rc, proc.err[-2000:].decode()))
    data = json.loads(out.read_text())
    for failure in data["failures"]:
        b.check(False, failure)
    print("%-34s %6s %12s %12s" % ("span", "count", "total_s", "self_s"))
    for name, (count, total, own) in sorted(self_times(data["spans"]).items()):
        print("%-34s %6d %12.6f %12.6f" % (name, count, total, own))
    metrics = data["metrics"]
    metrics["trace.overhead_ratio"] = metrics["trace.run_s"] / untraced_run_s
    if workload in ("detect-c1", "explore-c6"):
        want = b.expected(workload)
        expect = {k: want["counters"][k] for k in PINNED_COUNTERS}
        # Distinct reproduced keys; the report's counter sums over tests.
        expect["detect.races_reproduced"] = sum(
            1 for r in want["races"] if r.rsplit("|", 2)[1] == "1")
        for name, value in expect.items():
            b.check(metrics.get(name, 0) == value,
                    "traced %s = %s, expected %s"
                    % (name, metrics.get(name, 0), value))
    return metrics


def run_workload(b, spec):
    workload, seconds = b.args.workload, b.args.seconds
    if workload == "serve-mix":
        if b.args.trace:
            _, passes = serve_cycle(b, 0, 0.0, max_rounds=2)
            setups = None
        else:
            setups, passes = serve_run(b, seconds)
    else:
        setups = setup_cli(b)
        if workload == "gen-seeds":
            one = lambda: gen_pass(b)  # noqa: E731
        else:
            one = lambda: detect_pass(b, workload)  # noqa: E731
        passes = [one()] if b.args.trace else timed_passes(seconds, one)
    e2e = end_to_end(setups or [0.0], passes)
    if not b.args.trace:
        return e2e, spec["end_to_end"], sum(p.units for p in passes)
    metrics = traced(b, workload, e2e["run_s"])
    return metrics, spec["per_layer"], sum(p.units for p in passes)


def record(b):
    """Writes perfbench/expected/<workload>.json: two passes per pool seed,
    which must agree (the outputs are deterministic)."""
    workload, recorded = b.args.workload, {}
    if workload == "serve-mix":
        raise BenchError("serve-mix checks itself; nothing to record")
    if workload == "gen-seeds":
        observe = lambda: gen_observe(b)[1]  # noqa: E731
    else:
        observe = lambda: detect_observe(b, workload)[1]  # noqa: E731
    for seed in POOL:
        b.seed = seed
        first, second = observe(), observe()
        if first != second:
            raise BenchError("seed %d: two runs disagree" % seed)
        recorded[str(seed)] = first
    EXPECTED.mkdir(exist_ok=True)
    path = EXPECTED / ("%s.json" % workload)
    path.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print("wrote %s" % path)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)

    work = ROOT / ".bench_out" / ("%s-%d" % (args.workload, os.getpid()))
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        if args.workload not in [w["name"] for w in spec["workloads"]]:
            raise BenchError("unknown workload %r" % args.workload)
        narada, driver = build()
        # All load comes from one CPU: the client and the single-job
        # program share it, so no request waits on waking an idle CPU.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        work.mkdir(parents=True)
        b = Bench(args, narada, driver, work)
        if args.record:
            record(b)
            return 0
        print("workload=%s seed=%d workload_seed=%d seconds=%g trace=%d"
              % (args.workload, args.seed, b.seed, args.seconds, args.trace))
        values, declared, attempted = run_workload(b, spec)
    except BenchError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {}
    for m in declared:
        value = float(values.get(m["name"], 0.0))
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print("%-34s %16.6f %s" % (m["name"], value, m["unit"]))
    for failure in b.mismatches:
        print("FAILED: %s" % failure)
    correct = not b.mismatches
    print(json.dumps({"correct": correct, "attempted": max(1, attempted),
                      "failed": len(b.mismatches), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
