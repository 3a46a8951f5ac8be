#!/usr/bin/env python3
"""Run the pinned performance trajectory and emit BENCH_pipeline.json.

Usage: bench-orchestrator.py [--smoke] [--out FILE] [--classes C1,C2,...]
           [--cli PATH] [--bench-dir DIR] [--drivers NAMES|none] [--jobs N]

Runs end-to-end `narada-cli detect corpus:CN --report` pipeline runs (all
of C1..C9 by default, a small subset with --smoke) plus the table bench
drivers, and folds every run report into one canonical trajectory document
(schema narada.bench_trajectory/v1):

  - per bench: wall/cpu seconds, the run report's counters, the confirmed
    race set, and the job count;
  - counters are the *pinned* part of the trajectory: they are functions
    of the seeded, deterministic pipeline, so any drift is a behavior
    change.  Memory/RSS readings are run-dependent by nature and are
    excluded (EXCLUDED_COUNTER_PREFIXES);
  - timings are recorded but advisory: tools/bench-diff.py compares them
    with a noise threshold while counter/race drift is a hard failure.

The committed root-level BENCH_pipeline.json is the trajectory baseline;
CI re-runs the smoke subset and gates on bench-diff.py.  Exit status: 0 on
success, 1 when any bench run fails, 2 on bad arguments.
"""

import argparse
import json
import os
import resource
import subprocess
import sys
import tempfile
import time

SCHEMA = "narada.bench_trajectory/v1"
SCHEMA_VERSION = 1

ALL_CLASSES = [f"C{i}" for i in range(1, 10)]
SMOKE_CLASSES = ["C1", "C9"]

# Bench drivers (bench/*.cpp binaries) folded into the full trajectory.
# Each accepts --report <file.json>.  The slow ablation/figure drivers are
# deliberately not part of the pinned trajectory — their coverage is
# duplicated by the pipeline runs above.
DEFAULT_DRIVERS = ["table4_synthesis", "table5_detection", "gen_corpus",
                   "daemon_load", "triage_ingest"]

# Counter name prefixes excluded from the pinned trajectory: anything
# measuring memory is a property of the host/allocator, not of the
# pipeline's deterministic behavior.
EXCLUDED_COUNTER_PREFIXES = ("mem.",)


def _fail(message):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(1)


def pinned_counters(report):
    return {
        name: value
        for name, value in report.get("counters", {}).items()
        if not name.startswith(EXCLUDED_COUNTER_PREFIXES)
    }


def race_set(report):
    """The report's race identities, sorted; None when detection never ran."""
    races = report.get("races")
    if races is None:
        return None
    # Sorted by identity tuple for a canonical, diffable order.
    return sorted(
        ({
            "key": entry.get("key", ""),
            "reproduced": bool(entry.get("reproduced", False)),
            "harmful": bool(entry.get("harmful", False)),
        } for entry in races if isinstance(entry, dict)),
        key=lambda e: (e["key"], e["reproduced"], e["harmful"]))


def run_one(name, argv, report_path, env=None):
    """Runs one bench command, returns its trajectory entry."""
    print(f"[bench] {name}: {' '.join(argv)}", file=sys.stderr)
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    wall_start = time.monotonic()
    proc = subprocess.run(argv, stdout=subprocess.DEVNULL, env=env)
    wall = time.monotonic() - wall_start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if proc.returncode != 0:
        _fail(f"{name}: exit status {proc.returncode}")
    try:
        with open(report_path, encoding="utf-8") as f:
            report = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        _fail(f"{name}: unreadable run report: {e}")
    cpu = (after.ru_utime - before.ru_utime) + \
          (after.ru_stime - before.ru_stime)

    entry = {
        "argv": argv[1:],  # Tool path varies by checkout; drop it.
        "report_schema_version": report.get("schema_version", 1),
        "wall_seconds": round(wall, 4),
        "cpu_seconds": round(cpu, 4),
        "counters": pinned_counters(report),
    }
    races = race_set(report)
    if races is not None:
        entry["races"] = races
    return entry


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help=f"small CI subset: classes {','.join(SMOKE_CLASSES)}, "
             f"no bench drivers")
    parser.add_argument(
        "--out", default="BENCH_pipeline.json",
        help="output trajectory file (default: BENCH_pipeline.json)")
    parser.add_argument(
        "--classes", default=None,
        help="comma-separated corpus classes (default: C1..C9, or the "
             "smoke subset with --smoke)")
    parser.add_argument(
        "--cli", default="build/tools/narada-cli",
        help="narada-cli binary (default: build/tools/narada-cli)")
    parser.add_argument(
        "--bench-dir", default="build/bench",
        help="directory holding the bench driver binaries")
    parser.add_argument(
        "--drivers", default=None,
        help="comma-separated bench drivers, or 'none' "
             f"(default: {','.join(DEFAULT_DRIVERS)}; --smoke implies none)")
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker threads for every run (default: 1, the measured "
             "configuration; counters are jobs-independent by design)")
    args = parser.parse_args()

    if args.classes is not None:
        classes = [c for c in args.classes.split(",") if c]
    else:
        classes = SMOKE_CLASSES if args.smoke else ALL_CLASSES
    for c in classes:
        if c not in ALL_CLASSES:
            print(f"error: unknown corpus class '{c}'", file=sys.stderr)
            return 2

    if args.drivers is not None:
        drivers = [] if args.drivers == "none" else \
            [d for d in args.drivers.split(",") if d]
    else:
        drivers = [] if args.smoke else list(DEFAULT_DRIVERS)

    if not os.path.exists(args.cli):
        print(f"error: narada-cli not found at '{args.cli}' "
              f"(build first, or pass --cli)", file=sys.stderr)
        return 2

    benches = {}
    with tempfile.TemporaryDirectory(prefix="narada-bench.") as tmp:
        for corpus_class in classes:
            report = os.path.join(tmp, f"{corpus_class}.report.json")
            benches[f"pipeline:{corpus_class}"] = run_one(
                f"pipeline:{corpus_class}",
                [args.cli, "detect", f"corpus:{corpus_class}",
                 "--jobs", str(args.jobs), "--report", report],
                report)
        for driver in drivers:
            binary = os.path.join(args.bench_dir, driver)
            if not os.path.exists(binary):
                print(f"warning: skipping driver '{driver}' "
                      f"(no binary at {binary})", file=sys.stderr)
                continue
            report = os.path.join(tmp, f"{driver}.report.json")
            benches[f"driver:{driver}"] = run_one(
                f"driver:{driver}", [binary, "--report", report], report,
                env=dict(os.environ, NARADA_JOBS=str(args.jobs)))

    trajectory = {
        "schema": SCHEMA,
        "schema_version": SCHEMA_VERSION,
        "jobs": args.jobs,
        "benches": benches,
    }
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(trajectory, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"[bench] wrote {args.out} ({len(benches)} benches)",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
