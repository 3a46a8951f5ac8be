#!/usr/bin/env python3
"""Compare two narada run reports (narada.run_report/v1 JSON documents).

Usage: report-diff.py BASELINE.json CURRENT.json
           [--threshold PCT] [--races] [--races-only] [--recall]

Prints every phase whose wall time regressed by more than the threshold
(default 10%) and summarizes counter drift.  Exit status: 0 when no phase
regression exceeds the threshold, 1 when at least one does, 2 on bad input
or when the two reports carry different schema_version revisions (an older
report must be regenerated, not diffed across versions).
Tiny phases (< 1ms in both reports) are ignored: their relative timing is
noise.

With --races, additionally requires the two reports' race sets to be
identical — same keys, same reproduced flags — and exits 1 on any
mismatch.  Static verdict annotations are ignored in the comparison (a
--static-verdicts run annotates verdicts; the race identities must still
match a dynamic-only baseline exactly).  With --races-only the phase and
counter diff is skipped entirely and the exit status reflects race-set
identity alone — the mode for the CI static-verdicts sweep, which
compares runs whose phase timings legitimately differ (different job
counts, sub-millisecond phases) and cares only that the races match.

With --recall (composes with --races/--races-only) the race comparison is
one-sided: every baseline race key must appear in the current report, but
races only the current report finds are printed as notes, never failures.
This is the generated-seed-corpus gate — a corpus synthesized from the API
model must reproduce the hand-written suite's races (recall), while the
extra races generation reaches are the point of the feature, not drift.
Reproduced flags are not compared in recall mode: whether a race could be
*confirmed* under the confirmation scheduler may differ between seed
suites that stage the race through different contexts.

Reports may legitimately have different phase sets — a --jobs 4 run has
per-worker spans (pipeline.synth.worker0...) that a --jobs 1 run lacks,
and an --explore systematic run has explore/schedule/witness spans that a
random-mode run lacks.  A phase present in only one report is treated as
0s on the other side and never as a regression; known configuration-
dependent phases (workers, exploration) get an informational note, any
other one-sided phase a warning.
"""

import argparse
import json
import sys

SCHEMA = "narada.run_report/v1"
MIN_SECONDS = 0.001  # Phases below this in both reports are noise.

# Dotted-path segments of phases that exist only under certain run
# configurations: worker spans only at --jobs > 1, exploration spans only
# under --explore systematic / --replay, pool spans only under --isolate.
# Their absence from one side of a diff is expected, not suspicious.
_VARIABLE_SEGMENT_PREFIXES = ("worker",)
# derive/synthesize/test/confirm spans re-root when the run configuration
# moves them between worker threads (--jobs), worker subprocesses
# (--isolate) and the calling thread, so their dotted paths are one-sided
# across such diffs even though the work itself ran on both sides.  serve
# covers daemon-rooted spans: a request handled by narada-cli serve may
# skip whole phases (cached stages never run), so serve-side span shapes
# are config, not behavior.
_VARIABLE_SEGMENTS = {"explore", "schedule", "witness", "staticrace", "pool",
                      "derive", "synthesize", "test", "confirm", "serve"}

# Counters whose values are expected to differ across exploration modes or
# when the static pre-analysis is toggled; drift in them is annotated
# rather than left to look like a anomaly.  pool.* counters exist only
# under --isolate.
# serve.* counters exist only for requests executed by a narada-cli serve
# daemon, and their hit/miss split depends on the daemon's cache
# temperature — a warm resubmit is byte-identical in results but reports
# cache hits where the cold CLI run reports none.
MODE_DEPENDENT_COUNTER_PREFIXES = (
    "explore.",
    "staticrace.",
    "pool.",
    "serve.",
    "synth.derivations",
)

# Counters that record crash-contained work units (--isolate hard-fault
# quarantines).  Drift in them means one run lost units to worker crashes;
# render those prominently so a fault-injection run diffed against a clean
# baseline explains its own skip/race deltas.
CRASH_QUARANTINE_COUNTERS = {
    "detect.worker_crashes":
        "detection units quarantined by worker crashes",
    "synth.pairs_skipped.worker_crash":
        "synthesis pairs skipped by worker crashes",
    "pool.units_poisoned":
        "units poisoned after repeated worker deaths",
}


def is_config_dependent_phase(name):
    """True for phases whose presence depends on run configuration."""
    for segment in name.split("."):
        if segment in _VARIABLE_SEGMENTS:
            return True
        if any(segment.startswith(p) for p in _VARIABLE_SEGMENT_PREFIXES):
            return True
    return False


def _bad_input(path, why):
    print(f"error: {path}: {why}", file=sys.stderr)
    raise SystemExit(2)


def load_report(path):
    """Loads and validates one report.

    Every member this script later touches is type-checked here, so a
    malformed report (truncated file, "phases" as a list, a counter that is
    a string, ...) exits 2 with a message naming the offending member
    instead of crashing with a traceback deep inside diff_reports.
    """
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        _bad_input(path, e)
    if not isinstance(doc, dict):
        _bad_input(path, "top level is not a JSON object")
    if doc.get("schema") != SCHEMA:
        _bad_input(path, f"not a {SCHEMA} document")
    version = doc.get("schema_version", 1)
    if isinstance(version, bool) or not isinstance(version, int) \
            or version < 1:
        _bad_input(path, "'schema_version' is not a positive integer")

    phases = doc.get("phases", {})
    if not isinstance(phases, dict):
        _bad_input(path, "'phases' is not an object")
    for name, data in phases.items():
        if not isinstance(data, dict):
            _bad_input(path, f"'phases.{name}' is not an object")
        seconds = data.get("seconds", 0.0)
        if isinstance(seconds, bool) or not isinstance(seconds, (int, float)):
            _bad_input(path, f"'phases.{name}.seconds' is not a number")

    counters = doc.get("counters", {})
    if not isinstance(counters, dict):
        _bad_input(path, "'counters' is not an object")
    for name, value in counters.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            _bad_input(path, f"'counters.{name}' is not a number")

    races = doc.get("races")
    if races is not None:
        if not isinstance(races, list):
            _bad_input(path, "'races' is not an array")
        for i, entry in enumerate(races):
            if not isinstance(entry, dict):
                _bad_input(path, f"'races[{i}]' is not an object")
            if not isinstance(entry.get("key"), str):
                _bad_input(path, f"'races[{i}].key' is not a string")
            if not isinstance(entry.get("reproduced", False), bool):
                _bad_input(path, f"'races[{i}].reproduced' is not a bool")

    return doc


def phase_seconds(doc):
    return {
        name: data.get("seconds", 0.0)
        for name, data in doc.get("phases", {}).items()
    }


def diff_reports(base, cur, threshold):
    """Compares two parsed reports.

    Returns (regressions, warnings, notes, drifted):
      regressions: [(phase, before_s, after_s, delta_pct)] over threshold;
      warnings:    [str] for unexpected phases present in only one report;
      notes:       [str] for known config-dependent one-sided phases;
      drifted:     [(counter, before, after)] for changed counters.
    """
    base_phases = phase_seconds(base)
    cur_phases = phase_seconds(cur)

    regressions = []
    warnings = []
    notes = []
    for name in sorted(set(base_phases) | set(cur_phases)):
        in_base = name in base_phases
        in_cur = name in cur_phases
        before = base_phases.get(name, 0.0)
        after = cur_phases.get(name, 0.0)
        if not in_base or not in_cur:
            # Differing phase sets: missing side counts as 0, and this is
            # never a regression.  Worker and exploration spans are known
            # to come and go with --jobs / --explore, so they only rate a
            # note; anything else one-sided is worth a warning.
            if max(before, after) >= MIN_SECONDS:
                where = "baseline" if not in_base else "current"
                message = (f"phase '{name}' missing from {where} report "
                           f"(treating as 0s)")
                if is_config_dependent_phase(name):
                    notes.append(message + " [config-dependent]")
                else:
                    warnings.append(message)
            continue
        if before < MIN_SECONDS and after < MIN_SECONDS:
            continue
        if before <= 0.0:
            continue  # Zero-time baseline phase: nothing to compare against.
        delta_pct = (after - before) / before * 100.0
        if delta_pct > threshold:
            regressions.append((name, before, after, delta_pct))

    base_counters = base.get("counters", {})
    cur_counters = cur.get("counters", {})
    drifted = [
        (name, base_counters.get(name, 0), cur_counters.get(name, 0))
        for name in sorted(set(base_counters) | set(cur_counters))
        if base_counters.get(name, 0) != cur_counters.get(name, 0)
    ]
    return regressions, warnings, notes, drifted


def race_flags(doc):
    """Maps race key -> reproduced flag; None when no 'races' member."""
    races = doc.get("races")
    if races is None:
        return None
    return {entry["key"]: bool(entry.get("reproduced", False))
            for entry in races}


def diff_races(base, cur):
    """Strictly compares the two reports' race sets.

    Returns human-readable mismatch lines; empty means the sets are
    identical (same keys, same reproduced flags).  A report without a
    'races' member never ran detection with race recording, which in
    --races mode is itself a mismatch worth reporting.
    """
    base_races = race_flags(base)
    cur_races = race_flags(cur)
    if base_races is None or cur_races is None:
        missing = [where for where, flags in
                   (("baseline", base_races), ("current", cur_races))
                   if flags is None]
        return [f"no 'races' member in {where} report" for where in missing]
    mismatches = []
    for key in sorted(set(base_races) | set(cur_races)):
        if key not in cur_races:
            mismatches.append(
                f"race only in baseline: {key} "
                f"(reproduced={base_races[key]})")
        elif key not in base_races:
            mismatches.append(
                f"race only in current: {key} "
                f"(reproduced={cur_races[key]})")
        elif base_races[key] != cur_races[key]:
            mismatches.append(
                f"race '{key}' reproduced flag changed: "
                f"{base_races[key]} -> {cur_races[key]}")
    return mismatches


def diff_race_recall(base, cur):
    """One-sided race comparison for the generated-seed-corpus gate.

    Returns (failures, extras): failures lists baseline races the current
    report misses (recall violations); extras lists races only the current
    report finds, which are informational — a generated corpus reaching
    states the hand-written suite never staged is the feature working.
    Reproduced flags are not compared (see module docstring).
    """
    base_races = race_flags(base)
    cur_races = race_flags(cur)
    if base_races is None or cur_races is None:
        missing = [where for where, flags in
                   (("baseline", base_races), ("current", cur_races))
                   if flags is None]
        return ([f"no 'races' member in {where} report" for where in missing],
                [])
    failures = [f"baseline race not recalled: {key}"
                for key in sorted(base_races) if key not in cur_races]
    extras = [f"race only in current: {key}"
              for key in sorted(cur_races) if key not in base_races]
    return failures, extras


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument(
        "--threshold", type=float, default=10.0,
        help="regression threshold in percent (default: 10)")
    parser.add_argument(
        "--races", action="store_true",
        help="also require identical race sets (keys + reproduced flags)")
    parser.add_argument(
        "--races-only", action="store_true",
        help="compare only race sets; skip the phase/counter diff and base "
             "the exit status on race-set identity alone")
    parser.add_argument(
        "--recall", action="store_true",
        help="one-sided race comparison: baseline races must all appear in "
             "current; extra current races are notes, not failures")
    args = parser.parse_args()

    base = load_report(args.baseline)
    cur = load_report(args.current)

    # Reports written by different schema revisions are not comparable:
    # a member one writer records and the other does not would read as
    # drift.  Regenerate the older report rather than diffing across
    # versions (absent schema_version means revision 1).
    base_version = base.get("schema_version", 1)
    cur_version = cur.get("schema_version", 1)
    if base_version != cur_version:
        print(f"error: schema_version mismatch: {args.baseline} is "
              f"version {base_version}, {args.current} is version "
              f"{cur_version}; regenerate the older report",
              file=sys.stderr)
        raise SystemExit(2)

    regressions = []
    if not args.races_only:
        regressions, warnings, notes, drifted = diff_reports(
            base, cur, args.threshold)

        for note in notes:
            print(f"note: {note}", file=sys.stderr)
        for warning in warnings:
            print(f"warning: {warning}", file=sys.stderr)

        if regressions:
            print(f"phase regressions over {args.threshold:.0f}%:")
            for name, before, after, delta_pct in regressions:
                print(f"  {name:<40} {before:8.4f}s -> {after:8.4f}s "
                      f"(+{delta_pct:.1f}%)")
        else:
            print(f"no phase regression over {args.threshold:.0f}%")

        if drifted:
            print(f"counter drift ({len(drifted)} changed):")
            for name, before, after in drifted:
                if name in CRASH_QUARANTINE_COUNTERS:
                    suffix = " [crash-quarantine]"
                elif any(name.startswith(p)
                         for p in MODE_DEPENDENT_COUNTER_PREFIXES):
                    suffix = " [mode-dependent]"
                else:
                    suffix = ""
                print(f"  {name}: {before} -> {after}{suffix}")

        # Crash quarantines explain themselves: a unit lost to a worker
        # crash takes its races and synthesized tests with it, so the
        # summary names them instead of leaving the reader to decode
        # counter names.
        crashed = []
        for name in sorted(CRASH_QUARANTINE_COUNTERS):
            before = base.get("counters", {}).get(name, 0)
            after = cur.get("counters", {}).get(name, 0)
            if before != after:
                crashed.append((name, before, after))
        if crashed:
            print("crash quarantines (config-dependent; see "
                  "docs/ROBUSTNESS.md):")
            for name, before, after in crashed:
                print(f"  {CRASH_QUARANTINE_COUNTERS[name]}: "
                      f"{before} -> {after}")

    race_mismatches = []
    if args.races or args.races_only:
        if args.recall:
            race_mismatches, extra = diff_race_recall(base, cur)
            for line in extra:
                print(f"note: {line}", file=sys.stderr)
            if not race_mismatches:
                covered = len(race_flags(base) or {})
                print(f"race recall complete ({covered} baseline races, "
                      f"{len(extra)} extra in current)")
        else:
            race_mismatches = diff_races(base, cur)
        if race_mismatches:
            label = "race recall failures" if args.recall \
                else "race set mismatches"
            print(f"{label} ({len(race_mismatches)}):")
            for line in race_mismatches:
                print(f"  {line}")
        elif not args.recall:
            count = len(race_flags(base))
            print(f"race sets identical ({count} races)")

    return 1 if regressions or race_mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
