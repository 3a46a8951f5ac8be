#!/usr/bin/env python3
"""Unit tests for report-diff.py (invoked by ctest as report_diff_unit)."""

import contextlib
import importlib.util
import io
import json
import os
import tempfile
import unittest

_SPEC = importlib.util.spec_from_file_location(
    "report_diff",
    os.path.join(os.path.dirname(os.path.abspath(__file__)),
                 "report-diff.py"))
report_diff = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(report_diff)


def report(phases=None, counters=None, races=None):
    doc = {"schema": "narada.run_report/v1"}
    doc["phases"] = {
        name: {"seconds": seconds} for name, seconds in (phases or {}).items()
    }
    doc["counters"] = dict(counters or {})
    if races is not None:
        doc["races"] = [
            {"key": key, "static_verdict": verdict, "reproduced": reproduced,
             "harmful": False}
            for key, reproduced, verdict in races
        ]
    return doc


class DiffReportsTest(unittest.TestCase):
    def test_no_change_is_clean(self):
        base = report({"pipeline": 1.0, "pipeline.synth": 0.4})
        regressions, warnings, notes, drifted = report_diff.diff_reports(
            base, base, 10.0)
        self.assertEqual(regressions, [])
        self.assertEqual(warnings, [])
        self.assertEqual(notes, [])
        self.assertEqual(drifted, [])

    def test_regression_over_threshold_is_flagged(self):
        base = report({"pipeline": 1.0})
        cur = report({"pipeline": 1.5})
        regressions, _, _, _ = report_diff.diff_reports(base, cur, 10.0)
        self.assertEqual(len(regressions), 1)
        name, before, after, delta = regressions[0]
        self.assertEqual(name, "pipeline")
        self.assertEqual((before, after), (1.0, 1.5))
        self.assertAlmostEqual(delta, 50.0)

    def test_improvement_is_not_flagged(self):
        base = report({"pipeline": 1.0})
        cur = report({"pipeline": 0.5})
        regressions, _, _, _ = report_diff.diff_reports(base, cur, 10.0)
        self.assertEqual(regressions, [])

    def test_worker_phase_only_in_current_notes_not_regresses(self):
        # A --jobs 4 report has worker spans the serial baseline lacks;
        # those are known config-dependent, so they rate notes, not
        # warnings.
        base = report({"pipeline.synth": 0.4})
        cur = report({"pipeline.synth": 0.4,
                      "pipeline.synth.worker0": 0.2,
                      "pipeline.synth.worker1": 0.2})
        regressions, warnings, notes, _ = report_diff.diff_reports(
            base, cur, 10.0)
        self.assertEqual(regressions, [])
        self.assertEqual(warnings, [])
        self.assertEqual(len(notes), 2)
        self.assertIn("worker0", notes[0])
        self.assertIn("missing from baseline", notes[0])
        self.assertIn("[config-dependent]", notes[0])

    def test_worker_phase_only_in_baseline_notes_not_regresses(self):
        base = report({"pipeline.synth": 0.4, "pipeline.synth.worker0": 0.2})
        cur = report({"pipeline.synth": 0.4})
        regressions, warnings, notes, _ = report_diff.diff_reports(
            base, cur, 10.0)
        self.assertEqual(regressions, [])
        self.assertEqual(warnings, [])
        self.assertEqual(len(notes), 1)
        self.assertIn("missing from current", notes[0])

    def test_explore_phase_only_in_current_notes_not_warns(self):
        # An --explore systematic run has exploration spans a random-mode
        # baseline lacks.
        base = report({"detect": 1.0})
        cur = report({"detect": 1.2,
                      "detect.explore": 0.8,
                      "detect.explore.schedule": 0.7,
                      "detect.witness": 0.1})
        _, warnings, notes, _ = report_diff.diff_reports(base, cur, 10.0)
        self.assertEqual(warnings, [])
        self.assertEqual(len(notes), 3)

    def test_unexpected_one_sided_phase_still_warns(self):
        base = report({"pipeline": 1.0})
        cur = report({"pipeline": 1.0, "pipeline.mystery": 0.5})
        _, warnings, notes, _ = report_diff.diff_reports(base, cur, 10.0)
        self.assertEqual(notes, [])
        self.assertEqual(len(warnings), 1)
        self.assertIn("mystery", warnings[0])

    def test_is_config_dependent_phase(self):
        for name in ("pipeline.synth.worker0", "detect.explore",
                     "detect.explore.schedule", "detect.witness"):
            self.assertTrue(report_diff.is_config_dependent_phase(name), name)
        for name in ("pipeline", "detect", "pipeline.synth",
                     "detect.exploreish"):
            self.assertFalse(report_diff.is_config_dependent_phase(name),
                             name)

    def test_missing_tiny_phase_does_not_warn(self):
        base = report({"pipeline": 1.0})
        cur = report({"pipeline": 1.0, "pipeline.blip": 0.0002})
        _, warnings, notes, _ = report_diff.diff_reports(base, cur, 10.0)
        self.assertEqual(warnings, [])
        self.assertEqual(notes, [])

    def test_tiny_phases_ignored_for_regressions(self):
        base = report({"pipeline.blip": 0.0001})
        cur = report({"pipeline.blip": 0.0009})  # 800% but sub-millisecond.
        regressions, _, _, _ = report_diff.diff_reports(base, cur, 10.0)
        self.assertEqual(regressions, [])

    def test_counter_drift_treats_missing_as_zero(self):
        base = report(counters={"synth.tests_synthesized": 15})
        cur = report(counters={"synth.tests_synthesized": 15,
                               "synth.pairs_deduped": 40})
        _, _, _, drifted = report_diff.diff_reports(base, cur, 10.0)
        self.assertEqual(drifted, [("synth.pairs_deduped", 0, 40)])

    def test_empty_reports_diff_cleanly(self):
        regressions, warnings, notes, drifted = report_diff.diff_reports(
            report(), report(), 10.0)
        self.assertEqual((regressions, warnings, notes, drifted),
                         ([], [], [], []))

    def test_staticrace_phase_is_config_dependent(self):
        # A --static-verdicts run has a staticrace span a plain run lacks.
        base = report({"pipeline": 1.0})
        cur = report({"pipeline": 1.0, "pipeline.staticrace": 0.2})
        regressions, warnings, notes, _ = report_diff.diff_reports(
            base, cur, 10.0)
        self.assertEqual(regressions, [])
        self.assertEqual(warnings, [])
        self.assertEqual(len(notes), 1)
        self.assertIn("staticrace", notes[0])


class DiffRacesTest(unittest.TestCase):
    RACES = [
        ("Q.head{Q.offer:3~Q.poll:1}", True, "MayRace"),
        ("Q.size{Q.offer:5~Q.size:0}", False, "Unknown"),
    ]

    def test_identical_race_sets_match(self):
        base = report(races=self.RACES)
        cur = report(races=list(reversed(self.RACES)))  # Order-insensitive.
        self.assertEqual(report_diff.diff_races(base, cur), [])

    def test_verdict_annotations_are_ignored(self):
        # A prefiltered run annotates verdicts a dynamic-only baseline
        # leaves blank; identity and reproduced flags are what must match.
        base = report(races=[(k, r, "") for k, r, _ in self.RACES])
        cur = report(races=self.RACES)
        self.assertEqual(report_diff.diff_races(base, cur), [])

    def test_missing_race_is_a_mismatch(self):
        base = report(races=self.RACES)
        cur = report(races=self.RACES[:1])
        mismatches = report_diff.diff_races(base, cur)
        self.assertEqual(len(mismatches), 1)
        self.assertIn("only in baseline", mismatches[0])
        self.assertIn("Q.size", mismatches[0])

    def test_extra_race_is_a_mismatch(self):
        base = report(races=self.RACES[:1])
        cur = report(races=self.RACES)
        mismatches = report_diff.diff_races(base, cur)
        self.assertEqual(len(mismatches), 1)
        self.assertIn("only in current", mismatches[0])

    def test_reproduced_flag_flip_is_a_mismatch(self):
        base = report(races=self.RACES)
        flipped = [(k, not r, v) for k, r, v in self.RACES]
        mismatches = report_diff.diff_races(base, report(races=flipped))
        self.assertEqual(len(mismatches), 2)
        self.assertIn("reproduced flag changed", mismatches[0])

    def test_empty_race_sets_match(self):
        self.assertEqual(
            report_diff.diff_races(report(races=[]), report(races=[])), [])

    def test_absent_races_member_is_a_mismatch(self):
        # --races compares detection runs; a report without the member
        # never recorded races at all, which must not silently pass.
        mismatches = report_diff.diff_races(report(), report(races=[]))
        self.assertEqual(len(mismatches), 1)
        self.assertIn("baseline", mismatches[0])
        both = report_diff.diff_races(report(), report())
        self.assertEqual(len(both), 2)


class RacesOnlyModeTest(unittest.TestCase):
    """--races-only bases the exit status on race identity alone."""

    RACES = [("Q.head{Q.offer:3~Q.poll:1}", True, "MayRace")]

    def _write(self, doc):
        f = tempfile.NamedTemporaryFile(
            "w", suffix=".json", delete=False, encoding="utf-8")
        self.addCleanup(os.unlink, f.name)
        json.dump(doc, f)
        f.close()
        return f.name

    def _run_main(self, argv):
        import sys
        old_argv = sys.argv
        sys.argv = ["report-diff.py"] + argv
        stdout = io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout):
                code = report_diff.main()
        finally:
            sys.argv = old_argv
        return code, stdout.getvalue()

    def test_phase_regression_does_not_fail_races_only(self):
        # The CI soundness sweep compares runs at different job counts;
        # their timings differ wildly but only races must match.
        base = self._write(report({"pipeline": 1.0}, races=self.RACES))
        cur = self._write(report({"pipeline": 9.0}, races=self.RACES))
        code, out = self._run_main(["--races-only", base, cur])
        self.assertEqual(code, 0)
        self.assertIn("race sets identical", out)
        self.assertNotIn("phase regression", out)

    def test_race_mismatch_still_fails_races_only(self):
        base = self._write(report(races=self.RACES))
        cur = self._write(report(races=[]))
        code, out = self._run_main(["--races-only", base, cur])
        self.assertEqual(code, 1)
        self.assertIn("race set mismatches", out)

    def test_lock_collision_drift_is_not_mode_dependent(self):
        # The static verdicts filter nothing, so a default run and a
        # static run reject the same lock-colliding candidates: drift in
        # that counter is reported as plain drift, while the staticrace.*
        # family a static run adds stays annotated.
        base = self._write(report(counters={
            "pairgen.candidates_rejected.lock_collision": 12}))
        cur = self._write(report(counters={
            "pairgen.candidates_rejected.lock_collision": 9,
            "staticrace.unknown": 4}))
        code, out = self._run_main([base, cur])
        self.assertEqual(code, 0)
        self.assertIn("counter drift (2 changed)", out)
        lines = out.splitlines()
        self.assertIn(
            "  pairgen.candidates_rejected.lock_collision: 12 -> 9", lines)
        self.assertIn("  staticrace.unknown: 0 -> 4 [mode-dependent]", lines)

    def test_plain_races_flag_still_checks_phases(self):
        base = self._write(report({"pipeline": 1.0}, races=self.RACES))
        cur = self._write(report({"pipeline": 9.0}, races=self.RACES))
        code, out = self._run_main(["--races", base, cur])
        self.assertEqual(code, 1)
        self.assertIn("phase regressions", out)
        self.assertIn("race sets identical", out)


class LoadReportMalformedInputTest(unittest.TestCase):
    """Malformed reports must exit 2 with a message, never traceback."""

    def _write(self, text):
        f = tempfile.NamedTemporaryFile(
            "w", suffix=".json", delete=False, encoding="utf-8")
        self.addCleanup(os.unlink, f.name)
        f.write(text)
        f.close()
        return f.name

    def _expect_exit2(self, text, expect_in_message):
        path = self._write(text)
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            with self.assertRaises(SystemExit) as raised:
                report_diff.load_report(path)
        self.assertEqual(raised.exception.code, 2)
        self.assertIn(expect_in_message, stderr.getvalue())

    def test_truncated_json(self):
        full = json.dumps(report({"pipeline": 1.0}))
        self._expect_exit2(full[: len(full) // 2], "error")

    def test_empty_file(self):
        self._expect_exit2("", "error")

    def test_top_level_not_object(self):
        self._expect_exit2("[1, 2, 3]", "top level is not a JSON object")

    def test_missing_schema(self):
        self._expect_exit2(json.dumps({"phases": {}}), "not a")

    def test_wrong_schema(self):
        self._expect_exit2(
            json.dumps({"schema": "narada.run_report/v999"}), "not a")

    def test_phases_is_a_list(self):
        doc = report()
        doc["phases"] = ["pipeline"]
        self._expect_exit2(json.dumps(doc), "'phases' is not an object")

    def test_phase_entry_is_a_number(self):
        doc = report()
        doc["phases"] = {"pipeline": 1.0}
        self._expect_exit2(
            json.dumps(doc), "'phases.pipeline' is not an object")

    def test_phase_seconds_is_a_string(self):
        doc = report()
        doc["phases"] = {"pipeline": {"seconds": "fast"}}
        self._expect_exit2(
            json.dumps(doc), "'phases.pipeline.seconds' is not a number")

    def test_counters_is_a_list(self):
        doc = report()
        doc["counters"] = [1]
        self._expect_exit2(json.dumps(doc), "'counters' is not an object")

    def test_counter_value_is_a_string(self):
        doc = report(counters={})
        doc["counters"]["synth.tests_synthesized"] = "many"
        self._expect_exit2(
            json.dumps(doc),
            "'counters.synth.tests_synthesized' is not a number")

    def test_races_is_an_object(self):
        doc = report()
        doc["races"] = {"key": "Q.head{a~b}"}
        self._expect_exit2(json.dumps(doc), "'races' is not an array")

    def test_race_entry_missing_key(self):
        doc = report(races=[("Q.head{a~b}", True, "")])
        del doc["races"][0]["key"]
        self._expect_exit2(json.dumps(doc), "'races[0].key' is not a string")

    def test_race_reproduced_is_a_string(self):
        doc = report(races=[("Q.head{a~b}", True, "")])
        doc["races"][0]["reproduced"] = "yes"
        self._expect_exit2(
            json.dumps(doc), "'races[0].reproduced' is not a bool")

    def test_unknown_phases_and_counters_load_fine(self):
        # Forward compatibility: names the differ has never heard of are
        # data, not errors.
        doc = report({"phase.from.the.future": 1.0},
                     {"counter.from.the.future": 7})
        loaded = report_diff.load_report(self._write(json.dumps(doc)))
        self.assertEqual(loaded["phases"]["phase.from.the.future"],
                         {"seconds": 1.0})

    def test_valid_report_round_trips_through_diff(self):
        base = report({"pipeline": 1.0}, {"c": 1})
        cur = report({"pipeline": 1.0}, {"c": 2})
        base_doc = report_diff.load_report(self._write(json.dumps(base)))
        cur_doc = report_diff.load_report(self._write(json.dumps(cur)))
        regressions, warnings, notes, drifted = report_diff.diff_reports(
            base_doc, cur_doc, 10.0)
        self.assertEqual(regressions, [])
        self.assertEqual(warnings, [])
        self.assertEqual(drifted, [("c", 1, 2)])


class SchemaVersionTest(unittest.TestCase):
    """Reports from different writer revisions must not be diffed."""

    def _write(self, doc):
        f = tempfile.NamedTemporaryFile(
            "w", suffix=".json", delete=False, encoding="utf-8")
        self.addCleanup(os.unlink, f.name)
        json.dump(doc, f)
        f.close()
        return f.name

    def _run_main(self, argv):
        import sys
        old_argv = sys.argv
        sys.argv = ["report-diff.py"] + argv
        stdout, stderr = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                try:
                    code = report_diff.main()
                except SystemExit as raised:
                    code = raised.code
        finally:
            sys.argv = old_argv
        return code, stdout.getvalue(), stderr.getvalue()

    def test_same_version_diffs_fine(self):
        doc = report({"pipeline": 1.0})
        doc["schema_version"] = 2
        path = self._write(doc)
        code, _, _ = self._run_main([path, path])
        self.assertEqual(code, 0)

    def test_mismatched_versions_exit_2(self):
        base = report({"pipeline": 1.0})  # No member: revision 1.
        cur = dict(report({"pipeline": 1.0}), schema_version=2)
        code, _, err = self._run_main([self._write(base), self._write(cur)])
        self.assertEqual(code, 2)
        self.assertIn("schema_version mismatch", err)
        self.assertIn("version 1", err)
        self.assertIn("version 2", err)

    def test_non_integer_version_exits_2(self):
        doc = dict(report(), schema_version="two")
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            with self.assertRaises(SystemExit) as raised:
                report_diff.load_report(self._write(doc))
        self.assertEqual(raised.exception.code, 2)
        self.assertIn("'schema_version' is not a positive integer",
                      stderr.getvalue())


if __name__ == "__main__":
    unittest.main()
