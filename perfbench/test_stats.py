"""Self-tests for the benchmark's statistics helpers and metric names.

    python3 perfbench/test_stats.py
"""

import json
import re
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
import stats  # noqa: E402

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


class StatsTest(unittest.TestCase):
    def test_median(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)
        self.assertEqual(stats.median([7]), 7)

    def test_quartiles_match_statistics_quantiles(self):
        values = [float(v) for v in range(1, 11)]
        self.assertEqual(stats.quartiles(values), (2.75, 5.5, 8.25))
        self.assertEqual(stats.quartiles([5.0]), (5.0, 5.0, 5.0))

    def test_percentile_interpolates(self):
        values = list(range(0, 101))
        self.assertEqual(stats.percentile(values, 90), 90)
        self.assertEqual(stats.percentile([1, 2], 50), 1.5)
        self.assertEqual(stats.percentile([9], 99), 9)

    def test_highest_percentile_keeps_ten_samples_beyond(self):
        self.assertIsNone(stats.highest_percentile(list(range(19))))
        self.assertEqual(stats.highest_percentile(list(range(20)))[0], 50.0)
        self.assertEqual(stats.highest_percentile(list(range(99)))[0], 50.0)
        self.assertEqual(stats.highest_percentile(list(range(100)))[0], 90.0)
        self.assertEqual(stats.highest_percentile(list(range(200)))[0], 95.0)
        self.assertEqual(stats.highest_percentile(list(range(1000)))[0], 99.0)


class SelfTimeTest(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        spans = [["pass", "", 0.0, 10.0, -1],
                 ["a", "t1", 1.0, 4.0, 0],
                 ["a", "t2", 5.0, 6.0, 0],
                 ["b", "t1", 2.0, 3.0, 1]]
        table = run.self_times(spans)
        self.assertEqual(table["pass"], (1, 10.0, 6.0))
        self.assertEqual(table["a"], (2, 4.0, 3.0))
        self.assertEqual(table["b"], (1, 1.0, 1.0))


class SpecTest(unittest.TestCase):
    def test_metric_names(self):
        spec = json.loads(SPEC.read_text())
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        for name in names:
            self.assertRegex(name, re.compile(r"^[A-Za-z0-9_.-]+$"))
        self.assertEqual(len(names), len(set(names)))

    def test_workload_seed_pool(self):
        self.assertEqual(run.POOL[0], 1)  # --seed 0 is the pinned seed.


if __name__ == "__main__":
    unittest.main()
