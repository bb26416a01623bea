#!/usr/bin/env python3
"""Self-test of tools/perfgate.py on doctored run.py JSON lines.

Runs no simulator: every line is built from BENCH_perfgate.json itself.
"""

import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import perfgate  # noqa: E402


def run_line(values, correct=True):
    """A run.py last line carrying @p values as its metrics."""
    return json.dumps({
        "correct": correct, "attempted": 1, "failed": 0 if correct else 1,
        "metrics": {k: {"value": v, "unit": "count"}
                    for k, v in values.items()},
    })


class PerfGateTest(unittest.TestCase):
    def setUp(self):
        table = perfgate.load()
        self.assertEqual(table["seed"], perfgate.SEED)
        self.workloads = {k: v for k, v in table.items() if k != "seed"}
        self.assertEqual(len(self.workloads), 3)

    def gate(self, committed, **changes):
        _, metrics = perfgate.metrics_of(run_line({**committed, **changes}))
        return perfgate.compare(metrics, committed)

    def test_committed_values_pass(self):
        for name, committed in self.workloads.items():
            failures, speed = self.gate(committed)
            self.assertEqual(failures, [], name)
            self.assertEqual(speed, 1.0, name)

    def test_each_work_count_off_by_one_fails(self):
        for name, committed in self.workloads.items():
            for key in perfgate.EXACT:
                failures, _ = self.gate(committed,
                                        **{key: committed[key] + 1})
                self.assertEqual(len(failures), 1, (name, key))
                self.assertIn(key, failures[0])

    def test_run_s_just_past_the_floor_fails(self):
        for name, committed in self.workloads.items():
            limit = committed[perfgate.TIMED] / perfgate.SPEED_FLOOR
            failures, speed = self.gate(
                committed, **{perfgate.TIMED: limit * 1.001})
            self.assertLess(speed, perfgate.SPEED_FLOOR, name)
            self.assertEqual(len(failures), 1, name)
            self.assertIn(perfgate.TIMED, failures[0])
            failures, _ = self.gate(
                committed, **{perfgate.TIMED: limit * 0.999})
            self.assertEqual(failures, [], name)

    def test_record_takes_the_median_of_agreeing_runs(self):
        committed = next(iter(self.workloads.values()))
        runs = [{**committed, perfgate.TIMED: t} for t in (3.0, 1.0, 2.0)]
        self.assertEqual(perfgate.entry_of(runs),
                         {**committed, perfgate.TIMED: 2.0})
        runs[1]["harness.ff_jumps"] += 1
        with self.assertRaisesRegex(ValueError, "harness.ff_jumps"):
            perfgate.entry_of(runs)

    def test_untraced_line_is_refused(self):
        committed = next(iter(self.workloads.values()))
        values = {k: v for k, v in committed.items()
                  if k != "harness.core_ticks_run"}
        with self.assertRaises(ValueError):
            perfgate.metrics_of(run_line(values))


if __name__ == "__main__":
    unittest.main()
