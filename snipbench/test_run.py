"""Tests of the benchmark driver.

Run from the root of a checkout:

    python3 -m unittest discover -s snipbench -p 'test_*.py'

The end-to-end cases build the benchmark (into `$CARGO_TARGET_DIR`, default
`.bench_build`) and run every workload at a tiny size.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench(*args, cwd=CHECKOUT, env=None):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "snipbench" / "run.py"), *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=900,
    )


class Declarations(unittest.TestCase):
    def test_names_and_units_use_the_allowed_characters(self):
        for name in (*run.WORKLOADS, *run.END_TO_END, *run.PER_LAYER):
            self.assertRegex(name, NAME)
        for unit in (*run.END_TO_END.values(), *run.PER_LAYER.values()):
            self.assertRegex(unit, UNIT)

    def test_driver_declares_what_benchmark_json_declares(self):
        spec = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)


class FailedJobs(unittest.TestCase):
    REF = {"metrics_digests": ["a", "b", "c"], "row_digests": ["x", "y", "z"]}

    def test_identical_jobs_pass(self):
        rep = {"metrics_digests": ["a", "b", "c"], "row_digests": ["x", "y", "z"]}
        self.assertEqual(run.failed_jobs(rep, self.REF), 0)

    def test_a_job_counts_once_however_many_digests_differ(self):
        rep = {"metrics_digests": ["a", "B", "c"], "row_digests": ["x", "Y", "z"]}
        self.assertEqual(run.failed_jobs(rep, self.REF), 1)

    def test_missing_jobs_fail(self):
        rep = {"metrics_digests": [], "row_digests": ["x"]}
        self.assertEqual(run.failed_jobs(rep, self.REF), 2)
        self.assertEqual(run.failed_jobs({"metrics_digests": [], "row_digests": []}, self.REF), 3)


class UnhinderedWall(unittest.TestCase):
    def test_sums_each_laps_fastest_time(self):
        reps = [{"wall_s": 6.0, "laps_s": [1.0, 5.0]}, {"wall_s": 5.0, "laps_s": [3.0, 2.0]}]
        self.assertEqual(run.unhindered_wall(reps), 3.0)

    def test_one_lap_repetitions_give_the_fastest_wall(self):
        reps = [{"wall_s": w, "laps_s": [w]} for w in (4.0, 1.0, 3.0, 2.0, 5.0)]
        self.assertEqual(run.unhindered_wall(reps), 1.0)


class EndToEnd(unittest.TestCase):
    def test_every_workload_prints_every_declared_metric(self):
        for workload in run.WORKLOADS:
            for trace, declared in ((0, run.END_TO_END), (1, run.PER_LAYER)):
                with self.subTest(workload=workload, trace=trace):
                    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.1",
                                 "--trace", str(trace), "--size", "2")
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(set(result["metrics"]), set(declared))
                    for name, metric in result["metrics"].items():
                        self.assertEqual(metric["unit"], declared[name])
                        self.assertIsInstance(metric["value"], (int, float))

    def test_refuses_to_run_without_the_program(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(CHECKOUT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "snipbench",
                            ignore=shutil.ignore_patterns("target", "__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=str(Path(tmp) / ".bench_build"))
            proc = bench("--workload", "plan-sweep", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=tmp, env=env)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
