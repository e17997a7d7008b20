"""Tests of the benchmark entry point, in quick mode.

Run from the repository root:

    python3 -m unittest perfbench/test_run.py

Each workload runs for a few slots, traced and untraced; the tests check
that every metric named in BENCHMARK.json is emitted with its unit, that
the run records what it ran on, and that bad arguments exit 2 naming the
offender.
"""

import json
import os
import subprocess
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    SPEC = json.load(handle)


def run(*args):
    return subprocess.run(
        ["python3", RUN, *args], cwd=ROOT, capture_output=True, text=True, timeout=900
    )


class QuickRuns(unittest.TestCase):
    def check(self, workload, trace):
        done = run("--workload", workload, "--seed", "7", "--trace", trace, "--quick")
        self.assertEqual(done.returncode, 0, done.stderr[-2000:])
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)
        wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        for metric in wanted:
            got = result["metrics"][metric["name"]]
            self.assertEqual(got["unit"], metric["unit"], metric["name"])
            self.assertIsInstance(got["value"], (int, float), metric["name"])
        meta = json.loads(lines[0].removeprefix("# perfbench "))
        for key in ["seed", "nproc", "engine_threads", "server_threads", "build_profile", "revision"]:
            self.assertIn(key, meta)
        self.assertEqual(meta["seed"], 7)
        self.assertEqual(meta["workload"], workload)
        self.assertEqual(meta["build_profile"], "release")
        self.assertNotEqual(meta["revision"], "unknown")

    def test_every_workload_emits_every_metric(self):
        for workload in [w["name"] for w in SPEC["workloads"]]:
            for trace in ["0", "1"]:
                with self.subTest(workload=workload, trace=trace):
                    self.check(workload, trace)


class BadArguments(unittest.TestCase):
    def refused(self, offender, *args):
        done = run(*args)
        self.assertEqual(done.returncode, 2, done.stderr[-2000:])
        self.assertIn(offender, done.stderr)
        self.assertEqual(done.stdout.strip().count("correct"), 0)

    def test_unknown_flag_names_itself(self):
        self.refused("--sede", "--workload", "stress_10k", "--sede", "7")

    def test_malformed_seed_names_itself(self):
        self.refused('"seven"', "--workload", "stress_10k", "--seed", "seven")

    def test_unknown_workload_names_itself(self):
        self.refused('"stress_100k"', "--workload", "stress_100k")


if __name__ == "__main__":
    unittest.main()
