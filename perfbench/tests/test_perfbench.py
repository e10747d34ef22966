"""Tests of the benchmark itself: its declaration, its output contract, a
smoke-scale run of every workload, and how its outputs depend on the seed.

    python3 -m unittest discover -s perfbench/tests

Builds the benchmark through run.py (into $CARGO_TARGET_DIR, default
.bench_build) and runs every gated workload at the smoke scale, so the whole
file takes about a minute.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys
import unittest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
GATED = [w["name"] for w in SPEC["workloads"]]


def run(workload, seed=7, trace=0, seconds=1, root=ROOT):
    """Run run.py at the smoke scale; return (exit code, stdout lines)."""
    done = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace), "--scale", "smoke"],
        cwd=root, capture_output=True, text=True, timeout=600,
    )
    return done.returncode, done.stdout.splitlines()


def digest(lines):
    line = next(l for l in lines if l.startswith("# digest "))
    return json.loads(line[len("# digest "):])


class Declaration(unittest.TestCase):
    def test_keys_and_limits(self):
        self.assertEqual(
            set(SPEC),
            {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"})
        self.assertEqual(SPEC["command"], ["python3", "perfbench/run.py"])
        self.assertEqual(SPEC["paths"], ["perfbench"])
        self.assertTrue(1 <= SPEC["run_seconds"] <= 60)
        self.assertTrue(2 <= len(SPEC["workloads"]) <= 8)
        # A full measurement campaign is 4 + 22 runs per workload, and must
        # finish, with set-up and two builds of about two minutes, within
        # 3420 s.  A run lasts run_seconds plus a few seconds, except that
        # a run of replicate-exact makes at least three repetitions, of up to
        # 17 s each on the development host.
        runs = 4 + 22 * len(SPEC["workloads"])
        exact_runs = 4 + 22
        exact_s = max(SPEC["run_seconds"], 3 * 17) + 5
        other_s = SPEC["run_seconds"] + 5
        self.assertLess(exact_runs * exact_s + (runs - exact_runs) * other_s + 2 * 120, 3420)

    def test_every_name_matches_the_grammar_and_is_unique(self):
        names = [w["name"] for w in SPEC["workloads"]]
        names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        for name in names:
            self.assertRegex(name, NAME_RE)
            self.assertLessEqual(len(name), 64)
        self.assertEqual(len(names), len(set(names)))

    def test_bounds(self):
        bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
        self.assertIn("setup_s", bounds)
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertIn(m["better"], ("lower", "higher"))


class Contract(unittest.TestCase):
    """Every gated workload, timed and traced, at the smoke scale."""

    def check_result(self, workload, trace):
        code, lines = run(workload, trace=trace)
        self.assertEqual(code, 0, lines[-20:])
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], lines[-40:])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        self.assertEqual(
            {n: m["unit"] for n, m in result["metrics"].items()},
            {m["name"]: m["unit"] for m in declared},
            "the command prints exactly the metrics BENCHMARK.json names")
        for name, metric in result["metrics"].items():
            self.assertTrue(math.isfinite(metric["value"]), name)
            if not trace:
                self.assertGreater(metric["value"], 0, name)
        return lines

    def test_timed_runs(self):
        for workload in GATED:
            with self.subTest(workload=workload):
                self.check_result(workload, trace=0)

    def test_traced_runs(self):
        for workload in GATED:
            with self.subTest(workload=workload):
                lines = self.check_result(workload, trace=1)
                self.assertTrue(any(l.startswith("# span ") for l in lines))
                self.assertTrue(any(l.startswith("# self ") for l in lines))

    def test_traced_counts_repeat(self):
        counts = []
        for _ in range(2):
            code, lines = run("replicate-analytic", trace=1)
            self.assertEqual(code, 0)
            metrics = json.loads(lines[-1])["metrics"]
            counts.append({n: m["value"] for n, m in metrics.items() if m["unit"] == "count"})
            counts[-1]["digest"] = digest(lines)
        self.assertEqual(counts[0], counts[1])


class Seeds(unittest.TestCase):
    def test_serve_outputs_change_with_the_seed(self):
        digests = [digest(run("serve-light-overload", seed=s)[1]) for s in (1, 2, 1)]
        self.assertNotEqual(digests[0], digests[1])
        self.assertEqual(digests[0], digests[2])

    def test_replicate_outputs_do_not(self):
        a = digest(run("replicate-analytic", seed=1)[1])
        b = digest(run("replicate-analytic", seed=2)[1])
        self.assertEqual(a, b)


class BareDirectory(unittest.TestCase):
    def test_fails_without_the_repository(self):
        bare = os.path.join(ROOT, ".bench_build", "bare-directory-test")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(BENCH_DIR, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("target", "__pycache__"))
            code, lines = run(GATED[0], root=bare)
            self.assertNotEqual(code, 0)
            self.assertFalse(lines and lines[-1].startswith("{"), lines)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
