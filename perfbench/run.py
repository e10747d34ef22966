#!/usr/bin/env python3
"""The gating benchmark of the pdfws workspace: one command for every workload.

    python3 perfbench/run.py --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Builds the `perfbench` package (its own
Cargo workspace, with path dependencies on the repository's crates) into
$CARGO_TARGET_DIR (default `.bench_build`), runs the named workload in a
process of its own, checks its report and prints it.  The last line of
standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics of BENCHMARK.json with
`--trace 0`, its per-layer metrics with `--trace 1`.  `--workload all` runs
every gated workload, each in its own process, and ends with a summary line
that maps each workload to its metrics.

Exits non-zero, without a result line, when the build fails, the workload
process fails, or its report does not match BENCHMARK.json.  See
perfbench/NOTES.md for what each workload measures and how to read the
traced run.
"""

import argparse
import datetime
import hashlib
import json
import os
import re
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}", 2)


def declared_metrics(spec, trace):
    """(name -> unit) of the metrics a gated run must print."""
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def build():
    """Build the benchmark binary and return its path."""
    for needed in ("Cargo.toml", "crates"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} not found next to perfbench/: run from a full checkout", 2)
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml"),
    ]
    try:
        done = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"building the benchmark failed: {e}", 2)
    if done.returncode != 0:
        sys.stderr.write(done.stderr[-4000:])
        fail("building the benchmark failed", 2)
    return os.path.join(target if os.path.isabs(target) else os.path.join(ROOT, target),
                        "release", "perfbench")


def run_health():
    """Commit, source fingerprint and date of this run."""
    commit = "none (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30,
            ).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    tracked = [os.path.join(ROOT, "Cargo.toml"), os.path.join(ROOT, "Cargo.lock")]
    for top in ("crates", "vendor", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames
                                 if not d.startswith(".") and d not in ("target", "__pycache__"))
            for name in sorted(filenames):
                if name.endswith((".rs", ".toml", ".lock", ".csv", ".py")):
                    tracked.append(os.path.join(dirpath, name))
    for path in tracked:
        if os.path.isfile(path):
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest()[:16],
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
    }


def run_workload(binary, spec, workload, args):
    """Run one workload in its own process; return its checked report."""
    cmd = [
        binary, "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--scale", args.scale,
    ]
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: no report within {RUN_TIMEOUT_S} s")
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        how = (f"signal {-done.returncode}" if done.returncode < 0
               else f"exit code {done.returncode}")
        fail(f"{workload}: the workload process failed ({how})")
    lines = done.stdout.splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"{workload}: the workload process printed no report")
    for name, metric in report["metrics"].items():
        if not NAME_RE.match(name):
            fail(f"{workload}: metric name '{name}' is not [A-Za-z0-9_.-]+")
    want = declared_metrics(spec, args.trace)
    got = {n: m["unit"] for n, m in report["metrics"].items()}
    if got != want:
        fail(f"{workload}: printed metrics {sorted(got.items())} "
             f"but BENCHMARK.json declares {sorted(want.items())}")
    for line in lines[:-1]:
        print(line)
    return report


def print_report(workload, report, health):
    print(f"# {workload}: seed {report['seed']}, trace {report['trace']}")
    print("# health " + json.dumps(dict(health, **report["health"]), sort_keys=True))
    print("# digest " + json.dumps(report["digest"], sort_keys=True))
    for check in report["checks"]:
        status = "ok  " if check["ok"] else "FAIL"
        print(f"# check {status} {check['name']}: {check['detail'][:300]}")
    print(f"# operations attempted {report['attempted']}, failed {report['failed']}")
    for name, m in report["metrics"].items():
        print(f"# metric {workload} {name} = {m['value']} {m['unit']}")


def main():
    spec = load_spec()
    gated = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=gated + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", choices=["paper", "smoke"], default="paper",
                        help="smoke: seconds-long problem sizes for the benchmark's own tests")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")

    binary = build()
    health = run_health()
    workloads = gated if args.workload == "all" else [args.workload]
    reports = {}
    for workload in workloads:
        reports[workload] = run_workload(binary, spec, workload, args)
        print_report(workload, reports[workload], health)

    attempted = sum(r["attempted"] for r in reports.values())
    failed = sum(r["failed"] for r in reports.values())
    correct = all(r["correct"] for r in reports.values())
    if args.workload == "all":
        metrics = {w: r["metrics"] for w, r in reports.items()}
        print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                          "workloads": metrics}))
    else:
        print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                          "metrics": reports[args.workload]["metrics"]}))


if __name__ == "__main__":
    main()
