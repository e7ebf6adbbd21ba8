#!/usr/bin/env python3
"""Self-test of the benchmark's own code, at a tiny size.

Run from the repository root:

    python3 bench/selftest.py

It checks that the metric, unit and workload names the benchmark emits are
the ones BENCHMARK.json declares; that every run ends with its result line
and exits 1 exactly when an output check failed; that the deterministic
counts of a traced run repeat exactly at the same seed; and that in a
directory holding only BENCHMARK.json and bench/ the benchmark fails
without printing a result.  Failed output checks are faults of emdenlab,
not of the benchmark: they are listed as findings.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import END_TO_END, OUT, PER_LAYER  # noqa: E402
from workloads import FINDINGS, WORKLOADS  # noqa: E402

SEED = 7
failures = []
findings = []


def expect(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def run(root, workload, trace):
    argv = [sys.executable, os.path.join(root, "bench", "run.py"), "--workload", workload,
            "--seed", str(SEED), "--seconds", "0.5", "--trace", str(trace), "--tiny"]
    return subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=300)


def last_json(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def finished(proc, workload, what):
    """Check that a run ended with its result line and a matching exit code."""
    line = last_json(proc)
    expect(line is not None and proc.returncode == (0 if line["correct"] else 1),
           f"{workload}: {what} run ends with its result and exit code")
    if line is not None and not line["correct"]:
        findings.append(f"{workload} ({what}): {line['failed']} of {line['attempted']} ops failed")
    return line


def counts_of(workload):
    path = os.path.join(OUT, "results", f"{workload}-seed{SEED}-trace1.json")
    with open(path) as fh:
        return json.load(fh)["counts"]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS), "workload names")
    expect({m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END,
           "end-to-end metric names and units")
    expect({m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER,
           "per-layer metric names and units")

    for workload in WORKLOADS:
        line = finished(run(ROOT, workload, 0), workload, "untraced")
        expect(line is not None and list(line["metrics"]) == list(END_TO_END),
               f"{workload}: untraced run emits every end-to-end metric")
        counts = []
        for _ in range(2):
            line = finished(run(ROOT, workload, 1), workload, "traced")
            expect(line is not None and list(line["metrics"]) == list(PER_LAYER),
                   f"{workload}: traced run emits every per-layer metric")
            counts.append(counts_of(workload))
        expect(counts[0] == counts[1] and len(counts[0]) > 0,
               f"{workload}: deterministic counts repeat at seed {SEED}")
    for workload in FINDINGS:
        finished(run(ROOT, workload, 0), workload, "untraced")

    bare = os.path.join(OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run(bare, "cli_session", 0)
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               "without the package sources the benchmark fails and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for finding in findings:
        print("finding: " + finding)
    print("selftest " + ("FAILED: " + "; ".join(failures) if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
