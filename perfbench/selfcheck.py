"""Steadiness self-check: the same code, the same seed, run twice.

Usage, from the root of a checkout:

    python3 perfbench/selfcheck.py [--seed N]

For each of the four workloads, at run_seconds from BENCHMARK.json, this
makes two untraced runs and two traced runs of perfbench/run.py.  A workload
is steady when every end-to-end metric of the second untraced run is within
that metric's bound in BENCHMARK.json of the first, and every count
(attempted, failed and each per-layer metric whose unit is `count`) is
identical across each pair.  It prints each workload's end-to-end metrics
with units, sample counts and fail ratio, then one verdict line per workload,
and exits 1 if any is unsteady.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[list[str], dict]:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[2:])} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def compare_e2e(first: dict, second: dict, bounds: dict[str, float]) -> list[str]:
    """End-to-end metrics whose relative difference exceeds their bound."""
    problems = []
    for name, bound in bounds.items():
        a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
        rel = abs(b - a) / abs(a) if a else float("inf")
        if rel > bound:
            problems.append(f"{name} {a:.6g} -> {b:.6g} ({rel:.1%} > {bound:.0%})")
    return problems


def compare_counts(first: dict, second: dict) -> list[str]:
    """Counts that differ between two runs of the same inputs."""
    problems = [f"{k} {first[k]} != {second[k]}"
                for k in ("attempted", "failed") if first[k] != second[k]]
    for name, m in first["metrics"].items():
        if m["unit"] == "count" and m["value"] != second["metrics"][name]["value"]:
            problems.append(f"{name} {m['value']} != {second['metrics'][name]['value']}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    verdicts = []
    for workload in workloads.NAMES:
        summary, plain1 = run_once(workload, args.seed, seconds, 0)
        _, plain2 = run_once(workload, args.seed, seconds, 0)
        _, traced1 = run_once(workload, args.seed, seconds, 1)
        _, traced2 = run_once(workload, args.seed, seconds, 1)
        print("\n".join(summary))
        problems = (compare_e2e(plain1, plain2, bounds) + compare_counts(plain1, plain2)
                    + compare_counts(traced1, traced2))
        if not all(r["correct"] for r in (plain1, plain2, traced1, traced2)):
            problems.append("an output disagreed with the reference")
        verdicts.append((workload, problems))
    for workload, problems in verdicts:
        print(f"{workload}: {'steady' if not problems else 'UNSTEADY: ' + '; '.join(problems)}")
    return 1 if any(p for _, p in verdicts) else 0


if __name__ == "__main__":
    sys.exit(main())
