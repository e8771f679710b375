#!/usr/bin/env python3
"""Run the identity suite at acceptance scale and write a JSON-lines report.

    python3 scripts/run_full_verification.py --lo -500 --prec 200 --primes 50 \
        --out full_report.jsonl

Exit status 1 if any check fails.  GENUSMASS_THREADS > 1 parallelizes the
per-discriminant jobs.
"""

from __future__ import annotations

import argparse
import sys
import time

from genusmass.verify import delta_range, report_json_line, run_suite


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--lo", type=int, default=-500)
    parser.add_argument("--hi", type=int, default=-3)
    parser.add_argument("--prec", type=int, default=200)
    parser.add_argument("--primes", type=int, default=50)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    start = time.perf_counter()
    reports = run_suite(delta_range(args.hi, args.lo), n_max=args.prec, primes_bound=args.primes)
    elapsed = time.perf_counter() - start

    lines = [report_json_line(r) for r in reports]
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")

    run = [r for r in reports if r.skip_reason is None]
    failed = [r for r in run if not r.passed]
    n_checks = sum(len(r.checks) for r in run)
    print(f"{len(run)} fundamental discriminants, {n_checks} checks, {elapsed:.1f}s")
    for r in failed:
        for c in r.checks:
            if not c.passed:
                print(f"FAIL delta={r.delta} {c.name}: {c.detail}")
    print("all checks passed" if not failed else f"{len(failed)} discriminants with failures")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
