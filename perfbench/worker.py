"""Runs one workload's inputs against genusmass in a fresh process.

Usage: python3 perfbench/worker.py SPEC.json RESULT.json

A fresh process per timed pass means every lru_cache in the package starts
empty, as it does for a user's CLI call.  Only the calls into the program are
timed; summarising reports and reading CLI output files happen outside the
timed region.  With a trace directory in the spec, the tracer is installed
before the first call and the merged per-layer totals go into the result.

The worker also times a fixed piece of stdlib-only Python work (`kernel`).
The speed of the machine this runs on moves by up to half between minutes, as
other tenants load it, and the kernel's times let run.py state every time
metric at one reference speed.  In an untraced pass a timer signal runs the
kernel every SAMPLE_EVERY_S seconds, also in the middle of a long call, and in
a serial pass its time is taken out of the operation's latency.  On
wide_range_w2 it runs in the parent while two pool workers load both CPUs, so
it reads slower there than on the serial workloads.  The traced pass samples
only before and after its calls, because samples would land in its spans.
"""

from __future__ import annotations

import glob
import json
import os
import resource
import signal
import sys
import time
from fractions import Fraction

# Timer period of the speed samples; a sample costs about 8 ms.
SAMPLE_EVERY_S = 0.25
# Samples taken at the start and at the end of every pass.
EDGE_SAMPLES = 10


def kernel() -> Fraction:
    """Fixed interpreter work of the kind the program does: Fraction sums, big
    integers and dict updates.  It calls nothing in genusmass."""
    total, table = Fraction(0), {}
    for i in range(1, 3000):
        total += Fraction(i % 13 + 1, i % 97 + 1)
        table[i % 101] = table.get(i % 101, 0) + i * i
    return total


class Speed:
    """Times of `kernel` as [start, seconds] pairs; `spent` is the sum of the
    seconds, for taking them out of latencies."""

    def __init__(self):
        self.samples: list[list[float]] = []
        self.spent = 0.0

    def sample(self, *_signal) -> None:
        start = time.perf_counter()
        kernel()
        elapsed = time.perf_counter() - start
        self.samples.append([start, elapsed])
        self.spent += elapsed

    def edge(self) -> None:
        for _ in range(EDGE_SAMPLES):
            self.sample()


def _report_summary(report) -> dict:
    data = report.to_dict()
    checks = data.get("checks", [])
    failed = [c["name"] for c in checks if c.get("status", "pass" if c["pass"] else "fail") == "fail"]
    return {
        "delta": data["delta"],
        "skipped": "skipped" in data,
        "h": data.get("h"),
        "checks": len(checks),
        "failed_checks": failed,
        "check_ms": sum(c.get("elapsed_ms", 0) for c in checks),
        "report_ms": data.get("elapsed_ms", 0),
    }


def run_verify(ops, params, tracer, speed) -> list[dict]:
    from genusmass.verify import run_suite

    out = []
    for op in ops:
        delta = op["delta"]
        if tracer is not None:
            tracer.op_id = delta
        error = None
        start, spent = time.perf_counter(), speed.spent
        try:
            reports = run_suite([delta], n_max=params["n_max"], primes_bound=params["primes"])
        except Exception as exc:  # a raising operation is a failed one, not a crash
            reports, error = [], repr(exc)
        end = time.perf_counter()
        out.append({"latency_s": end - start - (speed.spent - spent), "span_s": [start, end],
                    "error": error, "reports": [_report_summary(r) for r in reports]})
    return out


def run_wide(ops, params, tracer) -> list[dict]:
    from genusmass.verify import delta_range, run_suite

    (op,) = ops
    error, arrivals, reports = None, [], []
    start = time.perf_counter()
    try:
        for report in run_suite(delta_range(-3, op["lo"]), n_max=params["n_max"],
                                primes_bound=params["primes"], workers=params["workers"]):
            arrivals.append(time.perf_counter() - start)
            reports.append(report)
    except Exception as exc:
        error = repr(exc)
    end = time.perf_counter()
    return [{"latency_s": end - start, "span_s": [start, end], "error": error,
             "arrivals_s": arrivals, "reports": [_report_summary(r) for r in reports]}]


def run_cli(ops, out_dir, tracer, speed) -> list[dict]:
    from genusmass import cli

    path = os.path.join(out_dir, "cli-out.txt")
    out = []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = i
        if os.path.exists(path):
            os.remove(path)
        error, code = None, None
        start, spent = time.perf_counter(), speed.spent
        try:
            code = cli.main(op["argv"] + ["--out", path])
        except SystemExit as exc:  # argparse rejecting a request
            code = exc.code
        except Exception as exc:
            error = repr(exc)
        end = time.perf_counter()
        text = None
        if op["check"] and os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        out.append({"latency_s": end - start - (speed.spent - spent), "span_s": [start, end],
                    "error": error, "code": code, "output": text})
    return out


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    import genusmass  # noqa: F401

    tracer = None
    if spec["trace_dir"]:
        import tracer as tracing

        tracer = tracing.install(spec["trace_dir"])
    workload, ops, params = spec["workload"], spec["ops"], spec["params"]
    speed = Speed()
    speed.edge()
    if tracer is None:
        signal.signal(signal.SIGALRM, speed.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
    if workload == "cli_queries":
        outcomes = run_cli(ops, spec["out_dir"], tracer, speed)
    elif workload == "wide_range_w2":
        outcomes = run_wide(ops, params, tracer)
    else:
        outcomes = run_verify(ops, params, tracer, speed)
    signal.setitimer(signal.ITIMER_REAL, 0)
    speed.edge()
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload == "wide_range_w2":  # the pool workers, already joined
        rss_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result = {"outcomes": outcomes, "peak_rss_mb": rss_kb / 1024.0,
              "speed_samples": speed.samples}
    if tracer is not None:
        path = os.path.join(spec["trace_dir"], f"spans-{os.getpid()}.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(tracer.chunk()) + "\n")
        chunks = []
        for name in sorted(glob.glob(os.path.join(spec["trace_dir"], "spans-*.jsonl"))):
            with open(name, encoding="utf-8") as fh:
                chunks.extend(json.loads(line) for line in fh)
        result["layers"] = tracing.layer_metrics(tracing.merge(chunks))
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
