"""genusmass benchmark: one workload, one seed, one JSON line of metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py for the inputs and BENCHMARK.json for why each
exists): acceptance, large_h, cli_queries, wide_range_w2.

--trace 0 runs the workload once in a fresh process and reports the end-to-end
metrics.  Every end-to-end time is stated at a reference machine speed: the
measured time is scaled by REFERENCE_KERNEL_S over the mean time of a fixed
stdlib-only kernel timed during the same measurement (worker.py).
This VM's speed moves by up to half between minutes as other tenants load it;
the scaling takes that out, while a change to the program still moves the
program's times and not the kernel's.  The raw times are printed above the
result.  --trace 1 runs the same inputs twice in fresh processes, untraced and
then traced, and reports the per-layer metrics plus the tracing overhead.
Every output is checked against reference values computed in reference.py;
the last line of stdout is the JSON result, and the lines above it state
sample counts, the tail percentile used and the failure ratio.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import reference as ref  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from worker import kernel  # noqa: E402

SETUP_SAMPLES = 31
# Time of worker.kernel on the 2-vCPU VM the baseline was measured on, near its
# median there.  Only its ratio to the kernel's time in a run matters.
REFERENCE_KERNEL_S = 0.008
# An operation's latency is scaled by the kernel's times from its start minus
# this to its end plus this: at least three samples, as they come every 0.25 s.
SPEED_WINDOW_S = 0.5
TIME_LIMIT_S = 170.0
# Nearest-rank percentile reported as latency_tail_ms.  It leaves at least ten
# samples beyond it at the run sizes workloads.py makes for 20 s, except on
# large_h, whose six samples allow none: there it is the maximum, which is
# always the h = 999 probe.  cli_queries uses p95, inside its slowest request
# class (twisted sums at prec 1000), because p90 falls on the boundary between
# two request classes and swings with the mix.
TAIL_PERCENTILE = {"acceptance": 85, "large_h": 100, "cli_queries": 95, "wide_range_w2": 90}

SETUP_CODE = (
    "import time; t = time.perf_counter(); import genusmass.cli as c; c.build_parser(); "
    "print(time.perf_counter() - t)"
)

E2E_UNITS = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run prints, with its unit."""
    units = {f"{n}_s": "s" for n in tracer.SPAN_NAMES}
    for n in ("forms.representation_counts_calls", "class_group.build_calls",
              "class_group.table_entries", "genus.characters_calls", "qseries.ops",
              "qseries.coeffs_processed", "series.theta_calls", "hecke.checks",
              "arith.kronecker_calls", "verify.checks", "verify.checks_failed"):
        units[n] = "count"
    for n in ("class_group.build_distinct_ratio", "genus.characters_distinct_ratio",
              "series.theta_distinct_ratio", "verify.reported_over_measured",
              "verify.pool_busy_ratio", "trace.share_qseries_series_hecke",
              "trace.share_build_dirichlet"):
        units[n] = "ratio"
    units["trace.wall_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


class BenchError(Exception):
    pass


def _env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _run(cmd: list[str], root: str, deadline: float) -> str:
    """Run cmd in its own process group; kill the whole group if it overruns."""
    proc = subprocess.Popen(cmd, cwd=root, env=_env(root), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{cmd[1]} ran past the time limit") from None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # stray pool workers, if any
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[:2])} exited {proc.returncode}: {err.strip()[-2000:]}")
    return out


def measure_setup(root: str, deadline: float) -> dict:
    """Seconds to import genusmass and build the CLI parser, each in a fresh process,
    with a time of the speed kernel before each; shaped like a worker's result.
    One unmeasured start first, so bytecode compilation is not counted."""
    cmd = [sys.executable, "-c", SETUP_CODE]
    _run(cmd, root, deadline)
    setup: dict[str, list] = {"outcomes": [], "speed_samples": []}
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        kernel()
        setup["speed_samples"].append([start, time.perf_counter() - start])
        start = time.perf_counter()
        seconds = float(_run(cmd, root, deadline).split()[-1])
        setup["outcomes"].append({"latency_s": seconds, "span_s": [start, time.perf_counter()]})
    return setup


def run_worker(root, workdir, workload, ops, trace_dir, deadline) -> dict:
    os.makedirs(workdir, exist_ok=True)
    spec_path = os.path.join(workdir, "spec.json")
    result_path = os.path.join(workdir, "result.json")
    spec = {"workload": workload, "ops": ops, "params": workloads.params(workload),
            "trace_dir": trace_dir, "out_dir": workdir}
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    _run([sys.executable, os.path.join(HERE, "worker.py"), spec_path, result_path], root, deadline)
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


# ---- correctness against the reference ---------------------------------------------


def _report_ok(rep: dict, delta: int) -> bool:
    """The program's report agrees with the reference for this delta."""
    if rep["delta"] != delta:
        return False
    if not ref.is_fundamental(delta):
        return rep["skipped"]
    return not rep["skipped"] and rep["h"] == ref.class_number(delta)


def _parse_series(text: str, fmt: str, prec: int) -> list[Fraction]:
    if fmt == "json":
        data = json.loads(text)
        if data["precision"] != prec:
            return []
        return [Fraction(n, d) for n, d in data["coeffs"]]
    if fmt == "csv":
        rows = text.strip().splitlines()[1:]
        return [Fraction(int(r.split(",")[1]), int(r.split(",")[2])) for r in rows]
    return [Fraction(t) for t in text.strip().split(", ")]


def _classgroup_ok(text: str, fmt: str, delta: int) -> bool:
    forms = [list(t) for t in ref.reduced_triples(delta)]
    if fmt == "json":
        data = json.loads(text)
        return data["h"] == len(forms) and data["classes"] == forms
    lines = text.splitlines()
    listed = [ln.split(": ", 1)[1] for ln in lines[2:2 + len(forms)]]
    return (lines[0].startswith(f"discriminant {delta}: h = {len(forms)},")
            and listed == [f"[{a},{b},{c}]" for a, b, c in forms]
            and lines[2 + len(forms)] == "composition table:")


def _cli_output_ok(op: dict, text: str) -> bool:
    argv = op["argv"]
    fmt = argv[argv.index("--format") + 1]
    try:
        if argv[0] == "classgroup":
            return _classgroup_ok(text, fmt, op["delta"])
        prec = int(argv[argv.index("--prec") + 1])
        which = argv[argv.index("--which") + 1]
        return _parse_series(text, fmt, prec) == ref.series_reference(op["delta"], which, prec)
    except (ValueError, KeyError, IndexError, ZeroDivisionError):
        return False


def check(workload: str, ops: list[dict], result: dict) -> dict:
    """Operations attempted and failed, outputs that disagree with the reference,
    and errors (an operation raised or exited nonzero).

    An operation fails if it errs, has a check of its own that does not pass,
    or disagrees with the reference.  The result is `correct` when there are
    no errors and no disagreements: a check of the program's own that fails
    (the L(1) tolerance on large_h) counts as failed, not as incorrect.
    """
    outcomes = result["outcomes"]
    attempted = failed = mismatched = 0
    errors: list[str] = []
    if workload == "cli_queries":
        for op, out in zip(ops, outcomes):
            attempted += 1
            bad = out["error"] is not None or out["code"] != 0
            wrong = op["check"] and not (out["output"] is not None and _cli_output_ok(op, out["output"]))
            if bad:
                errors.append(f"{op['argv']}: {out['error'] or out['code']}")
            mismatched += wrong
            failed += bad or wrong
        return {"attempted": attempted, "failed": failed, "mismatched": mismatched, "errors": errors}
    if workload == "wide_range_w2":
        (out,) = outcomes
        deltas = list(range(-3, ops[0]["lo"] - 1, -1))
        reps = out["reports"]
        fundamental = [d for d in deltas if ref.is_fundamental(d)]
        attempted = len(fundamental)
        if out["error"] is not None or [r["delta"] for r in reps] != deltas:
            errors.append(out["error"] or "reports do not match the input range")
            return {"attempted": attempted, "failed": attempted, "mismatched": attempted,
                    "errors": errors}
        for rep in reps:
            ok = _report_ok(rep, rep["delta"])
            mismatched += not ok
            if ref.is_fundamental(rep["delta"]):
                failed += (not ok) or bool(rep["failed_checks"])
        return {"attempted": attempted, "failed": failed, "mismatched": mismatched, "errors": errors}
    for op, out in zip(ops, outcomes):
        attempted += 1
        if out["error"] is not None or len(out["reports"]) != 1:
            errors.append(f"delta {op['delta']}: {out['error']}")
            failed += 1
            continue
        rep = out["reports"][0]
        ok = _report_ok(rep, op["delta"])
        mismatched += not ok
        failed += (not ok) or bool(rep["failed_checks"])
    return {"attempted": attempted, "failed": failed, "mismatched": mismatched, "errors": errors}


# ---- metrics -----------------------------------------------------------------------------


def _nearest_rank(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def timing(workload: str, result: dict, factors: list[float] | None = None) -> dict:
    """Per-operation latencies (s), busy time (s) and worker count of one pass,
    each operation's times multiplied by its factor if factors are given."""
    outcomes = result["outcomes"]
    factors = factors or [1.0] * len(outcomes)
    if workload == "wide_range_w2":
        (out,), (f,) = outcomes, factors
        lat = [t * f for t, rep in zip(out["arrivals_s"], out["reports"]) if not rep["skipped"]]
        return {"latencies": lat or [out["latency_s"] * f], "busy": out["latency_s"] * f,
                "workers": workloads.WIDE["workers"]}
    lat = [o["latency_s"] * f for o, f in zip(outcomes, factors)]
    return {"latencies": lat, "busy": sum(lat), "workers": 1}


def speed_factor(result: dict) -> float:
    """Reference kernel time over the kernel's mean time in this pass (or set-up
    measurement): a time measured there, multiplied by this, is that time at
    reference speed."""
    return REFERENCE_KERNEL_S / statistics.fmean(dt for _, dt in result["speed_samples"])


def op_factors(result: dict) -> list[float]:
    """speed_factor for each operation, from the kernel's times near it."""
    factors = []
    for out in result["outcomes"]:
        start, end = out["span_s"]
        near = [dt for at, dt in result["speed_samples"]
                if start - SPEED_WINDOW_S <= at <= end + SPEED_WINDOW_S]
        factors.append(REFERENCE_KERNEL_S / statistics.fmean(near) if near else speed_factor(result))
    return factors


def end_to_end(workload, setup, result, verdict) -> tuple[dict, list[str]]:
    pct = TAIL_PERCENTILE[workload]

    def times(t: dict, setup_s: float) -> dict:
        lat_ms = [x * 1000 for x in t["latencies"]]
        return {"setup_s": setup_s,
                "throughput_per_s": verdict["attempted"] / t["busy"],
                "latency_p50_ms": statistics.median(lat_ms),
                "latency_tail_ms": _nearest_rank(lat_ms, pct)}

    setup_raw = [o["latency_s"] for o in setup["outcomes"]]
    setup_ref = [x * f for x, f in zip(setup_raw, op_factors(setup))]
    t_raw = timing(workload, result)
    raw = times(t_raw, statistics.median(setup_raw))
    values = times(timing(workload, result, op_factors(result)), statistics.median(setup_ref))
    values["peak_rss_mb"] = result["peak_rss_mb"]
    n = len(t_raw["latencies"])
    beyond = sum(1 for x in t_raw["latencies"] if x * 1000 > raw["latency_tail_ms"])
    notes = {
        "setup_s": f"median of {len(setup['outcomes'])} fresh-process imports",
        "throughput_per_s": f"{verdict['attempted']} operations in {t_raw['busy']:.3f} s busy time",
        "latency_p50_ms": f"n={n}",
        "latency_tail_ms": f"p{pct}, n={n}, {beyond} samples beyond it",
    }
    notes = {k: f"raw {raw[k]:.4f}; {note}" for k, note in notes.items()}
    notes["peak_rss_mb"] = "worker process" + (" plus its largest pool child"
                                               if workload == "wide_range_w2" else "")
    f = speed_factor(result)
    lines = [f"  speed factor {f:.4f}: the kernel's mean time in the pass was "
             f"{REFERENCE_KERNEL_S / f * 1000:.3f} ms over {len(result['speed_samples'])} "
             f"samples, against {REFERENCE_KERNEL_S * 1000:g} ms at reference speed"]
    lines += [f"  {k:<18} {v:12.4f} {E2E_UNITS[k]:<4} {notes[k]}" for k, v in values.items()]
    return values, lines


def layers(workload, plain, traced) -> dict:
    """Per-layer metrics: span totals from the traced pass, report-derived ratios and
    counts from the untraced pass (same inputs)."""
    out = dict(traced["layers"])
    reps = [r for o in plain["outcomes"] for r in o.get("reports", ()) if not r["skipped"]]
    t_plain, t_traced = timing(workload, plain), timing(workload, traced)
    out["verify.checks"] = sum(r["checks"] for r in reps)
    out["verify.checks_failed"] = sum(len(r["failed_checks"]) for r in reps)
    # wall time of the calls, with the speed samples taken inside them, as the
    # reports' own times include those
    wall_ms = 1000 * sum(o["span_s"][1] - o["span_s"][0] for o in plain["outcomes"])
    measured_ms = wall_ms * t_plain["workers"]
    out["verify.reported_over_measured"] = sum(r["check_ms"] for r in reps) / measured_ms if reps else 0.0
    out["verify.pool_busy_ratio"] = sum(r["report_ms"] for r in reps) / measured_ms if reps else 0.0
    wall = t_traced["busy"]
    out["trace.wall_s"] = wall
    busy = wall * t_traced["workers"]  # self times add up over pool workers
    out["trace.overhead_s"] = wall - t_plain["busy"]
    self_s = {k: v for k, v in out.items() if k.endswith("_s") and not k.startswith("trace.")}
    out["trace.share_qseries_series_hecke"] = sum(
        v for k, v in self_s.items() if k.split(".")[0] in ("qseries", "series", "hecke")) / busy
    out["trace.share_build_dirichlet"] = (
        out["class_group.build_s"] + out["verify.dirichlet_s"]) / busy
    units = layer_units()
    return {k: out[k] for k in units}


def describe(workload: str, ops: list[dict], verdict: dict) -> list[str]:
    n = len(ops)
    if workload == "acceptance":
        total = len(ref.fundamentals(workloads.ACCEPTANCE["lo"], -3))
        return [f"  inputs: {n} of the {total} fundamental delta in [-500, -3] ({100 * n / total:.1f}%)"]
    if workload == "large_h":
        hs = [ref.class_number(op["delta"]) for op in ops]
        return [f"  inputs: probe {workloads.PROBE} (h = 999) and {n - 1} deltas with h = {hs[1:]}"]
    if workload == "cli_queries":
        seen, repeats = set(), 0
        for op in ops:
            repeats += op["delta"] in seen
            seen.add(op["delta"])
        checked = sum(op["check"] for op in ops)
        return [f"  inputs: {n} requests, {100 * repeats / n:.1f}% reuse an earlier delta, "
                f"{checked} checked against the reference"]
    return [f"  inputs: run_suite over [{ops[0]['lo']}, -3], "
            f"{verdict['attempted']} fundamental delta, {workloads.WIDE['workers']} workers"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + TIME_LIMIT_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "genusmass", "__init__.py")):
        print("error: run from the root of a genusmass checkout (no src/genusmass here)",
              file=sys.stderr)
        return 2
    ops = workloads.inputs(args.workload, args.seed, args.seconds)
    workdir = os.path.join(root, ".perfbench", f"run-{os.getpid()}")
    try:
        setup = measure_setup(root, deadline)
        plain = run_worker(root, os.path.join(workdir, "plain"), args.workload, ops, None, deadline)
        verdict = check(args.workload, ops, plain)
        traced = None
        if args.trace:
            trace_dir = os.path.join(workdir, "trace")
            os.makedirs(trace_dir)
            traced = run_worker(root, os.path.join(workdir, "traced"), args.workload, ops,
                                trace_dir, deadline)
            again = check(args.workload, ops, traced)
            verdict["mismatched"] += again["mismatched"]
            verdict["errors"] += again["errors"]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    values, lines = end_to_end(args.workload, setup, plain, verdict)
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s sizing")
    print("\n".join(describe(args.workload, ops, verdict)))
    print("\n".join(lines))
    print(f"  fail_ratio         {verdict['failed'] / verdict['attempted']:12.4f}      "
          f"{verdict['failed']} of {verdict['attempted']} operations failed; "
          f"{verdict['mismatched']} disagreed with the reference")
    for err in verdict["errors"][:5]:
        print(f"  error: {err}")
    if args.trace:
        metrics = layers(args.workload, plain, traced)
        units = layer_units()
        for k, v in metrics.items():
            print(f"  {k:<36} {v:14.6g} {units[k]}")
        out = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    else:
        out = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
    correct = verdict["mismatched"] == 0 and not verdict["errors"]
    print(json.dumps({"correct": correct, "attempted": verdict["attempted"],
                      "failed": verdict["failed"], "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
