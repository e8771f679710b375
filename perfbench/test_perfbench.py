"""Tests of the benchmark's own code.  Run from the checkout root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from array import array
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import reference as ref  # noqa: E402
import run  # noqa: E402
import selfcheck  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def test_class_numbers_match_known_values():
    known = {-3: 1, -4: 1, -20: 2, -23: 3, -84: 4, -420: 8, -5460: 16, -400391: 999}
    assert {d: ref.class_number(d) for d in known} == known
    assert ref.reduced_triples(-20) == ((1, 0, 5), (2, 2, 3))


def test_kronecker_matches_euler_criterion():
    for p in (3, 5, 7, 11, 13, 101):
        for m in range(-30, 30):
            euler = pow(m % p, (p - 1) // 2, p)
            assert ref.kronecker(m, p) == {0: 0, 1: 1, p - 1: -1}[euler]
    assert [ref.kronecker(-4, n) for n in range(8)] == [0, 1, 0, -1, 0, 1, 0, -1]


def test_theta_and_eisenstein_references():
    # r(x^2 + y^2, n) = 4 * sum_{d | n} chi_{-4}(d)
    theta = ref.theta_counts((1, 0, 1), 50)
    eis = ref.eisenstein_coeffs(1, -4, 50)
    assert theta[0] == 1 and eis[0] == Fraction(1, 4)
    assert all(theta[n] == 4 * eis[n] for n in range(1, 51))
    assert ref.character_ds(-420) == [1, 5, 12, 21, 28, 60, 105, 140]


def test_inputs_depend_only_on_seed_and_seconds():
    for name in workloads.NAMES:
        assert workloads.inputs(name, 7, 4) == workloads.inputs(name, 7, 4)
    for name in ("acceptance", "cli_queries"):
        assert workloads.inputs(name, 7, 4) != workloads.inputs(name, 8, 4)
    # large_h: the probe, then one fixed sample in an order the seed sets
    first, second = workloads.inputs("large_h", 7, 20), workloads.inputs("large_h", 8, 20)
    assert first != second and sorted(first, key=str) == sorted(second, key=str)
    assert first[0] == {"delta": workloads.PROBE}


def test_stratified_prefix_spans_every_stratum():
    order = workloads.stratified(list(range(64)), lambda x: x, 8, workloads._rng("t", 1))
    assert sorted(order) == list(range(64))
    assert sorted(x // 8 for x in order[:8]) == list(range(8))


def test_self_time_subtracts_child_spans():
    t = tracer.Tracer()
    t.names = ["outer", "inner"]
    t.name_id, t.parent, t.op = array("i", [0, 1, 1]), array("i", [-1, 0, 0]), array("q", [0, 0, 0])
    t.start, t.end = array("d", [0.0, 1.0, 4.0]), array("d", [10.0, 3.0, 5.0])
    chunk = t.chunk()
    assert chunk["self_s"] == {"outer": 7.0, "inner": 3.0}
    assert chunk["total_s"] == {"outer": 10.0, "inner": 3.0}


def test_times_are_stated_at_reference_speed():
    # the kernel ran at reference speed during set-up and near the first
    # operation, and at half of it near the second, whose time therefore halves
    ref_s = run.REFERENCE_KERNEL_S
    result = {"outcomes": [{"latency_s": 0.5, "span_s": [0.0, 0.5]},
                           {"latency_s": 3.0, "span_s": [10.0, 13.0]}],
              "peak_rss_mb": 50.0, "speed_samples": [[0.2, ref_s], [11.0, 2 * ref_s]]}
    setup = {"outcomes": [{"latency_s": x, "span_s": [0.0, 0.1]} for x in (0.2, 0.3, 0.1)],
             "speed_samples": [[0.0, ref_s]]}
    values, _ = run.end_to_end("acceptance", setup, result, {"attempted": 2})
    assert values["setup_s"] == 0.2 and values["throughput_per_s"] == 1.0
    assert values["latency_p50_ms"] == 1000.0 and values["peak_rss_mb"] == 50.0


def test_selfcheck_compares_bounds_and_counts():
    def result(value, count):
        return {"attempted": 5, "failed": 0, "metrics": {
            "x_s": {"value": value, "unit": "s"}, "n": {"value": count, "unit": "count"}}}

    assert selfcheck.compare_e2e(result(1.0, 3), result(1.05, 3), {"x_s": 0.1}) == []
    assert selfcheck.compare_e2e(result(1.0, 3), result(1.2, 3), {"x_s": 0.1})
    assert selfcheck.compare_counts(result(1.0, 3), result(2.0, 3)) == []
    assert selfcheck.compare_counts(result(1.0, 3), result(1.0, 4))


def test_benchmark_json_lists_what_run_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.layer_units()
    assert [w["name"] for w in bench["workloads"]] == list(workloads.NAMES)


def _bench(cwd, *args):
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170, check=False)


def test_traced_counts_repeat_for_a_seed():
    args = ("--workload", "cli_queries", "--seed", "3", "--seconds", "1", "--trace", "1")
    first, second = (json.loads(_bench(ROOT, *args).stdout.splitlines()[-1]) for _ in range(2))
    assert first["correct"] and second["correct"]
    assert selfcheck.compare_counts(first, second) == []
    assert first["metrics"]["cli.request_s"]["value"] > 0


def test_refuses_to_run_outside_a_checkout(tmp_path):
    proc = _bench(tmp_path, "--workload", "acceptance", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0 and proc.stdout == ""
