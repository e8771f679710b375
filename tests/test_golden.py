"""Byte-for-byte pins of the CLI's verify and series output, and of the records a
perturbed theta count fails, against files written by the Fraction-tuple
implementation that preceded the integer-vector series (tests/data/).  Each
check line of verify.jsonl has since gained its "status" key, inserted after
"pass" in the file as written: "skip" for the inert-prime genus permutation
records, "pass" for the rest.  classgroup.json pins the classgroup output in
json and text, as written while a class group was still a tuple-based record
beside the stacked arrays.  failing.json pins the report of the corrupted
discriminant of each fault of tests/faults.py, without its times, as written
while a failing record still came from a per-discriminant check on a record
sliced out of its batch."""

import json
from pathlib import Path

import pytest

import genusmass.series as series
from genusmass.cli import main
from genusmass.verify import run_suite
from faults import failing_json

DATA = Path(__file__).parent / "data"

# (delta, prec, primes), in the order of the lines of verify.jsonl
VERIFY_CASES = [(d, 60, 20) for d in (-3, -4, -20, -84, -420, -455, -5460)] + [(-400391, 20, 5)]

# the class whose r(Q, 35) the perturbation test raises by one: the first with a = 2
PERTURBED_FORM = {-84: (2, 2, 11), -455: (2, -1, 57)}


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    return code, capsys.readouterr().out


def strip_timing(line: str) -> str:
    data = json.loads(line)
    data.pop("elapsed_ms")
    for check in data["checks"]:
        check.pop("elapsed_ms")
    return json.dumps(data)


def verify_lines(capsys) -> list[str]:
    lines = []
    for delta, prec, primes in VERIFY_CASES:
        code, out = run_cli(
            capsys, "verify", "--disc", delta, "--prec", prec, "--primes", primes, "--format", "json"
        )
        assert code == 0, delta
        lines += [strip_timing(line) for line in out.splitlines()]
    return lines


def test_verify_json_matches_golden(capsys):
    expected = (DATA / "verify.jsonl").read_text().splitlines()
    assert verify_lines(capsys) == expected


def test_series_outputs_match_golden(capsys):
    golden = json.loads((DATA / "series.json").read_text())
    for key, expected in golden.items():
        delta, which, fmt = key.split()
        code, out = run_cli(capsys, "series", "--disc", delta, "--which", which, "--prec", 100, "--format", fmt)
        assert code == 0
        assert out == expected, key


def test_classgroup_outputs_match_golden(capsys):
    golden = json.loads((DATA / "classgroup.json").read_text())
    assert len(golden) == 12
    for key, expected in golden.items():
        delta, fmt = key.split()
        code, out = run_cli(capsys, "classgroup", "--disc", delta, "--format", fmt)
        assert code == 0
        assert out == expected, key


@pytest.fixture
def perturbed_theta(monkeypatch):
    """r(Q, 35) + 1 for the class PERTURBED_FORM[delta], read where the library
    reads representation_counts."""
    original = series.representation_counts
    target = {}

    def perturbed(forms, n_max):
        counts = original(forms, n_max)
        for row, q in enumerate(forms.tolist()):
            if tuple(q) == target.get("form"):
                counts[row, 35] += 1
        return counts

    monkeypatch.setattr(series, "representation_counts", perturbed)
    return target


@pytest.mark.parametrize("delta", [-84, -455])
def test_perturbed_theta_fails_the_same_records(perturbed_theta, delta):
    """p = 2 is ramified for -84 and split for -455.  Every check that reads
    r(Q, 35) fails, with the first mismatch the Fraction-tuple code reported."""
    perturbed_theta["form"] = PERTURBED_FORM[delta]
    report = run_suite([delta], n_max=200, primes_bound=50, workers=1)[0]
    failed = [[c.name, c.detail] for c in report.checks if not c.passed]
    expected = json.loads((DATA / "perturbed.json").read_text())[str(delta)]
    assert len(expected) == 15
    assert failed == expected


def test_failing_records_carry_their_first_mismatch(perturbed_theta):
    """A failing record holds its first mismatch as data, and its JSON carries it
    as {"n", "lhs", "rhs"}: at each [p=...] record the same as in its detail."""
    perturbed_theta["form"] = PERTURBED_FORM[-84]
    report = run_suite([-84], n_max=200, primes_bound=50, workers=1)[0]
    checks = report.to_dict()["checks"]
    failed = [c for c in checks if c["status"] == "fail"]
    assert len(failed) == 15 and not any(c["pass"] for c in failed)
    assert all("first_mismatch" not in c for c in checks if c["status"] != "fail")
    for record, data in zip(report.checks, checks):
        if record.status != "fail":
            continue
        n, lhs, rhs = record.first_mismatch
        assert data["first_mismatch"] == {"n": n, "lhs": str(lhs), "rhs": str(rhs)}
        if "[p=" in record.name:
            assert json.loads(record.detail.split(" ", 2)[2]) == data["first_mismatch"], record.name
        else:
            assert f"mismatch at n={n}: {lhs} != {rhs}" in record.detail, record.name


def test_object_dtype_gives_the_same_report(capsys, monkeypatch):
    """With the int64 bound forced below every real value, all arrays hold Python
    ints; the reports are the same as with int64."""
    int64_lines = verify_lines(capsys)
    monkeypatch.setattr(series, "INT64_BOUND", 0)
    assert series.theta_matrix(-84, 10).dtype == object
    assert series.eisenstein_series(1, -84, 10).coeffs.dtype == object
    assert verify_lines(capsys) == int64_lines


def test_failing_records_match_golden():
    """Every fault of tests/faults.py, on each of its batches, fails the same
    records with the same details and first mismatches, byte for byte."""
    assert failing_json() == (DATA / "failing.json").read_text()
