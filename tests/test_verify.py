import json
import math
import random

import pytest

from genusmass.arith import kronecker
from genusmass.verify import (
    DirichletConfig,
    delta_range,
    report_json_line,
    run_suite,
    verify_character_counts,
    verify_dirichlet,
    verify_gauss,
    verify_genus_mass,
    verify_twisted_eisenstein,
    _dirichlet_l1,
    _kronecker_table,
)
from oracles import dirichlet_l1_oracle, fundamental_deltas

SAMPLED_DELTAS = random.Random(20000).sample(fundamental_deltas(-20000), 12)


class TestExactChecks:
    @pytest.mark.parametrize("delta", [-3, -4, -7, -20, -23, -47, -84, -120])
    def test_gauss(self, delta):
        record = verify_gauss(delta, 120)
        assert record.passed, record.detail
        assert record.name == "gauss_average"

    @pytest.mark.parametrize("delta", [-4, -20, -23, -84, -120])
    def test_twisted_eisenstein(self, delta):
        record = verify_twisted_eisenstein(delta, 120)
        assert record.passed, record.detail

    @pytest.mark.parametrize("delta", [-4, -20, -47, -84, -120])
    def test_genus_mass(self, delta):
        record = verify_genus_mass(delta, 120)
        assert record.passed, record.detail

    @pytest.mark.parametrize(
        "delta,count", [(-20, 2), (-84, 4), (-7, 1), (-120, 4), (-420, 8)]
    )
    def test_character_counts(self, delta, count):
        record = verify_character_counts(delta)
        assert record.passed, record.detail
        assert f"|G*| = |G| = {count}" in record.detail


class TestKroneckerTable:
    @pytest.mark.parametrize(
        "delta", [-3, -4, -8, -24, -40, -84, -120, -420, -400391] + SAMPLED_DELTAS
    )
    def test_matches_scalar_kronecker(self, delta):
        table = _kronecker_table(delta)
        assert table.tolist() == [kronecker(delta, r) for r in range(-delta)]


class TestDirichlet:
    @pytest.mark.parametrize(
        "delta,terms",
        [(-3, 10**6), (-4, 10**6), (-20, 10**4), (-163, 10**6), (-420, 12345), (-400391, 10**6)]
        + [(delta, 10**5) for delta in SAMPLED_DELTAS[:4]],
    )
    def test_equals_scalar_table_formula(self, delta, terms):
        assert _dirichlet_l1(delta, terms) == dirichlet_l1_oracle(delta, terms)

    def test_leibniz_oracle(self):
        # L(1) for delta = -4 is pi/4; the smoothed partial sums are good to ~1/(4M)
        assert abs(_dirichlet_l1(-4, 10**6) - math.pi / 4) < 1e-6

    @pytest.mark.parametrize("delta,tol", [(-4, 1e-3), (-3, 1e-3), (-20, 1e-2)])
    def test_recovers_class_number(self, delta, tol):
        record = verify_dirichlet(delta, terms=10**6, tol=tol)
        assert record.passed, record.detail

    def test_rejects_small_term_count(self):
        with pytest.raises(ValueError):
            verify_dirichlet(-4, terms=100)

    def test_frozen_tolerance_is_generous(self):
        record = verify_dirichlet(-163, terms=DirichletConfig.terms)
        assert record.passed


class TestRunSuite:
    def test_small_range_passes(self):
        reports = run_suite(delta_range(-3, -30), n_max=40, primes_bound=10, terms=10**4, tol=0.05)
        assert reports
        by_delta = {r.delta: r for r in reports}
        assert set(by_delta) == set(range(-3, -31, -1))
        for r in reports:
            if r.skip_reason is None:
                assert r.passed, (r.delta, [c.name for c in r.checks if not c.passed])
            else:
                assert r.skip_reason == "non-fundamental"
                assert not r.checks
        # -12 = 4*(-3) and -10 (2 mod 4) must both be skipped
        assert by_delta[-12].skip_reason == "non-fundamental"
        assert by_delta[-10].skip_reason == "non-fundamental"
        assert by_delta[-23].skip_reason is None

    def test_empty_range(self):
        assert run_suite([]) == []

    def test_every_check_listed_even_when_skipped(self):
        report = run_suite([-20], n_max=40, primes_bound=12, terms=10**4, tol=0.05)[0]
        names = [c.name for c in report.checks]
        assert "gauss_average" in names
        assert "twisted_eisenstein" in names
        assert "genus_mass" in names
        assert "character_counts" in names
        assert "dirichlet_class_number" in names
        # 11 is inert for -20: the genus permutation is listed with a skip reason
        assert "genus_permutation[p=11]" in names
        skipped = [c for c in report.checks if c.name == "genus_permutation[p=11]"][0]
        assert skipped.passed and "skipped" in skipped.detail
        for p in (2, 3, 5, 7, 11):
            assert f"eigenform[p={p}]" in names

    def test_report_schema_and_determinism(self):
        first = run_suite([-20, -19], n_max=30, primes_bound=8, terms=10**4, tol=0.05)
        second = run_suite([-20, -19], n_max=30, primes_bound=8, terms=10**4, tol=0.05)
        lines1 = [report_json_line(r, include_timing=False) for r in first]
        lines2 = [report_json_line(r, include_timing=False) for r in second]
        assert lines1 == lines2
        data = json.loads(lines1[0])
        assert data["delta"] == -20
        assert data["h"] == 2
        assert data["t"] == 2
        assert data["genus_count"] == 2
        assert all(set(c) == {"name", "pass", "detail"} for c in data["checks"])
        timed = json.loads(report_json_line(first[0]))
        assert "elapsed_ms" in timed and all("elapsed_ms" in c for c in timed["checks"])

    def test_workers_option_matches_serial(self):
        serial = run_suite([-15, -14, -20], n_max=20, primes_bound=5, terms=10**4, tol=0.05)
        parallel = run_suite(
            [-15, -14, -20], n_max=20, primes_bound=5, terms=10**4, tol=0.05, workers=2
        )
        assert [report_json_line(r, include_timing=False) for r in serial] == [
            report_json_line(r, include_timing=False) for r in parallel
        ]


def test_delta_range_is_descending_inclusive():
    assert delta_range(-3, -6) == [-3, -4, -5, -6]
    assert delta_range(-6, -3) == [-3, -4, -5, -6]


def test_worker_count_env(monkeypatch):
    from genusmass.verify import _worker_count

    monkeypatch.setenv("GENUSMASS_THREADS", "4")
    assert _worker_count() == 4
    monkeypatch.setenv("GENUSMASS_THREADS", "junk")
    assert _worker_count() == 1
    monkeypatch.delenv("GENUSMASS_THREADS")
    assert _worker_count() == 1
