import functools
import json
import math
import multiprocessing
import os
import random
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest

import genusmass.class_group as class_group
import genusmass.series as series
import genusmass.verify as verify
from genusmass.arith import kronecker, primes_up_to
from genusmass.class_group import build_class_group
from genusmass.genus import build_genus_characters
from genusmass.series import l_zero
from genusmass.verify import (
    delta_range,
    iter_suite,
    report_json_line,
    run_suite,
)
from oracles import (
    automorph_count,
    build_layers,
    classify_prime,
    dirichlet_l1_oracle,
    fundamental_deltas,
    kronecker_table,
    verify_character_counts,
    verify_dirichlet,
    verify_gauss,
    verify_genus_mass,
    verify_twisted_eisenstein,
)

SAMPLED_DELTAS = random.Random(20000).sample(fundamental_deltas(-20000), 12)


def untimed_line(report) -> str:
    """The report's JSON line without its elapsed_ms fields."""
    data = json.loads(report_json_line(report))
    data.pop("elapsed_ms")
    for check in data["checks"]:
        check.pop("elapsed_ms")
    return json.dumps(data)


class TestExactChecks:
    @pytest.mark.parametrize("delta", [-3, -4, -7, -20, -23, -47, -84, -120])
    def test_gauss(self, delta):
        record = verify_gauss(build_layers(delta, 120, 1))
        assert record.passed, record.detail
        assert record.name == "gauss_average"

    @pytest.mark.parametrize("delta", [-4, -20, -23, -84, -120])
    def test_twisted_eisenstein(self, delta):
        record = verify_twisted_eisenstein(build_layers(delta, 120, 1))
        assert record.passed, record.detail

    @pytest.mark.parametrize("delta", [-4, -20, -47, -84, -120])
    def test_genus_mass(self, delta):
        record = verify_genus_mass(build_layers(delta, 120, 1))
        assert record.passed, record.detail

    @pytest.mark.parametrize(
        "delta,count", [(-20, 2), (-84, 4), (-7, 1), (-120, 4), (-420, 8)]
    )
    def test_character_counts(self, delta, count):
        record = verify_character_counts(build_layers(delta, 0, 1))
        assert record.passed, record.detail
        assert f"|G*| = |G| = {count}" in record.detail


class TestKroneckerTable:
    @pytest.mark.parametrize(
        "delta", [-3, -4, -8, -24, -40, -84, -120, -420, -400391] + SAMPLED_DELTAS
    )
    def test_matches_scalar_kronecker(self, delta):
        table = kronecker_table(delta)
        assert table.tolist() == [kronecker(delta, r) for r in range(-delta)]


def class_number_from_l1(delta: int, l1: float) -> float:
    """h = (w sqrt|delta| / 2 pi) L(1), the analytic class number formula."""
    return automorph_count(delta) * math.sqrt(-delta) / (2 * math.pi) * l1


class TestDirichlet:
    def test_leibniz_oracle(self):
        # L(1) for delta = -4 is pi/4 = pi L(0) / sqrt 4; the smoothed partial sums
        # of the reference are good to ~1/(4M)
        assert l_zero(-4) == Fraction(1, 2)
        assert abs(dirichlet_l1_oracle(-4, 10**6) - math.pi * l_zero(-4) / 2) < 1e-6

    @pytest.mark.parametrize("delta,tol", [(-4, 1e-3), (-3, 1e-3), (-20, 1e-2)])
    def test_recovers_class_number(self, delta, tol):
        record = verify_dirichlet(build_layers(delta, 0, 1))
        assert record.passed, record.detail
        l1 = dirichlet_l1_oracle(delta, 10**6)
        assert abs(class_number_from_l1(delta, l1) - build_class_group(delta).h) < tol

    def test_l_zero_against_l1_reference(self):
        # L(1) = pi L(0) / sqrt|delta| ties the exact character sum to the
        # independent smoothed L(1) partial sums
        for delta in fundamental_deltas(-500):
            l1 = math.pi * l_zero(delta) / math.sqrt(-delta)
            reference = class_number_from_l1(delta, dirichlet_l1_oracle(delta, 10**6))
            assert abs(class_number_from_l1(delta, l1) - reference) < 1e-2, delta

    @pytest.mark.parametrize("delta", [-3, -4, -20, -84, -163, -420])
    def test_l_zero_equals_scalar_character_sum(self, delta):
        q = -delta
        assert l_zero(delta) == Fraction(-sum(kronecker(delta, a) * a for a in range(q)), q)

    def test_large_class_number(self):
        record = verify_dirichlet(build_layers(-400391, 0, 1))
        assert record.passed, record.detail
        assert "h=999" in record.detail


@pytest.fixture
def wrong_l_zero(monkeypatch):
    """l_zero off by 2/w, so (w/2) L(0) is h + 1."""

    def wrong(delta):
        return l_zero(delta) + Fraction(2, automorph_count(delta))

    monkeypatch.setattr(series, "l_zero", wrong)


@pytest.mark.parametrize("delta", [-3, -20, -84])
def test_checks_fail_on_wrong_l_zero(wrong_l_zero, delta):
    """The n = 0 comparisons read L(0) from the character, not from the class
    group, so a wrong L(0) fails all three checks that use it."""
    layers = build_layers(delta, 10, 1)
    assert not verify_dirichlet(layers).passed
    twisted = verify_twisted_eisenstein(layers)
    assert not twisted.passed and "mismatch at n=0" in twisted.detail
    mass = verify_genus_mass(layers)
    assert not mass.passed and "constant terms" in mass.detail


@pytest.fixture
def flipped_table(monkeypatch):
    """(p|1) negated in the table of the prime discriminant p = target["prime"]
    of target["delta"] (by default the largest), read where the series read the
    tables (the class group reads them on its own: target["flipped"] is the
    flipped reader); the cache of the tables is cleared on the way in and out."""
    original = series.prime_discriminant_tables
    target = {}

    def flipped(delta):
        tables = original(delta)
        if delta != target.get("delta"):
            return tables
        prime = target.get("prime", tables[-1][0])
        out = []
        for p, table in tables:
            if p == prime:
                table = table.copy()
                table[1] = -table[1]
            out.append((p, table))
        return tuple(out)

    original.cache_clear()
    monkeypatch.setattr(series, "prime_discriminant_tables", flipped)
    target["flipped"] = flipped
    yield target
    original.cache_clear()


@pytest.mark.parametrize("delta", [-84, -455])
def test_checks_fail_on_flipped_character_table(flipped_table, delta):
    """The checks whose right side is a divisor sum of the character fail, and
    the operator identities at the primes, which read only the theta matrix,
    still pass.  (The L(0) sum need not notice: at -84 the flip of (-7|1)
    negates the half-range terms at a = 1 and a = 29, where the character is
    1 and -1, so the sum is unchanged; see the test below.)"""
    flipped_table["delta"] = delta
    report = run_suite([delta], n_max=200, primes_bound=50, workers=1)[0]
    failed = [c.name for c in report.checks if not c.passed]
    assert failed[:3] == ["gauss_average", "twisted_eisenstein", "genus_mass"]
    assert set(failed[3:]) <= {"dirichlet_class_number"}


@pytest.mark.parametrize("delta,prime,cancels", [(-23, -23, False), (-84, -3, False), (-455, 13, False),
                                                 (-84, -7, True)])
def test_dirichlet_fails_on_a_flip_that_moves_the_half_range_sum(flipped_table, delta, prime, cancels):
    """(p|1) negated negates the terms a = 1 mod |p| of the half-range L(0) sum,
    0 < a < |delta|/2, and keeps chi(2).  The sum changes by -2 times their sum,
    so the Dirichlet check fails exactly when that sum is not 0.  At -84 the
    flip of (-7|1) reads a = 1 and a = 29, with chi 1 and -1, and cancels."""
    moved = sum(kronecker(delta, a) for a in range(1, (1 - delta) // 2, abs(prime)))
    assert (moved == 0) == cancels
    flipped_table.update(delta=delta, prime=prime)
    assert verify_dirichlet(build_layers(delta, 0, 1)).passed == cancels


@pytest.mark.parametrize("delta", [-84, -455])
def test_flipped_table_in_the_genera_is_caught(flipped_table, monkeypatch, delta):
    """The class group reads the assigned characters of its genera from the same
    tables.  The flip gives the principal class (value 1) the wrong characters:
    at -455 that splits the principal genus, which the build refuses; at -84,
    with one class per genus, the build stands and its character table is not
    orthogonal."""
    flipped_table["delta"] = delta
    monkeypatch.setattr(class_group, "prime_discriminant_tables", flipped_table["flipped"])
    if delta == -455:
        with pytest.raises(RuntimeError, match="principal genus"):
            build_class_group.__wrapped__(delta)
        return
    group = build_class_group.__wrapped__(delta)
    layers = build_layers(delta, 0, 1)._replace(group=group, characters=build_genus_characters(group))
    record = verify_character_counts(layers)
    assert not record.passed
    assert record.detail == "the character table is not orthogonal: X X^T != 4 I"


class TestRunSuite:
    def test_small_range_passes(self):
        reports = run_suite(delta_range(-3, -30), n_max=40, primes_bound=10)
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

    def test_check_times_fit_in_report_time(self):
        # every identity at a prime is timed on its own, so the checks' times
        # cannot add up to more than the report's own; the report holds them, one
        # per check, and its JSON gives each to its check
        report = run_suite([-84], n_max=200, primes_bound=50)[0]
        data = report.to_dict()
        assert len(report.check_ms) == len(report.checks)
        assert [c["elapsed_ms"] for c in data["checks"]] == list(report.check_ms)
        assert sum(c["elapsed_ms"] for c in data["checks"]) <= data["elapsed_ms"]

    def test_empty_range(self):
        assert run_suite([]) == []

    def test_every_check_listed_even_when_skipped(self):
        report = run_suite([-20], n_max=40, primes_bound=12)[0]
        names = [c.name for c in report.checks]
        assert "gauss_average" in names
        assert "twisted_eisenstein" in names
        assert "genus_mass" in names
        assert "character_counts" in names
        assert "dirichlet_class_number" in names
        # 11 is inert for -20: the genus permutation is listed with a skip reason
        assert "genus_permutation[p=11]" in names
        skipped = [c for c in report.checks if c.name == "genus_permutation[p=11]"][0]
        assert skipped.status == "skip" and skipped.passed and "skipped" in skipped.detail
        for p in (2, 3, 5, 7, 11):
            assert f"eigenform[p={p}]" in names

    def test_report_schema_and_determinism(self):
        first = run_suite([-20, -19], n_max=30, primes_bound=8)
        second = run_suite([-20, -19], n_max=30, primes_bound=8)
        lines1 = [untimed_line(r) for r in first]
        lines2 = [untimed_line(r) for r in second]
        assert lines1 == lines2
        data = json.loads(lines1[0])
        assert data["delta"] == -20
        assert data["h"] == 2
        assert data["t"] == 2
        assert data["genus_count"] == 2
        assert all(list(c) == ["name", "pass", "status", "detail"] for c in data["checks"])
        assert all(c["status"] == "pass" for c in data["checks"])
        timed = json.loads(report_json_line(first[0]))
        assert "elapsed_ms" in timed and all("elapsed_ms" in c for c in timed["checks"])

    def test_workers_option_matches_serial(self):
        # 198 jobs over 2 workers go out in chunks of 12: reports keep input order
        deltas = delta_range(-3, -200)
        serial = run_suite(deltas, n_max=20, primes_bound=5)
        parallel = list(run_suite(deltas, n_max=20, primes_bound=5, workers=2))
        assert [r.delta for r in parallel] == list(deltas)
        assert [untimed_line(r) for r in serial] == [untimed_line(r) for r in parallel]


class TestPool:
    """run_suite with workers > 1 returns an iterator that owns its process pool."""

    @pytest.mark.parametrize("let_go", ["close", "drop"])
    def test_partly_read_iterator_leaves_no_process(self, let_go):
        reports = run_suite(delta_range(-3, -200), n_max=20, primes_bound=5, workers=2)
        assert [next(reports).delta for _ in range(3)] == [-3, -4, -5]
        assert multiprocessing.active_children()
        if let_go == "close":
            reports.close()
        else:
            del reports  # garbage-collected at once: nothing else refers to it
        assert multiprocessing.active_children() == []

    def test_reports_arrive_before_the_last_job_is_done(self, monkeypatch, tmp_path):
        # the job for -200 waits until the first report has been handed out, so
        # a pool that held every report until the last job was done would time out
        marker = tmp_path / "first-report-seen"
        monkeypatch.setattr(verify, "_suite_job", _waiting_at_minus_200(verify._suite_job, str(marker)))
        reports = run_suite(delta_range(-3, -200), n_max=20, primes_bound=5, workers=2)
        first = next(reports)
        marker.touch()
        assert [first.delta] + [r.delta for r in reports] == list(delta_range(-3, -200))
        assert first.passed

    def test_raising_job_propagates_and_leaves_no_process(self, monkeypatch):
        monkeypatch.setattr(verify, "_suite_job", _raising_at_minus_100(verify._suite_job))
        reports = run_suite(delta_range(-3, -200), n_max=20, primes_bound=5, workers=2)
        seen = []
        with pytest.raises(ValueError, match="job for -100 failed"):
            for report in reports:
                seen.append(report.delta)
        # the reports come in input order up to the chunk that holds -100
        assert seen == list(delta_range(-3, -2 - len(seen))) and -100 not in seen
        assert multiprocessing.active_children() == []

    def test_a_consumer_that_raises_leaves_no_process(self, monkeypatch, capsys):
        """The CLI closes its reports when writing one raises: the pool has shut
        down, its processes joined, once the call returns, while the exception
        and its traceback, which hold the CLI's frame, are still alive."""
        import genusmass.cli as cli

        written = []

        def failing(report):
            if written:
                raise RuntimeError("the consumer failed")
            written.append(report.delta)
            return verify.report_json_line(report)

        monkeypatch.setenv("GENUSMASS_THREADS", "2")
        monkeypatch.setattr(cli, "report_json_line", failing)
        with pytest.raises(RuntimeError, match="the consumer failed") as error:
            cli.main(["verify", "--range", "-3:-200", "--prec", "20", "--primes", "5", "--format", "json"])
        assert multiprocessing.active_children() == []
        assert written == [-3] and error.value.__traceback__ is not None
        assert capsys.readouterr().out.startswith('{"delta": -3,')

    def test_serial_call_runs_every_job_inside_it(self, monkeypatch):
        monkeypatch.setattr(verify, "_suite_job", _raising_at_minus_100(verify._suite_job))
        with pytest.raises(ValueError, match="job for -100 failed"):
            run_suite(delta_range(-3, -200), n_max=20, primes_bound=5, workers=1)


def _waiting_at_minus_200(job, marker):
    """job, except that the job for -200 first waits up to 60 s for the file marker."""

    @functools.wraps(job)
    def waiting(args):
        if args[0] == -200:
            deadline = time.monotonic() + 60
            while not os.path.exists(marker):
                if time.monotonic() > deadline:
                    raise TimeoutError(f"{marker} did not appear")
                time.sleep(0.01)
        return job(args)

    return waiting


def _raising_at_minus_100(job):
    """job, except that the job for -100 raises.  Bound as verify._suite_job, the
    wrapper pickles by that name, so a forked pool worker runs it too."""

    @functools.wraps(job)
    def raising(args):
        if args[0] == -100:
            raise ValueError("job for -100 failed")
        return job(args)

    return raising


class TestCacheScope:
    def test_range_run_keeps_at_most_one_delta(self):
        run_suite(delta_range(-3, -300), n_max=20, primes_bound=5, workers=1)
        assert build_class_group.cache_info().currsize <= 1

    @pytest.mark.parametrize("workers", [1, 2])
    def test_suite_runs_under_plain_wrappers(self, monkeypatch, workers):
        """A tracer rebinds build_class_group and verify._suite_job in every module
        to wrappers without cache_clear; the suite still runs, in-process and on
        a pool, and still empties the class group cache.  Its checks read each
        delta's layers, so no check calls build_class_group."""
        deltas = delta_range(-3, -60)
        expected = [untimed_line(r) for r in run_suite(deltas, n_max=20, primes_bound=5, workers=1)]
        originals = {"build_class_group": build_class_group, "_suite_job": verify._suite_job}
        calls = []
        for name, original in originals.items():

            def wrapper(*args, _original=original, _name=name):
                calls.append(_name)
                return _original(*args)

            wrapper = functools.wraps(original)(wrapper)
            assert not hasattr(wrapper, "cache_clear")
            for modname, module in list(sys.modules.items()):
                if modname.startswith("genusmass."):
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            monkeypatch.setattr(module, attr, wrapper)
        assert verify._suite_job is not originals["_suite_job"]
        reports = run_suite(deltas, n_max=20, primes_bound=5, workers=workers)
        assert [untimed_line(r) for r in reports] == expected
        if workers == 1:
            assert calls.count("_suite_job") == len(deltas)
            assert "build_class_group" not in calls
            assert build_class_group.cache_info().currsize <= 1


def test_delta_range_is_descending_inclusive():
    assert list(delta_range(-3, -6)) == [-3, -4, -5, -6]
    assert list(delta_range(-6, -3)) == [-3, -4, -5, -6]


def test_first_serial_report_of_a_long_range_needs_no_job_list():
    """The serial path builds each job when its report is asked for: a job list
    for this range would hold two million ints and tuples before the first
    report."""
    tracemalloc.start()
    try:
        report = next(iter_suite(delta_range(-3, -2 * 10**6), 20, 5, workers=1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.delta == -3 and report.passed
    assert peak < 20 * 2**20


def test_first_pool_report_of_a_long_range_needs_no_job_list():
    """The pool path takes jobs a chunk at a time, at most CHUNKS_PER_WORKER
    chunks per worker ahead of the reader: a job list and a future per chunk for
    this range held about 35 MB in this process before the first report."""
    tracemalloc.start()
    try:
        reports = iter_suite(delta_range(-3, -2 * 10**5), 20, 5, workers=2)
        report = next(reports)
        _, peak = tracemalloc.get_traced_memory()
        reports.close()
    finally:
        tracemalloc.stop()
    assert report.delta == -3 and report.passed
    assert multiprocessing.active_children() == []
    assert peak < 5 * 2**20


def test_inert_prime_genus_permutations_are_the_skips():
    """On [-500, -3] with p <= 50 every inert (delta, p) pair gives one skip
    record and nothing else is skipped."""
    inert = [(d, p) for d in fundamental_deltas(-500) for p in primes_up_to(50)
             if classify_prime(d, p) == "inert"]
    skips = [(r.delta, c.name) for r in run_suite(delta_range(-3, -500), n_max=60, primes_bound=50)
             for c in r.checks if c.status == "skip"]
    assert len(inert) == len(skips) == 1024
    assert skips == [(d, f"genus_permutation[p={p}]") for d, p in inert]


def test_worker_count_env(monkeypatch):
    from genusmass.verify import _worker_count

    monkeypatch.setenv("GENUSMASS_THREADS", "4")
    assert _worker_count() == 4
    monkeypatch.delenv("GENUSMASS_THREADS")
    assert _worker_count() == 1
    for raw in ("junk", "0", "-3", ""):
        monkeypatch.setenv("GENUSMASS_THREADS", raw)
        with pytest.raises(ValueError, match="GENUSMASS_THREADS"):
            _worker_count()
