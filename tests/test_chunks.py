"""A range run builds the layers of each chunk of discriminants as stacked arrays,
in batches capped by BATCH_ENTRIES, and then checks each discriminant on its
slices: the report lines do not depend on the chunk size, the batch cap or the
worker count, and a fault in one discriminant of a chunk fails that
discriminant alone, with the first mismatch it has when it runs alone."""

import json

import numpy as np
import pytest

import genusmass.arith as arith
import genusmass.series as series
import genusmass.verify as verify
from genusmass.class_group import build_class_group, compose_rows
from genusmass.cli import main
from genusmass.forms import stacked_reduced_forms
from genusmass.hecke import _prime_layer
from genusmass.verify import delta_range, report_json_line, run_suite
from oracles import fundamental_deltas


def untimed(line: str) -> str:
    """A report line without its elapsed_ms fields."""
    data = json.loads(line)
    data.pop("elapsed_ms")
    for check in data["checks"]:
        check.pop("elapsed_ms")
    return json.dumps(data)


def verify_lines(capsys, *argv) -> list[str]:
    assert main(["verify", *argv, "--format", "json"]) in (0, 1)
    return [untimed(line) for line in capsys.readouterr().out.splitlines()]


RANGE = ("--range", "-3:-700", "--prec", "60", "--primes", "20")


@pytest.fixture(scope="module")
def expected_lines():
    return [untimed(report_json_line(r)) for r in run_suite(delta_range(-3, -700), 60, 20, workers=1)]


@pytest.mark.parametrize("chunk", [1, 2, 7, verify.CHUNK_JOBS])
@pytest.mark.parametrize("threads", ["1", "2"])
def test_lines_do_not_depend_on_chunk_size_or_workers(capsys, monkeypatch, expected_lines, chunk, threads):
    monkeypatch.setattr(verify, "CHUNK_JOBS", chunk)
    monkeypatch.setenv("GENUSMASS_THREADS", threads)
    lines = verify_lines(capsys, *RANGE)
    assert len(lines) == 698
    assert lines == expected_lines


def test_a_small_entry_cap_splits_a_chunk_into_batches(capsys, monkeypatch, expected_lines):
    batches = []
    batch_layers = verify._batch_layers

    def recording(deltas, *args):
        batches.append(list(deltas))
        return batch_layers(deltas, *args)

    monkeypatch.setattr(verify, "BATCH_ENTRIES", 2000)
    monkeypatch.setattr(verify, "_batch_layers", recording)
    monkeypatch.setenv("GENUSMASS_THREADS", "1")
    assert verify_lines(capsys, *RANGE) == expected_lines
    # 698 jobs in chunks of CHUNK_JOBS, each in several batches of whole discriminants
    assert len(batches) > 2 * -(-698 // verify.CHUNK_JOBS)
    assert [d for batch in batches for d in batch] == fundamental_deltas(-700)
    assert all(sum(build_class_group(d).h for d in batch) * 61 <= 2000 for batch in batches if len(batch) > 1)


@pytest.fixture
def perturbed_455(monkeypatch):
    """r(Q, 35) + 1 for the class (2, 1, 57) of -455 wherever the library reads
    representation_counts, alone or stacked with other discriminants' classes."""
    original = series.representation_counts
    target = np.array([2, 1, 57])

    def perturbed(forms, n_max):
        counts = original(forms, n_max)
        counts[(np.asarray(forms) == target).all(axis=1), 35] += 1
        return counts

    for memo in (series.theta_matrix, series._genus_sums):
        memo.cache_clear()
    monkeypatch.setattr(series, "representation_counts", perturbed)
    yield
    for memo in (series.theta_matrix, series._genus_sums):
        memo.cache_clear()


def test_a_fault_in_one_delta_of_a_chunk_fails_that_delta_alone(perturbed_455):
    assert (2, 1, 57) in build_class_group(-455).index_of
    deltas = delta_range(-400, -500)
    reports = run_suite(deltas, 60, 20, workers=1)
    alone = run_suite([-455], 60, 20, workers=1)[0]
    failing = [r.delta for r in reports if not r.passed]
    assert failing == [-455]
    (report,) = [r for r in reports if r.delta == -455]
    assert untimed(report_json_line(report)) == untimed(report_json_line(alone))
    failed = [c for c in report.checks if c.status == "fail"]
    assert failed and all(c.first_mismatch is not None for c in failed)
    assert failed[0].name == "gauss_average" and failed[0].first_mismatch[0] == 35


def test_a_fault_in_one_delta_leaves_the_others_as_they_were(perturbed_455):
    deltas = [d for d in delta_range(-400, -500) if d != -455]
    faulty = run_suite(delta_range(-400, -500), 60, 20, workers=1)
    clean = run_suite(deltas, 60, 20, workers=1)
    assert ([untimed(report_json_line(r)) for r in faulty if r.delta != -455]
            == [untimed(report_json_line(r)) for r in clean])


def test_each_report_time_holds_its_checks_and_its_share_of_the_chunk():
    """The batch's build time is divided among its reports: every report's
    checks fit in its own time, and the time of the layers reaches the first
    record that reads each of them."""
    reports = run_suite(delta_range(-3, -300), 60, 20, workers=1)
    for report in reports:
        assert sum(report.check_ms) <= report.elapsed_ms, report.delta
        if report.skip_reason is None:
            names = [c.name for c in report.checks]
            times = dict(zip(names, report.check_ms))
            assert times["gauss_average"] > 0 and times["eigenform[p=2]"] > 0, report.delta


def test_a_batch_reads_each_delta_s_tables_once():
    """The prime-discriminant tables, kept for the last delta only, are built once
    per delta of a batch: for its genus characters, then its L(0) and windows."""
    deltas = fundamental_deltas(-300)
    arith.prime_discriminant_tables.cache_clear()
    series.l_zero.cache_clear()
    layers = verify._batch_layers(deltas, *stacked_reduced_forms(deltas), 30, 10)
    assert [found.eisenstein.l_zero for found in layers] == [series.l_zero(delta) for delta in deltas]
    assert arith.prime_discriminant_tables.cache_info().misses == len(deltas)


def test_no_layers_are_held_once_a_run_is_closed():
    reports = verify.iter_suite(delta_range(-3, -300), 20, 5, workers=1)
    assert next(reports).delta == -3
    assert verify._LAYERS
    reports.close()
    assert verify._LAYERS == {}


@pytest.mark.parametrize("workers", [0, -2])
def test_workers_below_one_are_refused(workers):
    with pytest.raises(ValueError, match="workers must be a positive integer"):
        run_suite([-84], 20, 5, workers=workers)
    with pytest.raises(ValueError, match="workers must be a positive integer"):
        verify.iter_suite([-84], 20, 5, workers=workers)


def test_each_prime_class_composed_once_gives_the_same_layers():
    """The prime layer composes each distinct non-principal prime class once, up
    to inversion; its permutations are the products with every prime class."""
    bound = 50
    for delta in fundamental_deltas(-3000):
        group = build_class_group(delta)
        layer = _prime_layer(delta, bound)
        every = np.arange(group.h)
        for p, perm in layer.perms.items():
            cls = int(layer.perms[p][group.identity])
            assert perm.tolist() == compose_rows(group, every, np.full(group.h, cls)).tolist(), (delta, p)
            if p in layer.conjugates:
                inverse = np.full(group.h, group.inverses[cls])
                assert layer.conjugates[p].tolist() == compose_rows(group, every, inverse).tolist(), (delta, p)
