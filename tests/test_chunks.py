"""A range run builds the layers of each chunk of discriminants as stacked arrays,
in batches capped by BATCH_ENTRIES, and then checks each discriminant on its
slices: the report lines do not depend on the chunk size, the batch cap or the
worker count, and a fault in one discriminant of a chunk fails that
discriminant alone, with the first mismatch it has when it runs alone."""

import gc
import json
import sys
import weakref

import numpy as np
import pytest

import genusmass.arith as arith
import genusmass.genus as genus
import genusmass.series as series
import genusmass.verify as verify
from genusmass.class_group import build_class_group, compose_rows
from genusmass.cli import main
from genusmass.forms import stacked_reduced_forms
from genusmass.hecke import sweep_failures
from genusmass.verify import delta_range, report_json_line, run_suite
from oracles import build_layers, fundamental_deltas


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


REPEATS = [-84, -4, -84, 5, -455, -84]


@pytest.mark.parametrize("workers,entries", [(1, verify.BATCH_ENTRIES), (2, verify.BATCH_ENTRIES), (1, 160)])
def test_a_repeated_delta_gets_its_own_record(monkeypatch, workers, entries):
    """Each job takes its own record, in input order: every repeat of a delta
    reports as that delta does alone, within one batch, on a pool, and with a
    cap of 160 entries (31 per class at 30/10), which cuts the batches after
    -84, -4 and the second -84, and leaves -455 (h = 20) alone."""
    batches = []
    batch_layers = verify._batch_layers

    def recording(deltas, *args):
        batches.append(list(deltas))
        return batch_layers(deltas, *args)

    monkeypatch.setattr(verify, "BATCH_ENTRIES", entries)
    monkeypatch.setattr(verify, "_batch_layers", recording)
    reports = list(run_suite(REPEATS, 30, 10, workers=workers))
    alone = {delta: untimed(report_json_line(run_suite([delta], 30, 10, workers=1)[0])) for delta in set(REPEATS)}
    assert [r.delta for r in reports] == REPEATS
    assert [untimed(report_json_line(r)) for r in reports] == [alone[delta] for delta in REPEATS]
    assert [r.skip_reason for r in reports] == [None, None, None, "non-fundamental", None, None]
    if workers == 1:
        expected = [[-84, -4], [-84], [-455], [-84]] if entries == 160 else [[-84, -4, -84, -455, -84]]
        assert batches[: len(expected)] == expected


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

    monkeypatch.setattr(series, "representation_counts", perturbed)


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
    layers = verify._batch_layers(deltas, *stacked_reduced_forms(deltas), 30, 10)
    assert arith.prime_discriminant_tables.cache_info().misses == len(deltas)
    assert [found.eisenstein.l_zero for found in layers] == [series.l_zero(delta) for delta in deltas]


# the caches keyed by delta, held here by their own objects, as verify holds them
PER_DELTA_CACHES = (build_class_group, arith.factorize, arith.prime_discriminant_factorization,
                    arith.prime_discriminant_tables)


def test_no_layers_are_held_once_a_run_is_closed(monkeypatch):
    """Neither the layers of a batch nor any cache keyed by delta outlives a run,
    whether it is closed part way or read to the end."""
    held, job = [], verify._suite_job

    def keeping(args):
        held.append(weakref.ref(args[3].theta))
        return job(args)

    monkeypatch.setattr(verify, "_suite_job", keeping)
    reports = verify.iter_suite(delta_range(-3, -300), 20, 5, workers=1)
    assert next(reports).delta == -3
    assert held[0]() is not None
    assert any(cache.cache_info().currsize for cache in PER_DELTA_CACHES)
    reports.close()
    gc.collect()
    assert held[0]() is None
    assert [cache.cache_info().currsize for cache in PER_DELTA_CACHES] == [0] * len(PER_DELTA_CACHES)
    # the probe of the large_h workload: each of these held an entry after it
    build_class_group(-400391)
    assert run_suite([-400391], 20, 5, workers=1)[0].passed
    assert [cache.cache_info().currsize for cache in PER_DELTA_CACHES] == [0] * len(PER_DELTA_CACHES)


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
        layer = build_layers(delta, 0, bound).primes
        every = np.arange(group.h)
        for p, perm in layer.perms.items():
            cls = int(layer.perms[p][group.identity])
            assert perm.tolist() == compose_rows(group, every, np.full(group.h, cls)).tolist(), (delta, p)
            if p in layer.conjugates:
                inverse = np.full(group.h, group.inverses[cls])
                assert layer.conjugates[p].tolist() == compose_rows(group, every, inverse).tolist(), (delta, p)


BATCH = [-84, -455, -5460]


def batch_reports(layers, n_max, bound) -> list[str]:
    """The report lines of each delta's checks on its layers, through _suite_job."""
    return [untimed(report_json_line(verify._suite_job((found.group.delta, n_max, bound, found))))
            for found in layers]


def test_a_delta_s_checks_build_nothing(monkeypatch):
    """Once a batch is built, each delta's checks read its layers alone: with
    every builder of a layer raising, the character table X and the character
    pairs among them, the reports are those of a plain run."""
    n_max, bound = 60, 20
    expected = [untimed(report_json_line(r)) for r in run_suite(BATCH, n_max, bound, workers=1)]
    layers = verify._batch_layers(BATCH, *stacked_reduced_forms(BATCH), n_max, bound)
    builders = (series.representation_counts, verify.compose_stacked, verify.class_group_stack,
                verify.eisenstein_stack, series.l_zero, arith.prime_discriminant_tables,
                genus.build_genus_characters, genus.character_pairs)

    def refused(*args, **kwargs):
        raise AssertionError("a check built a layer")

    for modname, module in list(sys.modules.items()):
        if modname.startswith("genusmass."):
            for attr, value in list(vars(module).items()):
                if any(value is builder for builder in builders):
                    monkeypatch.setattr(module, attr, refused)
    with pytest.raises(AssertionError, match="built a layer"):
        build_layers(-84, n_max, bound)
    assert batch_reports(layers, n_max, bound) == expected


def test_a_fault_in_one_delta_s_layers_fails_that_delta_alone():
    """r(Q, 17) + 1 for one class of -455, in a copy of its layers, swept again
    with the rest of the batch: its gauss_average and the identities at the
    primes that read n = 17 (2 and 3, both split; 17 is prime to every p <= 13
    and above 60/4, so no identity at an inert p reads it) fail with their first
    mismatch at 17, and the other deltas' reports do not change."""
    n_max, bound, n = 60, 13, 17
    clean = verify._batch_layers(BATCH, *stacked_reduced_forms(BATCH), n_max, bound)
    expected = batch_reports(clean, n_max, bound)
    theta = clean[1].theta.copy()
    theta[-1, n] += 1
    layers = [found._replace(theta=theta) if k == 1 else found for k, found in enumerate(clean)]
    failed = sweep_failures([found.group for found in layers], [found.primes for found in layers],
                            np.concatenate([found.theta for found in layers]),
                            np.stack([found.theta.sum(axis=0) for found in layers]),
                            np.concatenate([found.sums for found in layers]), n_max, bound)
    layers = [found._replace(failed=failed[:, k]) for k, found in enumerate(layers)]
    lines = batch_reports(layers, n_max, bound)
    assert lines[0] == expected[0] and lines[2] == expected[2]
    checks = json.loads(lines[1])["checks"]
    failing = {c["name"]: c["first_mismatch"]["n"] for c in checks if c["status"] == "fail"}
    assert failing == {name: n for name in ("gauss_average", "eigenform[p=2]", "theta_split[p=2]",
                                            "eigenform[p=3]", "theta_split[p=3]")}
    assert clean[1].theta[-1, n] == theta[-1, n] - 1
