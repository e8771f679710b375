"""A range run builds the layers of each chunk of discriminants as stacked arrays,
in batches capped by BATCH_ENTRIES, and then checks each discriminant on its
slices: the report lines do not depend on the chunk size, the batch cap or the
worker count, and a fault in one discriminant of a chunk fails that
discriminant alone, with the first mismatch it has when it runs alone.  Every
record of a report, clean or corrupted, is the one that the per-discriminant
checks of tests/oracles.py give on the discriminant's own arrays."""

import gc
import json
import sys
import weakref

import numpy as np
import pytest

import genusmass.arith as arith
import genusmass.class_group as class_group
import genusmass.genus as genus
import genusmass.hecke as hecke
import genusmass.series as series
import genusmass.verify as verify
from genusmass.class_group import build_class_group, compose_stacked
from genusmass.cli import main
from genusmass.forms import stacked_reduced_forms
from genusmass.verify import delta_range, report_json_line, run_suite
from faults import (
    BATCH,
    BATCHES,
    FAULTS,
    batch_of,
    batch_reports,
    bumped_455,
    compared_again,
    swapped_genera,
    swapped_images,
    untimed,
)
from oracles import (
    IDENTITY_CHECKS,
    QuadForm,
    batch_record,
    build_layers,
    fundamental_deltas,
    oracle_records,
    prime_form,
    reduce_form,
)


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
    assert [2, 1, 57] in build_class_group(-455).classes.tolist()
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
    batch = verify._batch_layers(deltas, *stacked_reduced_forms(deltas), 30, 10)
    assert arith.prime_discriminant_tables.cache_info().misses == len(deltas)
    assert ([batch_record(batch, k).eisenstein.l_zero for k in range(len(deltas))]
            == [series.l_zero(delta) for delta in deltas])


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


def test_prime_layers_are_the_products_with_each_prime_class():
    """In one batch of every fundamental delta down to -3000, images[0] and
    images[1] of every group at each p <= 50 are the products of every class
    with the class P of the prime form above p (oracles.prime_form) and with
    P^-1 at a split p, from compose_stacked; an inert p, and P^-1 at a
    ramified one, leave every class.  Among them are groups whose primes give
    one class and its inverse: at -23, p = 2 gives P and p = 3 and 13 give
    P^-1; at -31, p = 2 and 5 share P and p = 7 gives P^-1."""
    bound = 50
    batch = batch_of(fundamental_deltas(-3000), 0, bound)
    stack, primes = batch.stack, batch.primes
    every = np.arange(len(stack.classes))

    def row(k, form):
        """The stack row of the class of form in group k."""
        lo = int(stack.starts[k])
        classes = stack.classes[lo : lo + int(stack.h[k])].tolist()
        return lo + classes.index(list(reduce_form(QuadForm(*form)).triple()))

    split = {}
    for i, p in enumerate(primes.primes):
        # the class to compose every class of group k with, per side; the
        # principal one leaves every class
        right = stack.starts.copy(), stack.starts.copy()
        for k, delta in enumerate(stack.deltas):
            chi = arith.kronecker(delta, p)
            if chi != -1:
                a, b, c = prime_form(delta, p)
                right[0][k] = row(k, (a, b, c))
                if chi == 1:
                    right[1][k] = row(k, (a, -b, c))
                    split[delta, p] = (right[0][k], right[1][k])
        for side in (0, 1):
            bad = np.flatnonzero(primes.images[side, i] != compose_stacked(stack, every, right[side][stack.owner]))
            assert not len(bad), (stack.deltas[stack.owner[bad[0]]], p, side)
    for delta, same, inverted in ((-23, (2,), (3, 13)), (-31, (2, 5), (7,))):
        p_class, inverse_class = split[delta, 2]
        assert p_class != inverse_class
        assert all(split[delta, p] == (p_class, inverse_class) for p in same), delta
        assert all(split[delta, p] == (inverse_class, p_class) for p in inverted), delta


def records(batch) -> list:
    """The record of each delta of the batch, sliced out of it."""
    return [batch_record(batch, k) for k in range(len(batch.stack.deltas))]


def raising(message):
    """A function that raises AssertionError(message)."""

    def refused(*args, **kwargs):
        raise AssertionError(message)

    return refused


def refuse(monkeypatch, functions, message):
    """Bind every genusmass module's name for each of functions to one that
    raises AssertionError(message)."""
    for modname, module in list(sys.modules.items()):
        if modname.startswith("genusmass."):
            for attr, value in list(vars(module).items()):
                if any(value is function for function in functions):
                    monkeypatch.setattr(module, attr, raising(message))


# the functions that make the failing records of a report
CHECKS = (verify.verify_gauss, verify.verify_character_counts, verify.verify_twisted_eisenstein,
          verify.verify_genus_mass, verify.verify_dirichlet, hecke.check_eigenform, hecke.check_split_theta,
          hecke.check_ramified_theta, hecke.check_inert_theta, hecke.check_genus_permutation)


def test_a_delta_s_checks_build_nothing(monkeypatch):
    """A passing run makes no failing record and no per-delta character table:
    with every function that makes a failing record raising, and the records
    at the primes from failures (sweep_records) and build_genus_characters
    too, the reports of a run are those of a plain run.  Once a batch is
    built, each delta's report reads the batch alone: with every builder of a
    layer raising too, the character table X and the character pairs among
    them, the reports are still the same."""
    n_max, bound = 60, 20
    deltas = BATCH + fundamental_deltas(-1000, -900)
    expected = [untimed(report_json_line(r)) for r in run_suite(deltas, n_max, bound, workers=1)]
    batch = batch_of(BATCH, n_max, bound)
    with monkeypatch.context() as patched:
        refuse(patched, CHECKS + (hecke.sweep_records, genus.build_genus_characters),
               "a passing run made a failing record or a character table")
        assert [untimed(report_json_line(r)) for r in run_suite(deltas, n_max, bound, workers=1)] == expected
    builders = (series.representation_counts, verify.compose_stacked, verify.class_group_stack,
                verify.eisenstein_stack, series.l_zero, arith.prime_discriminant_tables,
                genus.build_genus_characters, genus.character_tables, genus.character_pairs, arith.is_fundamental,
                class_group.prime_ideal_rows)
    refuse(monkeypatch, CHECKS + builders, "a check built a layer")
    with pytest.raises(AssertionError, match="built a layer"):
        build_layers(-84, n_max, bound)
    assert batch_reports(batch, n_max, bound) == expected[: len(BATCH)]


def test_a_fault_in_one_delta_s_layers_fails_that_delta_alone():
    """r(Q, 17) + 1 for one class of -455, in a copy of its batch's theta rows,
    compared again: its gauss_average and the identities at the primes that
    read n = 17 (2 and 3, both split; 17 is prime to every p <= 13 and above
    60/4, so no identity at an inert p reads it) fail with their first
    mismatch at 17, and the other deltas' reports do not change."""
    n_max, bound, n = 60, 13, 17
    clean = batch_of(BATCH, n_max, bound)
    expected = batch_reports(clean, n_max, bound)
    batch, row = bumped_455(n_max, bound, n)
    lines = batch_reports(batch, n_max, bound)
    assert lines[0] == expected[0] and lines[2] == expected[2]
    checks = json.loads(lines[1])["checks"]
    failing = {c["name"]: c["first_mismatch"]["n"] for c in checks if c["status"] == "fail"}
    assert failing == {name: n for name in ("gauss_average", "eigenform[p=2]", "theta_split[p=2]",
                                            "eigenform[p=3]", "theta_split[p=3]")}
    assert clean.theta[row, n] == batch.theta[row, n] - 1


# a batch with a split p = 13 (-23: 9^2 = -23 + 2 * 52) and an inert one (-47)
ROOTS_BATCH = [-23, -47, -84, -455]


def with_root(monkeypatch, p, residue, root):
    """class_group._prime_tables with root, in place of its entry, as the
    square root of residue mod 4p in the table of p."""
    prime_tables = class_group._prime_tables

    def changed(primes):
        tables = prime_tables(primes)
        roots = tables.roots.copy()
        roots[tables.roots_at[primes.index(p)] + residue] = root
        return tables._replace(roots=roots)

    monkeypatch.setattr(class_group, "_prime_tables", changed)


def test_a_square_root_removed_from_the_table_fails_its_delta_alone(monkeypatch):
    """Without the root 9 of -23 mod 52, p = 13 reads as inert for -23: its
    eigenform and its theta record at 13 fail, and the other deltas' reports
    do not change."""
    n_max, bound = 60, 13
    expected = batch_reports(batch_of(ROOTS_BATCH, n_max, bound), n_max, bound)
    with_root(monkeypatch, 13, -23 % 52, -1)
    lines = batch_reports(batch_of(ROOTS_BATCH, n_max, bound), n_max, bound)
    assert lines[1:] == expected[1:]
    checks = json.loads(lines[0])["checks"]
    assert {c["name"] for c in checks if c["status"] == "fail"} == {"eigenform[p=13]", "theta_inert[p=13]"}


def test_a_square_root_invented_in_the_table_raises(monkeypatch):
    """A root 1 of -47 mod 52, where p = 13 is inert, is refused before any
    form is reduced: 1 is no square root of -47 mod 52."""
    with_root(monkeypatch, 13, -47 % 52, 1)
    message = r"^delta=-47: the square-root table's b=1 has b\^2 != delta \(mod 52\)$"
    with pytest.raises(RuntimeError, match=message):
        batch_of(ROOTS_BATCH, 60, 13)


def assert_oracle_records(batch, n_max, bound, k):
    """The report of the k-th delta of the batch holds the records of the
    per-discriminant checks (oracles.oracle_records) on that delta's own
    arrays, sliced out of the batch: the same statuses, details and first
    mismatches, passing or failing."""
    report = verify._suite_job((batch.stack.deltas[k], n_max, bound, batch, k))
    assert list(report.checks) == oracle_records(batch_record(batch, k), bound), batch.stack.deltas[k]


@pytest.mark.parametrize("name", BATCHES)
def test_every_record_of_a_clean_batch_is_the_oracle_s(monkeypatch, name):
    """No delta of a clean batch passes or fails where the per-discriminant checks
    on its own arrays would not: the missed-fault direction, which a passing
    batch does not check again."""
    deltas, n_max, bound, _, int64_bound = BATCHES[name]
    if int64_bound is not None:
        monkeypatch.setattr(series, "INT64_BOUND", int64_bound)
    batch = batch_of(deltas, n_max, bound)
    for k in range(len(deltas)):
        assert_oracle_records(batch, n_max, bound, k)


def test_every_record_of_the_acceptance_range_is_the_oracle_s():
    """Every fundamental delta in [-500, -3] at 30/10, in the batches of a range
    run."""
    deltas = fundamental_deltas(-500)
    batch = batch_of(deltas, 30, 10)
    for k in range(len(deltas)):
        assert_oracle_records(batch, 30, 10, k)


@pytest.mark.parametrize("identity", verify.IDENTITIES)
@pytest.mark.parametrize("name", BATCHES)
def test_a_fault_in_one_identity_fails_that_delta_alone(monkeypatch, identity, name):
    """One corrupted entry of one delta's layers in its batch's arrays, compared
    again: every delta's flags are the failures of the per-discriminant checks
    on the record sliced out of the batch, the corrupted delta fails the
    identity, every record of its report is the checks' on its record, and
    the other deltas' reports do not change."""
    deltas, n_max, bound, target, int64_bound = BATCHES[name]
    if int64_bound is not None:
        monkeypatch.setattr(series, "INT64_BOUND", int64_bound)
    clean = batch_of(deltas, n_max, bound)
    if int64_bound is not None:
        assert [found.theta.dtype for found in records(clean)] == [np.int64, object, object]
        assert clean.eisenstein.rows.dtype == object
    expected = batch_reports(clean, n_max, bound)
    batch = compared_again(FAULTS[identity](clean, target), n_max, bound)
    for k, found in enumerate(records(batch)):
        flags = batch.identities_failed[k].tolist()
        assert flags == [not check(found).passed for check in IDENTITY_CHECKS], found.group.delta
        assert any(flags) == (k == target), found.group.delta
        assert batch.summary[k][-1] == (k == target), found.group.delta
    assert batch.identities_failed[target, verify.IDENTITIES.index(identity)]
    lines = batch_reports(batch, n_max, bound)
    assert [line for k, line in enumerate(lines) if k != target] == [
        line for k, line in enumerate(expected) if k != target]
    assert_oracle_records(batch, n_max, bound, target)


def test_every_record_of_a_fault_at_the_primes_is_the_oracle_s():
    """The theta count raised at -455 and the prime sweep's two faults
    (tests/faults.py): every record of the corrupted delta's report is the
    per-discriminant checks' on its own arrays."""
    batch, _ = bumped_455()
    assert_oracle_records(batch, 60, 13, 1)
    for batch, k in (swapped_images()[:2], swapped_genera()):
        assert_oracle_records(batch, 200, 50, k)
