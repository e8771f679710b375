"""A range run builds the layers of each chunk of discriminants as stacked arrays,
in batches capped by BATCH_ENTRIES, and then checks each discriminant on its
slices: the report lines do not depend on the chunk size, the batch cap or the
worker count, and a fault in one discriminant of a chunk fails that
discriminant alone, with the first mismatch it has when it runs alone."""

import gc
import json
import os
import subprocess
import sys
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import genusmass
import genusmass.arith as arith
import genusmass.class_group as class_group
import genusmass.genus as genus
import genusmass.hecke as hecke
import genusmass.series as series
import genusmass.verify as verify
from genusmass.class_group import ClassGroup, build_class_group, compose_rows
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
    batch = verify._batch_layers(deltas, *stacked_reduced_forms(deltas), 30, 10)
    assert arith.prime_discriminant_tables.cache_info().misses == len(deltas)
    assert ([verify.batch_record(batch, k).eisenstein.l_zero for k in range(len(deltas))]
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


def batch_of(deltas, n_max, bound):
    return verify._batch_layers(deltas, *stacked_reduced_forms(deltas), n_max, bound)


def batch_reports(batch, n_max, bound) -> list[str]:
    """The report lines of each delta of the batch, through _suite_job."""
    return [untimed(report_json_line(verify._suite_job((delta, n_max, bound, batch, k))))
            for k, delta in enumerate(batch.stack.deltas)]


def records(batch) -> list:
    """The record of each delta of the batch, sliced out of it."""
    return [verify.batch_record(batch, k) for k in range(len(batch.stack.deltas))]


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


CHECKS = (verify.verify_gauss, verify.verify_character_counts, verify.verify_twisted_eisenstein,
          verify.verify_genus_mass, verify.verify_dirichlet)


def test_a_delta_s_checks_build_nothing(monkeypatch):
    """A passing run calls no verify_* and builds no record per delta: with
    those raising, and the record slicer, every slicer of a layer and the
    construction of a ClassGroup, a prime layer or Eisenstein rows raising too,
    the reports of a run are those of a plain run.  Once a batch is built, each
    delta's report reads the batch alone: with every builder of a layer
    raising too, the character table X and the character pairs among them, the
    reports are still the same."""
    n_max, bound = 60, 20
    deltas = BATCH + fundamental_deltas(-1000, -900)
    expected = [untimed(report_json_line(r)) for r in run_suite(deltas, n_max, bound, workers=1)]
    batch = batch_of(BATCH, n_max, bound)
    with monkeypatch.context() as patched:
        refuse(patched, CHECKS + (genus.build_genus_characters, verify.batch_record, hecke.prime_layer,
                                  series.own_rows), "a passing run built a record")
        for kind, method in ((ClassGroup, "__init__"), (hecke._PrimeLayer, "__new__"),
                             (series.EisensteinRows, "__new__"), (hecke.Layers, "__new__"),
                             (class_group.Stack, "group"), (series.EisensteinStack, "rows_of")):
            patched.setattr(kind, method, raising("a passing run built a record"))
        with pytest.raises(AssertionError, match="built a record"):
            build_layers(-84, n_max, bound)
        assert [untimed(report_json_line(r)) for r in run_suite(deltas, n_max, bound, workers=1)] == expected
    builders = (series.representation_counts, verify.compose_stacked, verify.class_group_stack,
                verify.eisenstein_stack, series.l_zero, arith.prime_discriminant_tables,
                genus.build_genus_characters, genus.character_tables, genus.character_pairs, genus.stacked_pairs,
                class_group.prime_ideal_rows)
    refuse(monkeypatch, CHECKS + builders, "a check built a layer")
    with pytest.raises(AssertionError, match="built a layer"):
        build_layers(-84, n_max, bound)
    assert batch_reports(batch, n_max, bound) == expected[: len(BATCH)]


def compared_again(batch, n_max, bound):
    """The batch with its comparisons made again on its own arrays, as
    _batch_layers makes them: the theta totals from its theta rows, the prime
    sweep and the five per-delta identities."""
    totals = np.add.reduceat(batch.theta, batch.stack.starts, axis=0)
    failed = sweep_failures(batch.stack, batch.primes, batch.theta, totals, batch.sums, n_max, bound)
    identities, _ = verify.identity_failures(batch.stack, batch.characters, totals, batch.sums, batch.eisenstein)
    return verify.summarized(batch._replace(totals=totals, failed=failed, identities_failed=identities))


def test_a_fault_in_one_delta_s_layers_fails_that_delta_alone():
    """r(Q, 17) + 1 for one class of -455, in a copy of its batch's theta rows,
    compared again: its gauss_average and the identities at the primes that
    read n = 17 (2 and 3, both split; 17 is prime to every p <= 13 and above
    60/4, so no identity at an inert p reads it) fail with their first
    mismatch at 17, and the other deltas' reports do not change."""
    n_max, bound, n = 60, 13, 17
    clean = batch_of(BATCH, n_max, bound)
    expected = batch_reports(clean, n_max, bound)
    row = int(clean.stack.starts[1] + clean.stack.h[1]) - 1
    batch = compared_again(clean._replace(theta=bumped(clean.theta, row, n)), n_max, bound)
    lines = batch_reports(batch, n_max, bound)
    assert lines[0] == expected[0] and lines[2] == expected[2]
    checks = json.loads(lines[1])["checks"]
    failing = {c["name"]: c["first_mismatch"]["n"] for c in checks if c["status"] == "fail"}
    assert failing == {name: n for name in ("gauss_average", "eigenform[p=2]", "theta_split[p=2]",
                                            "eigenform[p=3]", "theta_split[p=3]")}
    assert clean.theta[row, n] == batch.theta[row, n] - 1


def bumped(array, row, column, by=1):
    """A copy of array with one entry plus by."""
    array = array.copy()
    array[row, column] += by
    return array


def with_table(batch, k, change):
    """The batch with the character table of its k-th delta replaced by
    change(table), in a copy of its block."""
    tables = batch.characters
    j, position = int(tables.block[k]), int(tables.position[k])
    members, block = tables.blocks[j]
    block = block.copy()
    block[position] = change(block[position].copy())
    blocks = tables.blocks[:j] + [(members, block)] + tables.blocks[j + 1 :]
    return batch._replace(characters=tables._replace(blocks=blocks))


def with_rows(batch, k, row, column):
    """The batch with one Eisenstein coefficient of its k-th delta plus 1: its
    pair row (row -1 the last) at column."""
    eisenstein = batch.eisenstein
    start = int(eisenstein.counts[:k].sum())
    row = start + (row % int(eisenstein.counts[k]))
    return batch._replace(eisenstein=eisenstein._replace(rows=bumped(eisenstein.rows, row, column)))


def with_l_zero(batch, k):
    """The batch with L(0) of its k-th delta off by 2/w, so that (w/2) L(0) is
    h + 1."""
    l_zero = batch.eisenstein.l_zero.copy()
    moved = Fraction(*l_zero[k].tolist()) + Fraction(2, int(batch.stack.w[k]))
    l_zero[k] = moved.numerator, moved.denominator
    return batch._replace(eisenstein=batch.eisenstein._replace(l_zero=l_zero))


def last_class(batch, k) -> int:
    return int(batch.stack.starts[k] + batch.stack.h[k]) - 1


# one corrupted entry of the batch's arrays at its k-th delta for each per-delta
# identity, which fails it: a theta count at n = 17; an entry of X negated; an
# Eisenstein coefficient at n = 7; the constant term of E_{1, delta}; and L(0)
# off by 2/w, so that (w/2) L(0) is h + 1
FAULTS = {
    "gauss_average": lambda batch, k: batch._replace(theta=bumped(batch.theta, last_class(batch, k), 17)),
    "character_counts": lambda batch, k: with_table(batch, k, lambda x: bumped(x, -1, -1, -2 * x[-1, -1])),
    "twisted_eisenstein": lambda batch, k: with_rows(batch, k, -1, 7),
    "genus_mass": lambda batch, k: with_rows(batch, k, 0, 0),
    "dirichlet_class_number": with_l_zero,
}
WIDE = fundamental_deltas(-2000, -1800)


@pytest.mark.parametrize("identity", verify.IDENTITIES)
@pytest.mark.parametrize("deltas,n_max,bound,target,int64_bound", [
    (BATCH, 60, 13, 1, None),
    (WIDE, 30, 10, len(WIDE) // 2, None),
    # -84 on int64, -455 and -5460 on Python ints
    (BATCH, 60, 13, 0, 10**6),
    (BATCH, 60, 13, 2, 10**6),
], ids=["batch", "wide", "mixed-int64", "mixed-object"])
def test_a_fault_in_one_identity_fails_that_delta_alone(monkeypatch, identity, deltas, n_max, bound, target,
                                                        int64_bound):
    """One corrupted entry of one delta's layers in its batch's arrays, compared
    again: every delta's flags are the failures of the verify_* functions on
    the record sliced out of the batch, the corrupted delta fails the identity
    and its failing records are verify_*'s on its record, and the other
    deltas' reports do not change."""
    if int64_bound is not None:
        monkeypatch.setattr(series, "INT64_BOUND", int64_bound)
    clean = batch_of(deltas, n_max, bound)
    if int64_bound is not None:
        assert [found.theta.dtype for found in records(clean)] == [np.int64, object, object]
        assert clean.eisenstein.rows.dtype == object
    expected = batch_reports(clean, n_max, bound)
    batch = compared_again(FAULTS[identity](clean, target), n_max, bound)
    for k, found in enumerate(records(batch)):
        assert found.identities_failed == [not check(found).passed for check in CHECKS], found.group.delta
        assert any(found.identities_failed) == (k == target), found.group.delta
        assert batch.summary[k][-1] == (k == target), found.group.delta
    assert batch.identities_failed[target, verify.IDENTITIES.index(identity)]
    lines = batch_reports(batch, n_max, bound)
    assert [line for k, line in enumerate(lines) if k != target] == [
        line for k, line in enumerate(expected) if k != target]
    target_record = verify.batch_record(batch, target)
    for record, check in zip(json.loads(lines[target])["checks"][: len(CHECKS)], CHECKS):
        expected_record = check(target_record).to_dict()
        expected_record.pop("elapsed_ms")
        assert record == expected_record


def test_a_flag_that_its_check_does_not_confirm_is_an_error():
    """With asserts stripped, a flag in the batch's arrays whose verify_* passes
    on the record sliced out of the batch raises RuntimeError, for each of the
    five identities."""
    code = "\n".join([
        "from genusmass import verify",
        "from genusmass.forms import stacked_reduced_forms",
        "batch = verify._batch_layers([-84], *stacked_reduced_forms([-84]), 30, 10)",
        "for i in range(5):",
        "    flags = batch.identities_failed.copy()",
        "    flags[0, i] = True",
        "    try:",
        "        verify._suite_job((-84, 30, 10, verify.summarized(batch._replace(identities_failed=flags)), 0))",
        "    except RuntimeError as error:",
        "        print(error)",
    ])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(genusmass.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True,
                            timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [f"the batch fails {name} at -84, {check.__name__} passes it"
                                          for name, check in zip(verify.IDENTITIES, CHECKS)]
