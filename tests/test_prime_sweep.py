"""The prime sweep against the per-prime loop of check_* calls it replaced
(oracles.prime_checks): the same records, in order, with the same statuses,
details and first mismatches, on both coefficient paths and in several blocks;
the same failures when the theta rows or the prime layers of a batch are
corrupted, for the corrupted discriminant alone; and the same records from the
sweep of a batch of many discriminants as from the layers of each one built
alone."""

import tracemalloc

import pytest

import genusmass.hecke as hecke
import genusmass.series as series
from genusmass.arith import kronecker, primes_up_to
from genusmass.class_group import build_class_group
from genusmass.hecke import CheckRecord, sweep_records
from genusmass.verify import run_suite
from faults import FAULT_BATCH, batch_of, swapped_genera, swapped_images, swept
from oracles import (
    batch_record,
    build_layers,
    check_genus_permutation,
    check_split_theta,
    class_number,
    fundamental_deltas,
    genus_ids,
    prime_checks,
)

SWEEP_DELTAS = fundamental_deltas(-300)

# (n_max, bound): the acceptance scale, the range runs' scale, and primes past n_max
SCALES = [(200, 50), (30, 10), (10, 50)]


def prime_sweep(batch, bound, k=0) -> list[CheckRecord]:
    """The records of the k-th discriminant of the batch from a sweep of the
    batch's arrays (its int64 rows), with the first mismatches it kept."""
    batch = swept(batch, bound)
    return sweep_records(batch.primes.chi[k].tolist(), batch.theta.shape[1] - 1, bound,
                         batch.sweep_mismatches.get(k, {}))


def loop_records(layers, bound) -> list[CheckRecord]:
    return [r for p in primes_up_to(bound) for r in prime_checks(layers, p)]


def assert_same_records(delta, n_max, bound):
    batch = batch_of([delta], n_max, bound)
    assert prime_sweep(batch, bound) == loop_records(batch_record(batch, 0), bound), (delta, n_max, bound)


@pytest.fixture(params=["int64", "object"])
def coeff_path(request, monkeypatch):
    """Both coefficient paths: int64, and Python ints with the int64 bound at 0."""
    if request.param == "object":
        monkeypatch.setattr(series, "INT64_BOUND", 0)
    return request.param


@pytest.mark.parametrize("n_max,bound", SCALES)
def test_records_match_the_loop(coeff_path, n_max, bound):
    for delta in SWEEP_DELTAS:
        assert_same_records(delta, n_max, bound)
    expected = object if coeff_path == "object" else "int64"
    assert series.theta_matrix(SWEEP_DELTAS[-1], n_max).dtype == expected


@pytest.mark.parametrize("n_max,bound", SCALES)
def test_a_batch_sweep_matches_the_loop(n_max, bound):
    """The sweep of a range run: every discriminant of SWEEP_DELTAS in one batch,
    on the stacked int64 rows, against the loop on each one's layers alone."""
    batch = batch_of(SWEEP_DELTAS, n_max, bound)
    for k, delta in enumerate(SWEEP_DELTAS):
        assert prime_sweep(batch, bound, k) == loop_records(build_layers(delta, n_max, bound), bound), (
            delta, n_max, bound)


def test_records_match_the_loop_in_several_blocks(monkeypatch):
    """With SWEEP_BLOCK at 1 a block holds at most h (floor(N/2) + 1) entries, so
    every discriminant's primes go in several blocks."""
    blocks = []
    sweep_blocks = hecke._sweep_blocks

    def recording(*args):
        found = list(sweep_blocks(*args))
        blocks.append(found)
        return found

    monkeypatch.setattr(hecke, "SWEEP_BLOCK", 1)
    monkeypatch.setattr(hecke, "_sweep_blocks", recording)
    for n_max, bound in SCALES:
        for delta in SWEEP_DELTAS:
            assert_same_records(delta, n_max, bound)
    assert all(len(found) > 1 for found in blocks[: len(SWEEP_DELTAS)])
    assert sum(len(found) > 1 for found in blocks) >= 2 * len(SWEEP_DELTAS)


@pytest.mark.parametrize("block", [hecke.SWEEP_BLOCK, 1])
def test_blocks_cover_every_compared_prime_once_within_the_bound(monkeypatch, block):
    monkeypatch.setattr(hecke, "SWEEP_BLOCK", block)
    for h in (1, 4, 999, 7253):
        for n_max in range(0, 210):
            widths = tuple(n_max // p for p in primes_up_to(50))
            blocks = list(hecke._sweep_blocks(widths, h, n_max))
            compared = sum(1 for w in widths if w)
            assert [i for i0, i1 in blocks for i in range(i0, i1)] == list(range(compared)), (h, n_max)
            limit = max(block, h * (n_max // 2 + 1))
            assert all(h * sum(widths[i0:i1]) <= limit for i0, i1 in blocks), (h, n_max)


def test_a_prime_bound_below_2_leaves_the_other_records():
    report = run_suite([-84], n_max=60, primes_bound=1, workers=1)[0]
    assert [(c.name, c.status) for c in report.checks] == [
        ("gauss_average", "pass"),
        ("character_counts", "pass"),
        ("twisted_eisenstein", "pass"),
        ("genus_mass", "pass"),
        ("dirichlet_class_number", "pass"),
    ]


@pytest.fixture
def perturbed_theta(monkeypatch):
    """r(Q, n) + 1 for the class in row target["row"] at n = target["n"], read
    where the library reads representation_counts."""
    original = series.representation_counts
    target = {}

    def perturbed(forms, n_max):
        counts = original(forms, n_max)
        counts[target["row"], target["n"]] += 1
        return counts

    monkeypatch.setattr(series, "representation_counts", perturbed)
    return target


@pytest.mark.parametrize("block", [hecke.SWEEP_BLOCK, 1])
@pytest.mark.parametrize("delta", [-3, -4, -47, -84, -455])
@pytest.mark.parametrize("n", [1, 2, 4, 35, 199, 200])
def test_a_perturbed_theta_fails_the_same_records(perturbed_theta, monkeypatch, block, delta, n):
    monkeypatch.setattr(hecke, "SWEEP_BLOCK", block)
    perturbed_theta.update(row=build_class_group(delta).h - 1, n=n)
    batch = batch_of([delta], 200, 50)
    records = prime_sweep(batch, 50)
    assert records == loop_records(batch_record(batch, 0), 50)
    # 199, a prime above the bound and above 200 / 2, is read by no identity
    assert any(r.status == "fail" for r in records) == (n != 199)


def assert_others_pass(batch, bound, target):
    for k, delta in enumerate(FAULT_BATCH):
        if delta != target:
            assert all(r.status != "fail" for r in prime_sweep(batch, bound, k)), delta


def test_swapped_classes_of_a_permutation_fail_its_theta_identity():
    """Two images of classes under the class above 2 swapped at -47 (h = 5, 2
    split), in the batch's stacked images: theta_split[p=2] fails there with
    check_split_theta's first mismatch on the record sliced out of the batch,
    every other identity passes (one genus, so the genus permutation cannot
    tell), and so does every identity of the other discriminants."""
    delta, bound = -47, 50
    clean = batch_of(FAULT_BATCH, 200, bound)
    layers = batch_record(clean, FAULT_BATCH.index(delta))
    assert class_number(layers.group) == 5 and kronecker(delta, 2) == 1 and len(genus_ids(layers.group)) == 1
    expected = prime_sweep(clean, bound, FAULT_BATCH.index(delta))
    assert all(r.status != "fail" for r in expected)
    batch, k, (a, b) = swapped_images(bound)
    corrupted = batch_record(batch, k)
    local = layers.primes.perms[2].copy()
    local[[a, b]] = local[[b, a]]
    assert corrupted.primes.perms[2].tolist() == local.tolist()
    records = prime_sweep(batch, bound, k)
    assert records == loop_records(corrupted, bound)
    failed = [r for r in records if r.status == "fail"]
    assert [r.name for r in failed] == ["theta_split[p=2]"]
    assert failed[0] == check_split_theta(corrupted.group, 2, corrupted.theta, corrupted.primes)
    assert failed[0].first_mismatch is not None
    assert [r for r in records if r.status != "fail"] == [r for r in expected if r.name != "theta_split[p=2]"]
    assert_others_pass(batch, bound, delta)


def test_a_corrupted_genus_row_fails_the_genus_permutations():
    """The genera of the first two classes swapped at -84 (four genera of one
    class), in the batch's stacked genus rows: genus_permutation fails there
    at non-inert primes, with check_genus_permutation's records on the record
    sliced out of the batch, and nothing else fails, at -84 or elsewhere."""
    delta, bound = -84, 50
    batch, k = swapped_genera(bound)
    corrupted = batch_record(batch, k)
    assert corrupted.primes.genus_row.tolist() == [1, 0, 2, 3]
    records = prime_sweep(batch, bound, k)
    assert records == loop_records(corrupted, bound)
    failed = [r for r in records if r.status == "fail"]
    assert failed and all(r.name.startswith("genus_permutation[") for r in failed)
    for record in failed:
        p = int(record.name[len("genus_permutation[p="):-1])
        assert record == check_genus_permutation(corrupted.group, p, corrupted.sums, corrupted.primes)
    assert_others_pass(batch, bound, delta)


def test_peak_memory_is_the_loop_s_at_class_number_999():
    """-400391 (h = 999) at 200/50 sweeps in several blocks, whose arrays stay
    within those of the check at p = 2 alone."""
    delta, n_max, bound = -400391, 200, 50
    batch = batch_of([delta], n_max, bound)
    layers = batch_record(batch, 0)
    widths = hecke._column_plan(n_max, bound).widths
    assert len(list(hecke._sweep_blocks(widths, class_number(layers.group), n_max))) > 1
    peaks = []
    for run in (lambda: prime_sweep(batch, bound), lambda: loop_records(layers, bound)):
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    sweep, loop = peaks
    assert sweep <= 1.1 * loop, peaks
