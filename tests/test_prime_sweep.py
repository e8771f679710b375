"""The prime sweep against the per-prime loop of check_* calls it replaced
(oracles.prime_checks): the same records, in order, with the same statuses,
details and first mismatches, on both coefficient paths and in several blocks;
the same failures when the theta matrix or the prime layer is corrupted; and
the same records from the sweep of a batch of many discriminants."""

import tracemalloc

import pytest

import genusmass.hecke as hecke
import genusmass.series as series
from genusmass.arith import kronecker, primes_up_to
from genusmass.class_group import build_class_group
from genusmass.forms import stacked_reduced_forms
from genusmass.hecke import CheckRecord, _prime_layer, sweep_failures, sweep_records
from genusmass.verify import _batch_layers, run_suite
from oracles import fundamental_deltas, prime_checks

SWEEP_DELTAS = fundamental_deltas(-300)

# (n_max, bound): the acceptance scale, the range runs' scale, and primes past n_max
SCALES = [(200, 50), (30, 10), (10, 50)]


def prime_sweep(group, n_max, bound) -> list[CheckRecord]:
    """The sweep of one discriminant on the arrays its check_* functions read
    (hecke._prime_layer, series.theta_matrix and the genus sums, in the
    coefficient dtype of the group), so that a corrupted layer or theta matrix
    reaches the sweep and the checks alike."""
    if bound < 2:
        return []
    layer = hecke._prime_layer(group.delta, bound)
    sums, _ = series.genus_eisenstein(group, n_max)
    total = series.theta_total(group, n_max)
    failed = sweep_failures([group], [layer], series.theta_matrix(group.delta, n_max), total[None, :], sums,
                            n_max, bound)
    return sweep_records(group, n_max, bound, layer.chi, failed[:, 0])


def loop_records(group, n_max, bound) -> list[CheckRecord]:
    return [r for p in primes_up_to(bound) for r in prime_checks(group, p, n_max, bound)]


def assert_same_records(delta, n_max, bound):
    group = build_class_group(delta)
    assert prime_sweep(group, n_max, bound) == loop_records(group, n_max, bound), (delta, n_max, bound)


def clear_caches():
    series.theta_matrix.cache_clear()
    series._genus_sums.cache_clear()


@pytest.fixture(params=["int64", "object"])
def coeff_path(request, monkeypatch):
    """Both coefficient paths: int64, and Python ints with the int64 bound at 0."""
    clear_caches()
    if request.param == "object":
        monkeypatch.setattr(series, "INT64_BOUND", 0)
    yield request.param
    clear_caches()


@pytest.mark.parametrize("n_max,bound", SCALES)
def test_records_match_the_loop(coeff_path, n_max, bound):
    for delta in SWEEP_DELTAS:
        assert_same_records(delta, n_max, bound)
    expected = object if coeff_path == "object" else "int64"
    assert series.theta_matrix(SWEEP_DELTAS[-1], n_max).dtype == expected


@pytest.mark.parametrize("n_max,bound", SCALES)
def test_a_batch_sweep_matches_the_loop(n_max, bound):
    """The sweep of a range run: every discriminant of SWEEP_DELTAS in one batch,
    on the stacked int64 rows."""
    layers = _batch_layers(SWEEP_DELTAS, *stacked_reduced_forms(SWEEP_DELTAS), n_max, bound)
    for delta, found in zip(SWEEP_DELTAS, layers):
        group = build_class_group(delta)
        records = sweep_records(group, n_max, bound, found.primes.chi, found.failed)
        assert records == loop_records(group, n_max, bound), (delta, n_max, bound)


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
    where the library reads representation_counts; theta caches cleared on the
    way in and out."""
    original = series.representation_counts
    target = {}

    def perturbed(forms, n_max):
        counts = original(forms, n_max)
        counts[target["row"], target["n"]] += 1
        return counts

    clear_caches()
    monkeypatch.setattr(series, "representation_counts", perturbed)
    yield target
    clear_caches()


@pytest.mark.parametrize("block", [hecke.SWEEP_BLOCK, 1])
@pytest.mark.parametrize("delta", [-3, -4, -47, -84, -455])
@pytest.mark.parametrize("n", [1, 2, 4, 35, 199, 200])
def test_a_perturbed_theta_fails_the_same_records(perturbed_theta, monkeypatch, block, delta, n):
    monkeypatch.setattr(hecke, "SWEEP_BLOCK", block)
    group = build_class_group(delta)
    perturbed_theta.update(row=group.h - 1, n=n)
    records = prime_sweep(group, 200, 50)
    assert records == loop_records(group, 200, 50)
    # 199, a prime above the bound and above 200 / 2, is read by no identity
    assert any(r.status == "fail" for r in records) == (n != 199)


def corrupt_layer(monkeypatch, delta, bound, **fields):
    """hecke._prime_layer(delta, bound), for the sweep and the check_* functions
    alike, with the given fields replaced."""
    layer = _prime_layer(delta, bound)._replace(**fields)
    original = hecke._prime_layer

    def corrupted(d, b):
        return layer if (d, b) == (delta, bound) else original(d, b)

    monkeypatch.setattr(hecke, "_prime_layer", corrupted)
    return layer


def test_swapped_classes_of_a_permutation_fail_its_theta_identity(monkeypatch):
    """Two classes of perms[2] swapped at -47 (h = 5, 2 split): theta_split[p=2]
    fails with check_split_theta's first mismatch, and every other identity
    passes (one genus, so the genus permutation cannot tell)."""
    delta, bound = -47, 50
    group = build_class_group(delta)
    assert group.h == 5 and kronecker(delta, 2) == 1 and len(group.genus_ids) == 1
    expected = prime_sweep(group, 200, bound)
    assert all(r.status != "fail" for r in expected)
    perms = dict(_prime_layer(delta, bound).perms)
    theta = series.theta_matrix(delta, 200)
    perm = perms[2].copy()
    a, b = next((a, b) for a in range(5) for b in range(a) if (theta[perm[a]] != theta[perm[b]]).any())
    perm[[a, b]] = perm[[b, a]]
    perms[2] = perm
    corrupt_layer(monkeypatch, delta, bound, perms=perms)
    records = prime_sweep(group, 200, bound)
    assert records == loop_records(group, 200, bound)
    failed = [r for r in records if r.status == "fail"]
    assert [r.name for r in failed] == ["theta_split[p=2]"]
    assert failed[0] == hecke.check_split_theta(group, 2, 200, bound)
    assert failed[0].first_mismatch is not None
    assert [r for r in records if r.status != "fail"] == [r for r in expected if r.name != "theta_split[p=2]"]


def test_a_corrupted_genus_row_fails_the_genus_permutations(monkeypatch):
    """Two genera swapped in the genus row at -84 (four genera of one class):
    genus_permutation fails at non-inert primes, with check_genus_permutation's
    records, and nothing else fails."""
    delta, bound = -84, 50
    group = build_class_group(delta)
    genus_row = _prime_layer(delta, bound).genus_row.copy()
    genus_row[[0, 1]] = genus_row[[1, 0]]
    corrupt_layer(monkeypatch, delta, bound, genus_row=genus_row)
    records = prime_sweep(group, 200, bound)
    assert records == loop_records(group, 200, bound)
    failed = [r for r in records if r.status == "fail"]
    assert failed and all(r.name.startswith("genus_permutation[") for r in failed)
    for record in failed:
        p = int(record.name[len("genus_permutation[p="):-1])
        assert record == hecke.check_genus_permutation(group, p, 200, bound)


def test_a_failure_its_check_does_not_confirm_is_an_error(monkeypatch):
    delta, bound = -47, 50
    group = build_class_group(delta)
    perms = dict(_prime_layer(delta, bound).perms)
    perms[2] = perms[2][::-1].copy()
    corrupt_layer(monkeypatch, delta, bound, perms=perms)
    monkeypatch.setattr(hecke, "check_split_theta",
                        lambda group, p, n_max, bound: CheckRecord(f"theta_split[p={p}]", "pass", "forged"))
    with pytest.raises(RuntimeError, match=r"theta_split\[p=2\]"):
        prime_sweep(group, 200, bound)


def test_peak_memory_is_the_loop_s_at_class_number_999():
    """-400391 (h = 999) at 200/50 sweeps in several blocks, whose arrays stay
    within those of the check at p = 2 alone."""
    delta, n_max, bound = -400391, 200, 50
    run_suite([delta], n_max, bound, workers=1)
    group = build_class_group(delta)
    assert len(list(hecke._sweep_blocks(hecke._column_plan(n_max, bound).widths, group.h, n_max))) > 1
    peaks = []
    for run in (lambda: prime_sweep(group, n_max, bound), lambda: loop_records(group, n_max, bound)):
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    sweep, loop = peaks
    assert sweep <= 1.1 * loop, peaks
