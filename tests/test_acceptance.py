"""Acceptance suite: every criterion at full scale, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  Every check is exact (zero tolerance), the class
number formula included.
"""

import math
import time
from collections import Counter

import pytest

from genusmass.arith import distinct_prime_count, kronecker, primes_up_to
from genusmass.class_group import build_class_group
from genusmass.forms import automorph_count
from genusmass.genus import character_pairs
from genusmass.hecke import (
    check_eigenform,
    check_genus_permutation,
    check_inert_theta,
    check_ramified_theta,
    check_split_theta,
)
from genusmass.qseries import QSeries
from genusmass.series import eisenstein_for_genus, eisenstein_series, genus_eisenstein, theta_series, twisted_sum
from genusmass.verify import verify_dirichlet
from oracles import (
    build_layers,
    class_forms,
    class_number,
    classify_prime,
    compose,
    compose_forms_oracle,
    divisors,
    elem_norm,
    form_to_ideal,
    fundamental_deltas,
    genus_ids,
    genus_members,
    ideal_points_up_to_norm,
    square_classes,
)

PRECISION = 200
FULL_RANGE = fundamental_deltas(-500)
HECKE_DELTAS = (-20, -23, -47, -84, -120)


def announce(name: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {status} {name}: {detail}")


def class_sum(group, n_max):
    total = theta_series(group, 0, n_max)
    for h in range(1, class_number(group)):
        total = total + theta_series(group, h, n_max)
    return total


def test_gauss_average_full_range():
    start = time.perf_counter()
    failures = []
    for delta in FULL_RANGE:
        group = build_class_group(delta)
        total = class_sum(group, PRECISION)
        w = automorph_count(delta)
        for n in range(1, PRECISION + 1):
            if total[n] != w * sum(kronecker(delta, t) for t in divisors(n)):
                failures.append((delta, n))
                break
    elapsed = time.perf_counter() - start
    announce(
        "gauss_average",
        not failures,
        f"{len(FULL_RANGE)} discriminants, n=1..{PRECISION} exact, {elapsed:.1f}s"
        + (f"; failures {failures}" if failures else ""),
    )
    assert not failures
    assert elapsed < 30


def test_twisted_eisenstein_full_range():
    failures = []
    pair_count = 0
    for delta in FULL_RANGE:
        group = build_class_group(delta)
        for d, big_d in character_pairs(delta):
            pair_count += 1
            lhs = QSeries(delta, *twisted_sum(group, PRECISION, d))
            rhs = eisenstein_series(d, big_d, PRECISION)
            mismatch = lhs.first_mismatch(rhs, lo=0, hi=PRECISION)
            if mismatch is not None:
                failures.append((delta, d, mismatch))
    announce(
        "twisted_eisenstein",
        not failures,
        f"{pair_count} character pairs over {len(FULL_RANGE)} discriminants, n=0..{PRECISION} exact"
        + (f"; failures {failures[:3]}" if failures else ""),
    )
    assert not failures


def test_genus_mass_full_range():
    failures = []
    genus_count = 0
    for delta in FULL_RANGE:
        group = build_class_group(delta)
        mass, mass_unit = eisenstein_for_genus(group, PRECISION)
        for g, mass_row in zip(genus_ids(group), mass):
            genus_count += 1
            lhs = QSeries(delta, *genus_eisenstein(group, PRECISION, g))
            rhs = QSeries(delta, mass_row, mass_unit)
            if lhs[0] != 1 or rhs[0] != 1:
                failures.append((delta, g, "constant-term"))
                continue
            mismatch = lhs.first_mismatch(rhs, lo=0, hi=PRECISION)
            if mismatch is not None:
                failures.append((delta, g, mismatch))
    announce(
        "genus_mass",
        not failures,
        f"{genus_count} genera over {len(FULL_RANGE)} discriminants, n=0..{PRECISION} exact, "
        "constant terms 1"
        + (f"; failures {failures[:3]}" if failures else ""),
    )
    assert not failures


def test_hecke_eigenvalue_full_range():
    failures = []
    checked = 0
    eigenvalues = {"split": 2, "ramified": 1, "inert": 0}
    for delta in FULL_RANGE:
        group = build_class_group(delta)
        total = class_sum(group, PRECISION)
        layers = build_layers(delta, PRECISION, 50)
        for p in primes_up_to(50):
            checked += 1
            result = check_eigenform(group, p, layers.theta.sum(axis=0), layers.primes)
            if not result.passed:
                failures.append((delta, p, result.first_mismatch))
                continue
            # the eigenvalue really is 2 / 1 / 0 according to the prime's type
            ev = eigenvalues[classify_prime(delta, p)]
            for n in range(1, PRECISION // p + 1):
                lhs = total[p * n] + (kronecker(delta, p) * total[n // p] if n % p == 0 else 0)
                if lhs != ev * total[n]:
                    failures.append((delta, p, n))
                    break
    announce(
        "hecke_eigenvalue",
        not failures,
        f"{checked} (delta, p) pairs, p<=50, indices 1..floor({PRECISION}/p) exact"
        + (f"; failures {failures[:3]}" if failures else ""),
    )
    assert not failures


def test_per_class_hecke_identities():
    failures = []
    checked = 0
    for delta in HECKE_DELTAS:
        group = build_class_group(delta)
        layers = build_layers(delta, PRECISION, 30)
        for p in primes_up_to(30):
            kind = classify_prime(delta, p)
            check = {
                "split": check_split_theta,
                "ramified": check_ramified_theta,
                "inert": check_inert_theta,
            }[kind]
            result = check(group, p, layers.theta, layers.primes)
            checked += 1
            if not result.passed:
                failures.append((delta, p, kind, result.first_mismatch))
            if kind != "inert":
                checked += 1
                perm = check_genus_permutation(group, p, layers.sums, layers.primes)
                if not perm.passed:
                    failures.append((delta, p, "genus_permutation", perm.first_mismatch))
    announce(
        "per_class_hecke",
        not failures,
        f"{checked} per-class/per-genus checks over deltas {HECKE_DELTAS}, p<=30 exact"
        + (f"; failures {failures[:3]}" if failures else ""),
    )
    assert not failures


def test_structure_counts_full_range():
    failures = []
    for delta in FULL_RANGE:
        group = build_class_group(delta)
        expected = 2 ** (distinct_prime_count(delta) - 1)
        pairs = character_pairs(delta)
        sizes = {len(genus_members(group, g)) for g in genus_ids(group)}
        if len(pairs) != expected or len(genus_ids(group)) != expected:
            failures.append((delta, "count"))
        if sizes != {len(square_classes(group))}:
            failures.append((delta, "sizes"))
    announce(
        "structure_counts",
        not failures,
        f"|G*| = |G| = 2^(t-1) and equal-sized genera for {len(FULL_RANGE)} discriminants"
        + (f"; failures {failures[:3]}" if failures else ""),
    )
    assert not failures


def test_dirichlet_class_number():
    start = time.perf_counter()
    failures = []
    for delta in FULL_RANGE:
        record = verify_dirichlet(build_layers(delta, 0, 1))
        if not record.passed:
            failures.append((delta, record.detail))
    elapsed = time.perf_counter() - start
    announce(
        "dirichlet_class_number",
        not failures,
        f"h = (w/2) L(0) exactly for {len(FULL_RANGE)} discriminants, {elapsed:.1f}s"
        + (f"; failures {failures}" if failures else ""),
    )
    assert not failures
    assert elapsed < 5


def test_oracle_cross_checks():
    composition_failures = []
    theta_failures = []
    pair_count = 0
    for delta in (-20, -23, -47, -84):
        group = build_class_group(delta)
        forms = class_forms(delta)
        for i in range(class_number(group)):
            for j in range(class_number(group)):
                pair_count += 1
                if forms[compose(group, i, j)] != compose_forms_oracle(forms[i], forms[j]):
                    composition_failures.append((delta, i, j))
        for h in range(class_number(group)):
            ideal = form_to_ideal(forms[h])
            norms = Counter(
                elem_norm(delta, point) // ideal.norm
                for point in ideal_points_up_to_norm(ideal, 50 * ideal.norm)
            )
            theta = theta_series(group, h, 50)
            for n in range(51):
                if theta[n] != norms.get(n, 0):
                    theta_failures.append((delta, h, n))
                    break
    passed = not composition_failures and not theta_failures
    announce(
        "oracle_cross_checks",
        passed,
        f"ideal vs coefficient composition on {pair_count} pairs; "
        "theta form-counts vs ideal norm-counts, n<=50"
        + ("" if passed else f"; {composition_failures[:3]} {theta_failures[:3]}"),
    )
    assert not composition_failures
    assert not theta_failures
