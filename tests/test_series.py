from collections import Counter
from fractions import Fraction
from functools import lru_cache
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from genusmass.arith import kronecker
from genusmass.class_group import build_class_group
from genusmass.genus import character_pairs
from genusmass.qseries import QSeries
import genusmass.arith as arith
import genusmass.series as series
from genusmass.series import (
    eisenstein_for_genus,
    eisenstein_matrix,
    eisenstein_series,
    genus_eisenstein,
    l_zero,
    series_csv,
    theta_series,
    twisted_sum,
)
from oracles import (
    automorph_count,
    class_average,
    class_forms,
    class_index,
    class_number,
    divisors,
    elem_norm,
    form_to_ideal,
    fundamental_deltas,
    genus_ids,
    ideal_points_up_to_norm,
    kronecker_values,
    l_zero_oracle,
    principal_genus,
    theta_total,
    unit_count,
)

deltas_strategy = st.sampled_from(fundamental_deltas(-250))


def rows_as_series(group, layer) -> list[QSeries]:
    """The rows of a genus-layer matrix (coefficients, unit) as series."""
    coeffs, unit = layer
    return [QSeries(group.delta, row, unit) for row in coeffs]


def genus_series(group, genus_id, n_max) -> QSeries:
    return QSeries(group.delta, *genus_eisenstein(group, n_max, genus_id))


def twisted_series(group, d, n_max) -> QSeries:
    return QSeries(group.delta, *twisted_sum(group, n_max, d))


def mass_series(group, genus_id, n_max) -> QSeries:
    return rows_as_series(group, eisenstein_for_genus(group, n_max))[genus_ids(group).index(genus_id)]


class TestTheta:
    def test_sum_of_two_squares(self):
        group = build_class_group(-4)
        theta = theta_series(group, 0, 5)
        assert [int(c) for c in theta.coeffs] == [1, 4, 4, 0, 4, 8]

    def test_single_coefficient(self, cg20):
        # (0,+-1) and (+-1,-+1) all hit 3: four representations, matching the
        # divisor-sum identity since r([1,0,5],3) = 0 and w(1 + (-20|3)) = 4
        h = class_index(cg20, (2, 2, 3))
        assert theta_series(cg20, h, 3)[3] == 4

    def test_total_is_the_integer_sum_of_the_class_series(self):
        for delta in (-4, -47, -84, -420):
            group = build_class_group(delta)
            total = theta_total(group, 30)
            assert isinstance(total, np.ndarray) and total.dtype == np.int64
            assert total[0] == class_number(group)
            classes = range(class_number(group))
            assert total.tolist() == sum(theta_series(group, h, 30).coeffs for h in classes).tolist()

    @given(deltas_strategy, st.data())
    @settings(max_examples=60)
    def test_constant_term_one(self, delta, data):
        group = build_class_group(delta)
        h = data.draw(st.integers(min_value=0, max_value=class_number(group) - 1))
        assert theta_series(group, h, 10)[0] == 1

    def test_matches_ideal_norm_counts(self):
        # form representation numbers equal ideal lattice norm counts
        for delta in (-20, -23, -47, -84):
            group = build_class_group(delta)
            for h in range(class_number(group)):
                ideal = form_to_ideal(class_forms(delta)[h])
                norms = Counter(
                    n // ideal.norm
                    for n in map(
                        lambda pt: elem_norm(delta, pt), ideal_points_up_to_norm(ideal, 50 * ideal.norm)
                    )
                )
                theta = theta_series(group, h, 50)
                for n in range(51):
                    assert theta[n] == norms.get(n, 0), (delta, h, n)


class TestGenusAverages:
    def test_singleton_genus(self, cg20):
        e = genus_series(cg20, principal_genus(cg20), 5)
        assert e[5] == 2  # r([1,0,5], 5)

    def test_constant_term_one(self):
        for delta in (-20, -47, -84, -120):
            group = build_class_group(delta)
            for g in genus_ids(group):
                assert genus_series(group, g, 8)[0] == 1

    def test_single_genus_average(self):
        group = build_class_group(-47)
        e = genus_series(group, 0, 20)
        assert rows_as_series(group, genus_eisenstein(group, 20)) == [e]
        total = theta_series(group, 0, 20)
        for h in range(1, 5):
            total = total + theta_series(group, h, 20)
        assert e == total.scale(Fraction(1, 5))


class TestTwistedSum:
    def test_trivial_character_constant(self, cg20):
        e = twisted_series(cg20, 1, 10)
        assert e[0] == Fraction(class_number(cg20), unit_count(cg20)) == 1
        assert e == class_average(cg20, 10)

    def test_first_coefficient(self, cg20):
        e = twisted_series(cg20, 5, 1)
        assert e[0] == 0
        assert e[1] == 1

    @given(deltas_strategy)
    @settings(max_examples=50, deadline=None)
    def test_nontrivial_characters_kill_constant(self, delta):
        group = build_class_group(delta)
        for (d, _), twisted in zip(character_pairs(delta), rows_as_series(group, twisted_sum(group, 4))):
            assert twisted[0] == (Fraction(class_number(group), unit_count(group)) if d == 1 else 0)


class TestEisenstein:
    def test_examples(self):
        e = eisenstein_series(1, -4, 5)
        assert e[5] == 2
        assert e[0] == Fraction(1, 4)
        e54 = eisenstein_series(5, -4, 1)
        assert e54[0] == 0
        assert e54[1] == 1

    def test_divisor_sum_definition(self):
        for (d, big_d) in ((1, -20), (5, -4), (12, -7), (21, -4)):
            e = eisenstein_series(d, big_d, 40)
            for n in range(1, 41):
                expected = sum(kronecker(d, n // t) * kronecker(big_d, t) for t in divisors(n))
                assert e[n] == expected

    def test_validation(self):
        with pytest.raises(ValueError):
            eisenstein_series(-4, 5, 10)  # wrong signs
        with pytest.raises(ValueError):
            eisenstein_series(2, -10, 10)  # d = 2 is not a discriminant
        with pytest.raises(ValueError):
            eisenstein_series(3, -4, 10)  # -12 not fundamental
        with pytest.raises(ValueError):
            eisenstein_series(8, -1, 10)  # -8 is fundamental, but D = -1 is not a discriminant


@lru_cache(maxsize=None)
def scalar_character(a: int, start: int = 0, stop: int = 1001) -> list[int]:
    return [kronecker(a, m) for m in range(start, stop)]


class TestKroneckerValues:
    """(a|m) from the tables of the prime discriminants of delta, against the
    scalar Kronecker symbol, for a = d, D and delta of every character pair."""

    def test_every_pair_in_range(self):
        for delta in fundamental_deltas(-1000):
            for d, big_d in character_pairs(delta):
                for a in (d, big_d, delta):
                    expected = scalar_character(a)
                    for n_max in (1, 2, 200, 1000):
                        values = kronecker_values(delta, a, 0, n_max + 1)
                        assert values.tolist() == expected[: n_max + 1], (delta, a, n_max)

    @pytest.mark.parametrize("delta", [-400391, -10000003])
    def test_large_discriminants(self, delta):
        for d, big_d in character_pairs(delta):
            for a in (d, big_d, delta):
                values = kronecker_values(delta, a, 0, 201)
                assert values.tolist() == scalar_character(a, 0, 201), (delta, a)

    @pytest.mark.parametrize(
        "delta,start,stop",
        [(-84, 5, 90), (-84, 83, 400), (-455, 12, 13), (-10000003, 769231 - 50, 769231 + 50),
         (-10000003, 10000003 - 7, 10000003 + 30)],
    )
    def test_windows_across_periods(self, delta, start, stop):
        assert kronecker_values(delta, delta, start, stop).tolist() == scalar_character(delta, start, stop)

    @pytest.mark.parametrize("delta,a", [(-84, 5), (-84, 2), (-8, 8), (-20, -20 * 9)])
    def test_rejects_non_factors(self, delta, a):
        with pytest.raises(ValueError):
            kronecker_values(delta, a, 0, 10)

    @pytest.mark.parametrize("block", [1, 7])
    def test_legendre_tables_in_blocks(self, monkeypatch, block):
        """The odd prime tables filled from blocks of 1 and of 7 squares equal the
        table filled from all squares at once; -10000003 = 13 * 769231."""
        arith.prime_discriminant_tables.cache_clear()
        monkeypatch.setattr(arith, "SQUARES_BLOCK", block)
        try:
            for delta in (-3, -84, -455, -10000003):
                odd = [(p, table) for p, table in arith.prime_discriminant_tables(delta) if p % 2]
                assert odd
                for p, table in odd:
                    m = abs(p)
                    expected = np.full(m, -1, dtype=np.int8)
                    expected[0] = 0
                    x = np.arange(1, (m + 1) // 2, dtype=np.int64)
                    expected[x * x % m] = 1
                    assert np.array_equal(table, expected), (delta, p)
        finally:
            arith.prime_discriminant_tables.cache_clear()


class TestLZero:
    @pytest.mark.parametrize("delta,expected", [(-4, Fraction(1, 2)), (-3, Fraction(1, 3)), (-20, 2)])
    def test_values(self, delta, expected):
        assert l_zero(delta) == expected

    @given(deltas_strategy)
    def test_matches_class_data(self, delta):
        group = build_class_group(delta)
        assert l_zero(delta) == Fraction(2 * class_number(group), automorph_count(delta))

    def test_refuses_discriminants_beyond_the_int64_tables(self):
        with pytest.raises(ValueError):
            l_zero(-4 * 10**9 - 3)

    def test_matches_weighted_full_period_sum(self):
        """The half-range sum equals -B_{1,chi}, the weighted sum over the whole
        period, at every fundamental delta in [-3000, -3] and at two large ones."""
        for delta in fundamental_deltas(-3000) + [-400391, -10000003]:
            assert l_zero(delta) == l_zero_oracle(delta), delta

    def test_a_long_table_of_a_composite_delta_is_not_copied(self):
        """At -4 * 2000029 the table of 2000029 is shorter than the half period
        but longer than a block: every block reads a slice of it, or a copy of
        the block alone where it wraps, so L(0) allocates a few blocks (and the
        int64 sum of one), not the 2 * 10^6 entries of a copy of the table."""
        delta = -4 * 2000029
        arith.prime_discriminant_tables(delta)
        tracemalloc.start()
        try:
            found = l_zero(delta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert found == l_zero_oracle(delta)
        assert peak < 16 * series.L_ZERO_BLOCK, peak

    @pytest.mark.parametrize("delta", [-84, -420, -455])
    @pytest.mark.parametrize(
        "block_offset",
        [-1, 0, 1, None] + [pytest.param(("half", k), id=f"half{k:+d}") for k in (-1, 0, 1)],
    )
    def test_blocks_match_scalar_sum(self, monkeypatch, delta, block_offset):
        """Block sizes just below, at and just above |delta| and (|delta| - 1)/2,
        the length of the half range where the last block now ends, and a block
        of 7 that cuts the sum into many blocks and a short last one."""
        if block_offset is None:
            block = 7
        elif isinstance(block_offset, tuple):
            block = (-delta - 1) // 2 + block_offset[1]
        else:
            block = -delta + block_offset
        monkeypatch.setattr(series, "L_ZERO_BLOCK", block)
        q = -delta
        assert l_zero(delta) == Fraction(-sum(kronecker(delta, a) * a for a in range(q)), q)


class TestMassFormulaSeries:
    def test_unique_class_case(self):
        group = build_class_group(-4)
        rhs = mass_series(group, 0, 10)
        assert rhs == eisenstein_series(1, -4, 10).scale(4)
        assert rhs[1] == 4

    def test_constant_term_one(self):
        for delta in (-4, -20, -84, -47):
            group = build_class_group(delta)
            for g in genus_ids(group):
                assert mass_series(group, g, 4)[0] == 1

    def test_nonprincipal_first_coefficient(self, cg20):
        other = [g for g in genus_ids(cg20) if g != principal_genus(cg20)][0]
        assert mass_series(cg20, other, 3)[1] == 0  # r([2,2,3], 1) = 0


class TestIdentities:
    @given(deltas_strategy)
    @settings(max_examples=40, deadline=None)
    def test_gauss_average(self, delta):
        group = build_class_group(delta)
        n_max = 60
        total = theta_series(group, 0, n_max)
        for h in range(1, class_number(group)):
            total = total + theta_series(group, h, n_max)
        w = automorph_count(delta)
        for n in range(1, n_max + 1):
            assert total[n] == w * sum(kronecker(delta, t) for t in divisors(n))

    @given(deltas_strategy)
    @settings(max_examples=30, deadline=None)
    def test_twisted_equals_eisenstein(self, delta):
        group = build_class_group(delta)
        twisted = rows_as_series(group, twisted_sum(group, 50))
        assert twisted == [eisenstein_series(d, big_d, 50) for d, big_d in character_pairs(delta)]
        assert twisted == rows_as_series(group, eisenstein_matrix(delta, 50))

    @given(deltas_strategy)
    @settings(max_examples=30, deadline=None)
    def test_genus_average_equals_character_combination(self, delta):
        group = build_class_group(delta)
        averages = rows_as_series(group, genus_eisenstein(group, 50))
        assert averages == rows_as_series(group, eisenstein_for_genus(group, 50))

    def test_constant_term_chain(self):
        # constant of (1/w) sum theta = h/w = L(0)/2 = constant of E_{1,delta}
        for delta in (-3, -4, -20, -47, -84):
            group = build_class_group(delta)
            avg = class_average(group, 2)
            assert avg[0] == Fraction(class_number(group), unit_count(group))
            assert avg[0] == l_zero(delta) / 2
            assert eisenstein_series(1, delta, 2)[0] == avg[0]


def test_series_csv_format():
    group = build_class_group(-20)
    text = series_csv(class_average(group, 2))
    assert text.splitlines() == ["n,numerator,denominator", "0,1,1", "1,1,1", "2,1,1"]
