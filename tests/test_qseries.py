import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from genusmass.arith import kronecker
from genusmass.class_group import build_class_group
import numpy as np

from genusmass.qseries import (
    QSeries,
    apply_T,
    apply_U,
    apply_V,
    dirichlet_convolution,
    t_rows,
    u_rows,
)
from genusmass.series import theta_matrix
from genusmass.series import eisenstein_series, theta_series
from oracles import (
    agrees_with,
    apply_T_oracle,
    apply_U_oracle,
    apply_V_oracle,
    dirichlet_convolution_sieve,
    fraction_coeffs,
    is_zero,
    qseries,
    series_from_json,
)


def series(disc, values):
    return qseries(disc, values)


rationals = st.fractions(
    max_denominator=12,
    min_value=Fraction(-50),
    max_value=Fraction(50),
)


def series_strategy(disc=-4, max_len=12):
    return st.lists(rationals, min_size=1, max_size=max_len).map(lambda v: qseries(disc, v))


class TestArithmetic:
    def test_add_scale_neutral(self):
        f = series(-4, [1, 2, 3])
        zero = series(-4, [0, 0, 0])
        assert f + zero == f
        assert f.scale(1) == f
        assert is_zero(f + f.scale(-1))

    def test_precision_truncates_to_min(self):
        f = series(-4, [1, 2, 3, 4, 5])
        g = series(-4, [1, 1, 1])
        assert (f + g).precision == 2
        assert fraction_coeffs(f - g) == (Fraction(0), Fraction(1), Fraction(2))

    def test_mixed_disc_rejected(self):
        with pytest.raises(ValueError):
            series(-4, [1]) + series(-3, [1])

    @given(series_strategy(), series_strategy(), rationals)
    def test_linearity_helpers(self, f, g, r):
        n = min(f.precision, g.precision)
        total = f + g
        for k in range(n + 1):
            assert total[k] == f[k] + g[k]
        scaled = f.scale(r)
        for k in range(f.precision + 1):
            assert scaled[k] == r * f[k]


class TestOperators:
    def test_u_example(self):
        f = series(-4, [0, 1, 3, 0, 5])
        out = apply_U(f, 2)
        assert out.precision == 2
        assert fraction_coeffs(out) == (Fraction(0), Fraction(3), Fraction(5))

    def test_u_on_theta(self):
        group = build_class_group(-4)
        theta = theta_series(group, 0, 9)
        out = apply_U(theta, 3)
        assert out[3] == 4  # r(x^2+y^2, 9) = 4

    def test_u_zero_series(self):
        assert is_zero(apply_U(series(-4, [0] * 10), 5))

    def test_v_example(self):
        f = series(-4, [1, 1, 0, 0, 0])
        out = apply_V(f, 2)
        assert fraction_coeffs(out) == (Fraction(1), Fraction(0), Fraction(1), Fraction(0), Fraction(0))

    def test_v_truncates(self):
        f = series(-4, [0, 0, 1, 0, 0, 0])  # q^2 at precision 5
        assert is_zero(apply_V(f, 3))  # q^6 falls outside

    def test_uv_identity(self):
        f = series(-20, list(range(1, 14)))
        for p in (2, 3, 5):
            out = apply_U(apply_V(f, p), p)
            assert agrees_with(out, f, lo=0, hi=f.precision // p)

    def test_t_inert_kills_single_power(self):
        f = series(-4, [0, 1, 0, 0])  # q at N=3
        out = apply_T(f, 3)
        assert out.precision == 1
        assert is_zero(out, lo=1)

    def test_t_equals_u_when_ramified(self):
        group = build_class_group(-20)
        theta = theta_series(group, 1, 40)
        t = apply_T(theta, 5)
        u = apply_U(theta, 5)
        assert agrees_with(t, u, lo=1)

    @given(series_strategy(max_len=16), series_strategy(max_len=16))
    def test_t_linear(self, f, g):
        for p in (2, 3):
            lhs = apply_T(f + g, p)
            rhs = apply_T(f, p) + apply_T(g, p)
            assert agrees_with(lhs, rhs, lo=1)

    def test_operators_require_prime(self):
        f = series(-4, [1, 2, 3, 4, 5])
        for p in (1, 4, 6):
            with pytest.raises(ValueError):
                apply_U(f, p)
            with pytest.raises(ValueError):
                apply_V(f, p)


scales = st.fractions(max_denominator=9, min_value=Fraction(-7), max_value=Fraction(7))
discs = st.sampled_from([-3, -4, -20, -23, -84])
operator_primes = st.sampled_from([2, 3, 5, 7])
values = st.lists(rationals, min_size=1, max_size=30)


class TestAgainstFractionOracle:
    """The integer-vector operators against the Fraction-tuple ones they replaced,
    on series whose unit is not 1."""

    @given(discs, values, scales, operator_primes)
    def test_u(self, disc, vals, r, p):
        f = qseries(disc, vals).scale(r)
        assert fraction_coeffs(apply_U(f, p)) == apply_U_oracle(fraction_coeffs(f), p)

    @given(discs, values, scales, operator_primes)
    def test_v(self, disc, vals, r, p):
        f = qseries(disc, vals).scale(r)
        assert fraction_coeffs(apply_V(f, p)) == apply_V_oracle(fraction_coeffs(f), p)

    @given(discs, values, scales, operator_primes)
    def test_t(self, disc, vals, r, p):
        f = qseries(disc, vals).scale(r)
        assert fraction_coeffs(apply_T(f, p)) == apply_T_oracle(disc, fraction_coeffs(f), p)

    @given(discs, values, values, scales, scales)
    def test_sum_difference_negation(self, disc, a, b, r, s):
        f, g = qseries(disc, a).scale(r), qseries(disc, b).scale(s)
        fc, gc = fraction_coeffs(f), fraction_coeffs(g)
        assert fraction_coeffs(f + g) == tuple(x + y for x, y in zip(fc, gc))
        assert fraction_coeffs(f - g) == tuple(x - y for x, y in zip(fc, gc))
        assert fraction_coeffs(-f) == tuple(-x for x in fc)

    @given(discs, values, scales)
    def test_reduced_and_equality(self, disc, vals, r):
        f = qseries(disc, vals).scale(r)
        expected = [Fraction(v) * r for v in vals]
        assert f.reduced() == [(c.numerator, c.denominator) for c in expected]
        assert f == qseries(disc, expected)
        if r:
            assert f.scale(1 / r) == qseries(disc, vals)

    @pytest.mark.parametrize("delta", [-3, -20, -23, -84, -455])
    def test_row_operators_on_theta_matrix(self, delta):
        theta = theta_matrix(delta, 60)
        for p in (2, 3, 5, 7, 11):
            chi = kronecker(delta, p)
            t_all, u_all = t_rows(theta, p, chi), u_rows(theta, p)
            for h, row in enumerate(theta):
                coeffs = tuple(Fraction(int(c)) for c in row)
                assert tuple(map(Fraction, t_all[h].tolist())) == apply_T_oracle(delta, coeffs, p)
                assert tuple(map(Fraction, u_all[h].tolist())) == apply_U_oracle(coeffs, p)

    def test_first_mismatch_across_units(self):
        f = QSeries(-4, np.array([2, 4, 6]), Fraction(1, 2))  # 1, 2, 3
        g = QSeries(-4, np.array([1, 2, 4]))
        assert f.first_mismatch(g) == (2, Fraction(3), Fraction(4))
        assert f.first_mismatch(g, hi=1) is None
        assert f != g and f == QSeries(-4, np.array([1, 2, 3]))


class TestDirichletConvolution:
    """The pair-index kernel against the per-t sieve, on int64 and on object arrays."""

    @given(st.integers(0, 300), st.data())
    @settings(max_examples=60, deadline=None)
    def test_int64_matches_sieve(self, n_max, data):
        values = st.lists(st.integers(-1000, 1000), min_size=n_max + 1, max_size=n_max + 1)
        f = np.array(data.draw(values), dtype=np.int64)
        g = np.array(data.draw(values), dtype=np.int64)
        out = dirichlet_convolution(f, g)
        assert out.dtype == np.int64
        assert out.tolist() == dirichlet_convolution_sieve(f, g).tolist()

    @given(st.integers(0, 120), st.data())
    @settings(max_examples=40, deadline=None)
    def test_object_matches_sieve(self, n_max, data):
        values = st.lists(st.integers(-(2**80), 2**80), min_size=n_max + 1, max_size=n_max + 1)
        f = np.array(data.draw(values), dtype=object)
        g = np.array(data.draw(values), dtype=object)
        out = dirichlet_convolution(f, g)
        assert out.dtype == object
        assert out.tolist() == dirichlet_convolution_sieve(f, g).tolist()

    @pytest.mark.parametrize("n_max", [1, 2, 200, 1000])
    def test_characters_at_fixed_lengths(self, n_max):
        chi = np.array([kronecker(-84, m) for m in range(n_max + 1)], dtype=np.int64)
        ones = np.ones_like(chi)
        for f, g in ((chi, ones), (ones, chi), (chi, chi)):
            assert dirichlet_convolution(f, g).tolist() == dirichlet_convolution_sieve(f, g).tolist()

    @given(st.integers(1, 6), st.integers(0, 120), st.sampled_from([np.int64, object]), st.data())
    @settings(max_examples=25, deadline=None)
    def test_stacked_rows_match_row_by_row(self, rows, n_max, dtype, data):
        values = st.lists(st.integers(-1000, 1000), min_size=rows * (n_max + 1), max_size=rows * (n_max + 1))
        f = np.array(data.draw(values), dtype=dtype).reshape(rows, n_max + 1)
        g = np.array(data.draw(values), dtype=dtype).reshape(rows, n_max + 1)
        out = dirichlet_convolution(f, g)
        assert out.dtype == f.dtype and out.shape == f.shape
        assert out.tolist() == [dirichlet_convolution(a, b).tolist() for a, b in zip(f, g)]


class TestEigenform:
    def test_eisenstein_is_t_eigenform(self):
        for delta in (-4, -20, -23):
            e = eisenstein_series(1, delta, 60)
            for p in (3, 7, 11, 13):
                if delta % p == 0:
                    continue
                lhs = apply_T(e, p)
                rhs = e.scale(1 + kronecker(delta, p))
                assert agrees_with(lhs, rhs, lo=1, hi=60 // p), (delta, p)


class TestSerialization:
    def test_round_trip(self):
        f = series(-20, [Fraction(1, 2), 1, Fraction(-3, 7)])
        data = f.to_dict()
        assert data == {"disc": -20, "precision": 2, "coeffs": [[1, 2], [1, 1], [-3, 7]]}
        assert series_from_json(f.to_json()) == f

    def test_from_dict_validates_precision(self):
        with pytest.raises(ValueError):
            series_from_json(json.dumps({"disc": -4, "precision": 5, "coeffs": [[1, 1]]}))

    def test_first_mismatch_reporting(self):
        f = series(-4, [0, 1, 2, 3])
        g = series(-4, [0, 1, 5, 3])
        assert f.first_mismatch(g) == (2, Fraction(2), Fraction(5))
        assert f.first_mismatch(g, lo=3) is None
