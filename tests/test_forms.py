import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from genusmass import forms as forms_module
from genusmass.arith import kronecker
from genusmass.forms import _isqrt, automorph_count, reduced_forms, representation_counts
from oracles import (
    KNOWN_CLASS_NUMBERS,
    QuadForm,
    box_representation_count,
    class_forms,
    divisors,
    fundamental_deltas,
    is_reduced,
    reduce_form,
    reduced_class_set_oracle,
    reduce_with_matrix,
    representation_count,
    representation_counts_oracle,
)

deltas_strategy = st.sampled_from(fundamental_deltas(-300))


def random_equivalent(q: QuadForm, moves: list[tuple[int, int]]) -> QuadForm:
    """Apply a word in the generators (x,y)->(x+ry,y) and (x,y)->(-y,x)."""
    a, b, c = q.triple()
    for kind, r in moves:
        if kind == 0:
            a, b, c = a, b + 2 * r * a, a * r * r + b * r + c
        else:
            a, b, c = c, -b, a
    return QuadForm(a, b, c)


class TestQuadForm:
    @pytest.mark.parametrize(
        "triple,x,y,expected",
        [((1, 0, 1), 1, 2, 5), ((2, 2, 3), 0, 1, 3), ((1, 1, 1), -1, 1, 1)],
    )
    def test_evaluate(self, triple, x, y, expected):
        assert QuadForm(*triple)(x, y) == expected

    @pytest.mark.parametrize(
        "triple,expected", [((1, 0, 1), -4), ((1, 1, 1), -3), ((2, 2, 3), -20)]
    )
    def test_discriminant(self, triple, expected):
        assert QuadForm(*triple).discriminant() == expected

    def test_constructor_rejects_bad_forms(self):
        with pytest.raises(ValueError):
            QuadForm(0, 1, 1)
        with pytest.raises(ValueError):
            QuadForm(-1, 0, -1)
        with pytest.raises(ValueError):
            QuadForm(1, 3, 1)  # discriminant 5 > 0
        with pytest.raises(ValueError):
            QuadForm(2, 2, 2)  # gcd 2

    def test_positive_values(self):
        q = QuadForm(2, 1, 3)
        for x in range(-5, 6):
            for y in range(-5, 6):
                assert q(x, y) >= 0
                assert (q(x, y) == 0) == (x == 0 and y == 0)


class TestReduce:
    @pytest.mark.parametrize(
        "triple,expected",
        [
            ((1, 0, 1), (1, 0, 1)),
            ((2, 2, 1), (1, 0, 1)),
            ((3, 2, 2), (2, 2, 3)),
            ((4, 21, 29), (2, -1, 3)),
            ((5, -4, 5), (5, 4, 5)),
        ],
    )
    def test_examples(self, triple, expected):
        assert reduce_form(QuadForm(*triple)).triple() == expected

    @given(
        deltas_strategy,
        st.data(),
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=1), st.integers(min_value=-4, max_value=4)),
            max_size=8,
        ),
    )
    @settings(max_examples=150)
    def test_reduction_recovers_class_representative(self, delta, data, moves):
        forms = class_forms(delta)
        q0 = data.draw(st.sampled_from(forms))
        q = random_equivalent(q0, moves)
        reduced, m = reduce_with_matrix(q)
        assert reduced == q0
        assert reduce_form(q) == q0
        # transformation is in SL2(Z) and carries q onto the reduced form
        m11, m12, m21, m22 = m
        assert m11 * m22 - m12 * m21 == 1
        assert q(m11, m21) == reduced.a
        assert q(m12, m22) == reduced.c
        assert q(m11 + m12, m21 + m22) == reduced.a + reduced.b + reduced.c
        # idempotent, discriminant-preserving
        assert reduce_form(reduced) == reduced
        assert is_reduced(reduced)
        assert reduced.discriminant() == q.discriminant()


class TestReducedForms:
    @pytest.mark.parametrize(
        "delta,expected",
        [
            (-4, [(1, 0, 1)]),
            (-20, [(1, 0, 5), (2, 2, 3)]),
            (-23, [(1, 1, 6), (2, -1, 3), (2, 1, 3)]),
            (-3, [(1, 1, 1)]),
            (-84, [(1, 0, 21), (2, 2, 11), (3, 0, 7), (5, 4, 5)]),
        ],
    )
    def test_examples(self, delta, expected):
        forms = reduced_forms(delta)
        assert forms.dtype == np.int64 and not forms.flags.writeable
        assert [tuple(row) for row in forms.tolist()] == expected

    def test_rejects_bad_discriminants(self):
        with pytest.raises(ValueError):
            reduced_forms(-12)
        with pytest.raises(ValueError):
            reduced_forms(5)

    def test_against_reduce_everything_oracle(self):
        for delta in fundamental_deltas(-1000):
            forms = class_forms(delta)
            assert len(set(forms)) == len(forms)
            assert set(forms) == reduced_class_set_oracle(delta)
            assert list(forms) == sorted(forms)
            for q in forms:
                assert is_reduced(q)
                assert 1 <= q.a <= math.isqrt(-delta // 3)

    @pytest.mark.parametrize("block", [1, 7])
    def test_blocks_split_inside_a_row(self, monkeypatch, block):
        deltas = fundamental_deltas(-1000)
        expected = [reduced_forms(delta) for delta in deltas]
        monkeypatch.setattr(forms_module, "REDUCED_FORMS_BLOCK", block)
        for delta, forms in zip(deltas, expected):
            assert np.array_equal(reduced_forms(delta), forms), delta

    def test_known_class_numbers(self):
        for delta, h in KNOWN_CLASS_NUMBERS.items():
            assert len(reduced_forms(delta)) == h, delta

    @pytest.mark.parametrize("delta,h", [(-400391, 999), (-10000003, 706)])
    def test_large_class_numbers(self, delta, h):
        assert len(reduced_forms(delta)) == h


class TestRepresentationCount:
    @pytest.mark.parametrize(
        "triple,n,expected",
        [
            ((1, 0, 1), 0, 1),
            ((1, 0, 1), 1, 4),
            ((1, 0, 1), 3, 0),
            ((1, 0, 1), 25, 12),
            ((1, 0, 5), 5, 2),
            ((2, 2, 3), 3, 4),
            ((1, 1, 1), 1, 6),
        ],
    )
    def test_examples(self, triple, n, expected):
        assert representation_count(QuadForm(*triple), n) == expected

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            representation_count(QuadForm(1, 0, 1), -1)

    @given(deltas_strategy, st.data(), st.integers(min_value=0, max_value=60))
    @settings(max_examples=100)
    def test_against_box_oracle(self, delta, data, n):
        q = data.draw(st.sampled_from(class_forms(delta)))
        assert representation_count(q, n) == box_representation_count(q, n)

    @given(deltas_strategy, st.data())
    @settings(max_examples=50)
    def test_bulk_matches_single(self, delta, data):
        q = data.draw(st.sampled_from(class_forms(delta)))
        counts = representation_counts([q.triple()], 60)[0]
        assert counts.tolist() == [representation_count(q, n) for n in range(61)]

    def test_kernel_matches_per_form_sweep(self):
        for delta in fundamental_deltas(-1000):
            classes = reduced_forms(delta)
            for n_max in (0, 1, 2, 200):
                counts = representation_counts(classes, n_max)
                assert counts.dtype == np.int64 and counts.shape == (len(classes), n_max + 1)
                for row, q in zip(counts.tolist(), class_forms(delta)):
                    assert row == representation_counts_oracle(q, n_max), (delta, n_max, q)

    @pytest.mark.parametrize("n_max,rows", [(20, 999), (1000, 50)])
    def test_kernel_at_class_number_999(self, n_max, rows):
        classes = reduced_forms(-400391)[:rows]
        counts = representation_counts(classes, n_max)
        for row, q in zip(counts.tolist(), class_forms(-400391)):
            assert row == representation_counts_oracle(q, n_max), q

    def test_exact_integer_square_root(self):
        roots = [0, 1, 2, 3, 1000, 2**26 - 1, 2**26, 2**26 + 1, 94906265, 94906266, 2**31 - 1]
        values = sorted({v for r in roots for v in (r * r - 1, r * r, r * r + 1) if v >= 0}
                        | {2**53 - 1, 2**53, 2**53 + 1, 2**62 - 1})
        assert _isqrt(np.array(values, dtype=np.int64)).tolist() == [math.isqrt(v) for v in values]

    def test_int64_bound_is_checked(self, monkeypatch):
        classes = reduced_forms(-84)
        monkeypatch.setattr(forms_module, "INT64_BOUND", 85 * 2)
        assert representation_counts(classes, 1).shape == (4, 2)  # (|delta| + 1) n_max = 85
        with pytest.raises(ValueError, match="overflow"):
            representation_counts(classes, 2)

    def test_rejects_unreduced_forms(self):
        with pytest.raises(ValueError, match="reduced"):
            representation_counts([(4, 21, 29)], 10)

    def test_invariant_under_reduction(self):
        q = QuadForm(4, 21, 29)
        reduced = reduce_form(q)
        for n in range(101):
            assert representation_count(q, n) == representation_count(reduced, n)

    def test_class_sum_at_one_is_automorph_count(self):
        for delta in fundamental_deltas(-150):
            total = sum(representation_count(q, 1) for q in class_forms(delta))
            assert total == automorph_count(delta)


class TestAutomorphs:
    @pytest.mark.parametrize("delta,expected", [(-4, 4), (-3, 6), (-20, 2), (-163, 2)])
    def test_values(self, delta, expected):
        assert automorph_count(delta) == expected

    def test_rejects_non_fundamental(self):
        with pytest.raises(ValueError):
            automorph_count(-12)

    def test_counts_units(self):
        # w equals the number of representations of 1 by the principal form
        for delta in (-3, -4, -7, -20):
            principal = class_forms(delta)[0]
            assert representation_count(principal, 1) == automorph_count(delta)


def test_gauss_average_small():
    # spot check of the divisor-sum identity driving everything downstream
    for delta in (-4, -20):
        forms = class_forms(delta)
        w = automorph_count(delta)
        for n in range(1, 60):
            lhs = sum(representation_count(q, n) for q in forms)
            rhs = w * sum(kronecker(delta, t) for t in divisors(n))
            assert lhs == rhs, (delta, n)
