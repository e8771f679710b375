from dataclasses import replace
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from genusmass.class_group import build_class_group, prime_ideal_class
from genusmass.genus import build_genus_characters, character_pairs
from genusmass.arith import kronecker, primes_up_to
from genusmass.verify import verify_character_counts
from oracles import (
    build_layers,
    character_table_oracle,
    class_forms,
    character_value,
    compose,
    fundamental_deltas,
    genus_product,
    orthogonality_sum,
    principal_genus,
    represented_coprime_value,
)

deltas_strategy = st.sampled_from(fundamental_deltas(-250))


class TestCharacterPairs:
    @pytest.mark.parametrize(
        "delta,expected",
        [
            (-20, [(1, -20), (5, -4)]),
            (-84, [(1, -84), (12, -7), (21, -4), (28, -3)]),
            (-23, [(1, -23)]),
            (-4, [(1, -4)]),
        ],
    )
    def test_examples(self, delta, expected):
        assert character_pairs(delta) == expected

    @given(deltas_strategy)
    def test_shape(self, delta):
        pairs = character_pairs(delta)
        assert pairs[0] == (1, delta)
        for d, big_d in pairs:
            assert d > 0 > big_d
            assert d * big_d == delta
        assert len(set(pairs)) == len(pairs)


class TestRepresentedValue:
    @pytest.mark.parametrize(
        "triple,d,expected",
        [((1, 0, 5), 5, 1), ((2, 2, 3), 5, 2), ((2, 1, 3), 23, 2)],
    )
    def test_examples(self, triple, d, expected):
        assert represented_coprime_value(triple, d) == expected

    @given(deltas_strategy, st.data())
    @settings(max_examples=100)
    def test_coprime_and_represented(self, delta, data):
        q = data.draw(st.sampled_from(class_forms(delta)))
        d = data.draw(st.sampled_from([p[0] for p in character_pairs(delta)]))
        r = represented_coprime_value(q.triple(), d)
        assert r > 0 and gcd(r, d) == 1
        # r really is represented
        assert any(q(x, y) == r for x in range(-r, r + 1) for y in range(-r, r + 1))


def smallest_admissible_values(q, d, how_many=5):
    values = set()
    k = 1
    while len(values) < how_many:
        for x in range(-k, k + 1):
            for y in range(-k, k + 1):
                v = q(x, y)
                if v > 0 and gcd(v, d) == 1:
                    values.add(v)
        k += 1
    return sorted(values)[:how_many]


class TestCharacterValue:
    def test_trivial_character(self, cg20):
        for g in cg20.genus_ids:
            assert character_value(cg20, 1, g) == 1

    def test_examples(self, cg20, cg84):
        principal = principal_genus(cg20)
        other = [g for g in cg20.genus_ids if g != principal][0]
        assert character_value(cg20, 5, principal) == 1
        assert character_value(cg20, 5, other) == -1  # (5|2) = -1

        g_2211 = cg84.genus_of[cg84.index_of[(2, 2, 11)]]
        assert character_value(cg84, 21, g_2211) == -1  # (21|2) = -1

    def test_built_characters_match_fresh_values(self):
        # the library multiplies the assigned characters the class group already
        # computed; the oracle searches a new value coprime to d for every genus
        for delta in fundamental_deltas(-1000) + [-120120]:
            group = build_class_group(delta)
            table = build_genus_characters(group)
            assert table.dtype == np.int64
            assert table.tolist() == character_table_oracle(group).tolist(), delta

    def test_zero_assigned_character_raises(self, cg84):
        signs = ((0,) + cg84.genus_signs[0][1:],) + cg84.genus_signs[1:]
        with pytest.raises(RuntimeError, match="assigned characters"):
            build_genus_characters(replace(cg84, genus_signs=signs))

    def test_broken_product_relation_fails_character_counts(self, cg84):
        # a genus whose assigned characters multiply to -1 repeats another
        # genus's column of the table, so X X^T != |G| I
        signs = cg84.genus_signs[:-1] + ((-cg84.genus_signs[-1][0],) + cg84.genus_signs[-1][1:],)
        group = replace(cg84, genus_signs=signs)
        layers = build_layers(-84, 0, 1)._replace(group=group, characters=build_genus_characters(group))
        record = verify_character_counts(layers)
        assert not record.passed
        assert record.detail == "the character table is not orthogonal: X X^T != 4 I"

    @given(deltas_strategy, st.data())
    @settings(max_examples=60, deadline=None)
    def test_independent_of_representative_and_value(self, delta, data):
        group = build_class_group(delta)
        d = data.draw(st.sampled_from([p[0] for p in character_pairs(delta)]))
        for g in group.genus_ids:
            expected = character_value(group, d, g)
            for h in group.genus_members(g):
                q = class_forms(delta)[h]
                for r in smallest_admissible_values(q, d):
                    assert kronecker(d, r) == expected

    @given(deltas_strategy)
    @settings(max_examples=60, deadline=None)
    def test_homomorphism(self, delta):
        group = build_class_group(delta)
        table = build_genus_characters(group)
        col = {g: k for k, g in enumerate(group.genus_ids)}
        for g1 in group.genus_ids:
            for g2 in group.genus_ids:
                product = table[:, col[genus_product(group, g1, g2)]]
                assert product.tolist() == (table[:, col[g1]] * table[:, col[g2]]).tolist()

    @given(deltas_strategy)
    @settings(max_examples=40, deadline=None)
    def test_compatible_with_prime_translation(self, delta):
        # chi(genus of h*p) * chi(genus of h) does not depend on h
        group = build_class_group(delta)
        table = build_genus_characters(group)
        col = {g: k for k, g in enumerate(group.genus_ids)}
        for p in primes_up_to(20):
            if kronecker(delta, p) == -1:
                continue
            hp = prime_ideal_class(group, p)
            for row in table:
                products = {
                    row[col[group.genus_of[compose(group, hp, h)]]] * row[col[group.genus_of[h]]]
                    for h in range(group.h)
                }
                assert len(products) == 1


class TestOrthogonality:
    def test_examples(self, cg20, cg84):
        assert orthogonality_sum(cg20, principal_genus(cg20)) == 1
        other = [g for g in cg20.genus_ids if g != principal_genus(cg20)][0]
        assert orthogonality_sum(cg20, other) == 0
        for g in cg84.genus_ids:
            expected = Fraction(1) if g == principal_genus(cg84) else Fraction(0)
            assert orthogonality_sum(cg84, g) == expected

    @given(deltas_strategy)
    @settings(max_examples=60, deadline=None)
    def test_row_orthogonality(self, delta):
        group = build_class_group(delta)
        table = build_genus_characters(group)
        n = len(group.genus_ids)
        assert table.shape == (n, n)
        for i, row_i in enumerate(table.tolist()):
            for j, row_j in enumerate(table.tolist()):
                total = sum(a * b for a, b in zip(row_i, row_j))
                assert total == (n if i == j else 0)

    @given(deltas_strategy)
    @settings(max_examples=60, deadline=None)
    def test_orthogonality_sum_detects_principal_genus(self, delta):
        group = build_class_group(delta)
        for g in group.genus_ids:
            expected = Fraction(1) if g == principal_genus(group) else Fraction(0)
            assert orthogonality_sum(group, g) == expected

    def test_trivial_character_is_constant_one(self):
        for delta in (-3, -20, -84, -120):
            group = build_class_group(delta)
            assert character_pairs(delta)[0] == (1, delta)
            assert build_genus_characters(group)[0].tolist() == [1] * len(group.genus_ids)
