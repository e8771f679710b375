import itertools
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import genusmass
from genusmass import class_group
from genusmass.arith import distinct_prime_count, kronecker, primes_up_to
from genusmass.class_group import build_class_group, prime_form, prime_ideal_class
from genusmass.forms import QuadForm, reduce_form, reduced_forms, represented_coprime_value
from oracles import (
    IdealBasis,
    class_group_table_oracle,
    compose_forms_oracle,
    elem_mul,
    form_to_ideal,
    fundamental_deltas,
    ideal_conj,
    ideal_mul,
    ideal_scale,
    ideal_to_form,
    opposite,
    prime_ideal,
)

deltas_strategy = st.sampled_from(fundamental_deltas(-250))


class TestIdealBasics:
    def test_unit_ideal(self):
        ideal = form_to_ideal(QuadForm(1, 0, 1))
        assert ideal.norm == 1
        assert ideal.canonical().alpha == (1, 0)
        assert ideal.canonical().beta == (0, 1)

    def test_form_to_ideal_examples(self):
        # [2,2,3] over delta=-20 gives <2, (-2+sqrt(-20))/2>, norm 2
        ideal = form_to_ideal(QuadForm(2, 2, 3))
        assert ideal.norm == 2
        expected = IdealBasis(-20, (2, 0), (9, 1)).canonical()  # (-2+sqrt(-20))/2 = 9 + omega
        assert ideal == expected
        # [1,1,6] over delta=-23 is principal
        assert form_to_ideal(QuadForm(1, 1, 6)).norm == 1

    def test_ideal_to_form_examples(self):
        assert ideal_to_form(IdealBasis(-4, (1, 0), (0, 1))).triple() == (1, 0, 1)
        assert ideal_to_form(IdealBasis(-20, (2, 0), (9, 1))).triple() == (2, 2, 3)

    def test_orientation_normalization(self):
        # the same lattice handed over with flipped or swapped generators
        assert ideal_to_form(IdealBasis(-20, (2, 0), (-9, -1))).triple() == (2, 2, 3)
        assert ideal_to_form(IdealBasis(-20, (9, 1), (2, 0))).triple() == (2, 2, 3)

    def test_rejects_rank_deficient(self):
        with pytest.raises(ValueError):
            IdealBasis(-20, (2, 0), (4, 0))

    def test_rejects_non_discriminant(self):
        with pytest.raises(ValueError):
            IdealBasis(-10, (1, 0), (0, 1))

    def test_rejects_non_ideal_lattice(self):
        # Z*1 + Z*2w is not closed under multiplication by w
        with pytest.raises(ValueError):
            IdealBasis(-20, (1, 0), (0, 2))

    @given(deltas_strategy, st.data())
    @settings(max_examples=120)
    def test_round_trip(self, delta, data):
        q = data.draw(st.sampled_from(reduced_forms(delta)))
        ideal = form_to_ideal(q)
        assert ideal.norm == q.a
        assert ideal_to_form(ideal) == q

    def test_round_trip_exhaustive_small(self):
        for delta in (-4, -20, -23, -47, -84, -120):
            for q in reduced_forms(delta):
                assert ideal_to_form(form_to_ideal(q)) == q

    def test_norm_is_index_determinant(self):
        ideal = IdealBasis(-23, (2, 0), (1, 1))
        assert ideal.norm == 2
        assert ideal_scale(ideal, 3).norm == 9 * 2

    def test_ideal_closed_under_omega(self):
        ideal = form_to_ideal(QuadForm(2, 1, 3))
        for gen in (ideal.alpha, ideal.beta):
            # w * gen stays inside
            assert ideal.contains(elem_mul(-23, (0, 1), gen))


class TestCompose:
    def test_identity_law(self, cg23):
        for h in range(cg23.h):
            assert cg23.compose(cg23.identity, h) == h

    def test_order_two_example(self, cg20):
        nonprincipal = cg20.classes.index(QuadForm(2, 2, 3))
        principal = cg20.classes.index(QuadForm(1, 0, 5))
        assert cg20.compose(nonprincipal, nonprincipal) == principal

    def test_order_three_example(self, cg23):
        a = cg23.classes.index(QuadForm(2, 1, 3))
        b = cg23.classes.index(QuadForm(2, -1, 3))
        assert cg23.compose(a, a) == b
        assert cg23.compose(cg23.compose(a, a), a) == cg23.identity

    @given(deltas_strategy)
    @settings(max_examples=60, deadline=None)
    def test_group_axioms(self, delta):
        group = build_class_group(delta)
        h = group.h
        for i in range(h):
            assert group.compose(group.identity, i) == i
            assert group.compose(i, group.inverse(i)) == group.identity
            # inverse realized by the opposite form
            assert group.classes[group.inverse(i)] == reduce_form(opposite(group.classes[i]))
            for j in range(h):
                assert group.compose(i, j) == group.compose(j, i)
        triples = (
            itertools.product(range(h), repeat=3)
            if h <= 16
            else [(i, j, k) for i in range(0, h, 3) for j in range(1, h, 4) for k in range(0, h, 5)]
        )
        for i, j, k in triples:
            assert group.compose(group.compose(i, j), k) == group.compose(i, group.compose(j, k))

    @given(deltas_strategy, st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_coefficient_level_composition(self, delta, data):
        group = build_class_group(delta)
        i = data.draw(st.integers(min_value=0, max_value=group.h - 1))
        j = data.draw(st.integers(min_value=0, max_value=group.h - 1))
        expected = compose_forms_oracle(group.classes[i], group.classes[j])
        assert group.classes[group.compose(i, j)] == expected


class TestAgainstTableOracle:
    def test_compose_and_genera_match_table(self):
        for delta in fundamental_deltas(-1000):
            group = build_class_group(delta)
            oracle = class_group_table_oracle(delta)
            assert group.classes == oracle.classes
            for i in range(group.h):
                for j in range(group.h):
                    assert group.compose(i, j) == oracle.table[i][j], (delta, i, j)
            # genera by assigned characters are the cosets of the squares
            assert group.identity == oracle.identity, delta
            assert group.inverses == oracle.inverses, delta
            assert group.squares == oracle.squares, delta
            assert group.genus_of == oracle.genus_of, delta
            assert group.genus_ids == oracle.genus_ids, delta

    def test_no_table_is_kept(self, cg84):
        assert getattr(cg84, "table", None) is None
        for name in ("IdealBasis", "form_to_ideal", "ideal_mul", "ideal_to_form"):
            assert not hasattr(genusmass, name)
            assert not hasattr(class_group, name)


class TestLargeClassGroup:
    DELTA = -400391  # h = 999

    def test_seeded_pairs_match_coefficient_composition(self):
        group = build_class_group(self.DELTA)
        rng = random.Random(400391)
        for _ in range(2000):
            i, j = rng.randrange(group.h), rng.randrange(group.h)
            expected = compose_forms_oracle(group.classes[i], group.classes[j])
            assert group.classes[group.compose(i, j)] == expected, (i, j)

    def test_prime_classes_match_coefficient_composition(self):
        group = build_class_group(self.DELTA)
        for p in primes_up_to(50):
            if kronecker(self.DELTA, p) == -1:
                continue
            hp = prime_ideal_class(group, p)
            for h in range(group.h):
                expected = compose_forms_oracle(group.classes[h], group.classes[hp])
                assert group.classes[group.compose(h, hp)] == expected, (p, h)


_true_compose = class_group._compose_triples


def _first_argument(f1, f2):
    return f1


def _no_inverses(f1, f2):
    # right except that a class times its opposite form gives the class back
    if f1[0] == f2[0] and f1[1] == -f2[1] != 0:
        return f1
    return _true_compose(f1, f2)


def _squares_principal(f1, f2):
    # right except that every square lands in the principal class
    if f1 == f2:
        return _true_compose(f1, (f1[0], -f1[1], f1[2]))
    return _true_compose(f1, f2)


class TestBuildChecks:
    @pytest.mark.parametrize(
        "law,delta,message",
        [
            (_first_argument, -23, "not the identity"),
            (_no_inverses, -23, "inverse law"),
            (_squares_principal, -47, "principal genus"),
        ],
    )
    def test_wrong_law_raises(self, monkeypatch, law, delta, message):
        monkeypatch.setattr(class_group, "_compose_triples", law)
        with pytest.raises(RuntimeError, match=message):
            build_class_group.__wrapped__(delta)

    def test_wrong_law_raises_under_optimize(self):
        code = (
            "import sys\n"
            "import genusmass.class_group as cg\n"
            "if not sys.flags.optimize:\n"
            "    sys.exit('not optimized')\n"
            "cg._compose_triples = lambda f1, f2: f1\n"
            "try:\n"
            "    cg.build_class_group(-23)\n"
            "except RuntimeError as exc:\n"
            "    print(exc)\n"
            "else:\n"
            "    sys.exit('no error raised')\n"
        )
        src = os.path.dirname(os.path.dirname(genusmass.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run(
            [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert run.returncode == 0, run.stderr
        assert "not the identity" in run.stdout


class TestBuildClassGroup:
    def test_structures(self):
        g4 = build_class_group(-4)
        assert g4.h == 1 and g4.genus_ids == (0,)

        g20 = build_class_group(-20)
        assert g20.h == 2
        assert g20.squares == (0,)
        assert g20.genus_ids == (0, 1)
        assert all(len(g20.genus_members(g)) == 1 for g in g20.genus_ids)

        g84 = build_class_group(-84)
        assert g84.h == 4
        assert all(g84.compose(i, i) == g84.identity for i in range(4))  # Klein four-group
        assert g84.squares == (0,)
        assert len(g84.genus_ids) == 4

        g47 = build_class_group(-47)
        assert g47.h == 5
        assert g47.squares == tuple(range(5))  # odd order: squaring is onto
        assert g47.genus_ids == (0,)

    def test_rejects_non_fundamental(self):
        with pytest.raises(ValueError):
            build_class_group(-12)

    def test_genus_count_and_sizes(self):
        for delta in fundamental_deltas(-300):
            group = build_class_group(delta)
            assert len(group.genus_ids) == 2 ** (distinct_prime_count(delta) - 1)
            sizes = {len(group.genus_members(g)) for g in group.genus_ids}
            assert sizes == {len(group.squares)}
            assert len(group.genus_ids) * len(group.squares) == group.h

    def test_genus_ids_are_coset_minima(self, cg84):
        for g in cg84.genus_ids:
            assert g == min(cg84.genus_members(g))

    def test_coprime_values_match_the_scalar_search(self):
        for delta in fundamental_deltas(-3000) + [-400391]:
            classes = reduced_forms(delta)
            expected = [represented_coprime_value(q, -delta) for q in classes]
            assert class_group._coprime_values(classes, delta) == expected, delta

    def test_coprime_values_fall_back_past_shell_one(self, monkeypatch):
        """(3, 0, 7) at -84 has shell values 3, 7, 10, 10, none coprime to 84."""
        searched = []

        def scalar_search(q, d):
            searched.append(q.triple())
            return represented_coprime_value(q, d)

        monkeypatch.setattr(class_group, "represented_coprime_value", scalar_search)
        assert class_group._coprime_values(reduced_forms(-84), -84) == [1, 11, 19, 5]
        assert searched == [(3, 0, 7)]


class TestPrimeIdealClass:
    def test_examples(self, cg20, cg23):
        assert cg20.classes[prime_ideal_class(cg20, 5)].triple() == (1, 0, 5)
        assert cg20.classes[prime_ideal_class(cg20, 3)].triple() == (2, 2, 3)
        assert cg23.classes[prime_ideal_class(cg23, 2)].triple() == (2, 1, 3)

    def test_ramified_two(self, cg20):
        assert cg20.classes[prime_ideal_class(cg20, 2)].triple() == (2, 2, 3)

    def test_rejects_inert(self, cg20):
        with pytest.raises(ValueError):
            prime_ideal_class(cg20, 11)
        with pytest.raises(ValueError):
            prime_form(-20, 11)

    def test_prime_form_shape(self):
        for delta in (-20, -23, -84):
            for p in primes_up_to(30):
                if kronecker(delta, p) == -1:
                    continue
                q = prime_form(delta, p)
                assert q.a == p
                assert 0 <= q.b < 2 * p
                assert q.discriminant() == delta
                assert prime_ideal(delta, p).norm == p

    def test_split_conjugate_is_inverse(self):
        for delta in fundamental_deltas(-150):
            group = build_class_group(delta)
            for p in primes_up_to(30):
                chi = kronecker(delta, p)
                if chi == -1:
                    continue
                hp = prime_ideal_class(group, p)
                if chi == 1:
                    # p * conj(p) = (p) is principal
                    ideal = prime_ideal(delta, p)
                    product = ideal_mul(ideal, ideal_conj(ideal))
                    assert ideal_to_form(product) == group.classes[group.identity]
                    assert group.compose(hp, group.inverse(hp)) == group.identity
                else:
                    assert group.compose(hp, hp) == group.identity


class TestIdealProducts:
    def test_product_norms_multiply(self, cg23):
        i1 = form_to_ideal(cg23.classes[1])
        i2 = form_to_ideal(cg23.classes[2])
        assert ideal_mul(i1, i2).norm == i1.norm * i2.norm

    def test_mixed_discriminants_rejected(self):
        with pytest.raises(ValueError):
            ideal_mul(form_to_ideal(QuadForm(1, 0, 1)), form_to_ideal(QuadForm(1, 0, 5)))

    def test_scale_is_principal_multiplication(self, cg20):
        ideal = form_to_ideal(cg20.classes[1])
        scaled = ideal_scale(ideal, 7)
        assert ideal_to_form(scaled) == ideal_to_form(ideal)
