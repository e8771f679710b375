import itertools
import math
import os
import random
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import genusmass
from genusmass import class_group
from genusmass.arith import distinct_prime_count, kronecker, prime_discriminant_factorization, primes_up_to
from genusmass.class_group import build_class_group, compose_stacked, prime_ideal_class
from genusmass.forms import reduced_forms, stacked_reduced_forms
from oracles import (
    IdealBasis,
    QuadForm,
    class_forms,
    class_group_table_oracle,
    class_index,
    class_number,
    compose,
    compose_forms_oracle,
    elem_mul,
    form_to_ideal,
    fundamental_deltas,
    genus_ids,
    genus_members,
    genus_of,
    ideal_conj,
    ideal_mul,
    ideal_scale,
    ideal_to_form,
    inverse,
    inverses,
    opposite,
    prime_form,
    prime_ideal,
    principal_class,
    reduce_form,
    represented_coprime_value,
    square_classes,
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
        q = data.draw(st.sampled_from(class_forms(delta)))
        ideal = form_to_ideal(q)
        assert ideal.norm == q.a
        assert ideal_to_form(ideal) == q

    def test_round_trip_exhaustive_small(self):
        for delta in (-4, -20, -23, -47, -84, -120):
            for q in class_forms(delta):
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
        for h in range(class_number(cg23)):
            assert compose(cg23, principal_class(cg23), h) == h

    def test_order_two_example(self, cg20):
        nonprincipal = class_index(cg20, (2, 2, 3))
        principal = class_index(cg20, (1, 0, 5))
        assert compose(cg20, nonprincipal, nonprincipal) == principal

    def test_order_three_example(self, cg23):
        a = class_index(cg23, (2, 1, 3))
        b = class_index(cg23, (2, -1, 3))
        assert compose(cg23, a, a) == b
        assert compose(cg23, compose(cg23, a, a), a) == principal_class(cg23)

    @given(deltas_strategy)
    @settings(max_examples=60, deadline=None)
    def test_group_axioms(self, delta):
        group = build_class_group(delta)
        forms = class_forms(delta)
        h, identity = class_number(group), principal_class(group)
        for i in range(h):
            assert compose(group, identity, i) == i
            assert compose(group, i, inverse(group, i)) == identity
            # inverse realized by the opposite form
            assert forms[inverse(group, i)] == reduce_form(opposite(forms[i]))
            for j in range(h):
                assert compose(group, i, j) == compose(group, j, i)
        triples = (
            itertools.product(range(h), repeat=3)
            if h <= 16
            else [(i, j, k) for i in range(0, h, 3) for j in range(1, h, 4) for k in range(0, h, 5)]
        )
        for i, j, k in triples:
            assert compose(group, compose(group, i, j), k) == compose(group, i, compose(group, j, k))

    @given(deltas_strategy, st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_coefficient_level_composition(self, delta, data):
        group = build_class_group(delta)
        i = data.draw(st.integers(min_value=0, max_value=class_number(group) - 1))
        j = data.draw(st.integers(min_value=0, max_value=class_number(group) - 1))
        forms = class_forms(delta)
        assert forms[compose(group, i, j)] == compose_forms_oracle(forms[i], forms[j])


class TestAgainstTableOracle:
    def test_compose_and_genera_match_table(self):
        for delta in fundamental_deltas(-1000):
            group = build_class_group(delta)
            oracle = class_group_table_oracle(delta)
            assert class_forms(delta) == oracle.classes
            for i in range(class_number(group)):
                for j in range(class_number(group)):
                    assert compose(group, i, j) == oracle.table[i][j], (delta, i, j)
            # genera by assigned characters are the cosets of the squares
            assert principal_class(group) == oracle.identity, delta
            assert inverses(group) == oracle.inverses, delta
            assert square_classes(group) == oracle.squares, delta
            assert genus_of(group) == oracle.genus_of, delta
            assert genus_ids(group) == oracle.genus_ids, delta

    def test_no_table_is_kept(self, cg84):
        assert getattr(cg84, "table", None) is None
        for name in ("IdealBasis", "form_to_ideal", "ideal_mul", "ideal_to_form"):
            assert not hasattr(genusmass, name)
            assert not hasattr(class_group, name)


class TestLargeClassGroup:
    DELTA = -400391  # h = 999

    def test_seeded_pairs_match_coefficient_composition(self):
        group = build_class_group(self.DELTA)
        forms = class_forms(self.DELTA)
        rng = random.Random(400391)
        for _ in range(2000):
            i, j = rng.randrange(class_number(group)), rng.randrange(class_number(group))
            assert forms[compose(group, i, j)] == compose_forms_oracle(forms[i], forms[j]), (i, j)

    def test_prime_classes_match_coefficient_composition(self):
        group = build_class_group(self.DELTA)
        forms = class_forms(self.DELTA)
        for p in primes_up_to(50):
            if kronecker(self.DELTA, p) == -1:
                continue
            hp = prime_ideal_class(group, p)
            for h in range(class_number(group)):
                assert forms[compose(group, h, hp)] == compose_forms_oracle(forms[h], forms[hp]), (p, h)


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


_true_compose_arrays = class_group._compose_arrays


def _first_argument_rows(f1, f2):
    return f1.T.copy()


def _no_inverses_rows(f1, f2):
    opposite_rows = (f1[:, 0] == f2[:, 0]) & (f1[:, 1] == -f2[:, 1]) & (f1[:, 1] != 0)
    return np.where(opposite_rows, f1.T, _true_compose_arrays(f1, f2))


def _squares_principal_rows(f1, f2):
    squares = (f1 == f2).all(axis=1)
    return np.where(squares, _true_compose_arrays(f1, f1 * [1, -1, 1]), _true_compose_arrays(f1, f2))


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
        monkeypatch.setattr(class_group, "ARRAY_MIN_ROWS", float("inf"))
        monkeypatch.setattr(class_group, "_compose_triples", law)
        with pytest.raises(RuntimeError, match=message):
            build_class_group.__wrapped__(delta)

    @pytest.mark.parametrize(
        "law,delta,message",
        [
            (_first_argument_rows, -23, "not the identity"),
            (_no_inverses_rows, -23, "inverse law"),
            (_squares_principal_rows, -47, "principal genus"),
        ],
    )
    def test_wrong_law_raises_on_the_array_path(self, monkeypatch, law, delta, message):
        """The same three wrong laws, written for the array kernel."""
        monkeypatch.setattr(class_group, "ARRAY_MIN_ROWS", 0)
        monkeypatch.setattr(class_group, "_compose_arrays", law)
        with pytest.raises(RuntimeError, match=message):
            build_class_group.__wrapped__(delta)

    def test_wrong_array_law_raises_under_optimize(self):
        out = _build_under_optimize("cg.ARRAY_MIN_ROWS = 0\n"
                                    "cg._compose_arrays = lambda f1, f2: f1.T.copy()\n")
        assert "not the identity" in out

    def test_wrong_law_raises_under_optimize(self):
        out = _build_under_optimize("cg.ARRAY_MIN_ROWS = float('inf')\n"
                                    "cg._compose_triples = lambda f1, f2: f1\n")
        assert "not the identity" in out


def _build_under_optimize(setup: str) -> str:
    """Build the class group of -23 under python -O after the lines setup (with
    genusmass.class_group as cg); the RuntimeError the build raises, printed."""
    code = (
        "import sys\n"
        "import genusmass.class_group as cg\n"
        "if not sys.flags.optimize:\n"
        "    sys.exit('not optimized')\n"
        + setup
        + "try:\n"
        "    cg.build_class_group(-23)\n"
        "except RuntimeError as exc:\n"
        "    print(exc)\n"
        "else:\n"
        "    sys.exit('no error raised')\n"
    )
    src = os.path.dirname(os.path.dirname(genusmass.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    return run.stdout


def _pairs(h, rng=None, count=None):
    """Every (i, j) of h classes, or count seeded ones, as two int arrays."""
    if rng is None:
        i, j = np.divmod(np.arange(h * h), h)
        return i, j
    return np.array([rng.randrange(h) for _ in range(count)]), np.array([rng.randrange(h) for _ in range(count)])


@pytest.fixture(params=["scalar", "array"])
def compose_path(request, monkeypatch):
    """compose_stacked on its scalar loop (crossover at infinity) or on the array
    kernel (crossover at 0)."""
    monkeypatch.setattr(class_group, "ARRAY_MIN_ROWS", 0 if request.param == "array" else float("inf"))
    return request.param


def _expected_products(group, i, j):
    """The oracle's (coefficient-level composition) class of each product, checked
    against the scalar law _compose_triples on the way."""
    expected, forms = [], class_forms(group.delta)
    for a, b in zip(i.tolist(), j.tolist()):
        f1, f2 = forms[a], forms[b]
        product = class_index(group, compose_forms_oracle(f1, f2).triple())
        assert product == class_index(group, class_group._compose_triples(f1.triple(), f2.triple()))
        expected.append(product)
    return expected


class TestComposeRows:
    """compose_stacked on the stack of one group, where rows are class indices."""

    def test_every_pair_matches_oracle_and_scalar(self, compose_path):
        for delta in fundamental_deltas(-1000):
            group = build_class_group(delta)
            i, j = _pairs(class_number(group))
            products = compose_stacked(group, i, j)
            assert products.dtype == np.int64
            assert products.tolist() == _expected_products(group, i, j), delta

    @pytest.mark.parametrize("delta", [-400391, -10000003])
    def test_seeded_pairs_of_large_groups(self, compose_path, delta):
        group = build_class_group(delta)
        i, j = _pairs(class_number(group), random.Random(delta), 2000)
        assert compose_stacked(group, i, j).tolist() == _expected_products(group, i, j)

    def test_crossover_is_a_row_count(self, monkeypatch):
        """Below ARRAY_MIN_ROWS rows the scalar law runs, from it on the array kernel."""
        group = build_class_group(-84)
        calls = []
        monkeypatch.setattr(class_group, "_compose_triples",
                            lambda f1, f2: calls.append(1) or _true_compose(f1, f2))
        i, j = _pairs(class_number(group))
        monkeypatch.setattr(class_group, "ARRAY_MIN_ROWS", len(i) + 1)
        compose_stacked(group, i, j)
        assert len(calls) == len(i)
        monkeypatch.setattr(class_group, "ARRAY_MIN_ROWS", len(i))
        compose_stacked(group, i, j)
        assert len(calls) == len(i)

    def test_empty_rows(self, compose_path):
        products = compose_stacked(build_class_group(-84), [], [])
        assert products.dtype == np.int64 and products.shape == (0,)

    def test_result_that_is_no_class_raises(self, monkeypatch):
        monkeypatch.setattr(class_group, "ARRAY_MIN_ROWS", 0)
        monkeypatch.setattr(class_group, "_compose_arrays", lambda f1, f2: (f1 + [1, 0, 0]).T)
        with pytest.raises(RuntimeError, match="not a class"):
            compose_stacked(build_class_group(-84), [0, 1], [1, 2])

    def test_int64_bound(self, monkeypatch):
        """The array path refuses |delta| whose (2|delta|/3)^2 + |delta| reaches
        INT64_BOUND: 3220 at -84.  The scalar path has Python ints and no bound."""
        group = build_class_group(-84)
        i, j = _pairs(class_number(group))
        monkeypatch.setattr(class_group, "INT64_BOUND", 3221)
        monkeypatch.setattr(class_group, "ARRAY_MIN_ROWS", 0)
        assert compose_stacked(group, i, j).tolist() == [compose(group, a, b) for a, b in zip(i, j)]
        monkeypatch.setattr(class_group, "INT64_BOUND", 3220)
        with pytest.raises(ValueError, match="too large"):
            compose_stacked(group, i, j)
        monkeypatch.setattr(class_group, "ARRAY_MIN_ROWS", float("inf"))
        assert compose_stacked(group, i, j).tolist() == [compose(group, a, b) for a, b in zip(i, j)]


def _scalar_genera(delta):
    """genus_of, genus_ids and genus_signs from one scalar kronecker per class and
    prime discriminant, the first class of each sign tuple naming its genus."""
    first_of, genus_of = {}, []
    for i, q in enumerate(reduced_forms(delta).tolist()):
        r = represented_coprime_value(q, -delta)
        signs = tuple(kronecker(p, r) for p in prime_discriminant_factorization(delta))
        genus_of.append(first_of.setdefault(signs, i))
    return tuple(genus_of), tuple(first_of.values()), tuple(first_of)


class TestBuildClassGroup:
    def test_genus_signs_match_scalar_kronecker(self):
        for delta in fundamental_deltas(-3000) + [-120120, -400391]:
            group = build_class_group(delta)
            signs = tuple(map(tuple, group.genus_signs.tolist()))
            assert (genus_of(group), genus_ids(group), signs) == _scalar_genera(delta), delta

    def test_zero_assigned_character_is_a_genus_of_its_own(self, monkeypatch):
        """A 0 read from a table (here (p|1) for the largest p of -455, read for
        the principal class, whose value is 1) is kept apart from +-1: the
        principal class alone has that sign row, so the principal genus is not
        the squares, and the build refuses."""
        original = class_group.prime_discriminant_tables

        def zeroed(delta):
            tables = original(delta)
            p, table = tables[-1]
            table = table.copy()
            table[1] = 0
            return tables[:-1] + ((p, table),)

        monkeypatch.setattr(class_group, "prime_discriminant_tables", zeroed)
        with pytest.raises(RuntimeError, match="principal genus"):
            build_class_group.__wrapped__(-455)

    def test_genus_characters_read_the_tables_in_place(self):
        """At -2000003, a prime discriminant whose table holds 2 * 10^6 entries,
        the genus step allocates far less than that table."""
        delta = -2000003
        tables = class_group.prime_discriminant_tables(delta)
        forms, counts = class_group.stacked_reduced_forms([delta])
        tracemalloc.start()
        try:
            stack = class_group.class_group_stack([delta], forms, counts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stack.genus_counts.tolist() == [1] and tables[0][1].nbytes == -delta
        assert peak < -delta // 8, peak

    def test_inverses_are_the_opposite_forms(self):
        for delta in fundamental_deltas(-1000) + [-400391]:
            forms = class_forms(delta)
            for q, inverse in zip(forms, inverses(build_class_group(delta))):
                assert forms[inverse] == reduce_form(opposite(q)), (delta, q)

    def test_structures(self):
        g4 = build_class_group(-4)
        assert class_number(g4) == 1 and genus_ids(g4) == (0,)

        g20 = build_class_group(-20)
        assert class_number(g20) == 2
        assert square_classes(g20) == (0,)
        assert genus_ids(g20) == (0, 1)
        assert all(len(genus_members(g20, g)) == 1 for g in genus_ids(g20))

        g84 = build_class_group(-84)
        assert class_number(g84) == 4
        assert all(compose(g84, i, i) == principal_class(g84) for i in range(4))  # Klein four-group
        assert square_classes(g84) == (0,)
        assert len(genus_ids(g84)) == 4

        g47 = build_class_group(-47)
        assert class_number(g47) == 5
        assert square_classes(g47) == tuple(range(5))  # odd order: squaring is onto
        assert genus_ids(g47) == (0,)

    def test_rejects_non_fundamental(self):
        with pytest.raises(ValueError):
            build_class_group(-12)

    def test_genus_count_and_sizes(self):
        for delta in fundamental_deltas(-300):
            group = build_class_group(delta)
            assert len(genus_ids(group)) == 2 ** (distinct_prime_count(delta) - 1)
            sizes = {len(genus_members(group, g)) for g in genus_ids(group)}
            assert sizes == {len(square_classes(group))} == {int(group.squares[0])}
            assert len(genus_ids(group)) * len(square_classes(group)) == class_number(group)

    def test_genus_ids_are_coset_minima(self, cg84):
        for g in genus_ids(cg84):
            assert g == min(genus_members(cg84, g))

    def test_assigned_characters_take_one_value_on_shell_one(self):
        """For each prime discriminant p of delta, every value among a, c,
        a + b + c and a - b + c of a class that is prime to p gives the same
        (p|r): the rule the genera are read by, checked without the library's
        genus code."""
        for delta in fundamental_deltas(-3000):
            factors = prime_discriminant_factorization(delta)
            for q in class_forms(delta):
                shell = (q.a, q.c, q.a + q.b + q.c, q.a - q.b + q.c)
                for p in factors:
                    values = {kronecker(p, r) for r in shell if math.gcd(r, p) == 1}
                    assert len(values) == 1, (delta, q, p)

    def test_signs_where_no_shell_value_is_prime_to_delta(self):
        """(3, 0, 7) at -84 has shell values 3, 7, 10, 10, none prime to 84."""
        group = build_class_group(-84)
        k = genus_ids(group).index(genus_of(group)[class_index(group, (3, 0, 7))])
        r = represented_coprime_value((3, 0, 7), 84)
        assert group.genus_signs[k].tolist() == [kronecker(p, r) for p in prime_discriminant_factorization(-84)]


def _drop_class(monkeypatch, delta, row):
    """Build the class group of delta from its reduced forms without the given row."""
    forms = np.delete(reduced_forms(delta), row, axis=0)
    monkeypatch.setattr(class_group, "stacked_reduced_forms", lambda deltas: (forms, np.array([len(forms)])))
    return build_class_group.__wrapped__(delta)


class TestMissingClass:
    """A product or a prime ideal that is not a class raises one RuntimeError,
    naming delta, on the scalar and the array path alike."""

    def test_missing_product_on_the_scalar_path(self, monkeypatch):
        assert 3 * len(reduced_forms(-4423)) < class_group.ARRAY_MIN_ROWS
        with pytest.raises(RuntimeError, match=r"delta=-4423: the product of classes 28 and 28 is "
                                               r"\(7, -1, 158\), not a class"):
            _drop_class(monkeypatch, -4423, 5)

    def test_missing_product_on_the_array_path(self, monkeypatch):
        assert 3 * len(reduced_forms(-4151)) >= class_group.ARRAY_MIN_ROWS
        with pytest.raises(RuntimeError, match="delta=-4151: the product of classes .* not a class"):
            _drop_class(monkeypatch, -4151, 5)

    def test_missing_prime_ideal_class(self, monkeypatch):
        """Without (2, 2, 11) the rest of -84 is a group of 3 classes, so the
        build passes, and the prime ideal above 2 is the missing class."""
        group = _drop_class(monkeypatch, -84, 1)
        assert class_number(group) == 3
        with pytest.raises(RuntimeError, match=r"delta=-84: the prime ideal above 2 is \(2, 2, 11\), not a class"):
            prime_ideal_class(group, 2)

    def test_missing_principal_class(self, monkeypatch):
        with pytest.raises(RuntimeError, match=r"delta=-84: the principal form \(1, 0, 21\) is not a class"):
            _drop_class(monkeypatch, -84, 0)


PRIME_BOUND_PRIMES = tuple(primes_up_to(50))


def _scalar_prime_classes(delta):
    """(delta|p) and the scalar prime_ideal_class, -1 at an inert p, at every p <= 50."""
    group = build_class_group(delta)
    chi = [kronecker(delta, p) for p in PRIME_BOUND_PRIMES]
    return chi, [-1 if value == -1 else prime_ideal_class(group, p) for value, p in zip(chi, PRIME_BOUND_PRIMES)]


class TestPrimeIdealRows:
    """prime_ideal_rows, the prime classes of a whole stack at once, against the
    scalar kronecker and prime_ideal_class of each group alone, the prime forms
    reduced on the array path (crossover at 0) and on the scalar one."""

    @pytest.mark.parametrize("crossover", [0, float("inf")], ids=["array", "scalar"])
    def test_rows_are_the_scalar_prime_classes(self, monkeypatch, crossover):
        monkeypatch.setattr(class_group, "ARRAY_MIN_ROWS", crossover)
        deltas = fundamental_deltas(-3000) + [-400391, -10000003]
        stack = class_group.class_group_stack(deltas, *stacked_reduced_forms(deltas))
        chi, rows = class_group.prime_ideal_rows(stack, PRIME_BOUND_PRIMES)
        local = np.where(rows == -1, -1, rows - stack.starts[:, None])
        for k, delta in enumerate(deltas):
            assert (chi[k].tolist(), local[k].tolist()) == _scalar_prime_classes(delta), delta

    @pytest.mark.parametrize("crossover", [0, float("inf")], ids=["array", "scalar"])
    def test_a_prime_form_that_is_not_a_class_raises(self, monkeypatch, crossover):
        """Without (2, 2, 11), as in test_missing_prime_ideal_class, in a stack
        after -23 and before -455."""
        monkeypatch.setattr(class_group, "ARRAY_MIN_ROWS", crossover)
        deltas = [-23, -84, -455]
        forms, counts = stacked_reduced_forms(deltas)
        forms = np.delete(forms, 3 + 1, axis=0)
        stack = class_group.class_group_stack(deltas, forms, counts - [0, 1, 0])
        with pytest.raises(RuntimeError, match=r"delta=-84: the prime ideal above 2 is \(2, 2, 11\), not a class"):
            class_group.prime_ideal_rows(stack, PRIME_BOUND_PRIMES)


LAW_DELTAS = [-23, -47, -84, -455]


def _law_stack():
    """The stack of LAW_DELTAS, its law products (a copy), and each group's rows
    in the block of law (0 identity, 1 inverse, 2 squares)."""
    stack = class_group.class_group_stack(LAW_DELTAS, *stacked_reduced_forms(LAW_DELTAS))
    products = class_group.compose_stacked(stack, *class_group.law_rows(stack)).copy()

    def rows(law, delta):
        k = LAW_DELTAS.index(delta)
        return law * len(stack.classes) + int(stack.starts[k]), int(stack.starts[k])

    return stack, products, rows


class TestStackedLaws:
    """check_laws compares every group's laws at once, and names the first group
    where one fails and the first law that fails there."""

    def test_the_laws_of_a_stack_hold(self):
        stack, products, _ = _law_stack()
        class_group.check_laws(stack, products)

    def test_a_corrupted_identity_product_raises_for_its_group(self):
        stack, products, rows = _law_stack()
        at, start = rows(0, -84)
        products[at + 2] = start + 3
        with pytest.raises(RuntimeError, match=r"delta=-84: the principal class is not the identity at 2$"):
            class_group.check_laws(stack, products)

    def test_a_corrupted_inverse_product_raises_for_its_group(self):
        stack, products, rows = _law_stack()
        at, start = rows(1, -455)
        products[at + 5] = start + 1
        with pytest.raises(RuntimeError, match=r"delta=-455: the inverse law fails at 5$"):
            class_group.check_laws(stack, products)

    def test_a_square_outside_the_principal_genus_raises_for_its_group(self):
        stack, products, rows = _law_stack()
        at, start = rows(2, -455)
        group = build_class_group(-455)
        h, squares = class_number(group), square_classes(group)
        outside = next(i for i in range(h) if i not in squares)
        products[at + 7] = start + outside
        found = sorted({compose(group, i, i) for i in range(h) if i != 7} | {outside})
        message = f"delta=-455: squares {tuple(found)} are not the principal genus {squares}"
        with pytest.raises(RuntimeError) as error:
            class_group.check_laws(stack, products)
        assert str(error.value) == message

    def test_a_square_in_another_group_fails_its_own_group(self):
        """A square of -84 that lands on a class of -455 fails -84, the first
        group that holds a failure, even though -455 holds an earlier law's."""
        stack, products, rows = _law_stack()
        at, _ = rows(2, -84)
        _, start = rows(2, -455)
        products[at] = start
        unit, _ = rows(0, -455)
        products[unit + 1] = start
        with pytest.raises(RuntimeError, match=r"delta=-84: squares \(0, 4\) are not the principal genus \(0,\)$"):
            class_group.check_laws(stack, products)

    def test_genera_of_unequal_sizes_raise_for_their_group(self):
        """One class of -455 moved from a genus that is not the principal one to
        another such genus: the squares are still the principal genus."""
        stack, products, _ = _law_stack()
        k = LAW_DELTAS.index(-455)
        start, g0 = int(stack.starts[k]), int(stack.genus_starts[k])
        genus = stack.genus.copy()
        principal = genus[start]
        row = start + int(np.flatnonzero(genus[start : start + 20] != principal)[0])
        genus[row] = next(g for g in range(g0, g0 + 4) if g not in (principal, genus[row]))
        with pytest.raises(RuntimeError, match=r"delta=-455: genera of unequal sizes \[4, 5, 6\]$"):
            class_group.check_laws(stack._replace(genus=genus), products)


class TestPrimeIdealClass:
    def test_examples(self, cg20, cg23):
        assert cg20.classes[prime_ideal_class(cg20, 5)].tolist() == [1, 0, 5]
        assert cg20.classes[prime_ideal_class(cg20, 3)].tolist() == [2, 2, 3]
        assert cg23.classes[prime_ideal_class(cg23, 2)].tolist() == [2, 1, 3]

    def test_ramified_two(self, cg20):
        assert cg20.classes[prime_ideal_class(cg20, 2)].tolist() == [2, 2, 3]

    def test_rejects_inert(self, cg20):
        with pytest.raises(ValueError):
            prime_ideal_class(cg20, 11)
        with pytest.raises(ValueError):
            prime_form(-20, 11)

    def test_error_texts(self, cg20):
        with pytest.raises(ValueError, match=r"^4 is not prime$"):
            prime_ideal_class(cg20, 4)
        with pytest.raises(ValueError, match=r"^11 is inert for discriminant -20: no ideal of norm 11$"):
            prime_ideal_class(cg20, 11)

    def test_class_is_the_reduced_prime_form(self):
        """The class read from the residue tables is the oracle's prime form,
        reduced and found among the classes, at every non-inert p <= 50."""
        for delta in fundamental_deltas(-3000) + [-400391]:
            group = build_class_group(delta)
            forms = class_forms(delta)
            for p in PRIME_BOUND_PRIMES:
                if kronecker(delta, p) == -1:
                    continue
                expected = forms.index(reduce_form(QuadForm(*prime_form(delta, p))))
                assert prime_ideal_class(group, p) == expected, (delta, p)

    def test_a_larger_stack_is_refused(self):
        deltas = [-20, -23]
        stack = class_group.class_group_stack(deltas, *stacked_reduced_forms(deltas))
        with pytest.raises(ValueError, match="a stack of 2 groups has no one delta"):
            prime_ideal_class(stack, 3)

    def test_prime_form_shape(self):
        for delta in (-20, -23, -84):
            for p in primes_up_to(30):
                if kronecker(delta, p) == -1:
                    continue
                q = QuadForm(*prime_form(delta, p))
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
                    assert ideal_to_form(product) == class_forms(delta)[principal_class(group)]
                    assert compose(group, hp, inverse(group, hp)) == principal_class(group)
                else:
                    assert compose(group, hp, hp) == principal_class(group)


class TestStackOfOne:
    """One class group is a stack of one: build_class_group's is shared through
    its cache by every later request for its delta, so neither it nor a group
    sliced out of a larger stack may take a write."""

    DELTAS = [-3, -84, -455, -120120]

    def test_every_array_refuses_a_write(self):
        stack = class_group.class_group_stack(self.DELTAS, *stacked_reduced_forms(self.DELTAS))
        groups = [build_class_group(-84), stack] + [stack.group(k) for k in range(len(self.DELTAS))]
        for group in groups:
            assert isinstance(group.deltas, tuple)
            for name, array in group._asdict().items():
                if name != "deltas":
                    with pytest.raises(ValueError, match="read-only"):
                        array[...] = 0
        assert build_class_group(-84).classes.tolist() == reduced_forms(-84).tolist()

    def test_a_sliced_group_is_the_group_built_alone(self):
        """Stack.group(k) rebases its rows: every array equals that of the group
        of delta_k built alone."""
        stack = class_group.class_group_stack(self.DELTAS, *stacked_reduced_forms(self.DELTAS))
        for k, delta in enumerate(self.DELTAS):
            group, alone = stack.group(k), build_class_group(delta)
            assert group.delta == alone.delta == delta
            for name, array in alone._asdict().items():
                if name != "deltas":
                    assert np.array_equal(getattr(group, name), array), (delta, name)

    def test_delta_needs_a_stack_of_one(self):
        stack = class_group.class_group_stack(self.DELTAS, *stacked_reduced_forms(self.DELTAS))
        with pytest.raises(ValueError, match="a stack of 4 groups has no one delta"):
            stack.delta


class TestIdealProducts:
    def test_product_norms_multiply(self, cg23):
        i1 = form_to_ideal(class_forms(-23)[1])
        i2 = form_to_ideal(class_forms(-23)[2])
        assert ideal_mul(i1, i2).norm == i1.norm * i2.norm

    def test_mixed_discriminants_rejected(self):
        with pytest.raises(ValueError):
            ideal_mul(form_to_ideal(QuadForm(1, 0, 1)), form_to_ideal(QuadForm(1, 0, 5)))

    def test_scale_is_principal_multiplication(self, cg20):
        ideal = form_to_ideal(class_forms(-20)[1])
        scaled = ideal_scale(ideal, 7)
        assert ideal_to_form(scaled) == ideal_to_form(ideal)
