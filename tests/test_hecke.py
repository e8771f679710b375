import json

import pytest
from hypothesis import given, settings, strategies as st

import genusmass.class_group as class_group
import genusmass.hecke as hecke

from genusmass.arith import kronecker, primes_up_to
from genusmass.class_group import build_class_group, prime_ideal_class
from genusmass.hecke import (
    check_eigenform,
    check_genus_permutation,
    check_inert_theta,
    check_ramified_theta,
    check_split_theta,
)
from genusmass.qseries import QSeries, apply_T, apply_U
from genusmass.series import genus_eisenstein, theta_series
from genusmass.verify import run_suite
from oracles import (
    agrees_with,
    build_layers,
    class_forms,
    class_number,
    classify_prime,
    compose,
    form_to_ideal,
    fundamental_deltas,
    genus_ids,
    genus_of,
    genus_product,
    ideal_conj,
    ideal_mul,
    ideal_points_up_to_norm,
    ideal_scale,
    inverse,
    prime_checks,
    prime_ideal,
    principal_class,
    principal_genus,
)

HECKE_DELTAS = (-20, -23, -47, -84, -120)


def eigenform(delta, p, n_max):
    """check_eigenform at p on the class-group total of delta's layers."""
    layers = build_layers(delta, n_max, p)
    return check_eigenform(layers.group, p, layers.theta.sum(axis=0), layers.primes)


def per_class(check, delta, p, n_max):
    """A per-class check_* function at p on the theta matrix of delta's layers."""
    layers = build_layers(delta, n_max, p)
    return check(layers.group, p, layers.theta, layers.primes)


def genus_permutation(delta, p, n_max):
    """check_genus_permutation at p on the genus sums of delta's layers."""
    layers = build_layers(delta, n_max, p)
    return check_genus_permutation(layers.group, p, layers.sums, layers.primes)


class TestEigenform:
    @pytest.mark.parametrize(
        "delta,p,kind",
        [(-4, 5, "split"), (-4, 3, "inert"), (-20, 5, "ramified"), (-23, 2, "split")],
    )
    def test_examples(self, delta, p, kind):
        result = eigenform(delta, p, 60)
        assert result.name == f"eigenform[p={p}]"
        assert result.detail.startswith(f"{kind}; ")
        assert result.status == "pass" and result.passed
        assert result.first_mismatch is None

    def test_explicit_values(self):
        # split p=5 for x^2+y^2: a(5) = 8 = 2*a(1)
        group = build_class_group(-4)
        theta = theta_series(group, 0, 10)
        assert theta[5] == 8 == 2 * theta[1]
        assert theta[3] == 0  # inert p=3 at n=1

    @given(st.sampled_from(fundamental_deltas(-200)), st.sampled_from(primes_up_to(30)))
    @settings(max_examples=150, deadline=None)
    def test_holds_everywhere(self, delta, p):
        result = eigenform(delta, p, 80)
        assert result.passed, result.to_dict()


class TestPerClassIdentities:
    def test_split_example_minus20(self):
        # p = 3: both prime classes land in the [2,2,3] class
        group = build_class_group(-20)
        hp = prime_ideal_class(group, 3)
        assert group.classes[hp].tolist() == [2, 2, 3]
        assert inverse(group, hp) == hp
        lhs = apply_T(theta_series(group, principal_class(group), 60), 3)
        rhs = theta_series(group, hp, 60).scale(2)
        assert agrees_with(lhs, rhs, lo=1)
        assert per_class(check_split_theta, -20, 3, 60).passed

    def test_split_example_minus23(self):
        group = build_class_group(-23)
        lhs = apply_T(theta_series(group, principal_class(group), 60), 2)
        rhs = theta_series(group, 1, 60) + theta_series(group, 2, 60)
        assert agrees_with(lhs, rhs, lo=1)
        assert per_class(check_split_theta, -23, 2, 60).passed

    def test_ramified_examples(self):
        group = build_class_group(-20)
        # p=2: prime class is [2,2,3]
        hp = prime_ideal_class(group, 2)
        lhs = apply_U(theta_series(group, principal_class(group), 60), 2)
        assert agrees_with(lhs, theta_series(group, hp, 60), lo=1)
        assert per_class(check_ramified_theta, -20, 2, 60).passed
        # p=5: prime class is principal, U_5 fixes every theta
        hp5 = prime_ideal_class(group, 5)
        assert hp5 == principal_class(group)
        for h in range(class_number(group)):
            lhs = apply_U(theta_series(group, h, 60), 5)
            assert agrees_with(lhs, theta_series(group, h, 60), lo=1)
        assert per_class(check_ramified_theta, -20, 5, 60).passed

    def test_ramified_twice_returns(self):
        group = build_class_group(-20)
        for p in (2, 5):
            for h in range(class_number(group)):
                twice = apply_U(apply_U(theta_series(group, h, 100), p), p)
                assert agrees_with(twice, theta_series(group, h, 100), lo=1)

    @pytest.mark.parametrize("delta,p", [(-4, 3), (-20, 11), (-3, 2)])
    def test_inert_examples(self, delta, p):
        assert classify_prime(delta, p) == "inert"
        result = per_class(check_inert_theta, delta, p, 60)
        assert result.passed

    def test_type_validation(self):
        with pytest.raises(ValueError):
            per_class(check_split_theta, -20, 2, 30)
        with pytest.raises(ValueError):
            per_class(check_ramified_theta, -20, 3, 30)
        with pytest.raises(ValueError):
            per_class(check_inert_theta, -20, 5, 30)
        with pytest.raises(ValueError):
            genus_permutation(-20, 11, 30)

    def test_exactly_one_applies(self):
        for delta in HECKE_DELTAS:
            layers = build_layers(delta, 60, 30)
            for p in primes_up_to(30):
                kind = classify_prime(delta, p)
                checks = {
                    "split": check_split_theta,
                    "ramified": check_ramified_theta,
                    "inert": check_inert_theta,
                }
                result = checks[kind](layers.group, p, layers.theta, layers.primes)
                assert result.passed, result.to_dict()
                for other_kind, check in checks.items():
                    if other_kind != kind:
                        with pytest.raises(ValueError):
                            check(layers.group, p, layers.theta, layers.primes)

    def test_split_translates_share_genus(self):
        for delta in HECKE_DELTAS:
            group = build_class_group(delta)
            for p in primes_up_to(30):
                if kronecker(delta, p) != 1:
                    continue
                hp = prime_ideal_class(group, p)
                hp_conj = inverse(group, hp)
                for h in range(class_number(group)):
                    g1 = genus_of(group)[compose(group, h, hp)]
                    g2 = genus_of(group)[compose(group, h, hp_conj)]
                    assert g1 == g2

    def test_conjugate_translate_from_the_inverse_map(self):
        for delta in fundamental_deltas(-1000) + [-400391]:
            group = build_class_group(delta)
            layer = build_layers(delta, 0, 50).primes
            for p in primes_up_to(50):
                if kronecker(delta, p) != 1:
                    continue
                hp = prime_ideal_class(group, p)
                assert layer.perms[p].tolist() == [compose(group, h, hp) for h in range(class_number(group))]
                expected = [compose(group, h, inverse(group, hp)) for h in range(class_number(group))]
                assert layer.conjugates[p].tolist() == expected, (delta, p)


class TestPrimeLayer:
    @pytest.mark.parametrize("delta", [-84, -455, -400391])
    def test_one_character_value_and_prime_class_per_prime(self, monkeypatch, delta):
        """A suite run reads (delta|p) and the prime class of each p for all
        primes at once, from one prime_ideal_rows call on its batch, for all the
        identities at all the primes, and no scalar kronecker or
        prime_ideal_class; what it reads is theirs."""
        calls = []
        rows = hecke.prime_ideal_rows

        def counted(stack, primes):
            calls.append((list(stack.deltas), primes))
            found = rows(stack, primes)
            calls.append(found)
            return found

        def refused(*args):
            raise AssertionError("a scalar prime class")

        monkeypatch.setattr(hecke, "prime_ideal_rows", counted)
        for name in ("is_prime", "prime_ideal_class"):
            monkeypatch.setattr(class_group, name, refused)
        report = run_suite([delta], n_max=30, primes_bound=50, workers=1)[0]
        assert report.passed
        primes = tuple(primes_up_to(50))
        (called, (chi, classes)) = calls[0], calls[1]
        assert len(calls) == 2 and called == ([delta], primes)
        monkeypatch.undo()
        group = build_class_group(delta)
        assert chi[0].tolist() == [kronecker(delta, p) for p in primes]
        assert classes[0].tolist() == [-1 if kronecker(delta, p) == -1 else prime_ideal_class(group, p)
                                       for p in primes]

    def test_genus_targets_are_the_genera_of_the_translates(self):
        for delta in (-84, -420, -5460, -120120):
            group = build_class_group(delta)
            layer = build_layers(delta, 0, 30).primes
            for p, perm in layer.perms.items():
                assert layer.genus_row.tolist() == [genus_ids(group).index(g) for g in genus_of(group)]
                gp = genus_of(group)[prime_ideal_class(group, p)]
                expected = [genus_ids(group).index(genus_product(group, g, gp)) for g in genus_ids(group)]
                assert layer.genus_row[perm[list(genus_ids(group))]].tolist() == expected, (delta, p)

    def test_composite_p_is_refused(self):
        with pytest.raises(ValueError, match="not prime"):
            eigenform(-84, 9, 20)


def genus_series(group, genus_id, n_max) -> QSeries:
    return QSeries(group.delta, *genus_eisenstein(group, n_max, genus_id))


class TestGenusPermutation:
    def test_examples_minus20(self):
        group = build_class_group(-20)
        principal = principal_genus(group)
        other = [g for g in genus_ids(group) if g != principal][0]
        # split p=3 doubles and moves to the nonprincipal genus
        lhs = apply_T(genus_series(group, principal, 60), 3)
        assert agrees_with(lhs, genus_series(group, other, 60).scale(2), lo=1)
        # ramified p=2 permutes without doubling
        lhs = apply_T(genus_series(group, principal, 60), 2)
        assert agrees_with(lhs, genus_series(group, other, 60), lo=1)
        assert genus_permutation(-20, 3, 60).passed
        assert genus_permutation(-20, 2, 60).passed

    def test_full_table_minus84(self):
        group = build_class_group(-84)
        assert classify_prime(-84, 5) == "split"
        result = genus_permutation(-84, 5, 80)
        assert result.passed
        # the permutation is consistent with translation by the prime's genus
        hp = prime_ideal_class(group, 5)
        gp = genus_of(group)[hp]
        for g in genus_ids(group):
            lhs = apply_T(genus_series(group, g, 80), 5)
            rhs = genus_series(group, genus_product(group, g, gp), 80).scale(2)
            assert agrees_with(lhs, rhs, lo=1)

    def test_all_hecke_deltas(self):
        for delta in HECKE_DELTAS:
            layers = build_layers(delta, 60, 30)
            for p in primes_up_to(30):
                if kronecker(delta, p) == -1:
                    continue
                record = check_genus_permutation(layers.group, p, layers.sums, layers.primes)
                assert record.passed, (delta, p)


class TestLatticeInclusionExclusion:
    def test_split_intersection_is_scaled_ideal(self):
        # I*p intersect I*p' = (p) I, verified pointwise up to the n <= 30 ellipse
        for delta in (-20, -23):
            group = build_class_group(delta)
            for p in primes_up_to(20):
                if kronecker(delta, p) != 1:
                    continue
                frakp = prime_ideal(delta, p)
                frakp_conj = ideal_conj(frakp)
                for h in range(class_number(group)):
                    ideal = form_to_ideal(class_forms(delta)[h])
                    bound = 30 * p * ideal.norm
                    left = ideal_mul(ideal, frakp)
                    right = ideal_mul(ideal, frakp_conj)
                    both = set(ideal_points_up_to_norm(left, bound)) & set(
                        ideal_points_up_to_norm(right, bound)
                    )
                    scaled = set(ideal_points_up_to_norm(ideal_scale(ideal, p), bound))
                    assert both == scaled, (delta, p, h)


class TestResultRecords:
    def test_json_line(self):
        result = eigenform(-20, 3, 40)
        data = json.loads(json.dumps(result.to_dict()))
        assert data == {
            "name": "eigenform[p=3]",
            "pass": True,
            "status": "pass",
            "detail": "split; n=1..13 exact",
            "elapsed_ms": 0.0,
        }

    def test_prime_checks_bundle(self):
        layers = build_layers(-20, 40, 11)
        records = [(r.name, r.status) for r in prime_checks(layers, 3)]
        assert records == [("eigenform[p=3]", "pass"), ("theta_split[p=3]", "pass"),
                           ("genus_permutation[p=3]", "pass")]
        records = list(prime_checks(layers, 11))
        assert [(r.name, r.status) for r in records] == [
            ("eigenform[p=11]", "pass"), ("theta_inert[p=11]", "pass"), ("genus_permutation[p=11]", "skip"),
        ]
        assert records[-1].passed and records[-1].detail == "skipped: p inert, no genus translate"
