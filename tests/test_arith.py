import math

import pytest
from hypothesis import given, strategies as st

from genusmass.arith import (
    ext_gcd,
    factorize,
    is_fundamental,
    is_prime,
    is_squarefree,
    kronecker,
    prime_discriminant_factorization,
    primes_up_to,
)
from oracles import (
    distinct_prime_count,
    divisors,
    fundamental_deltas,
    is_fundamental_discriminant,
    is_fundamental_oracle,
    sqrt_mod_exists,
)


class TestKronecker:
    @pytest.mark.parametrize(
        "m,n,expected",
        [
            (-4, 5, 1),     # x^2 = -4 = 1 (mod 5) solvable
            (-4, 2, 0),     # shared factor 2
            (-3, 2, -1),    # -3 = 5 (mod 8)
            (-20, 1, 1),
            (-3, 1, 1),
            (5, 2, -1),
            (1, 0, 1),
            (-1, 0, 1),
            (2, 0, 0),
            (7, -1, 1),
            (-7, -1, -1),
            (0, 3, 0),
            (0, 1, 1),
        ],
    )
    def test_values(self, m, n, expected):
        assert kronecker(m, n) == expected

    @given(
        st.integers(min_value=-10**6, max_value=10**6),
        st.integers(min_value=1, max_value=10**4),
        st.integers(min_value=1, max_value=10**4),
    )
    def test_multiplicative_in_n(self, m, n1, n2):
        assert kronecker(m, n1 * n2) == kronecker(m, n1) * kronecker(m, n2)

    @given(
        st.integers(min_value=-10**4, max_value=10**4),
        st.integers(min_value=-10**4, max_value=10**4),
        st.integers(min_value=1, max_value=10**4),
    )
    def test_multiplicative_in_m(self, m1, m2, n):
        assert kronecker(m1 * m2, n) == kronecker(m1, n) * kronecker(m2, n)

    def test_matches_quadratic_residues(self):
        # for odd p not dividing delta the symbol detects solvability of x^2 = delta
        for delta in fundamental_deltas(-100):
            for p in primes_up_to(100):
                if p == 2 or delta % p == 0:
                    continue
                expected = 1 if sqrt_mod_exists(delta, p) else -1
                assert kronecker(delta, p) == expected, (delta, p)

    def test_periodic_mod_discriminant(self):
        for delta in (-3, -4, -20, -23):
            for n in range(1, 3 * abs(delta)):
                assert kronecker(delta, n) == kronecker(delta, n + abs(delta))


class TestFundamental:
    @pytest.mark.parametrize("delta,expected", [(-4, True), (-3, True), (-12, False),
                                                (-8, True), (-20, True), (-9, False),
                                                (-16, False), (-7, True), (-100, False)])
    def test_values(self, delta, expected):
        assert is_fundamental(delta) is expected

    def test_rejects_nonnegative(self):
        for delta in (0, 1, 5, 8):
            with pytest.raises(ValueError):
                is_fundamental(delta)

    def test_against_square_multiple_oracle(self):
        for delta in range(-1, -400, -1):
            if delta % 4 in (2, 3):
                continue
            assert is_fundamental(delta) == is_fundamental_oracle(delta), delta

    def test_near_the_cli_bound(self):
        """p^2 factors near the largest that a delta = 1 (mod 4) or 4 m down to
        -4 * 10^9 can hold (3 p^2 and 4 * 3 p^2 at most 4 * 10^9), their
        neighbours 3 p^2 + 4 k, and products of two primes near isqrt(4 * 10^9)."""
        near = primes_up_to(63245)
        big = [p for p in near if p > 63000]
        two_squares = [p for p in near if p <= 36514][-4:]
        four_squares = [p for p in near if p <= 18257][-4:]
        assert not any(is_fundamental(-3 * p * p) for p in two_squares)
        assert not any(is_fundamental(-12 * p * p) for p in four_squares)
        neighbours = [-3 * p * p - 4 * k for p in two_squares for k in (1, 2)]
        flags = [is_fundamental(d) for d in neighbours]
        assert flags == [is_fundamental_oracle(d) for d in neighbours]
        assert any(flags) and not all(flags)
        products = [-p * q for p in big[:4] for q in big[-4:] if p * q % 4 == 3]
        assert products and all(is_fundamental(d) for d in products)

    def test_two_sided_predicate(self):
        assert is_fundamental_discriminant(1)
        for d in (5, 8, -8, -4, -3, 13, 12):
            assert is_fundamental_discriminant(d)
        for d in (0, 2, 3, -1, 4, 9, 16, -12):
            assert not is_fundamental_discriminant(d)


class TestFactorize:
    @pytest.mark.parametrize(
        "n,expected",
        [(1, ()), (84, ((2, 2), (3, 1), (7, 1))), (97, ((97, 1),)), (2**10, ((2, 10),))],
    )
    def test_values(self, n, expected):
        assert factorize(n) == expected

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            factorize(0)

    @given(st.integers(min_value=1, max_value=10**6))
    def test_reassembles(self, n):
        facs = factorize(n)
        assert math.prod(p**e for p, e in facs) == n
        assert [p for p, _ in facs] == sorted({p for p, _ in facs})
        for p, _ in facs:
            assert is_prime(p)


class TestDivisors:
    @pytest.mark.parametrize("n,expected", [(1, [1]), (12, [1, 2, 3, 4, 6, 12]), (49, [1, 7, 49])])
    def test_values(self, n, expected):
        assert divisors(n) == expected

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            divisors(0)

    def test_complete_against_scan(self):
        for n in range(1, 300):
            assert divisors(n) == [t for t in range(1, n + 1) if n % t == 0]


class TestPrimeDiscriminants:
    @pytest.mark.parametrize(
        "delta,expected",
        [(-20, {-4, 5}), (-84, {-4, -3, -7}), (-3, {-3}), (-8, {-8}), (-24, {-3, 8}),
         (-40, {-8, 5}), (-4, {-4})],
    )
    def test_values(self, delta, expected):
        assert set(prime_discriminant_factorization(delta)) == expected

    def test_rejects_non_fundamental(self):
        with pytest.raises(ValueError):
            prime_discriminant_factorization(-12)

    def test_invariants(self):
        allowed_even = {-4, 8, -8}
        for delta in fundamental_deltas(-400):
            factors = prime_discriminant_factorization(delta)
            assert math.prod(factors) == delta
            assert len(factors) == distinct_prime_count(delta)
            for f in factors:
                assert is_fundamental_discriminant(f)
                if f % 2 == 0:
                    assert f in allowed_even
                else:
                    p = abs(f)
                    assert is_prime(p)
                    assert f == (p if p % 4 == 1 else -p)
            evens = [f for f in factors if f % 2 == 0]
            assert len(evens) <= 1
            odd = [abs(f) for f in factors if f % 2]
            assert len(set(odd)) == len(odd)


class TestHelpers:
    def test_primes_up_to(self):
        assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
        assert primes_up_to(1) == []

    def test_is_squarefree(self):
        assert is_squarefree(-15) and is_squarefree(1) and not is_squarefree(12)
        assert not is_squarefree(0)

    @given(st.integers(min_value=-500, max_value=500), st.integers(min_value=-500, max_value=500))
    def test_ext_gcd(self, a, b):
        g, x, y = ext_gcd(a, b)
        assert g == math.gcd(a, b)
        assert a * x + b * y == g
