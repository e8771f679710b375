"""Reference values computed without genusmass.

The benchmark checks the program against these, so nothing here imports the
package under test: the Kronecker symbol, the class number, genera, theta
coefficients and Eisenstein coefficients all come from separate code, by
different algorithms where a different one is cheap.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations


def kronecker(m: int, n: int) -> int:
    """Kronecker symbol (m|n) for n >= 0, via the binary Jacobi algorithm."""
    if n == 0:
        return 1 if abs(m) == 1 else 0
    sign = 1
    twos = (n & -n).bit_length() - 1
    if twos:
        if m % 2 == 0:
            return 0
        n >>= twos
        if twos % 2 and m % 8 in (3, 5):
            sign = -sign
    m %= n
    while m:
        while m % 2 == 0:
            m //= 2
            if n % 8 in (3, 5):
                sign = -sign
        m, n = n, m
        if m % 4 == 3 and n % 4 == 3:
            sign = -sign
        m %= n
    return sign if n == 1 else 0


def prime_factors(n: int) -> list[int]:
    """Distinct primes dividing n >= 1, ascending."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out.append(n)
    return out


def _squarefree(n: int) -> bool:
    p = 2
    while p * p <= n:
        if n % (p * p) == 0:
            return False
        if n % p == 0:
            n //= p
        p += 1 if p == 2 else 2
    return True


def is_fundamental(delta: int) -> bool:
    """delta < 0 is a fundamental discriminant."""
    if delta >= 0:
        return False
    if delta % 4 == 1:
        return _squarefree(-delta)
    if delta % 4 == 0:
        return (delta // 4) % 4 in (2, 3) and _squarefree(-delta // 4)
    return False


def fundamentals(lo: int, hi: int) -> list[int]:
    """Negative fundamental discriminants in [lo, hi], from hi downwards."""
    return [d for d in range(hi, lo - 1, -1) if is_fundamental(d)]


def units(delta: int) -> int:
    return {-3: 6, -4: 4}.get(delta, 2)


@lru_cache(maxsize=256)
def reduced_triples(delta: int) -> tuple[tuple[int, int, int], ...]:
    """Reduced forms (a, b, c) of discriminant delta, sorted.

    Runs over b >= 0 and the divisors a of (b^2 - delta)/4 with b <= a <= c
    (Cohen, GTM 138, Alg. 5.3.5), adding (a, -b, c) off the boundary.
    """
    out = []
    b = delta % 2
    bound = math.isqrt(-delta // 3)
    while b <= bound:
        q = (b * b - delta) // 4
        a = max(b, 1)
        while a * a <= q:
            if q % a == 0:
                c = q // a
                if math.gcd(math.gcd(a, b), c) == 1:
                    out.append((a, b, c))
                    if 0 < b < a < c:
                        out.append((a, -b, c))
            a += 1
        b += 2
    return tuple(sorted(out))


def class_number(delta: int) -> int:
    return len(reduced_triples(delta))


def prime_discriminants(delta: int) -> list[int]:
    """The prime discriminants (-4, +-8, p*) whose product is delta."""
    odd = [p if p % 4 == 1 else -p for p in prime_factors(-delta) if p != 2]
    even = delta // math.prod(odd)
    return odd + ([even] if even != 1 else [])


def character_ds(delta: int) -> list[int]:
    """Positive d over all splittings delta = d * D into discriminants, ascending."""
    factors = prime_discriminants(delta)
    ds = {math.prod(s) for k in range(len(factors) + 1) for s in combinations(factors, k)}
    return sorted(d for d in ds if d > 0)


def genus_of(delta: int) -> list[int]:
    """Genus id of each reduced class: the smallest class index with the same
    assigned-character values on a represented value coprime to delta."""
    factors = prime_discriminants(delta)
    first: dict[tuple[int, ...], int] = {}
    out = []
    for i, (a, b, c) in enumerate(reduced_triples(delta)):
        m = _represented_coprime(a, b, c, delta)
        key = tuple(kronecker(f, m) for f in factors)
        out.append(first.setdefault(key, i))
    return out


def _represented_coprime(a: int, b: int, c: int, delta: int) -> int:
    for k in range(1, 64):
        for x in range(-k, k + 1):
            for y in (k, -k) if abs(x) < k else range(-k, k + 1):
                m = a * x * x + b * x * y + c * y * y
                if math.gcd(m, delta) == 1:
                    return m
    raise ValueError(f"no value of ({a},{b},{c}) coprime to {delta} found")


def theta_counts(form: tuple[int, int, int], n_max: int) -> list[int]:
    """r(Q, n) for n = 0..n_max by counting every lattice point of a bounding box."""
    a, b, c = form
    disc = 4 * a * c - b * b
    xm = math.isqrt(4 * c * n_max // disc) + 1
    ym = math.isqrt(4 * a * n_max // disc) + 1
    counts = [0] * (n_max + 1)
    for x in range(-xm, xm + 1):
        for y in range(-ym, ym + 1):
            v = a * x * x + b * x * y + c * y * y
            if v <= n_max:
                counts[v] += 1
    return counts


def eisenstein_coeffs(d: int, big_d: int, n_max: int) -> list[Fraction]:
    """sum_{t | n} (d | n/t)(D | t) for n >= 1; constant term h/w when d = 1, else 0."""
    delta = d * big_d
    out = [Fraction(0)] * (n_max + 1)
    if d == 1:
        out[0] = Fraction(class_number(delta), units(delta))
    for n in range(1, n_max + 1):
        out[n] = Fraction(sum(
            kronecker(d, n // t) * kronecker(big_d, t) for t in range(1, n + 1) if n % t == 0
        ))
    return out


def genus_average(delta: int, genus_id: int, n_max: int) -> list[Fraction]:
    """Mean of the theta series over the classes of one genus."""
    forms = reduced_triples(delta)
    members = [i for i, g in enumerate(genus_of(delta)) if g == genus_id]
    total = [0] * (n_max + 1)
    for i in members:
        total = [s + r for s, r in zip(total, theta_counts(forms[i], n_max))]
    return [Fraction(s, len(members)) for s in total]


def series_reference(delta: int, which: str, n_max: int) -> list[Fraction]:
    """Expected coefficients for a `series --which kind:index` request."""
    kind, _, arg = which.partition(":")
    index = int(arg)
    if kind == "theta":
        return [Fraction(r) for r in theta_counts(reduced_triples(delta)[index], n_max)]
    if kind == "genus":
        return genus_average(delta, index, n_max)
    if kind in ("eisenstein", "twisted"):
        # the twisted theta sum equals E_{d,D} coefficientwise (the identity under test)
        return eisenstein_coeffs(index, delta // index, n_max)
    raise ValueError(f"unknown series kind {kind!r}")
