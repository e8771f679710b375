"""Independent brute-force oracles the tests check the library against.

Everything here is deliberately naive: box scans, full enumeration, the
scalar representation count, the per-form ellipse sweep that preceded the
all-classes lattice kernel, the classical coefficient-level composition
formula, genus character values from a fresh represented value per genus, the
twisted sums, genus averages and mass-formula series one character or one
genus at a time (the loops the genus character table replaced), with the
details the two genus checks report when found that way, the ideal lattices
of the maximal order with the full h x h composition table built from them,
the scalar L(1) partial sums, L(0) as the weighted sum over the whole period
that preceded Dirichlet's half-range sum, the q-series operators on
tuples of Fraction that preceded the integer-vector series, and the per-t
divisor-sum sieve that preceded the convolution kernel, all kept separate from
the library's code paths.  Helpers only the tests need live here too: the
divisor list of n, one period of the Kronecker character of delta, the type
of a prime, the prime form of a non-inert prime, the h, w, principal class,
inverses, classes, genera and squares of a class group read off its stack of
one as Python ints and tuples, the product, inverse, genus product and
principal genus of classes one at a time, the QuadForm type with its
reduction, which the library replaced by rows of an integer array, the
per-prime loop of
check_* calls that the prime sweep replaced, the scalar search for the
smallest value of a form coprime to a modulus, which the per-prime reading of
the assigned characters replaced, the two-sided fundamental discriminant
predicate, the Kronecker values (a|m) of a window read from the
prime-discriminant tables, the column sums of a theta matrix, and the layers
of one discriminant built as a batch of one.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from genusmass.arith import (
    ext_gcd,
    factorize,
    is_fundamental,
    is_prime,
    is_squarefree,
    kronecker,
    prime_discriminant_tables,
)
from genusmass.class_group import Stack, compose_stacked
from genusmass.forms import reduce_triple, reduced_forms, stacked_reduced_forms
from genusmass.genus import build_genus_characters, character_pairs
from genusmass.hecke import (
    CheckRecord,
    Layers,
    check_eigenform,
    check_genus_permutation,
    check_inert_theta,
    check_ramified_theta,
    check_split_theta,
)
from genusmass.qseries import QSeries
from genusmass.series import _periodic, eisenstein_series, theta_matrix
from genusmass.verify import _batch_layers, batch_record


@dataclass(frozen=True, order=True)
class QuadForm:
    """An integral form a*x^2 + b*x*y + c*y^2, positive definite and primitive."""

    a: int
    b: int
    c: int

    def __post_init__(self) -> None:
        if self.a <= 0:
            raise ValueError(f"leading coefficient must be positive: ({self.a},{self.b},{self.c})")
        if self.discriminant() >= 0:
            raise ValueError(f"form is not positive definite: ({self.a},{self.b},{self.c})")
        if math.gcd(self.a, math.gcd(self.b, self.c)) != 1:
            raise ValueError(f"form is not primitive: ({self.a},{self.b},{self.c})")

    def __repr__(self) -> str:
        return f"[{self.a},{self.b},{self.c}]"

    def triple(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.c)

    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def __call__(self, x: int, y: int) -> int:
        return self.a * x * x + self.b * x * y + self.c * y * y


def reduce_form(q: QuadForm) -> QuadForm:
    """The unique reduced form SL2(Z)-equivalent to q."""
    return QuadForm(*reduce_triple(q.a, q.b, q.c))


def class_forms(delta: int) -> tuple[QuadForm, ...]:
    """The rows of the library's reduced_forms(delta), as QuadForms."""
    return tuple(QuadForm(*row) for row in reduced_forms(delta).tolist())


# Textbook class numbers for negative fundamental discriminants.
KNOWN_CLASS_NUMBERS = {
    -3: 1, -4: 1, -7: 1, -8: 1, -11: 1, -15: 2, -19: 1, -20: 2, -23: 3,
    -24: 2, -31: 3, -35: 2, -39: 4, -40: 2, -43: 1, -47: 5, -52: 2,
    -56: 4, -59: 3, -67: 1, -71: 7, -84: 4, -120: 4, -163: 1,
}


def fundamental_deltas(lo: int, hi: int = -3) -> list[int]:
    """Fundamental discriminants from hi down to lo (both negative)."""
    out = []
    for delta in range(hi, lo - 1, -1):
        if delta % 4 in (0, 1) and is_fundamental(delta):
            out.append(delta)
    return out


def is_fundamental_discriminant(d: int) -> bool:
    """Two-sided fundamental-discriminant predicate; 1 counts as the trivial one."""
    if d == 1:
        return True
    if d == 0:
        return False
    if d % 4 == 1:
        return is_squarefree(d)
    if d % 4 == 0:
        m = d // 4
        return m % 4 in (2, 3) and is_squarefree(m)
    return False


def represented_coprime_value(q: tuple[int, int, int], d: int) -> int:
    """Smallest positive value of the primitive form q = (a, b, c) coprime to d,
    by expanding square shells.

    Primitive forms represent values coprime to any fixed modulus, so the
    search never legitimately exhausts its |x|,|y| <= 4d region.
    """
    if d < 1:
        raise ValueError(f"expected d >= 1, got {d}")
    a, b, c = q
    for k in range(1, 4 * d + 1):
        best = None
        for x in range(-k, k + 1):
            ys = (-k, k) if abs(x) < k else range(-k, k + 1)
            for y in ys:
                value = a * x * x + b * x * y + c * y * y
                if value > 0 and math.gcd(value, d) == 1 and (best is None or value < best):
                    best = value
        if best is not None:
            return best
    raise RuntimeError(f"no value of {q} coprime to {d} in |x|,|y| <= {4 * d}")


def is_fundamental_oracle(delta: int) -> bool:
    """delta < 0 is fundamental iff no f > 1 has delta/f^2 a discriminant."""
    if delta % 4 not in (0, 1):
        return False
    for f in range(2, math.isqrt(-delta) + 1):
        if delta % (f * f) == 0 and (delta // (f * f)) % 4 in (0, 1):
            return False
    return True


def divisors(n: int) -> list[int]:
    """All positive divisors of n >= 1, ascending."""
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def kronecker_values(delta: int, a: int, start: int, stop: int) -> np.ndarray:
    """[(a|m) for start <= m < stop] as int8, where a is delta or a product of
    some of its prime discriminants (the d or D of a character pair).

    (a|m) is the product of (p|m) over the prime discriminants p of a, and each
    (p|m) is the table of p read at m mod |p|."""
    out = np.ones(stop - start, dtype=np.int8)
    product = 1
    for p, table in prime_discriminant_tables(delta):
        if a % p == 0:
            out *= _periodic(table, start, stop)
            product *= p
    if product != a:
        raise ValueError(f"{a} is not a product of prime discriminants of {delta}")
    return out


def kronecker_table(delta: int) -> np.ndarray:
    """[(delta|r) for r in range(|delta|)] as int8: one period of the character."""
    return kronecker_values(delta, delta, 0, -delta)


def sqrt_mod_exists(m: int, p: int) -> bool:
    """Brute solvability of x^2 = m (mod p)."""
    return any((x * x - m) % p == 0 for x in range(p))


def box_representation_count(q: QuadForm, n: int) -> int:
    """Count q(x, y) = n by scanning a box guaranteed by the least eigenvalue."""
    if n == 0:
        return 1
    a, b, c = q.triple()
    lam = (a + c - math.sqrt((a - c) ** 2 + b * b)) / 2
    bound = int(math.sqrt(n / lam)) + 2
    return sum(
        1
        for x in range(-bound, bound + 1)
        for y in range(-bound, bound + 1)
        if q(x, y) == n
    )


def representation_count(q: QuadForm, n: int) -> int:
    """#{(x, y) in Z^2 : q(x, y) = n}.

    Scans the x-range |x| <= sqrt(4cn/|disc|) forced by positive definiteness
    and solves the residual quadratic in y exactly.
    """
    if n < 0:
        raise ValueError(f"expected n >= 0, got {n}")
    if n == 0:
        return 1
    a, b, c = q.a, q.b, q.c
    abs_disc = 4 * a * c - b * b
    count = 0
    two_c = 2 * c
    for x in range(-math.isqrt(4 * c * n // abs_disc), math.isqrt(4 * c * n // abs_disc) + 1):
        s2 = 4 * c * n - abs_disc * x * x
        if s2 < 0:
            continue
        s = math.isqrt(s2)
        if s * s != s2:
            continue
        if (-b * x + s) % two_c == 0:
            count += 1
        if s and (-b * x - s) % two_c == 0:
            count += 1
    return count


def representation_counts_oracle(q: QuadForm, n_max: int) -> list[int]:
    """[r(q, 0), ..., r(q, n_max)] by one sweep over the ellipse q <= n_max, one
    lattice point at a time."""
    a, b, c = q.a, q.b, q.c
    abs_disc = 4 * a * c - b * b
    counts = [0] * (n_max + 1)
    two_c = 2 * c
    xmax = math.isqrt(4 * c * n_max // abs_disc)
    for x in range(-xmax, xmax + 1):
        s2 = 4 * c * n_max - abs_disc * x * x
        if s2 < 0:
            continue
        s = math.isqrt(s2)
        ylo = -((b * x + s) // two_c)
        yhi = (-b * x + s) // two_c
        for y in range(ylo, yhi + 1):
            counts[a * x * x + b * x * y + c * y * y] += 1
    return counts


def classify_prime(delta: int, p: int) -> str:
    """"split", "ramified" or "inert": the type of p in Q(sqrt(delta)), from (delta|p)."""
    return {1: "split", 0: "ramified", -1: "inert"}[kronecker(delta, p)]


def opposite(q: QuadForm) -> QuadForm:
    """[a,-b,c]; its class is the group inverse of the class of q."""
    return QuadForm(q.a, -q.b, q.c)


def is_reduced(q: QuadForm) -> bool:
    """-a < b <= a <= c, and b >= 0 when a = c."""
    a, b, c = q.a, q.b, q.c
    return -a < b <= a <= c and (b >= 0 or a < c)


def reduced_class_set_oracle(delta: int) -> set[QuadForm]:
    """Every class, found by reducing all forms with |b| <= a <= sqrt(|delta|/3)."""
    out = set()
    for a in range(1, math.isqrt(-delta // 3) + 1):
        for b in range(-a, a + 1):
            if (b - delta) % 2:
                continue
            num = b * b - delta
            if num % (4 * a):
                continue
            out.add(reduce_form(QuadForm(a, b, num // (4 * a))))
    return out


def _solve_linmod(a: int, b: int, m: int) -> tuple[int, int]:
    """x with a*x = b (mod m), as (x0, step); requires solvability."""
    g, d, _ = ext_gcd(a, m)
    q, r = divmod(b, g)
    if r:
        raise ValueError("congruence has no solution")
    return q * d % m, m // g


def compose_forms_oracle(f1: QuadForm, f2: QuadForm) -> QuadForm:
    """Classical coefficient-level (united forms) composition, reduced.

    Independent of the library's composition algorithm and of the ideal lattices.
    """
    a, b, c = f1.triple()
    a2, b2, _c2 = f2.triple()
    g = (b + b2) // 2
    h = -(b - b2) // 2
    w = math.gcd(a, a2, g)
    j = w
    s = a // w
    t = a2 // w
    u = g // w
    mu, nu = _solve_linmod(t * u, h * u + s * c, s * t)
    lam = _solve_linmod(t * nu, h - t * mu, s)[0]
    k = mu + nu * lam
    ell = (k * t - h) // s
    m = (t * u * k - h * u - c * s) // (s * t)
    out_a = s * t
    out_b = j * u - (k * t + ell * s)
    out_c = k * ell - j * m
    return reduce_form(QuadForm(out_a, out_b, out_c))


def prime_form(delta: int, p: int) -> tuple[int, int, int]:
    """The form (p, b, (b^2 - delta)/(4p)) for the smallest valid b in [0, 2p).

    Exists exactly when p is not inert, i.e. (delta|p) != -1.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if kronecker(delta, p) == -1:
        raise ValueError(f"{p} is inert for discriminant {delta}: no ideal of norm {p}")
    for b in range(0, 2 * p):
        if (b - delta) % 2 == 0 and (b * b - delta) % (4 * p) == 0:
            return p, b, (b * b - delta) // (4 * p)
    raise AssertionError(f"no square root of {delta} mod {4 * p} found for non-inert {p}")


# --- a class group, read off its stack of one (class_group.build_class_group) ---


def class_number(group: Stack) -> int:
    return int(group.h[0])


def unit_count(group: Stack) -> int:
    return int(group.w[0])


def principal_class(group: Stack) -> int:
    return int(group.identity[0])


def class_index(group: Stack, form) -> int:
    """The class index of the reduced form (a, b, c), by a scan of the classes."""
    return group.classes.tolist().index(list(form))


def inverses(group: Stack) -> tuple[int, ...]:
    return tuple(group.inverses.tolist())


def genus_ids(group: Stack) -> tuple[int, ...]:
    """The smallest class index of each genus, in order."""
    return tuple(group.leaders.tolist())


def genus_of(group: Stack) -> tuple[int, ...]:
    """The genus id of every class."""
    return tuple(group.leaders[group.genus].tolist())


def genus_members(group: Stack, genus_id: int) -> tuple[int, ...]:
    return tuple(i for i, g in enumerate(genus_of(group)) if g == genus_id)


def square_classes(group: Stack) -> tuple[int, ...]:
    """The classes of the principal genus, which the build checks are the squares."""
    return genus_members(group, principal_genus(group))


def compose(group: Stack, h1: int, h2: int) -> int:
    """The class index of the product h1 * h2, one row of the library's compose_stacked."""
    return int(compose_stacked(group, [h1], [h2])[0])


def inverse(group: Stack, h: int) -> int:
    return int(group.inverses[h])


def genus_product(group: Stack, g1: int, g2: int) -> int:
    """Product in the genus group G = H/H^2, via coset representatives."""
    return genus_of(group)[compose(group, g1, g2)]


def principal_genus(group: Stack) -> int:
    return genus_of(group)[principal_class(group)]


def dirichlet_l1_oracle(delta: int, terms: int) -> float:
    """Smoothed partial sums of sum (delta|n)/n from one scalar Kronecker symbol
    per residue, indexed by n mod |delta|."""
    q = -delta
    table = np.array([kronecker(delta, r) for r in range(q)], dtype=np.float64)
    n = np.arange(1, terms + 1, dtype=np.int64)
    terms_arr = table[n % q] / n
    s0 = float(np.sum(terms_arr))
    s1 = s0 - float(terms_arr[-1])
    s2 = s1 - float(terms_arr[-2])
    return (s0 + 2 * s1 + s2) / 4


def l_zero_oracle(delta: int) -> Fraction:
    """L(0, chi) = -B_{1,chi} = -(1/|delta|) * sum over 0 <= a < |delta| of chi(a) * a
    (Washington, Introduction to Cyclotomic Fields, Thm 4.2), summed in blocks
    s <= a < s + B as s * sum chi(a) + sum chi(a) * (a - s), each block's int64
    sums below B^2."""
    q, block = -delta, 1 << 16
    offsets = np.arange(min(q, block), dtype=np.int64)
    total = 0
    for start in range(0, q, block):
        stop = min(start + block, q)
        chi = kronecker_values(delta, delta, start, stop).astype(np.int64)
        total += start * int(chi.sum()) + int(np.dot(chi, offsets[: stop - start]))
    return Fraction(-total, q)


def character_value(group: Stack, d: int, genus_id: int) -> int:
    """chi_{d,D}(g) = (d | r) for any r > 0 represented by the genus with gcd(r, d) = 1."""
    r = represented_coprime_value(tuple(group.classes[genus_id].tolist()), d)
    value = kronecker(d, r)
    if value not in (-1, 1):
        raise RuntimeError(f"({d}|{r}) = {value}: {r} is not coprime to {d}")
    return value


def character_table_oracle(group: Stack) -> np.ndarray:
    """The genus character table from character_value: entry (i, k) is
    chi_{d_i}(genus_ids[k]), rows in character_pairs order."""
    return np.array([[character_value(group, d, g) for g in genus_ids(group)]
                     for d, _ in character_pairs(group.delta)])


def orthogonality_sum(group: Stack, genus_id: int) -> Fraction:
    """(1/|G|) * sum over all characters of chi(g): 1 on the principal genus, else 0."""
    column = build_genus_characters(group)[:, genus_ids(group).index(genus_id)]
    return Fraction(int(column.sum()), len(column))


def reduce_with_matrix(q: QuadForm) -> tuple[QuadForm, tuple[int, int, int, int]]:
    """Gauss reduction; returns (reduced form, M) with M = (m11, m12, m21, m22).

    M is in SL2(Z) and q(m11*x + m12*y, m21*x + m22*y) equals the reduced form.
    """
    a, b, c = q.a, q.b, q.c
    m11, m12, m21, m22 = 1, 0, 0, 1
    while True:
        # shift x -> x + r*y to bring b into (-a, a]
        r = (a - b) // (2 * a)
        if r:
            b, c = b + 2 * r * a, a * r * r + b * r + c
            m12, m22 = m12 + r * m11, m22 + r * m21
        if a > c or (a == c and b < 0):
            # (x, y) -> (-y, x)
            a, b, c = c, -b, a
            m11, m12 = m12, -m11
            m21, m22 = m22, -m21
        else:
            return QuadForm(a, b, c), (m11, m12, m21, m22)



# Ideals of the maximal order.  Elements of Z + Z*w, w = (delta + sqrt(delta))/2,
# are coordinate pairs (u, v) meaning u + v*w; an ideal is a rank-2 sublattice
# closed under multiplication by w.

Coord = tuple[int, int]


def _omega_norm(delta: int) -> int:
    # N(w) = w * conj(w) = (delta^2 - delta)/4; integral since delta = 0, 1 (mod 4)
    return (delta * delta - delta) // 4


def elem_mul(delta: int, x: Coord, y: Coord) -> Coord:
    u1, v1 = x
    u2, v2 = y
    nw = _omega_norm(delta)
    return (u1 * u2 - v1 * v2 * nw, u1 * v2 + u2 * v1 + v1 * v2 * delta)


def elem_conj(delta: int, x: Coord) -> Coord:
    u, v = x
    return (u + v * delta, -v)


def elem_norm(delta: int, x: Coord) -> int:
    u, v = x
    return u * u + delta * u * v + _omega_norm(delta) * v * v


def elem_trace(delta: int, x: Coord) -> int:
    u, v = x
    return 2 * u + v * delta


def lattice_hnf(rows: list[Coord]) -> tuple[Coord, Coord]:
    """Hermite-reduce integer generators of a rank-2 lattice to ((n, 0), (f, g)).

    n > 0, g > 0, 0 <= f < n; raises if the rows span a lattice of rank < 2.
    """
    f = g = 0
    scalars: list[int] = []
    for u, v in rows:
        if v == 0:
            scalars.append(u)
            continue
        if g == 0:
            f, g = u, v
            continue
        d, s, t = ext_gcd(g, v)
        # unimodular 2x2 move: keep one row with second coord gcd, zero the other
        scalars.append((v // d) * f - (g // d) * u)
        f, g = s * f + t * u, d
    if g < 0:
        f, g = -f, -g
    n = 0
    for u in scalars:
        n = math.gcd(n, u)
    if g == 0 or n == 0:
        raise ValueError("generators do not span a rank-2 lattice")
    return (n, 0), (f % n, g)


def _lattice_contains(basis: tuple[Coord, Coord], z: Coord) -> bool:
    (n, _), (f, g) = basis
    u, v = z
    if v % g:
        return False
    return (u - (v // g) * f) % n == 0


@dataclass(frozen=True)
class IdealBasis:
    """An ideal of the maximal order, as a Z-basis <alpha, beta> in (u, v) coordinates."""

    delta: int
    alpha: Coord
    beta: Coord

    def __post_init__(self) -> None:
        if self.delta >= 0 or self.delta % 4 not in (0, 1):
            raise ValueError(f"invalid discriminant {self.delta}")
        hnf = lattice_hnf([self.alpha, self.beta])  # raises when rank-deficient
        omega = (0, 1)
        for gen in (self.alpha, self.beta):
            if not _lattice_contains(hnf, elem_mul(self.delta, omega, gen)):
                raise ValueError(f"lattice <{self.alpha}, {self.beta}> is not an ideal")

    @property
    def norm(self) -> int:
        """Index [O : I] = |det| of the basis matrix over {1, w}."""
        (u1, v1), (u2, v2) = self.alpha, self.beta
        return abs(u1 * v2 - u2 * v1)

    def canonical(self) -> "IdealBasis":
        """The same lattice with its Hermite-normal basis."""
        a, b = lattice_hnf([self.alpha, self.beta])
        return IdealBasis(self.delta, a, b)

    def contains(self, z: Coord) -> bool:
        return _lattice_contains(lattice_hnf([self.alpha, self.beta]), z)


def _ideal_from_rows(delta: int, rows: list[Coord]) -> IdealBasis:
    a, b = lattice_hnf(rows)
    return IdealBasis(delta, a, b)


def form_to_ideal(q: QuadForm) -> IdealBasis:
    """The ideal <a, (-b + sqrt(delta))/2> attached to the form [a, b, c]; norm a."""
    delta = q.discriminant()
    # (-b + sqrt(delta))/2 = (-b - delta)/2 + w
    return _ideal_from_rows(delta, [(q.a, 0), ((-q.b - delta) // 2, 1)])


def ideal_to_form(ideal: IdealBasis) -> QuadForm:
    """Reduced representative of the norm form of the ideal.

    The basis is orientation-normalized (Im(beta/alpha) > 0) so the class of
    the result depends only on the ideal class, and the map inverts
    form_to_ideal exactly on reduced forms.
    """
    delta = ideal.delta
    alpha, beta = ideal.alpha, ideal.beta
    orient = elem_mul(delta, beta, elem_conj(delta, alpha))[1]
    if orient < 0:
        beta = (-beta[0], -beta[1])
    n = ideal.norm
    a = elem_norm(delta, alpha)
    b = -elem_trace(delta, elem_mul(delta, alpha, elem_conj(delta, beta)))
    c = elem_norm(delta, beta)
    assert a % n == 0 and b % n == 0 and c % n == 0
    q = QuadForm(a // n, b // n, c // n)
    assert q.discriminant() == delta
    return reduce_form(q)


def ideal_mul(i1: IdealBasis, i2: IdealBasis) -> IdealBasis:
    """Product ideal: the lattice spanned by the four pairwise generator products."""
    if i1.delta != i2.delta:
        raise ValueError("ideal product across different discriminants")
    delta = i1.delta
    rows = [
        elem_mul(delta, g1, g2)
        for g1 in (i1.alpha, i1.beta)
        for g2 in (i2.alpha, i2.beta)
    ]
    return _ideal_from_rows(delta, rows)


def ideal_conj(ideal: IdealBasis) -> IdealBasis:
    delta = ideal.delta
    return _ideal_from_rows(
        delta, [elem_conj(delta, ideal.alpha), elem_conj(delta, ideal.beta)]
    )


def ideal_scale(ideal: IdealBasis, k: int) -> IdealBasis:
    """The ideal (k) * I."""
    if k == 0:
        raise ValueError("cannot scale an ideal by 0")
    (u1, v1), (u2, v2) = ideal.alpha, ideal.beta
    return _ideal_from_rows(ideal.delta, [(k * u1, k * v1), (k * u2, k * v2)])


def ideal_points_up_to_norm(ideal: IdealBasis, bound: int) -> list[Coord]:
    """All lattice points m of the ideal with N(m) <= bound, as (u, v) coordinates."""
    delta = ideal.delta
    alpha, beta = ideal.alpha, ideal.beta
    a = elem_norm(delta, alpha)
    b = elem_trace(delta, elem_mul(delta, alpha, elem_conj(delta, beta)))
    c = elem_norm(delta, beta)
    abs_disc = 4 * a * c - b * b  # = |delta| * norm^2
    points = []
    if bound < 0:
        return points
    xmax = math.isqrt(4 * c * bound // abs_disc)
    for x in range(-xmax, xmax + 1):
        s2 = 4 * c * bound - abs_disc * x * x
        if s2 < 0:
            continue
        s = math.isqrt(s2)
        ylo = -((b * x + s) // (2 * c))
        yhi = (-b * x + s) // (2 * c)
        for y in range(ylo, yhi + 1):
            points.append((x * alpha[0] + y * beta[0], x * alpha[1] + y * beta[1]))
    return points


def prime_ideal(delta: int, p: int) -> IdealBasis:
    """The degree-one prime ideal of norm p (one of the pair when p splits)."""
    return form_to_ideal(QuadForm(*prime_form(delta, p)))


@dataclass(frozen=True)
class TableClassGroup:
    """A class group held as its full composition table (indices into classes)."""

    classes: tuple[QuadForm, ...]
    table: tuple[tuple[int, ...], ...]
    identity: int
    inverses: tuple[int, ...]
    squares: tuple[int, ...]
    genus_of: tuple[int, ...]
    genus_ids: tuple[int, ...]


def class_group_table_oracle(delta: int) -> TableClassGroup:
    """h(h+1)/2 ideal products give the table; genera are the cosets of the squares,
    each named by its smallest class index."""
    classes = class_forms(delta)
    index = {q.triple(): i for i, q in enumerate(classes)}
    ideals = [form_to_ideal(q) for q in classes]
    h = len(classes)

    table = [[0] * h for _ in range(h)]
    for i in range(h):
        for j in range(i, h):
            k = index[ideal_to_form(ideal_mul(ideals[i], ideals[j])).triple()]
            table[i][j] = table[j][i] = k

    principal = index[reduce_form(QuadForm(1, delta % 2, (delta % 2 - delta) // 4)).triple()]
    inverses = tuple(index[reduce_form(opposite(q)).triple()] for q in classes)
    for i in range(h):
        assert table[principal][i] == i, "principal class is not the identity"
        assert table[i][inverses[i]] == principal, "inverse law fails"

    squares = tuple(sorted({table[i][i] for i in range(h)}))
    genus_of = [-1] * h
    genus_ids = []
    for i in range(h):
        if genus_of[i] >= 0:
            continue
        coset = sorted(table[i][s] for s in squares)
        assert coset[0] == i
        genus_ids.append(i)
        for member in coset:
            genus_of[member] = i

    return TableClassGroup(
        classes=classes,
        table=tuple(tuple(row) for row in table),
        identity=principal,
        inverses=inverses,
        squares=squares,
        genus_of=tuple(genus_of),
        genus_ids=tuple(genus_ids),
    )


# --- q-series: Fraction-tuple references and helpers the library no longer needs ---


def qseries(disc: int, values) -> QSeries:
    """A QSeries from ints or Fractions: the integers over their common denominator."""
    fracs = [Fraction(v) for v in values]
    den = math.lcm(*(f.denominator for f in fracs))
    return QSeries(disc, np.array([int(f * den) for f in fracs], dtype=np.int64), Fraction(1, den))


def fraction_coeffs(f: QSeries) -> tuple[Fraction, ...]:
    return tuple(f[n] for n in range(f.precision + 1))


def agrees_with(f: QSeries, g: QSeries, lo: int = 0, hi=None) -> bool:
    return f.first_mismatch(g, lo, hi) is None


def is_zero(f: QSeries, lo: int = 0, hi=None) -> bool:
    hi = f.precision if hi is None else hi
    return all(f[n] == 0 for n in range(lo, hi + 1))


def series_from_json(text: str) -> QSeries:
    """Parse the CLI's series JSON, checking the precision field against the coefficients."""
    data = json.loads(text)
    series = qseries(int(data["disc"]), [Fraction(num, den) for num, den in data["coeffs"]])
    if series.precision != int(data["precision"]):
        raise ValueError("precision field disagrees with coefficient count")
    return series


def theta_total(group: Stack, n_max: int) -> np.ndarray:
    """The coefficients of the sum of the theta series of all classes, as an
    integer array; constant term h."""
    return theta_matrix(group.delta, n_max).sum(axis=0)


def class_average(group: Stack, n_max: int) -> QSeries:
    """(1/w) * sum of all theta series; constant term h/w."""
    return QSeries(group.delta, theta_total(group, n_max)).scale(Fraction(1, unit_count(group)))


def _check_prime_index(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"operator index {p} is not prime")


def apply_U_oracle(coeffs: tuple[Fraction, ...], p: int) -> tuple[Fraction, ...]:
    """Coefficient n of the output is coefficient p*n; precision floor(N/p)."""
    _check_prime_index(p)
    n = (len(coeffs) - 1) // p
    return (coeffs[0],) + tuple(coeffs[p * k] for k in range(1, n + 1))


def apply_V_oracle(coeffs: tuple[Fraction, ...], p: int) -> tuple[Fraction, ...]:
    """Coefficient p*n of the output is coefficient n; precision unchanged."""
    _check_prime_index(p)
    out = [Fraction(0)] * len(coeffs)
    out[0] = coeffs[0]
    for k in range(1, (len(coeffs) - 1) // p + 1):
        out[p * k] = coeffs[k]
    return tuple(out)


def apply_T_oracle(disc: int, coeffs: tuple[Fraction, ...], p: int) -> tuple[Fraction, ...]:
    """U_p + (disc|p) V_p, truncated to floor(N/p)."""
    chi = kronecker(disc, p)
    u = apply_U_oracle(coeffs, p)
    v = apply_V_oracle(coeffs, p)
    return tuple(u[n] + chi * v[n] for n in range(len(u)))


def dirichlet_convolution_sieve(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Entry n is the sum over t | n of f[t] * g[n/t], n >= 1, entry 0 is 0: one
    strided add per t = 1..N, the sieve the Eisenstein and Gauss divisor sums
    used before the convolution kernel."""
    out = np.zeros_like(f)
    n_max = len(f) - 1
    for t in range(1, n_max + 1):
        out[t::t] += f[t] * g[1 : n_max // t + 1]
    return out


# --- the genus layer, one genus or one character at a time ---


def _theta_rows(group: Stack, n_max: int) -> list[QSeries]:
    return [QSeries(group.delta, row) for row in theta_matrix(group.delta, n_max)]


def genus_average_oracle(group: Stack, genus_id: int, n_max: int) -> QSeries:
    """(1/|g|) * sum of the theta series of the classes in the genus g, one class
    at a time."""
    theta = _theta_rows(group, n_max)
    members = genus_members(group, genus_id)
    total = theta[members[0]]
    for h in members[1:]:
        total = total + theta[h]
    return total.scale(Fraction(1, len(members)))


def twisted_sum_oracle(group: Stack, row: int, n_max: int, table: np.ndarray) -> QSeries:
    """(1/w) * sum over classes of chi(h) * theta_h, one class at a time, for the
    character whose value on the genus genus_ids[k] is table[row, k]."""
    value = dict(zip(genus_ids(group), table[row].tolist()))
    theta, of = _theta_rows(group, n_max), genus_of(group)
    total = theta[0].scale(value[of[0]])
    for h in range(1, class_number(group)):
        total = total + theta[h].scale(value[of[h]])
    return total.scale(Fraction(1, unit_count(group)))


def eisenstein_for_genus_oracle(group: Stack, genus_id: int, n_max: int,
                                table: np.ndarray) -> QSeries:
    """(w/h) * sum over characters of chi(g) * E_{d,D}, one character at a time,
    with chi(g) read from the column of g in table."""
    column = table[:, genus_ids(group).index(genus_id)].tolist()
    total = None
    for (d, big_d), value in zip(character_pairs(group.delta), column):
        term = eisenstein_series(d, big_d, n_max).scale(value)
        total = term if total is None else total + term
    return total.scale(Fraction(unit_count(group), class_number(group)))


def twisted_eisenstein_detail_oracle(group: Stack, n_max: int, table: np.ndarray) -> str:
    """The detail of the twisted_eisenstein check, found one character at a time."""
    pairs = character_pairs(group.delta)
    for row, (d, big_d) in enumerate(pairs):
        lhs = twisted_sum_oracle(group, row, n_max, table)
        found = lhs.first_mismatch(eisenstein_series(d, big_d, n_max))
        if found is not None:
            n, left, right = found
            return f"(d,D)=({d},{big_d}) mismatch at n={n}: {left} != {right}"
    return f"{len(pairs)} pairs, n=0..{n_max} exact"


def genus_mass_detail_oracle(group: Stack, n_max: int, table: np.ndarray) -> str:
    """The detail of the genus_mass check, found one genus at a time: a genus
    whose constant terms are not both 1 is reported before its mismatches."""
    for g in genus_ids(group):
        lhs = genus_average_oracle(group, g, n_max)
        rhs = eisenstein_for_genus_oracle(group, g, n_max, table)
        if lhs[0] != 1 or rhs[0] != 1:
            return f"genus {g}: constant terms {lhs[0]}, {rhs[0]} != 1"
        found = lhs.first_mismatch(rhs)
        if found is not None:
            n, left, right = found
            return f"genus {g} mismatch at n={n}: {left} != {right}"
    return f"{len(genus_ids(group))} genera, n=0..{n_max} exact"


def build_layers(delta: int, n_max: int, primes_bound: int) -> Layers:
    """The record of one fundamental discriminant, sliced out of a batch of one."""
    return batch_record(_batch_layers([delta], *stacked_reduced_forms([delta]), n_max, primes_bound), 0)


def prime_checks(layers: Layers, p: int) -> Iterator[CheckRecord]:
    """All identities at p one check_* call at a time, the loop that the prime
    sweep (hecke.sweep_failures) replaced: eigenform, the per-class theta
    identity for the prime's type, and the genus permutation, which is a skip
    record at an inert p.  They read the arrays of one discriminant's layers,
    whose prime layer must hold p."""
    group, theta, layer = layers.group, layers.theta, layers.primes
    yield check_eigenform(group, p, theta.sum(axis=0), layer)
    chi = layer.chi[p]
    if chi == 1:
        yield check_split_theta(group, p, theta, layer)
    elif chi == 0:
        yield check_ramified_theta(group, p, theta, layer)
    else:
        yield check_inert_theta(group, p, theta, layer)
        yield CheckRecord(f"genus_permutation[p={p}]", "skip", "skipped: p inert, no genus translate")
        return
    yield check_genus_permutation(group, p, layers.sums, layer)
