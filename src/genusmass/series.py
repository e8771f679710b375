"""Builders for the concrete q-series: the theta matrix of a discriminant (one row
of representation counts per class), theta series, genus averages, twisted sums,
divisor-sum Eisenstein series, and the character-weighted combination per genus;
the Kronecker characters of a discriminant, from one table per prime
discriminant; and L(0) of the Kronecker character, the Eisenstein constant term.
Each series is an integer vector times one rational unit."""

from __future__ import annotations

import io
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .arith import (
    is_fundamental,
    is_fundamental_discriminant,
    kronecker,
    prime_discriminant_factorization,
)
from .class_group import ClassGroup, build_class_group
from .forms import INT64_BOUND, representation_counts
from .genus import GenusCharacter, build_genus_characters
from .qseries import QSeries, dirichlet_convolution

__all__ = [
    "theta_matrix",
    "theta_series",
    "theta_total",
    "genus_eisenstein",
    "twisted_sum",
    "eisenstein_series",
    "kronecker_values",
    "l_zero",
    "eisenstein_for_genus",
    "series_csv",
]

def _coeff_dtype(group: ClassGroup, n_max: int):
    """int64 for the coefficient arrays of this group's discriminant up to n_max, or
    object (Python ints) when int64 could overflow; the same code runs on either.

    Every integer the series and the checks form from these arrays is below
    h^2 w^2 d_max 2|delta|, where d_max = 2 isqrt(n_max) bounds the divisor
    count d(n) for n <= n_max:
    - a theta coefficient r(Q, n) is at most w d(n), because the counts of all
      classes add up to w sum_{t | n} (delta|t);
    - an Eisenstein coefficient is at most d(n); the unit of E_{1,delta} is 1
      over a divisor of 2|delta|, and its constant term is L(0)/2 = h/w;
    - a sum runs over at most h classes or characters;
    - cross-multiplying two series multiplies by at most w h 2|delta|.
    """
    d_max = max(1, 2 * math.isqrt(n_max))
    bound = group.h**2 * group.w**2 * d_max * 2 * -group.delta
    return np.int64 if bound < INT64_BOUND else object


@lru_cache(maxsize=1)
def theta_matrix(delta: int, n_max: int) -> np.ndarray:
    """The h x (n_max + 1) integer matrix whose row h is the theta series of the
    class h: [r(Q_h, 0), ..., r(Q_h, n_max)].  Read-only.

    Built once per (delta, n_max), and only the last one is kept: every check of
    a discriminant reads the same matrix, and a run then moves on to the next."""
    group = build_class_group(delta)
    theta = representation_counts(group.classes, n_max).astype(_coeff_dtype(group, n_max), copy=False)
    theta.setflags(write=False)
    return theta


def theta_series(group: ClassGroup, h: int, n_max: int) -> QSeries:
    """Theta series of the class h: coefficient n is r(Q_h, n); constant term 1.
    Builds this one row, not the whole theta matrix."""
    counts = representation_counts([group.classes[h]], n_max)[0]
    return QSeries(group.delta, counts.astype(_coeff_dtype(group, n_max), copy=False))


def theta_total(group: ClassGroup, n_max: int) -> QSeries:
    """Sum of the theta series of all classes; constant term h."""
    return QSeries(group.delta, theta_matrix(group.delta, n_max).sum(axis=0))


def genus_eisenstein(group: ClassGroup, genus_id: int, n_max: int) -> QSeries:
    """Average of the theta series over one genus: (1/|H^2|) sum over h in g."""
    members = list(group.genus_members(genus_id))
    total = theta_matrix(group.delta, n_max)[members].sum(axis=0)
    return QSeries(group.delta, total, Fraction(1, len(members)))


def twisted_sum(group: ClassGroup, chi: GenusCharacter, n_max: int) -> QSeries:
    """(1/w) * sum over classes of chi(h) * theta_h."""
    signs = np.array([chi.value(g) for g in group.genus_of], dtype=np.int64)
    return QSeries(group.delta, signs @ theta_matrix(group.delta, n_max), Fraction(1, group.w))


@lru_cache(maxsize=1)
def _prime_tables(delta: int) -> tuple[tuple[int, np.ndarray], ...]:
    """(p, [(p|r) for r in range(|p|)] as int8) for each prime discriminant p of
    delta; read-only, and kept for the last delta only.  An odd prime
    discriminant's character at r >= 0 is the Legendre symbol (r|p); the -4, 8
    or -8 factor has period at most 8 and is read from kronecker itself."""
    tables = []
    for factor in prime_discriminant_factorization(delta):
        m = abs(factor)
        if m % 2:
            table = np.full(m, -1, dtype=np.int8)
            table[0] = 0
            x = np.arange(1, (m + 1) // 2, dtype=np.int64)
            table[x * x % m] = 1
        else:
            table = np.array([kronecker(factor, r) for r in range(m)], dtype=np.int8)
        table.setflags(write=False)
        tables.append((factor, table))
    return tuple(tables)


def _periodic(table: np.ndarray, start: int, stop: int) -> np.ndarray:
    """table repeated without end, read at start, ..., stop - 1."""
    m = len(table)
    first = start % m
    last = first + stop - start
    if last <= m:
        return table[first:last]
    return np.tile(table, -(-last // m))[first:last]


def kronecker_values(delta: int, a: int, start: int, stop: int) -> np.ndarray:
    """[(a|m) for start <= m < stop] as int8, where a is delta or a product of
    some of its prime discriminants (the d or D of a character pair).

    (a|m) is the product of (p|m) over the prime discriminants p of a, and each
    (p|m) is the table of p read at m mod |p|."""
    out = np.ones(stop - start, dtype=np.int8)
    product = 1
    for p, table in _prime_tables(delta):
        if a % p == 0:
            out *= _periodic(table, start, stop)
            product *= p
    if product != a:
        raise ValueError(f"{a} is not a product of prime discriminants of {delta}")
    return out


# L(0) sums its character over blocks of this many residues, so that its memory
# does not grow with |delta|.
L_ZERO_BLOCK = 1 << 16


@lru_cache(maxsize=None)
def l_zero(delta: int) -> Fraction:
    """L(0) for the Kronecker character chi of delta, from the character alone:
    L(0, chi) = -B_{1,chi} = -(1/|delta|) * sum over 0 <= a < |delta| of chi(a) * a
    (Washington, Introduction to Cyclotomic Fields, Thm 4.2).

    The sum runs over blocks s <= a < s + B, B = L_ZERO_BLOCK, as
    s * sum chi(a) + sum chi(a) * (a - s).  It is exact: each block's int64 sums
    are below B^2, and the blocks add up as Python ints.  |delta| >= 4 * 10^9
    is refused: the table of a prime discriminant p, which can be delta itself,
    is built from int64 squares x^2 < p^2 / 4, which stay below 2^63 only for
    |p| up to about 6 * 10^9.
    """
    q = -delta
    if q >= 4 * 10**9:
        raise ValueError(f"|delta| = {q} is too large for the int64 character tables of L(0)")
    offsets = np.arange(min(q, L_ZERO_BLOCK), dtype=np.int64)
    total = 0
    for start in range(0, q, L_ZERO_BLOCK):
        stop = min(start + L_ZERO_BLOCK, q)
        chi = kronecker_values(delta, delta, start, stop).astype(np.int64)
        total += start * int(chi.sum()) + int(np.dot(chi, offsets[: stop - start]))
    return Fraction(-total, q)


@lru_cache(maxsize=None)
def _eisenstein_coeffs(d: int, big_d: int, n_max: int) -> tuple[np.ndarray, Fraction]:
    """The integer vector and the unit of E_{d,D}: the Dirichlet convolution of
    (D|.) and (d|.).  For d = 1 the unit is 1/(denominator of L(0)/2), so the
    constant term is an integer too."""
    delta = d * big_d
    dtype = _coeff_dtype(build_class_group(delta), n_max)
    coeffs = dirichlet_convolution(
        kronecker_values(delta, big_d, 0, n_max + 1).astype(dtype),
        kronecker_values(delta, d, 0, n_max + 1).astype(dtype),
    )
    unit = Fraction(1)
    if d == 1:
        constant = l_zero(delta) / 2
        coeffs *= constant.denominator
        coeffs[0] = constant.numerator
        unit = Fraction(1, constant.denominator)
    coeffs.setflags(write=False)
    return coeffs, unit


def eisenstein_series(d: int, big_d: int, n_max: int) -> QSeries:
    """Weight-one Eisenstein series of the pair (d, D): divisor-sum coefficients
    sum over t | n of (d | n/t)(D | t), with constant term L(0)/2 when d = 1."""
    if d < 1 or big_d >= 0:
        raise ValueError(f"need d > 0 > D, got ({d}, {big_d})")
    if not (is_fundamental_discriminant(d) and is_fundamental_discriminant(big_d)
            and is_fundamental(d * big_d)):
        raise ValueError(f"({d}, {big_d}) is not a discriminant factorization")
    coeffs, unit = _eisenstein_coeffs(d, big_d, n_max)
    return QSeries(d * big_d, coeffs, unit)


def eisenstein_for_genus(group: ClassGroup, genus_id: int, n_max: int) -> QSeries:
    """(w/h) * sum over characters of chi(g) * E_{d,D}: the mass-formula series."""
    total = None
    for chi in build_genus_characters(group):
        term = eisenstein_series(chi.d, chi.D, n_max).scale(chi.value(genus_id))
        total = term if total is None else total + term
    return total.scale(Fraction(group.w, group.h))


def series_csv(series: QSeries) -> str:
    """CSV dump of one series, one row per coefficient."""
    buf = io.StringIO()
    buf.write("n,numerator,denominator\n")
    for n, (num, den) in enumerate(series.reduced()):
        buf.write(f"{n},{num},{den}\n")
    return buf.getvalue()
