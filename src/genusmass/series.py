"""Builders for the concrete q-series and for the genus layer of a discriminant:
the theta matrix (one row of representation counts per class) and theta
series; the genus sums S, the twisted sums X S, the divisor-sum Eisenstein
matrix E and the mass-formula rows X^T E, where X is the genus character table;
the Kronecker characters of a discriminant, from one table per prime
discriminant; and L(0) of the Kronecker character, the Eisenstein constant term.
Each series, and each matrix of series, is an integer array times one rational
unit."""

from __future__ import annotations

import io
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .arith import prime_discriminant_tables
from .class_group import ClassGroup, build_class_group
from .forms import INT64_BOUND, representation_counts
from .genus import build_genus_characters, character_pairs
from .qseries import QSeries, dirichlet_convolution

__all__ = [
    "theta_matrix",
    "theta_series",
    "theta_total",
    "genus_eisenstein",
    "twisted_sum",
    "eisenstein_matrix",
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
      classes add up to w sum_{t | n} (delta|t); so is a genus sum or a twisted
      sum in absolute value;
    - every row of the Eisenstein matrix E carries one unit 1/k, where k, the
      denominator of L(0)/2, divides 2|delta|: an entry is at most k d(n), and
      the constant term of E_{1,delta} is k h/w;
    - a sum over characters (X^T E) runs over at most h of them;
    - cross-multiplying two units (1/w and 1/k, or 1/|H^2| and w/(h k))
      multiplies by at most w h 2|delta|.
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
    counts = representation_counts(group.classes[[h]], n_max)[0]
    return QSeries(group.delta, counts.astype(_coeff_dtype(group, n_max), copy=False))


def theta_total(group: ClassGroup, n_max: int) -> np.ndarray:
    """The coefficients of the sum of the theta series of all classes, as an
    integer array; constant term h."""
    return theta_matrix(group.delta, n_max).sum(axis=0)


@lru_cache(maxsize=1)
def _genus_sums(delta: int, n_max: int) -> np.ndarray:
    """S: the matrix whose row k is the sum of the theta rows of the classes in the
    genus genus_ids[k], from one np.add.reduceat over the classes ordered by
    genus.  Read-only; kept for the last (delta, n_max) only."""
    group = build_class_group(delta)
    genus_of = np.array(group.genus_of)
    order = np.argsort(genus_of, kind="stable")
    starts = np.searchsorted(genus_of[order], group.genus_ids)
    sums = np.add.reduceat(theta_matrix(delta, n_max)[order], starts, axis=0)
    sums.setflags(write=False)
    return sums


def genus_eisenstein(group: ClassGroup, n_max: int, genus_id=None) -> tuple[np.ndarray, Fraction]:
    """The average of the theta series over each genus, as (S, 1/|H^2|), one row
    per genus in genus_ids order.  With genus_id, only the row of that genus,
    summed from its own classes."""
    unit = Fraction(1, len(group.squares))
    if genus_id is None:
        return _genus_sums(group.delta, n_max), unit
    members = list(group.genus_members(genus_id))
    return theta_matrix(group.delta, n_max)[members].sum(axis=0), unit


def twisted_sum(group: ClassGroup, n_max: int, d=None) -> tuple[np.ndarray, Fraction]:
    """(1/w) * sum over classes of chi_{d,D}(h) * theta_h, one row per character
    pair in character_pairs order, as (X S, 1/w).  With d, only the row of the
    pair (d, D)."""
    table = build_genus_characters(group)
    if d is not None:
        table = table[[pair[0] for pair in character_pairs(group.delta)].index(d)]
    return table @ _genus_sums(group.delta, n_max), Fraction(1, group.w)


# L(0) sums its character over blocks of this many residues, so that its
# working memory does not grow with |delta|.
L_ZERO_BLOCK = 1 << 16


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
    for p, table in prime_discriminant_tables(delta):
        if a % p == 0:
            out *= _periodic(table, start, stop)
            product *= p
    if product != a:
        raise ValueError(f"{a} is not a product of prime discriminants of {delta}")
    return out


@lru_cache(maxsize=None)
def l_zero(delta: int) -> Fraction:
    """L(0) for the Kronecker character chi of delta, from the character alone,
    by Dirichlet's class number sum over half the period: chi is odd and
    primitive modulo |delta|, so
    L(0, chi) = (1 / (2 - chi(2))) * sum over 0 < a < |delta|/2 of chi(a)
    (Davenport, Multiplicative Number Theory, ch. 6; Cohen, A Course in
    Computational Algebraic Number Theory, 5.3).  It is the same rational as
    -B_{1,chi} = -(1/|delta|) * sum over 0 <= a < |delta| of chi(a) * a.

    The sum runs over blocks of B = L_ZERO_BLOCK residues.  It is exact: a
    block's int64 sum is at most B in absolute value, and the blocks add up as
    Python ints.  |delta| >= 4 * 10^9 is refused: the table of a prime
    discriminant p, which can be delta itself, is built from int64 squares
    x^2 < p^2 / 4, which stay below 2^63 only for |p| up to about 6 * 10^9.
    """
    q = -delta
    if q >= 4 * 10**9:
        raise ValueError(f"|delta| = {q} is too large for the int64 character tables of L(0)")
    half = (q + 1) // 2
    total = 0
    for start in range(1, half, L_ZERO_BLOCK):
        chi = kronecker_values(delta, delta, start, min(start + L_ZERO_BLOCK, half))
        total += int(chi.sum(dtype=np.int64))
    return Fraction(total, 2 - int(kronecker_values(delta, delta, 2, 3)[0]))


@lru_cache(maxsize=1)
def eisenstein_matrix(delta: int, n_max: int, pairs=None) -> tuple[np.ndarray, Fraction]:
    """E: the divisor sums sum over t | n of (d | n/t)(D | t) of the pairs (d, D) of
    delta (all character pairs by default, in character_pairs order), one row
    each, from one Dirichlet convolution of the stacked rows of (D|.) and (d|.).
    All rows share the unit 1/k, k the denominator of L(0)/2, so that the
    constant term L(0)/2 of the row d = 1 is an integer too; the other rows
    have constant term 0.  Read-only; kept for the last request only."""
    pairs = character_pairs(delta) if pairs is None else pairs
    dtype = _coeff_dtype(build_class_group(delta), n_max)
    big = np.array([kronecker_values(delta, big_d, 0, n_max + 1) for _, big_d in pairs]).astype(dtype)
    small = np.array([kronecker_values(delta, d, 0, n_max + 1) for d, _ in pairs]).astype(dtype)
    constant = l_zero(delta) / 2
    rows = dirichlet_convolution(big, small) * constant.denominator
    rows[[d == 1 for d, _ in pairs], 0] = constant.numerator
    rows.setflags(write=False)
    return rows, Fraction(1, constant.denominator)


def eisenstein_series(d: int, big_d: int, n_max: int) -> QSeries:
    """Weight-one Eisenstein series of the pair (d, D): divisor-sum coefficients
    sum over t | n of (d | n/t)(D | t), with constant term L(0)/2 when d = 1.
    Builds this one row, not the whole Eisenstein matrix."""
    if big_d >= 0 or (d, big_d) not in character_pairs(d * big_d):
        raise ValueError(f"({d}, {big_d}) is not a character pair of a negative discriminant")
    rows, unit = eisenstein_matrix(d * big_d, n_max, ((d, big_d),))
    return QSeries(d * big_d, rows[0], unit)


def eisenstein_for_genus(group: ClassGroup, n_max: int) -> tuple[np.ndarray, Fraction]:
    """The mass-formula series (w/h) * sum over characters of chi(g) * E_{d,D}, one
    row per genus g in genus_ids order, as (X^T E, (w/h)/k)."""
    rows, unit = eisenstein_matrix(group.delta, n_max)
    return build_genus_characters(group).T @ rows, unit * Fraction(group.w, group.h)


def series_csv(series: QSeries) -> str:
    """CSV dump of one series, one row per coefficient."""
    buf = io.StringIO()
    buf.write("n,numerator,denominator\n")
    for n, (num, den) in enumerate(series.reduced()):
        buf.write(f"{n},{num},{den}\n")
    return buf.getvalue()
