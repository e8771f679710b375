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
from typing import NamedTuple

import numpy as np

from .arith import prime_discriminant_tables
from .class_group import Stack, build_class_group
from .forms import INT64_BOUND, UNIT_COUNTS, representation_counts
from .genus import build_genus_characters, character_pairs, stacked_pairs
from .qseries import QSeries, dirichlet_convolution

__all__ = [
    "theta_matrix",
    "theta_series",
    "genus_eisenstein",
    "twisted_sum",
    "eisenstein_matrix",
    "eisenstein_series",
    "l_zero",
    "eisenstein_for_genus",
    "series_csv",
]

def _coeff_dtype(delta: int, h: int, n_max: int):
    """int64 for the coefficient arrays of the discriminant delta, of class number
    h, up to n_max, or object (Python ints) when int64 could overflow; the same
    code runs on either.

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
    bound = h**2 * UNIT_COUNTS.get(delta, 2) ** 2 * d_max * 2 * -delta
    return np.int64 if bound < INT64_BOUND else object


class SeriesStack(NamedTuple):
    """The series layers of a stack of groups at precision n_max, as int64 arrays:
    theta, the theta matrices stacked (one row per class); totals, their column
    sums (one row per group); and sums, the genus sums S stacked (one row per
    genus, in the order of the stack's genera)."""

    theta: np.ndarray
    totals: np.ndarray
    sums: np.ndarray


def series_stack(stack: Stack, n_max: int) -> SeriesStack:
    """The theta matrices of every group of the stack from one representation_counts
    call over all of their classes, and their column sums and genus sums."""
    theta = representation_counts(stack.classes, n_max)
    return SeriesStack(theta, np.add.reduceat(theta, stack.starts, axis=0), _stacked_genus_sums(stack, theta))


def _stacked_genus_sums(stack: Stack, theta: np.ndarray) -> np.ndarray:
    """The genus sums S of every group of the stack from its stacked theta rows, by
    one np.add.reduceat over the classes ordered by genus."""
    order = np.argsort(stack.genus, kind="stable")
    sizes = np.bincount(stack.genus, minlength=len(stack.leaders))
    return np.add.reduceat(theta[order], sizes.cumsum() - sizes, axis=0)


def theta_matrix(delta: int, n_max: int) -> np.ndarray:
    """The h x (n_max + 1) integer matrix whose row h is the theta series of the
    class h: [r(Q_h, 0), ..., r(Q_h, n_max)].  Read-only.  series_stack builds
    the matrices of a stack of groups from one representation_counts call on all
    of their classes; this is the matrix of one."""
    group = build_class_group(delta)
    theta = representation_counts(group.classes, n_max).astype(_coeff_dtype(delta, int(group.h[0]), n_max),
                                                               copy=False)
    theta.setflags(write=False)
    return theta


def theta_series(group: Stack, h: int, n_max: int) -> QSeries:
    """Theta series of the class h of a stack of one group: coefficient n is
    r(Q_h, n); constant term 1.  Builds this one row, not the whole theta
    matrix."""
    counts = representation_counts(group.classes[[h]], n_max)[0]
    return QSeries(group.delta, counts.astype(_coeff_dtype(group.delta, int(group.h[0]), n_max), copy=False))


def _genus_sums(group: Stack, n_max: int) -> np.ndarray:
    """S: the matrix whose row k is the sum of the theta rows of the classes in the
    group's k-th genus (see _stacked_genus_sums)."""
    return _stacked_genus_sums(group, theta_matrix(group.delta, n_max))


def genus_eisenstein(group: Stack, n_max: int, genus_id=None) -> tuple[np.ndarray, Fraction]:
    """The average of the theta series over each genus of a stack of one group,
    as (S, 1/|H^2|), one row per genus in order.  With genus_id, only the row of
    that genus, summed from its own classes."""
    unit = Fraction(1, int(group.squares[0]))
    if genus_id is None:
        return _genus_sums(group, n_max), unit
    members = np.flatnonzero(group.leaders[group.genus] == genus_id)
    return theta_matrix(group.delta, n_max)[members].sum(axis=0), unit


def twisted_sum(group: Stack, n_max: int, d=None) -> tuple[np.ndarray, Fraction]:
    """(1/w) * sum over classes of chi_{d,D}(h) * theta_h, one row per character
    pair in character_pairs order, as (X S, 1/w).  With d, only the row of the
    pair (d, D)."""
    table = build_genus_characters(group)
    if d is not None:
        table = table[[pair[0] for pair in character_pairs(group.delta)].index(d)]
    return table @ _genus_sums(group, n_max), Fraction(1, int(group.w[0]))


# L(0) sums its character over blocks of this many residues, so that its
# working memory does not grow with |delta|.
L_ZERO_BLOCK = 1 << 16


def _periodic(table: np.ndarray, start: int, stop: int) -> np.ndarray:
    """table repeated without end, read at start, ..., stop - 1: a slice of table
    when the window lies in one period, else a copy of the window alone."""
    m = len(table)
    first = start % m
    n = stop - start
    if first + n <= m:
        return table[first : first + n]
    head = table[first:]
    if n <= m:
        return np.concatenate((head, table[: n - len(head)]))
    return np.tile(np.concatenate((head, table[:first])), -(-n // m))[:n]


def l_zero(delta: int) -> Fraction:
    """L(0) for the Kronecker character chi of delta, from the character alone,
    by Dirichlet's class number sum over half the period: chi is odd and
    primitive modulo |delta|, so
    L(0, chi) = (1 / (2 - chi(2))) * sum over 0 < a < |delta|/2 of chi(a)
    (Davenport, Multiplicative Number Theory, ch. 6; Cohen, A Course in
    Computational Algebraic Number Theory, 5.3).  It is the same rational as
    -B_{1,chi} = -(1/|delta|) * sum over 0 <= a < |delta| of chi(a) * a.

    The sum runs over blocks of B = L_ZERO_BLOCK residues, chi on each the
    product of windows of the tables of the prime discriminants of delta.  A
    table shorter than B is repeated once, to at most B + |p| entries, and its
    windows are slices of that; a longer one's windows are slices of the table,
    or a copy of the window alone where it wraps around.  It is exact: a block's
    int64 sum is at most B in absolute value, and the blocks add up as Python
    ints.  |delta| >= 4 * 10^9 is refused: the table of a prime discriminant p,
    which can be delta itself, is built from int64 squares x^2 < p^2 / 4, which
    stay below 2^63 only for |p| up to about 6 * 10^9.
    """
    q = -delta
    if q >= 4 * 10**9:
        raise ValueError(f"|delta| = {q} is too large for the int64 character tables of L(0)")
    half = (q + 1) // 2
    tables = [table for _, table in prime_discriminant_tables(delta)]
    width = min(L_ZERO_BLOCK, half)
    extended = [_periodic(table, 0, width + len(table)) if len(table) < width else table for table in tables]
    total = 0
    for start in range(1, half, L_ZERO_BLOCK):
        chi = np.ones(min(L_ZERO_BLOCK, half - start), dtype=np.int8)
        for table, values in zip(tables, extended):
            first = start % len(table)
            chi *= _periodic(values, first, first + len(chi))
        total += int(chi.sum(dtype=np.int64))
    chi_2 = math.prod(int(table[2 % len(table)]) for table in tables)
    return Fraction(total, 2 - chi_2)


class CharacterReads:
    """What the Eisenstein rows of a run of deltas read from the tables of their
    prime discriminants, add(delta) on each delta in order: its L(0), and the
    window (p|m), m = 0..n_max, of each prime discriminant p, from the tables of
    the first delta that has it (row 0 is all ones).  A batch adds each delta
    while its tables are still the ones arith.prime_discriminant_tables keeps."""

    def __init__(self, n_max: int) -> None:
        self.n_max = n_max
        self.windows = [np.ones(n_max + 1, dtype=np.int8)]
        self._row_of: dict[int, int] = {}
        self.own: list[list[tuple[int, int]]] = []
        self.l_zero: list[Fraction] = []

    def add(self, delta: int) -> None:
        """L(0) of delta and the window rows of its prime discriminants, own[-1]
        as (p, row) pairs."""
        tables = prime_discriminant_tables(delta)
        self.l_zero.append(l_zero(delta))
        for p, table in tables:
            if p not in self._row_of:
                self._row_of[p] = len(self.windows)
                self.windows.append(_periodic(table, 0, self.n_max + 1))
        self.own.append([(p, self._row_of[p]) for p, _ in tables])


class EisensteinStack(NamedTuple):
    """The Eisenstein rows of a run of deltas, read-only and stacked in the widest
    coefficient dtype of the deltas: rows, one per character pair, each delta's
    pairs in order, where pairs[r] is the (d, D) of row r and pair_owner[r] its
    delta; counts[k], the number of pairs of delta k, whose rows have the unit
    1/units[k]; characters[k], the row [(delta_k|m) for 0 <= m <= n_max] as int8;
    and l_zero[k], the numerator and denominator of L(0) of delta k."""

    rows: np.ndarray
    pairs: np.ndarray
    pair_owner: np.ndarray
    counts: np.ndarray
    units: np.ndarray
    characters: np.ndarray
    l_zero: np.ndarray


def eisenstein_stack(deltas: list[int], class_numbers, n_max: int, reads: CharacterReads,
                     pairs=None) -> EisensteinStack:
    """The Eisenstein rows of each delta, of class number class_numbers[k], for
    its character pairs (genus.stacked_pairs, or pairs[k]), all at once: each
    row of (D|.) and (d|.) is the product of the windows of the prime
    discriminants that divide D or d, all of them from one gather and one
    product, and all rows come from one Dirichlet convolution.  Which prime
    discriminants divide d is one comparison of the stacked pairs against the
    stacked prime discriminants, or the subsets that stacked_pairs makes the
    pairs from.  The windows and L(0) are those of reads, which has read the
    tables of the deltas in order."""
    # the prime discriminants of each delta and the rows of their windows, padded
    # with 1 and with the all-ones row 0
    width = max(map(len, reads.own))
    padded = np.array([found + [(1, 0)] * (width - len(found)) for found in reads.own],
                      dtype=np.int64).reshape(len(deltas), width, 2)
    factors, windows = padded[:, :, 0], padded[:, :, 1]
    if pairs is None:
        owner, d, chosen = stacked_pairs(factors)
    else:
        owner = np.arange(len(deltas)).repeat([len(found) for found in pairs])
        d = np.array([pair[0] for found in pairs for pair in found], dtype=np.int64)
        chosen = d[:, None] % factors[owner] == 0
    # the row of (a|.) is the product of the windows of the prime discriminants
    # of a: those of D are the ones that do not divide d; then the character
    # of each delta, the product of all of its windows
    own = windows[owner]
    index = [np.where(chosen, 0, own), np.where(chosen, own, 0), windows]
    values = np.array(reads.windows)[np.concatenate(index)].prod(axis=1, dtype=np.int64)
    divisor_sums = dirichlet_convolution(values[: len(d)], values[len(d) : 2 * len(d)])
    l_zero = np.array([(f.numerator, f.denominator) for f in reads.l_zero], dtype=np.int64).reshape(-1, 2)
    # L(0)/2 in lowest terms: its denominator is the unit's
    common = np.gcd(l_zero[:, 0], 2 * l_zero[:, 1])
    units, halves = 2 * l_zero[:, 1] // common, l_zero[:, 0] // common
    wide = {_coeff_dtype(delta, h, n_max) for delta, h in zip(deltas, class_numbers)}
    rows = divisor_sums.astype(object if object in wide else np.int64) * units[owner, None]
    # the constant term of every row is 0, but L(0)/2 in the row of d = 1
    rows[:, 0] = np.where(d == 1, halves[owner], 0)
    characters = values[2 * len(d) :].astype(np.int8)
    pair_of = np.empty((len(d), 2), dtype=np.int64)
    pair_of[:, 0] = d
    pair_of[:, 1] = np.array(deltas, dtype=np.int64)[owner] // d
    out = EisensteinStack(rows, pair_of, owner, np.bincount(owner, minlength=len(deltas)), units, characters,
                          l_zero)
    for array in out:
        array.setflags(write=False)
    return out


def eisenstein_matrix(delta: int, n_max: int, pairs=None) -> tuple[np.ndarray, Fraction]:
    """E: the divisor sums sum over t | n of (d | n/t)(D | t) of the pairs (d, D) of
    delta (all character pairs by default, in character_pairs order), one row
    each, from one Dirichlet convolution of the stacked rows of (D|.) and (d|.).
    All rows share the unit 1/k, k the denominator of L(0)/2, so that the
    constant term L(0)/2 of the row d = 1 is an integer too; the other rows
    have constant term 0.  Read-only.  eisenstein_stack builds the rows of many
    deltas at once; this is one.  It builds no class group: the coefficient
    dtype reads h as (w/2) L(0), Dirichlet's class number formula at s = 0,
    exact for a fundamental delta, from the L(0) that the rows read anyway."""
    reads = CharacterReads(n_max)
    reads.add(delta)
    h = math.ceil(UNIT_COUNTS.get(delta, 2) * reads.l_zero[0] / 2)
    found = eisenstein_stack([delta], [h], n_max, reads, None if pairs is None else [pairs])
    return found.rows, Fraction(1, int(found.units[0]))


def eisenstein_series(d: int, big_d: int, n_max: int) -> QSeries:
    """Weight-one Eisenstein series of the pair (d, D): divisor-sum coefficients
    sum over t | n of (d | n/t)(D | t), with constant term L(0)/2 when d = 1.
    Builds this one row, not the whole Eisenstein matrix."""
    if big_d >= 0 or (d, big_d) not in character_pairs(d * big_d):
        raise ValueError(f"({d}, {big_d}) is not a character pair of a negative discriminant")
    rows, unit = eisenstein_matrix(d * big_d, n_max, ((d, big_d),))
    return QSeries(d * big_d, rows[0], unit)


def eisenstein_for_genus(group: Stack, n_max: int) -> tuple[np.ndarray, Fraction]:
    """The mass-formula series (w/h) * sum over characters of chi(g) * E_{d,D}, one
    row per genus g of a stack of one group, in order, as (X^T E, (w/h)/k)."""
    rows, unit = eisenstein_matrix(group.delta, n_max)
    return build_genus_characters(group).T @ rows, unit * Fraction(int(group.w[0]), int(group.h[0]))


def series_csv(series: QSeries) -> str:
    """CSV dump of one series, one row per coefficient."""
    buf = io.StringIO()
    buf.write("n,numerator,denominator\n")
    for n, (num, den) in enumerate(series.reduced()):
        buf.write(f"{n},{num},{den}\n")
    return buf.getvalue()
