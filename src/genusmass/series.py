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
from typing import NamedTuple, Optional

import numpy as np

from .arith import prime_discriminant_tables
from .cache import memo
from .class_group import ClassGroup, Stack, build_class_group, genus_rows, stack_of
from .forms import INT64_BOUND, representation_counts
from .genus import build_genus_characters, character_pairs
from .qseries import QSeries, dirichlet_convolution

__all__ = [
    "theta_matrix",
    "character_row",
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


class SeriesStack(NamedTuple):
    """The series layers of a stack of groups at precision n_max, as int64 arrays:
    theta, the theta matrices stacked (one row per class); totals, their column
    sums (one row per group); and sums, the genus sums S stacked (one row per
    genus, each group's in genus_ids order), with where each group's genera
    start."""

    theta: np.ndarray
    totals: np.ndarray
    sums: np.ndarray
    genus_starts: np.ndarray


def series_stack(stack: Stack, n_max: int) -> SeriesStack:
    """The theta matrices of every group of the stack from one representation_counts
    call over all of their classes, and their column sums and genus sums."""
    theta = representation_counts(stack.classes, n_max)
    sums, genus_starts = _stacked_genus_sums(stack, theta)
    return SeriesStack(theta, np.add.reduceat(theta, stack.starts, axis=0), sums, genus_starts)


def _stacked_genus_sums(stack: Stack, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The genus sums S of every group of the stack from its stacked theta rows, by
    one np.add.reduceat over the classes ordered by genus, and where each group's
    genera start among them."""
    genus = genus_rows(stack)
    order = np.argsort(genus, kind="stable")
    starts = np.searchsorted(genus[order], np.arange(genus.max() + 1))
    return np.add.reduceat(theta[order], starts, axis=0), genus[stack.starts]


def _read_only(array: np.ndarray, group: ClassGroup, n_max: int, copy: bool = False) -> np.ndarray:
    """array in the coefficient dtype of the group, read-only; a copy when copy is
    set or the dtype changes."""
    array = array.astype(_coeff_dtype(group, n_max), copy=copy)
    array.setflags(write=False)
    return array


def theta_slices(stack: Stack, layers: SeriesStack, n_max: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """(theta_matrix, _genus_sums) of each group of the stack, copied out of layers."""
    ends = np.append(layers.genus_starts[1:], len(layers.sums))
    return [(_read_only(layers.theta[start : start + group.h], group, n_max, copy=True),
             _read_only(layers.sums[g0:g1], group, n_max, copy=True))
            for group, start, g0, g1 in zip(stack.groups, stack.starts.tolist(), layers.genus_starts.tolist(),
                                            ends.tolist())]


@memo(maxsize=1)
def theta_matrix(delta: int, n_max: int) -> np.ndarray:
    """The h x (n_max + 1) integer matrix whose row h is the theta series of the
    class h: [r(Q_h, 0), ..., r(Q_h, n_max)].  Read-only.

    Built once per (delta, n_max), and only the last one is kept: every check of
    a discriminant reads the same matrix, and a run then moves on to the next.
    series_stack builds the matrices of a stack of groups from the same
    representation_counts call on all of their classes."""
    group = build_class_group(delta)
    return _read_only(representation_counts(group.classes, n_max), group, n_max)


def theta_series(group: ClassGroup, h: int, n_max: int) -> QSeries:
    """Theta series of the class h: coefficient n is r(Q_h, n); constant term 1.
    Builds this one row, not the whole theta matrix."""
    counts = representation_counts(group.classes[[h]], n_max)[0]
    return QSeries(group.delta, counts.astype(_coeff_dtype(group, n_max), copy=False))


def theta_total(group: ClassGroup, n_max: int) -> np.ndarray:
    """The coefficients of the sum of the theta series of all classes, as an
    integer array; constant term h."""
    return theta_matrix(group.delta, n_max).sum(axis=0)


@memo(maxsize=1)
def _genus_sums(delta: int, n_max: int) -> np.ndarray:
    """S: the matrix whose row k is the sum of the theta rows of the classes in the
    genus genus_ids[k] (see _stacked_genus_sums).  Read-only; kept for the last
    (delta, n_max) only."""
    sums, _ = _stacked_genus_sums(stack_of(build_class_group(delta)), theta_matrix(delta, n_max))
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


@memo(maxsize=None)
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


class EisensteinRows(NamedTuple):
    """The Eisenstein matrix of a group and its unit (see eisenstein_matrix), the
    character row of its delta (see character_row; None for rows of given
    pairs) and L(0)."""

    rows: np.ndarray
    unit: Fraction
    character: Optional[np.ndarray]
    l_zero: Fraction


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


def eisenstein_stack(groups: list[ClassGroup], n_max: int, pairs=None,
                     reads: Optional[CharacterReads] = None) -> list[EisensteinRows]:
    """The Eisenstein rows of each group, for its character pairs (or pairs[k]):
    each row of (D|.) and (d|.) is the product of the windows of its prime
    discriminants, from one gather and one product, and all rows come from one
    Dirichlet convolution.  The windows and L(0) are those of reads, read from
    the tables of the groups' deltas here when it is not given."""
    if reads is None:
        reads = CharacterReads(n_max)
        for group in groups:
            reads.add(group.delta)
    factors, characters, own_pairs = [], [], []
    for k, (group, own) in enumerate(zip(groups, reads.own)):
        pairs_k = pairs[k] if pairs is not None else character_pairs(group.delta)
        own_pairs.append(pairs_k)
        factors += [[i for p, i in own if a % p == 0] for d, big_d in pairs_k for a in (big_d, d)]
        if pairs is None:
            characters.append([i for _, i in own])
    # the row of (a|.) is the product of the windows of the prime discriminants of
    # a, padded with the all-ones row 0: first the rows of (D|.) and (d|.) of
    # every pair, then the character of each delta
    rows_of = factors + characters
    width = max(map(len, rows_of))
    index = np.array([row + [0] * (width - len(row)) for row in rows_of])
    values = np.array(reads.windows)[index].prod(axis=1, dtype=np.int64)
    divisor_sums = dirichlet_convolution(values[0 : len(factors) : 2], values[1 : len(factors) : 2])
    out, row = [], 0
    for k, (group, pairs_k, constant) in enumerate(zip(groups, own_pairs, reads.l_zero)):
        half, count = constant / 2, len(pairs_k)
        rows = divisor_sums[row : row + count].astype(_coeff_dtype(group, n_max)) * half.denominator
        for j, (d, _) in enumerate(pairs_k):
            if d == 1:
                rows[j, 0] = half.numerator
        rows.setflags(write=False)
        character = None
        if pairs is None:
            character = values[len(factors) + k].astype(np.int8)
            character.setflags(write=False)
        out.append(EisensteinRows(rows, Fraction(1, half.denominator), character, constant))
        row += count
    return out


@memo(maxsize=1)
def eisenstein_matrix(delta: int, n_max: int, pairs=None) -> tuple[np.ndarray, Fraction]:
    """E: the divisor sums sum over t | n of (d | n/t)(D | t) of the pairs (d, D) of
    delta (all character pairs by default, in character_pairs order), one row
    each, from one Dirichlet convolution of the stacked rows of (D|.) and (d|.).
    All rows share the unit 1/k, k the denominator of L(0)/2, so that the
    constant term L(0)/2 of the row d = 1 is an integer too; the other rows
    have constant term 0.  Read-only; kept for the last request only.
    eisenstein_stack builds the rows of many groups at once; this is one."""
    found = eisenstein_stack([build_class_group(delta)], n_max, None if pairs is None else [pairs])[0]
    return found.rows, found.unit


@memo(maxsize=1)
def character_row(delta: int, n_max: int) -> np.ndarray:
    """[(delta|m) for 0 <= m <= n_max] as read-only int8, the Kronecker character
    of delta at the columns of a series; kept for the last request only."""
    row = kronecker_values(delta, delta, 0, n_max + 1)
    row.setflags(write=False)
    return row


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
