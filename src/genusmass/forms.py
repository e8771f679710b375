"""Positive-definite integral binary quadratic forms: reduction, enumeration, counts."""

from __future__ import annotations

import math
from itertools import accumulate
from functools import lru_cache

import numpy as np

from .arith import is_fundamental

__all__ = [
    "reduce_triple",
    "reduced_forms",
    "stacked_reduced_forms",
    "representation_counts",
    "automorph_count",
]


def reduce_triple(a: int, b: int, c: int) -> tuple[int, int, int]:
    """Gauss reduction of the positive definite form (a, b, c), on bare integers."""
    while True:
        # shift x -> x + r*y to bring b into (-a, a]
        r = (a - b) // (2 * a)
        if r:
            b, c = b + 2 * r * a, a * r * r + b * r + c
        if a > c or (a == c and b < 0):
            # (x, y) -> (-y, x)
            a, b, c = c, -b, a
        else:
            return a, b, c


# reduced_forms tests its (a, b) candidates in blocks of this many, so that its
# memory does not grow with |delta|: the int64 arrays of one block take about 1 MB.
REDUCED_FORMS_BLOCK = 1 << 14

# representation_counts refuses inputs whose int64 intermediates could reach this.
INT64_BOUND = 2**62


@lru_cache(maxsize=None)
def reduced_forms(delta: int) -> np.ndarray:
    """One reduced representative (a, b, c) per form class of fundamental
    discriminant delta, as the rows of a read-only h x 3 int64 array,
    lexicographically sorted: stacked_reduced_forms of delta alone."""
    forms, _ = stacked_reduced_forms([delta])
    forms.setflags(write=False)
    return forms


def stacked_reduced_forms(deltas) -> tuple[np.ndarray, np.ndarray]:
    """The reduced forms of each fundamental discriminant in deltas, stacked in
    the order of deltas, each discriminant's sorted lexicographically, as an
    int64 array with one row (a, b, c) per form; and the number of forms of each
    discriminant, its class number h.

    The reduced forms are the (a, b, c) with 0 < a <= sqrt(|delta|/3), -a < b <= a,
    b = delta (mod 2) and integral c = (b^2 - delta)/(4a) >= a, where b >= 0 when
    a = c (Cohen, A Course in Computational Algebraic Number Theory, 5.3).  As
    (a, -b, c) is reduced with (a, b, c) when 0 < b < a < c, only 0 <= b <= a is
    tested, as int64 arrays of REDUCED_FORMS_BLOCK candidates that run across
    the discriminants.  Every row is a positive definite primitive form: a >= 1,
    c is integral by the divisibility test, and a common factor g > 1 of a, b, c
    would make delta/g^2 a discriminant, which a fundamental delta excludes.
    """
    deltas = [int(delta) for delta in deltas]
    for delta in deltas:
        if not is_fundamental(delta):
            raise ValueError(f"{delta} is not a negative fundamental discriminant")
    # one row per (discriminant, a), holding b = delta % 2, delta % 2 + 2, ..., a;
    # candidate k of the whole enumeration, in row i, is b = b_base[i] + 2k
    tops = [math.isqrt(-delta // 3) for delta in deltas]
    owner = np.arange(len(deltas)).repeat(tops)
    a_row = np.arange(1, sum(tops) + 1) - np.array(list(accumulate(tops[:-1], initial=0))).repeat(tops)
    q_row = np.array([-delta for delta in deltas]).repeat(tops)
    parity = q_row % 2
    widths = (a_row - parity) // 2 + 1
    row_ends = widths.cumsum()
    b_base = parity - 2 * (row_ends - widths)
    total = int(row_ends[-1])
    found = []
    for start in range(0, total, REDUCED_FORMS_BLOCK):
        stop = min(start + REDUCED_FORMS_BLOCK, total)
        first, last = row_ends.searchsorted([start, stop - 1], side="right").tolist()
        rows = slice(first, last + 1)
        lengths = np.minimum(row_ends[rows], stop) - np.maximum(row_ends[rows] - widths[rows], start)
        a = a_row[rows].repeat(lengths)
        b = b_base[rows].repeat(lengths) + np.arange(2 * start, 2 * stop, 2)
        c, rem = np.divmod(b * b + q_row[rows].repeat(lengths), 4 * a)
        keep = np.flatnonzero((rem == 0) & (c >= a))
        kept = np.array((row_ends.searchsorted(keep + start, side="right"), a[keep], b[keep], c[keep]))
        _, a, b, c = kept
        found += (kept, kept[:, (0 < b) & (b < a) & (a < c)] * _MIRROR)
    row, a, b, c = np.concatenate(found, axis=1)
    position = owner[row]
    order = np.lexsort((b, a, position))  # by discriminant, then a, then b
    return np.array((a[order], b[order], c[order])).T, np.bincount(position, minlength=len(deltas))


# (row, a, b, c) -> (row, a, -b, c)
_MIRROR = np.array([[1], [1], [-1], [1]], dtype=np.int64)


def _isqrt(n: np.ndarray) -> np.ndarray:
    """floor(sqrt(n)) for an int64 array 0 <= n < 2^62: the float64 root, then
    one integer correction either way (the float error is far below 1 there)."""
    s = np.sqrt(n).astype(np.int64)
    s -= s * s > n
    s += (s + 1) * (s + 1) <= n
    return s


def _ragged(first: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows of consecutive integers first[i], first[i] + 1, ... of lengths[i]
    entries, as two flat arrays: each entry's row i, and its value."""
    ends = lengths.cumsum()
    values = np.arange(ends[-1]) + (first + lengths - ends).repeat(lengths)
    return np.arange(len(lengths)).repeat(lengths), values


def representation_counts(forms: np.ndarray, n_max: int) -> np.ndarray:
    """The len(forms) x (n_max + 1) int64 matrix whose row i is
    [r(Q_i, 0), ..., r(Q_i, n_max)] for the forms Q_i = (a, b, c), the rows of an
    m x 3 integer array, by one sweep over the lattice points of every ellipse
    Q_i <= n_max.

    Row i takes |x| <= isqrt(4 c n_max / |delta|) and, for each x, the y between
    the roots of Q_i(x, y) = n_max; one np.bincount over i (n_max + 1) + Q_i(x, y)
    counts the points.  The forms are reduced (|b| <= a <= c), so
    c <= (|delta| + 1)/4, a x^2 and c y^2 are at most 4 n_max / 3 on the
    ellipse, and the largest int64 intermediate is 4 c n_max <= (|delta| + 1) n_max;
    a ValueError is raised when that could reach INT64_BOUND.
    """
    if n_max < 0:
        raise ValueError(f"expected n_max >= 0, got {n_max}")
    a, b, c = np.asarray(forms, dtype=np.int64).reshape(-1, 3).T
    if not ((np.abs(b) <= a) & (a <= c)).all():
        raise ValueError("representation_counts needs reduced forms")
    abs_disc = 4 * a * c - b * b
    if (int(abs_disc.max()) + 1) * n_max >= INT64_BOUND:
        raise ValueError(f"|delta| = {int(abs_disc.max())} and n_max = {n_max} overflow int64")
    four_cn = 4 * n_max * c
    xmax = _isqrt(four_cn // abs_disc)
    # one entry per (class, x)
    row, x = _ragged(-xmax, 2 * xmax + 1)
    s = _isqrt(four_cn[row] - abs_disc[row] * x * x)
    bx, c_row = b[row] * x, c[row]
    ylo = -((bx + s) // (2 * c_row))
    yhi = (s - bx) // (2 * c_row)
    base = row * (n_max + 1) + a[row] * x * x
    # one entry per lattice point, at index i (n_max + 1) + a x^2 + (b x + c y) y
    pair, y = _ragged(ylo, yhi - ylo + 1)
    index = base[pair] + (bx[pair] + c_row[pair] * y) * y
    counts = np.bincount(index, minlength=len(a) * (n_max + 1))
    return counts.astype(np.int64, copy=False).reshape(len(a), n_max + 1)


def automorph_count(delta: int) -> int:
    """Unit count w of the order of discriminant delta: 6, 4, or 2."""
    if not is_fundamental(delta):
        raise ValueError(f"{delta} is not a negative fundamental discriminant")
    if delta == -3:
        return 6
    if delta == -4:
        return 4
    return 2
