"""Positive-definite integral binary quadratic forms: reduction, enumeration, counts."""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .arith import is_fundamental

__all__ = [
    "reduce_triple",
    "reduced_forms",
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
    discriminant delta, as the rows of a read-only h x 3 int64 array.

    The reduced forms are the (a, b, c) with 0 < a <= sqrt(|delta|/3), -a < b <= a,
    b = delta (mod 2) and integral c = (b^2 - delta)/(4a) >= a, where b >= 0 when
    a = c (Cohen, A Course in Computational Algebraic Number Theory, 5.3).  As
    (a, -b, c) is reduced with (a, b, c) when 0 < b < a < c, only 0 <= b <= a is
    tested, as int64 arrays of REDUCED_FORMS_BLOCK candidates.  Lexicographically
    sorted.  Every row is a positive definite primitive form: a >= 1, c is
    integral by the divisibility test, and a common factor g > 1 of a, b, c
    would make delta/g^2 a discriminant, which a fundamental delta excludes.
    """
    if not is_fundamental(delta):
        raise ValueError(f"{delta} is not a negative fundamental discriminant")
    a_row = np.arange(1, math.isqrt(-delta // 3) + 1, dtype=np.int64)
    # row a holds b = delta % 2, delta % 2 + 2, ..., a; candidate k of the whole
    # enumeration, in row a, is b = b_base[a] + 2k
    widths = (a_row - delta % 2) // 2 + 1
    row_ends = np.cumsum(widths)
    row_starts = row_ends - widths
    b_base = delta % 2 - 2 * row_starts
    total = int(row_ends[-1])
    found = []
    for start in range(0, total, REDUCED_FORMS_BLOCK):
        stop = min(start + REDUCED_FORMS_BLOCK, total)
        lengths = np.minimum(row_ends, stop) - np.maximum(row_starts, start)
        row = np.repeat(np.arange(len(a_row)), np.maximum(lengths, 0))
        a = a_row[row]
        b = b_base[row] + np.arange(2 * start, 2 * stop, 2)
        c, rem = np.divmod(b * b - delta, 4 * a)
        keep = (rem == 0) & (c >= a)
        a, b, c = a[keep], b[keep], c[keep]
        mirror = (0 < b) & (b < a) & (a < c)
        found += ((a, b, c), (a[mirror], -b[mirror], c[mirror]))
    a, b, c = (np.concatenate(parts) for parts in zip(*found))
    order = np.lexsort((b, a))  # by a, then b
    forms = np.stack((a[order], b[order], c[order]), axis=1)
    forms.setflags(write=False)
    return forms


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
    ends = np.cumsum(lengths)
    values = np.arange(ends[-1]) + np.repeat(first + lengths - ends, lengths)
    return np.repeat(np.arange(len(lengths)), lengths), values


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
