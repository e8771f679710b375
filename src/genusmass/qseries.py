"""Exact truncated q-expansions as an integer vector times one rational, and the
index operators U_p, V_p, T_p as slicing on the last axis of an integer array."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

import numpy as np

from .arith import is_prime, kronecker

__all__ = [
    "QSeries",
    "first_mismatch",
    "first_true",
    "u_rows",
    "t_rows",
    "dirichlet_convolution",
    "apply_U",
    "apply_V",
    "apply_T",
]


@dataclass(frozen=True, eq=False)
class QSeries:
    """Coefficients 0..precision of a q-expansion: coefficient n is coeffs[n] * unit.

    coeffs is an integer array (int64, or object when its producer's bound says
    int64 could overflow); unit is one exact rational for the whole series.
    disc is the discriminant whose Kronecker character the T_p operator uses;
    arithmetic between series of different precision truncates to the shorter.
    Two series compare, add and subtract by cross-multiplying their integer
    vectors into multiples of one common unit.
    """

    disc: int
    coeffs: np.ndarray
    unit: Fraction = Fraction(1)

    @property
    def precision(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> Fraction:
        return int(self.coeffs[n]) * self.unit

    def _check_compatible(self, other: "QSeries") -> None:
        if self.disc != other.disc:
            raise ValueError(f"mixed discriminants {self.disc} and {other.disc}")

    def _over_common_unit(self, other: "QSeries") -> tuple[np.ndarray, np.ndarray, Fraction]:
        """Both vectors, truncated to the shorter, cross-multiplied into integer
        multiples of one common unit: equal entries are equal coefficients."""
        self._check_compatible(other)
        m = min(self.precision, other.precision) + 1
        fu, fv, unit = _common_unit(self.unit, other.unit)
        return self.coeffs[:m] * fu, other.coeffs[:m] * fv, unit

    def __eq__(self, other) -> bool:
        if not isinstance(other, QSeries):
            return NotImplemented
        if self.disc != other.disc or self.precision != other.precision:
            return False
        a, b, _ = self._over_common_unit(other)
        return bool(np.array_equal(a, b))

    def __add__(self, other: "QSeries") -> "QSeries":
        a, b, unit = self._over_common_unit(other)
        return QSeries(self.disc, a + b, unit)

    def __sub__(self, other: "QSeries") -> "QSeries":
        a, b, unit = self._over_common_unit(other)
        return QSeries(self.disc, a - b, unit)

    def __neg__(self) -> "QSeries":
        return QSeries(self.disc, -self.coeffs, self.unit)

    def scale(self, r) -> "QSeries":
        return QSeries(self.disc, self.coeffs, self.unit * Fraction(r))

    def first_mismatch(self, other: "QSeries", lo: int = 0, hi: Optional[int] = None):
        """First (n, self[n], other[n]) with lo <= n <= hi and differing coefficients,
        or None; hi defaults to the smaller precision and never passes it."""
        self._check_compatible(other)
        limit = min(self.precision, other.precision)
        hi = limit if hi is None else min(hi, limit)
        found = first_mismatch(self.coeffs[: hi + 1], self.unit, other.coeffs[: hi + 1], other.unit, lo)
        return None if found is None else found[1:]

    def reduced(self) -> list[tuple[int, int]]:
        """Each coefficient as (numerator, denominator) in lowest terms, denominator > 0."""
        nums = self.coeffs * self.unit.numerator
        gcds = np.gcd(nums, self.unit.denominator)
        return list(zip((nums // gcds).tolist(), (self.unit.denominator // gcds).tolist()))

    def to_dict(self) -> dict:
        return {
            "disc": self.disc,
            "precision": self.precision,
            "coeffs": [[num, den] for num, den in self.reduced()],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def _common_unit(u: Fraction, v: Fraction) -> tuple[int, int, Fraction]:
    """Integers fu, fv and one unit c with u = fu * c and v = fv * c."""
    num = math.gcd(u.numerator, v.numerator) or 1
    den = math.lcm(u.denominator, v.denominator)
    return (u.numerator // num * (den // u.denominator), v.numerator // num * (den // v.denominator),
            Fraction(num, den))


def first_mismatch(lhs: np.ndarray, lhs_unit, rhs: np.ndarray, rhs_unit, lo: int = 0):
    """The first (row, n, lhs[row, n] * lhs_unit, rhs[row, n] * rhs_unit) in
    row-major order over the columns n >= lo where the two sides differ, or None;
    a vector counts as one row.  Only the mismatch found becomes Fractions."""
    a, b = np.atleast_2d(lhs)[:, lo:], np.atleast_2d(rhs)[:, lo:]
    if lhs_unit == rhs_unit:
        unequal = a != b
    else:
        fl, fr, _ = _common_unit(Fraction(lhs_unit), Fraction(rhs_unit))
        unequal = a * fl != b * fr
    if not unequal.any():
        return None
    row, col = first_true(unequal)
    return row, lo + col, int(a[row, col]) * Fraction(lhs_unit), int(b[row, col]) * Fraction(rhs_unit)


def first_true(unequal: np.ndarray) -> tuple[int, int]:
    """The (row, column) of the first True of a 2-d bool array in row-major
    order, the order of first_mismatch; (0, 0) when it has none."""
    return divmod(int(unequal.argmax()), unequal.shape[1])


def u_rows(a: np.ndarray, p: int) -> np.ndarray:
    """U_p on the last axis: entry n of the result is entry p*n of a, n = 0..floor(N/p)."""
    return a[..., :: p]


def t_rows(a: np.ndarray, p: int, chi: int) -> np.ndarray:
    """T_p = U_p + chi V_p on the last axis, n = 0..floor(N/p): entry n is
    a[p*n] + chi * a[n/p], the second term only where p divides n."""
    out = a[..., :: p].copy()
    if chi:
        hi = out.shape[-1] - 1
        out[..., :: p] += chi * a[..., : hi // p + 1]
    return out


@lru_cache(maxsize=1)
def _divisor_pairs(n_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every pair (t, m) with t * m <= n_max, as two index arrays sorted by t * m
    (about n_max ln n_max pairs), and where each n = 1..n_max starts among them.
    Kept for the last n_max."""
    t = np.arange(1, n_max + 1)
    counts = n_max // t
    ts = np.repeat(t, counts)
    ms = np.arange(len(ts)) - np.repeat(np.cumsum(counts) - counts, counts) + 1
    products = ts * ms
    order = np.argsort(products, kind="stable")
    return ts[order], ms[order], np.searchsorted(products[order], t)


def dirichlet_convolution(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Entry n is the sum over t * m = n of f[t] * g[m], for n = 1..N, and entry 0
    is 0, on the last axis of f and g: vectors over 0..N of one dtype (int64 or
    object), or matrices with one such vector per row, convolved row by row.
    One gather of the pairs (t, m) in order of t * m and one np.add.reduceat."""
    out = np.zeros_like(f)
    n_max = f.shape[-1] - 1
    if n_max > 0:
        ts, ms, starts = _divisor_pairs(n_max)
        out[..., 1:] = np.add.reduceat(f[..., ts] * g[..., ms], starts, axis=-1)
    return out


def _check_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"operator index {p} is not prime")


def apply_U(f: QSeries, p: int) -> QSeries:
    """Index extraction: coefficient n of the output is coefficient p*n of f.

    Precision drops to floor(N/p).  The constant term is carried through
    unchanged; the operator identities are only ever compared on n >= 1.
    """
    _check_prime(p)
    return QSeries(f.disc, u_rows(f.coeffs, p), f.unit)


def apply_V(f: QSeries, p: int) -> QSeries:
    """Index dilation: coefficient p*n of the output is coefficient n of f."""
    _check_prime(p)
    out = np.zeros_like(f.coeffs)
    out[:: p] = f.coeffs[: f.precision // p + 1]
    return QSeries(f.disc, out, f.unit)


def apply_T(f: QSeries, p: int) -> QSeries:
    """Weight-one Hecke operator U_p + (disc|p) V_p, truncated to floor(N/p)."""
    _check_prime(p)
    return QSeries(f.disc, t_rows(f.coeffs, p, kronecker(f.disc, p)), f.unit)
