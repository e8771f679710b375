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
    "first_unequal",
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
        u, v = self.unit, other.unit
        num = math.gcd(u.numerator, v.numerator) or 1
        den = math.lcm(u.denominator, v.denominator)
        return (self.coeffs[:m] * (u.numerator // num * (den // u.denominator)),
                other.coeffs[:m] * (v.numerator // num * (den // v.denominator)),
                Fraction(num, den))

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
        """First (n, self[n], other[n]) with differing coefficients, or None.

        hi defaults to the smaller precision; never compares beyond it.
        """
        limit = min(self.precision, other.precision)
        hi = limit if hi is None else min(hi, limit)
        a, b, _ = self._over_common_unit(other)
        found = first_unequal(a[lo : hi + 1], b[lo : hi + 1])
        if found is None:
            return None
        n = lo + found[1]
        return n, self[n], other[n]

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


def first_unequal(lhs: np.ndarray, rhs: np.ndarray) -> Optional[tuple[int, int]]:
    """(row, column) of the first unequal entry in row-major order, or None.

    A vector counts as one row, so its mismatch is (0, index).
    """
    unequal = np.atleast_2d(lhs != rhs)
    if not unequal.any():
        return None
    row, col = divmod(int(unequal.argmax()), unequal.shape[1])
    return row, col


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
    is 0, where f and g are vectors over 0..N of one dtype (int64 or object):
    one gather of the pairs (t, m) in order of t * m and one np.add.reduceat."""
    out = np.zeros_like(f)
    if len(f) > 1:
        ts, ms, starts = _divisor_pairs(len(f) - 1)
        out[1:] = np.add.reduceat(f[ts] * g[ms], starts)
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
