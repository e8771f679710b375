"""Builders for the concrete q-series: theta series, genus averages, twisted sums,
divisor-sum Eisenstein series, and the character-weighted combination per genus;
and L(0) of the Kronecker character, the Eisenstein constant term."""

from __future__ import annotations

import io
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
from .forms import representation_counts
from .genus import GenusCharacter, build_genus_characters
from .qseries import QSeries, qseries

__all__ = [
    "theta_series",
    "theta_total",
    "class_average",
    "genus_eisenstein",
    "twisted_sum",
    "eisenstein_series",
    "l_zero",
    "eisenstein_for_genus",
    "series_csv",
]


@lru_cache(maxsize=None)
def _theta_coeffs(delta: int, h: int, n_max: int) -> tuple[int, ...]:
    group = build_class_group(delta)
    return tuple(representation_counts(group.classes[h], n_max))


def theta_series(group: ClassGroup, h: int, n_max: int) -> QSeries:
    """Theta series of the class h: coefficient n is r(Q_h, n); constant term 1."""
    return qseries(group.delta, _theta_coeffs(group.delta, h, n_max))


def theta_total(group: ClassGroup, n_max: int) -> QSeries:
    """Sum of the theta series of all classes; constant term h."""
    total = theta_series(group, 0, n_max)
    for h in range(1, group.h):
        total = total + theta_series(group, h, n_max)
    return total


def class_average(group: ClassGroup, n_max: int) -> QSeries:
    """(1/w) * sum of all theta series; constant term h/w."""
    return theta_total(group, n_max).scale(Fraction(1, group.w))


def genus_eisenstein(group: ClassGroup, genus_id: int, n_max: int) -> QSeries:
    """Average of the theta series over one genus: (1/|H^2|) sum over h in g."""
    members = group.genus_members(genus_id)
    total = theta_series(group, members[0], n_max)
    for h in members[1:]:
        total = total + theta_series(group, h, n_max)
    return total.scale(Fraction(1, len(members)))


def twisted_sum(group: ClassGroup, chi: GenusCharacter, n_max: int) -> QSeries:
    """(1/w) * sum over classes of chi(h) * theta_h."""
    total = qseries(group.delta, [0] * (n_max + 1))
    for h in range(group.h):
        term = theta_series(group, h, n_max)
        total = total + (term if chi.value(group.genus_of[h]) == 1 else -term)
    return total.scale(Fraction(1, group.w))


def _kronecker_table(delta: int) -> np.ndarray:
    """[(delta|r) for r in range(|delta|)] as int8, the product of the characters
    of the prime discriminants of delta.  An odd prime discriminant's character
    at r >= 0 is the Legendre symbol (r|p); the -4, 8 or -8 factor has period at
    most 8 and is read from kronecker itself."""
    q = -delta
    table = np.ones(q, dtype=np.int8)
    for factor in prime_discriminant_factorization(delta):
        m = abs(factor)
        if m % 2:
            period = np.full(m, -1, dtype=np.int8)
            period[0] = 0
            x = np.arange(1, (m + 1) // 2, dtype=np.int64)
            period[x * x % m] = 1
        else:
            period = np.array([kronecker(factor, r) for r in range(m)], dtype=np.int8)
        table *= np.resize(period, q)
    return table


@lru_cache(maxsize=None)
def l_zero(delta: int) -> Fraction:
    """L(0) for the Kronecker character chi of delta, from the character alone:
    L(0, chi) = -B_{1,chi} = -(1/|delta|) * sum over 0 <= a < |delta| of chi(a) * a
    (Washington, Introduction to Cyclotomic Fields, Thm 4.2).

    The sum is an int64 dot product.  It is exact because |sum| < |delta|^2 / 2,
    which fits in int64 for |delta| < 4 * 10^9; larger |delta| is refused.
    """
    q = -delta
    if q >= 4 * 10**9:
        raise ValueError(f"|delta| = {q} is too large for an exact int64 L(0) sum")
    total = np.dot(_kronecker_table(delta).astype(np.int64), np.arange(q, dtype=np.int64))
    return Fraction(-int(total), q)


@lru_cache(maxsize=None)
def _eisenstein_coeffs(d: int, big_d: int, n_max: int) -> tuple[Fraction, ...]:
    delta = d * big_d
    kd = [kronecker(d, m) for m in range(n_max + 1)]
    kD = [kronecker(big_d, m) for m in range(n_max + 1)]
    coeffs = [Fraction(0)] * (n_max + 1)
    for t in range(1, n_max + 1):
        if kD[t] == 0:
            continue
        for n in range(t, n_max + 1, t):
            coeffs[n] += kd[n // t] * kD[t]
    if d == 1:
        coeffs[0] = l_zero(delta) / 2
    return tuple(coeffs)


def eisenstein_series(d: int, big_d: int, n_max: int) -> QSeries:
    """Weight-one Eisenstein series of the pair (d, D): divisor-sum coefficients
    sum over t | n of (d | n/t)(D | t), with constant term L(0)/2 when d = 1."""
    if d < 1 or big_d >= 0:
        raise ValueError(f"need d > 0 > D, got ({d}, {big_d})")
    if not is_fundamental_discriminant(d) or not is_fundamental(d * big_d):
        raise ValueError(f"({d}, {big_d}) is not a discriminant factorization")
    return QSeries(d * big_d, _eisenstein_coeffs(d, big_d, n_max))


def eisenstein_for_genus(group: ClassGroup, genus_id: int, n_max: int) -> QSeries:
    """(w/h) * sum over characters of chi(g) * E_{d,D}: the mass-formula series."""
    total = qseries(group.delta, [0] * (n_max + 1))
    for chi in build_genus_characters(group):
        term = eisenstein_series(chi.d, chi.D, n_max).scale(chi.value(genus_id))
        total = total + term
    return total.scale(Fraction(group.w, group.h))


def series_csv(series: QSeries) -> str:
    """CSV dump of one series, one row per coefficient."""
    buf = io.StringIO()
    buf.write("n,numerator,denominator\n")
    for n, c in enumerate(series.coeffs):
        buf.write(f"{n},{c.numerator},{c.denominator}\n")
    return buf.getvalue()
