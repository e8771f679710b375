"""Per-prime operator identities on theta series: eigenvalue check for the class-group
sum, the split/ramified/inert per-class identities, and the genus permutation.

Each identity is one comparison of integer arrays over all classes (rows of the
theta matrix) or all genera (rows of the genus sums), with T_p applied to every row
at once by slicing.  The prime's character value and class permutation come from
one prime layer per discriminant, which composes every class with every
non-inert prime class in one compose_rows call."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, NamedTuple, Optional

import numpy as np

from .arith import kronecker, primes_up_to
from .class_group import ClassGroup, build_class_group, compose_rows, prime_ideal_class
from .qseries import first_mismatch, t_rows, u_rows
from .series import genus_eisenstein, theta_matrix, theta_total

__all__ = [
    "HeckeCheckResult",
    "check_eigenform",
    "check_split_theta",
    "check_ramified_theta",
    "check_inert_theta",
    "check_genus_permutation",
    "prime_checks",
]


PRIME_TYPES = {1: "split", 0: "ramified", -1: "inert"}


@dataclass(frozen=True)
class HeckeCheckResult:
    """Outcome of one operator identity at one prime, over indices 1..checked_hi."""

    delta: int
    p: int
    prime_type: str
    identity: str
    checked_hi: int
    passed: bool
    first_mismatch: Optional[tuple[int, Fraction, Fraction]] = None

    def to_dict(self) -> dict:
        mismatch = None
        if self.first_mismatch is not None:
            n, lhs, rhs = self.first_mismatch
            mismatch = {"n": n, "lhs": str(lhs), "rhs": str(rhs)}
        return {
            "delta": self.delta,
            "p": self.p,
            "prime_type": self.prime_type,
            "identity": self.identity,
            "checked": [1, self.checked_hi],
            "pass": self.passed,
            "first_mismatch": mismatch,
        }


def _compare_rows(group, p, chi, identity, lhs, rhs, unit=Fraction(1)) -> HeckeCheckResult:
    """Compare two integer arrays with one unit (one row per class or genus, or one
    vector) on n >= 1; chi = (delta|p) names the prime's type."""
    found = first_mismatch(lhs, unit, rhs, unit, lo=1)
    return HeckeCheckResult(
        delta=group.delta,
        p=p,
        prime_type=PRIME_TYPES[chi],
        identity=identity,
        checked_hi=lhs.shape[-1] - 1,
        passed=found is None,
        first_mismatch=None if found is None else found[1:],
    )


class _PrimeLayer(NamedTuple):
    chi: dict[int, int]
    perms: dict[int, np.ndarray]
    conjugates: dict[int, np.ndarray]
    genus_row: np.ndarray


@lru_cache(maxsize=1)
def _prime_layer(delta: int, bound: int) -> _PrimeLayer:
    """What every identity at a prime p <= bound reads, read-only and kept for the
    last (delta, bound) only:
    - chi[p] = (delta|p), one scalar kronecker per prime;
    - perms[p], the class permutation h -> h P of each non-inert p, where P is
      the class of the prime ideal above p: every class times every such P in
      one compose_rows call;
    - conjugates[p], the permutation h -> h P' of each split p, P' the inverse
      of P.  The class group is abelian, so the inverse map is an automorphism
      and h P' = (h' P)': this is perms[p] read at the inverses and mapped
      through them;
    - genus_row[h], the row of the genus of the class h in genus_ids order."""
    group = build_class_group(delta)
    chi = {p: kronecker(delta, p) for p in primes_up_to(bound)}
    primes = [p for p, value in chi.items() if value != -1]
    every = np.arange(group.h)
    hp = np.repeat([prime_ideal_class(group, p) for p in primes], group.h)
    rows = compose_rows(group, np.tile(every, len(primes)), hp).reshape(len(primes), group.h)
    inv = np.array(group.inverses)
    conjugates = {p: inv[perm[inv]] for p, perm in zip(primes, rows) if chi[p] == 1}
    genus_row = np.zeros(group.h, dtype=np.int64)
    genus_row[list(group.genus_ids)] = np.arange(len(group.genus_ids))
    genus_row = genus_row[list(group.genus_of)]
    for array in (rows, genus_row, *conjugates.values()):
        array.setflags(write=False)
    return _PrimeLayer(chi, dict(zip(primes, rows)), conjugates, genus_row)


def _layer(group: ClassGroup, p: int, bound) -> _PrimeLayer:
    """The prime layer of the primes up to bound (default p; at least p), which
    must include p."""
    layer = _prime_layer(group.delta, max(p, bound or p))
    if p not in layer.chi:
        raise ValueError(f"{p} is not prime")
    return layer


def check_eigenform(group: ClassGroup, p: int, n_max: int, bound=None) -> HeckeCheckResult:
    """a(pn) + (delta|p) a(n/p) = (1 + (delta|p)) a(n) for the class-group total a."""
    total = theta_total(group, n_max).coeffs
    chi = _layer(group, p, bound).chi[p]
    lhs = t_rows(total, p, chi)
    return _compare_rows(group, p, chi, "eigenform", lhs, (1 + chi) * total[: len(lhs)])


def check_split_theta(group: ClassGroup, p: int, n_max: int, bound=None) -> HeckeCheckResult:
    """theta_h | T_p = theta_{h p} + theta_{h p'} for every class h, split p."""
    layer = _layer(group, p, bound)
    if layer.chi[p] != 1:
        raise ValueError(f"{p} is not split for discriminant {group.delta}")
    theta = theta_matrix(group.delta, n_max)
    lhs = t_rows(theta, p, 1)
    cols = lhs.shape[-1]
    rhs = theta[layer.perms[p], :cols] + theta[layer.conjugates[p], :cols]
    return _compare_rows(group, p, 1, "theta_split", lhs, rhs)


def check_ramified_theta(group: ClassGroup, p: int, n_max: int, bound=None) -> HeckeCheckResult:
    """theta_h | U_p = theta_{h p} for every class h, ramified p."""
    layer = _layer(group, p, bound)
    if layer.chi[p] != 0:
        raise ValueError(f"{p} is not ramified for discriminant {group.delta}")
    theta = theta_matrix(group.delta, n_max)
    lhs = u_rows(theta, p)
    rhs = theta[layer.perms[p], : lhs.shape[-1]]
    return _compare_rows(group, p, 0, "theta_ramified", lhs, rhs)


def check_inert_theta(group: ClassGroup, p: int, n_max: int, bound=None) -> HeckeCheckResult:
    """theta_h | T_p = 0 for every class h, inert p."""
    if _layer(group, p, bound).chi[p] != -1:
        raise ValueError(f"{p} is not inert for discriminant {group.delta}")
    lhs = t_rows(theta_matrix(group.delta, n_max), p, -1)
    return _compare_rows(group, p, -1, "theta_inert", lhs, np.zeros_like(lhs))


def check_genus_permutation(group: ClassGroup, p: int, n_max: int, bound=None) -> HeckeCheckResult:
    """E_g | T_p = 2 E_{g p} (split) or E_{g p} (ramified) for every genus g: the
    target of the genus g is the genus of the class g p."""
    layer = _layer(group, p, bound)
    chi = layer.chi[p]
    if chi == -1:
        raise ValueError(f"{p} is inert for discriminant {group.delta}: no genus translate")
    sums, unit = genus_eisenstein(group, n_max)
    lhs = t_rows(sums, p, chi)
    targets = layer.genus_row[layer.perms[p][list(group.genus_ids)]]
    rhs = (2 if chi == 1 else 1) * sums[targets, : lhs.shape[-1]]
    return _compare_rows(group, p, chi, "genus_permutation", lhs, rhs, unit)


def prime_checks(group: ClassGroup, p: int, n_max: int, bound=None) -> Iterator[HeckeCheckResult]:
    """All identities that apply at p, each computed when it is reached: eigenform,
    the per-class theta identity for the prime's type, and (split/ramified only)
    the genus permutation.  They read one prime layer for the primes up to bound
    (default p): a caller that checks every prime up to a bound passes it, so
    that the layer is built once for all of them."""
    eigenform = check_eigenform(group, p, n_max, bound)
    yield eigenform
    kind = eigenform.prime_type
    if kind == "split":
        yield check_split_theta(group, p, n_max, bound)
        yield check_genus_permutation(group, p, n_max, bound)
    elif kind == "ramified":
        yield check_ramified_theta(group, p, n_max, bound)
        yield check_genus_permutation(group, p, n_max, bound)
    else:
        yield check_inert_theta(group, p, n_max, bound)
