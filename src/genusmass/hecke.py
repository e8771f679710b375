"""Per-prime operator identities on theta series: eigenvalue check for the class-group
sum, the split/ramified/inert per-class identities, and the genus permutation.

Each identity is one comparison of integer arrays over all classes (rows of the
theta matrix) or all genera (rows of the genus sums), with T_p applied to every row
at once by slicing.  The prime's character value and class permutation come from
one prime layer per discriminant, which composes every class with every
non-inert prime class in one compose_rows call."""

from __future__ import annotations

import json
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
    "CheckRecord",
    "check_eigenform",
    "check_split_theta",
    "check_ramified_theta",
    "check_inert_theta",
    "check_genus_permutation",
    "prime_checks",
]


PRIME_TYPES = {1: "split", 0: "ramified", -1: "inert"}


def _mismatch_dict(n: int, lhs: Fraction, rhs: Fraction) -> dict:
    return {"n": n, "lhs": str(lhs), "rhs": str(rhs)}


@dataclass(frozen=True)
class CheckRecord:
    """One check of a report: its status ("pass", "fail" or "skip"), a detail
    line, the first mismatch (n, lhs, rhs) where the check has one, and its time.
    Every check returns one; it lives here because verify imports this module."""

    name: str
    status: str
    detail: str
    first_mismatch: Optional[tuple[int, Fraction, Fraction]] = None
    elapsed_ms: float = 0.0

    @property
    def passed(self) -> bool:
        return self.status != "fail"

    def to_dict(self) -> dict:
        out = {"name": self.name, "pass": self.passed, "status": self.status, "detail": self.detail}
        if self.status == "fail" and self.first_mismatch is not None:
            out["first_mismatch"] = _mismatch_dict(*self.first_mismatch)
        out["elapsed_ms"] = self.elapsed_ms
        return out


def _compare_rows(p, chi, identity, lhs, rhs, unit=Fraction(1)) -> CheckRecord:
    """Compare two integer arrays with one unit (one row per class or genus, or one
    vector) on n >= 1; chi = (delta|p) names the prime's type."""
    name, checked = f"{identity}[p={p}]", f"{PRIME_TYPES[chi]}; n=1..{lhs.shape[-1] - 1}"
    found = first_mismatch(lhs, unit, rhs, unit, lo=1)
    if found is None:
        return CheckRecord(name, "pass", f"{checked} exact")
    mismatch = found[1:]
    return CheckRecord(name, "fail", f"{checked} {json.dumps(_mismatch_dict(*mismatch))}", mismatch)


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


def check_eigenform(group: ClassGroup, p: int, n_max: int, bound=None) -> CheckRecord:
    """a(pn) + (delta|p) a(n/p) = (1 + (delta|p)) a(n) for the class-group total a."""
    total = theta_total(group, n_max).coeffs
    chi = _layer(group, p, bound).chi[p]
    lhs = t_rows(total, p, chi)
    return _compare_rows(p, chi, "eigenform", lhs, (1 + chi) * total[: len(lhs)])


def check_split_theta(group: ClassGroup, p: int, n_max: int, bound=None) -> CheckRecord:
    """theta_h | T_p = theta_{h p} + theta_{h p'} for every class h, split p."""
    layer = _layer(group, p, bound)
    if layer.chi[p] != 1:
        raise ValueError(f"{p} is not split for discriminant {group.delta}")
    theta = theta_matrix(group.delta, n_max)
    lhs = t_rows(theta, p, 1)
    cols = lhs.shape[-1]
    rhs = theta[layer.perms[p], :cols] + theta[layer.conjugates[p], :cols]
    return _compare_rows(p, 1, "theta_split", lhs, rhs)


def check_ramified_theta(group: ClassGroup, p: int, n_max: int, bound=None) -> CheckRecord:
    """theta_h | U_p = theta_{h p} for every class h, ramified p."""
    layer = _layer(group, p, bound)
    if layer.chi[p] != 0:
        raise ValueError(f"{p} is not ramified for discriminant {group.delta}")
    theta = theta_matrix(group.delta, n_max)
    lhs = u_rows(theta, p)
    rhs = theta[layer.perms[p], : lhs.shape[-1]]
    return _compare_rows(p, 0, "theta_ramified", lhs, rhs)


def check_inert_theta(group: ClassGroup, p: int, n_max: int, bound=None) -> CheckRecord:
    """theta_h | T_p = 0 for every class h, inert p."""
    if _layer(group, p, bound).chi[p] != -1:
        raise ValueError(f"{p} is not inert for discriminant {group.delta}")
    lhs = t_rows(theta_matrix(group.delta, n_max), p, -1)
    return _compare_rows(p, -1, "theta_inert", lhs, np.zeros_like(lhs))


def check_genus_permutation(group: ClassGroup, p: int, n_max: int, bound=None) -> CheckRecord:
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
    return _compare_rows(p, chi, "genus_permutation", lhs, rhs, unit)


def prime_checks(group: ClassGroup, p: int, n_max: int, bound=None) -> Iterator[CheckRecord]:
    """All identities at p, each computed when it is reached: eigenform, the
    per-class theta identity for the prime's type, and the genus permutation,
    which is a skip record at an inert p.  They read one prime layer for the
    primes up to bound (default p): a caller that checks every prime up to a
    bound passes it, so that the layer is built once for all of them."""
    yield check_eigenform(group, p, n_max, bound)
    chi = _layer(group, p, bound).chi[p]
    if chi == 1:
        yield check_split_theta(group, p, n_max, bound)
    elif chi == 0:
        yield check_ramified_theta(group, p, n_max, bound)
    else:
        yield check_inert_theta(group, p, n_max, bound)
        yield CheckRecord(f"genus_permutation[p={p}]", "skip", "skipped: p inert, no genus translate")
        return
    yield check_genus_permutation(group, p, n_max, bound)
