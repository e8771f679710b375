"""Per-prime operator identities on theta series: eigenvalue check for the class-group
sum, the split/ramified/inert per-class identities, and the genus permutation.

Each identity is one comparison of integer arrays over all classes (rows of the
theta matrix) or all genera (rows of the genus sums), with T_p applied to every row
at once by slicing."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

import numpy as np

from .arith import kronecker
from .class_group import ClassGroup, prime_ideal_class
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


def check_eigenform(group: ClassGroup, p: int, n_max: int) -> HeckeCheckResult:
    """a(pn) + (delta|p) a(n/p) = (1 + (delta|p)) a(n) for the class-group total a."""
    total = theta_total(group, n_max).coeffs
    chi = kronecker(group.delta, p)
    lhs = t_rows(total, p, chi)
    return _compare_rows(group, p, chi, "eigenform", lhs, (1 + chi) * total[: len(lhs)])


def _translate(group: ClassGroup, hp: int) -> list[int]:
    """The class permutation h -> h * hp, one composition per class."""
    return [group.compose(h, hp) for h in range(group.h)]


def _split_translates(group: ClassGroup, hp: int) -> tuple[np.ndarray, np.ndarray]:
    """The class permutations h -> h p and h -> h p', where p' is the inverse of p,
    from one composition per class.

    The class group is abelian, so the inverse map is an automorphism and
    h p' = (h' p)': the second permutation is the first, read at the inverses
    and mapped through them."""
    inv = np.array(group.inverses)
    perm = np.array(_translate(group, hp))
    return perm, inv[perm[inv]]


def check_split_theta(group: ClassGroup, p: int, n_max: int) -> HeckeCheckResult:
    """theta_h | T_p = theta_{h p} + theta_{h p'} for every class h, split p."""
    if kronecker(group.delta, p) != 1:
        raise ValueError(f"{p} is not split for discriminant {group.delta}")
    perm, perm_bar = _split_translates(group, prime_ideal_class(group, p))
    theta = theta_matrix(group.delta, n_max)
    lhs = t_rows(theta, p, 1)
    cols = lhs.shape[-1]
    rhs = theta[perm, :cols] + theta[perm_bar, :cols]
    return _compare_rows(group, p, 1, "theta_split", lhs, rhs)


def check_ramified_theta(group: ClassGroup, p: int, n_max: int) -> HeckeCheckResult:
    """theta_h | U_p = theta_{h p} for every class h, ramified p."""
    if kronecker(group.delta, p) != 0:
        raise ValueError(f"{p} is not ramified for discriminant {group.delta}")
    hp = prime_ideal_class(group, p)
    theta = theta_matrix(group.delta, n_max)
    lhs = u_rows(theta, p)
    rhs = theta[_translate(group, hp), : lhs.shape[-1]]
    return _compare_rows(group, p, 0, "theta_ramified", lhs, rhs)


def check_inert_theta(group: ClassGroup, p: int, n_max: int) -> HeckeCheckResult:
    """theta_h | T_p = 0 for every class h, inert p."""
    if kronecker(group.delta, p) != -1:
        raise ValueError(f"{p} is not inert for discriminant {group.delta}")
    lhs = t_rows(theta_matrix(group.delta, n_max), p, -1)
    return _compare_rows(group, p, -1, "theta_inert", lhs, np.zeros_like(lhs))


def check_genus_permutation(group: ClassGroup, p: int, n_max: int) -> HeckeCheckResult:
    """E_g | T_p = 2 E_{g p} (split) or E_{g p} (ramified) for every genus g."""
    chi = kronecker(group.delta, p)
    if chi == -1:
        raise ValueError(f"{p} is inert for discriminant {group.delta}: no genus translate")
    gp = group.genus_of[prime_ideal_class(group, p)]
    sums, unit = genus_eisenstein(group, n_max)
    lhs = t_rows(sums, p, chi)
    targets = [group.genus_ids.index(group.genus_product(g, gp)) for g in group.genus_ids]
    rhs = (2 if chi == 1 else 1) * sums[targets, : lhs.shape[-1]]
    return _compare_rows(group, p, chi, "genus_permutation", lhs, rhs, unit)


def prime_checks(group: ClassGroup, p: int, n_max: int) -> Iterator[HeckeCheckResult]:
    """All identities that apply at p, each computed when it is reached: eigenform,
    the per-class theta identity for the prime's type, and (split/ramified only)
    the genus permutation."""
    eigenform = check_eigenform(group, p, n_max)
    yield eigenform
    kind = eigenform.prime_type
    if kind == "split":
        yield check_split_theta(group, p, n_max)
        yield check_genus_permutation(group, p, n_max)
    elif kind == "ramified":
        yield check_ramified_theta(group, p, n_max)
        yield check_genus_permutation(group, p, n_max)
    else:
        yield check_inert_theta(group, p, n_max)
