"""Per-prime operator identities on theta series: eigenvalue check for the class-group
sum, the split/ramified/inert per-class identities, and the genus permutation."""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

from .arith import kronecker
from .class_group import ClassGroup, prime_ideal_class
from .qseries import apply_T, apply_U
from .series import genus_eisenstein, theta_series, theta_total

__all__ = [
    "HeckeCheckResult",
    "classify_prime",
    "check_eigenform",
    "check_split_theta",
    "check_ramified_theta",
    "check_inert_theta",
    "check_genus_permutation",
    "prime_checks",
]


def classify_prime(delta: int, p: int) -> str:
    return {1: "split", 0: "ramified", -1: "inert"}[kronecker(delta, p)]


@dataclass(frozen=True)
class HeckeCheckResult:
    """Outcome of one operator identity at one prime, over indices checked_lo..checked_hi."""

    delta: int
    p: int
    prime_type: str
    identity: str
    checked_lo: int
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
            "checked": [self.checked_lo, self.checked_hi],
            "pass": self.passed,
            "first_mismatch": mismatch,
        }

    def to_json_line(self) -> str:
        return json.dumps(self.to_dict())


def _result(delta: int, p: int, identity: str, hi: int, mismatch) -> HeckeCheckResult:
    return HeckeCheckResult(
        delta=delta,
        p=p,
        prime_type=classify_prime(delta, p),
        identity=identity,
        checked_lo=1,
        checked_hi=hi,
        passed=mismatch is None,
        first_mismatch=mismatch,
    )


def check_eigenform(group: ClassGroup, p: int, n_max: int) -> HeckeCheckResult:
    """a(pn) + (delta|p) a(n/p) = (1 + (delta|p)) a(n) for the class-group total a."""
    total = theta_total(group, n_max)
    chi = kronecker(group.delta, p)
    hi = n_max // p
    mismatch = None
    for n in range(1, hi + 1):
        lhs = total[p * n] + (chi * total[n // p] if n % p == 0 else 0)
        rhs = (1 + chi) * total[n]
        if lhs != rhs:
            mismatch = (n, lhs, rhs)
            break
    return _result(group.delta, p, "eigenform", hi, mismatch)


def _compare_per_class(group, p, identity, n_max, lhs_rhs_pairs) -> HeckeCheckResult:
    hi = n_max // p
    mismatch = None
    for lhs, rhs in lhs_rhs_pairs:
        found = lhs.first_mismatch(rhs, lo=1, hi=hi)
        if found is not None:
            mismatch = found
            break
    return _result(group.delta, p, identity, hi, mismatch)


def check_split_theta(group: ClassGroup, p: int, n_max: int) -> HeckeCheckResult:
    """theta_h | T_p = theta_{h p} + theta_{h p'} for every class h, split p."""
    if kronecker(group.delta, p) != 1:
        raise ValueError(f"{p} is not split for discriminant {group.delta}")
    hp = prime_ideal_class(group, p)
    hp_conj = group.inverse(hp)
    pairs = []
    for h in range(group.h):
        lhs = apply_T(theta_series(group, h, n_max), p)
        rhs = theta_series(group, group.compose(h, hp), n_max) + theta_series(
            group, group.compose(h, hp_conj), n_max
        )
        pairs.append((lhs, rhs))
    return _compare_per_class(group, p, "theta_split", n_max, pairs)


def check_ramified_theta(group: ClassGroup, p: int, n_max: int) -> HeckeCheckResult:
    """theta_h | U_p = theta_{h p} for every class h, ramified p."""
    if kronecker(group.delta, p) != 0:
        raise ValueError(f"{p} is not ramified for discriminant {group.delta}")
    hp = prime_ideal_class(group, p)
    pairs = []
    for h in range(group.h):
        lhs = apply_U(theta_series(group, h, n_max), p)
        rhs = theta_series(group, group.compose(h, hp), n_max)
        pairs.append((lhs, rhs))
    return _compare_per_class(group, p, "theta_ramified", n_max, pairs)


def check_inert_theta(group: ClassGroup, p: int, n_max: int) -> HeckeCheckResult:
    """theta_h | T_p = 0 for every class h, inert p."""
    if kronecker(group.delta, p) != -1:
        raise ValueError(f"{p} is not inert for discriminant {group.delta}")
    hi = n_max // p
    mismatch = None
    for h in range(group.h):
        lhs = apply_T(theta_series(group, h, n_max), p)
        for n in range(1, hi + 1):
            if lhs[n] != 0:
                mismatch = (n, lhs[n], Fraction(0))
                break
        if mismatch:
            break
    return _result(group.delta, p, "theta_inert", hi, mismatch)


def check_genus_permutation(group: ClassGroup, p: int, n_max: int) -> HeckeCheckResult:
    """E_g | T_p = 2 E_{g p} (split) or E_{g p} (ramified) for every genus g."""
    chi = kronecker(group.delta, p)
    if chi == -1:
        raise ValueError(f"{p} is inert for discriminant {group.delta}: no genus translate")
    hp = prime_ideal_class(group, p)
    gp = group.genus_of[hp]
    factor = 2 if chi == 1 else 1
    pairs = []
    for g in group.genus_ids:
        lhs = apply_T(genus_eisenstein(group, g, n_max), p)
        rhs = genus_eisenstein(group, group.genus_product(g, gp), n_max).scale(factor)
        pairs.append((lhs, rhs))
    return _compare_per_class(group, p, "genus_permutation", n_max, pairs)


def prime_checks(group: ClassGroup, p: int, n_max: int) -> Iterator[HeckeCheckResult]:
    """All identities that apply at p, each computed when it is reached: eigenform,
    the per-class theta identity for the prime's type, and (split/ramified only)
    the genus permutation."""
    yield check_eigenform(group, p, n_max)
    kind = classify_prime(group.delta, p)
    if kind == "split":
        yield check_split_theta(group, p, n_max)
        yield check_genus_permutation(group, p, n_max)
    elif kind == "ramified":
        yield check_ramified_theta(group, p, n_max)
        yield check_genus_permutation(group, p, n_max)
    else:
        yield check_inert_theta(group, p, n_max)
