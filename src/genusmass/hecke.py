"""Per-prime operator identities on theta series: eigenvalue check for the class-group
sum, the split/ramified/inert per-class identities, and the genus permutation.

Each identity is one comparison of integer arrays over all classes (rows of the
theta matrix) or all genera (rows of the genus sums), with T_p applied to every row
at once by slicing.  The prime's character value and class permutation come from
one prime layer per discriminant, which composes every class with every
non-inert prime class in one compose_rows call.

prime_sweep gives the records of every identity at every prime up to a bound
from a few stacked comparisons per discriminant, and calls a check_* function
only for an identity that fails, for its first mismatch."""

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
    "prime_sweep",
]


PRIME_TYPES = {1: "split", 0: "ramified", -1: "inert"}


def _mismatch_dict(n: int, lhs: Fraction, rhs: Fraction) -> dict:
    return {"n": n, "lhs": str(lhs), "rhs": str(rhs)}


@dataclass(frozen=True)
class CheckRecord:
    """One check of a report: its status ("pass", "fail" or "skip"), a detail
    line and the first mismatch (n, lhs, rhs) where the check has one.  Every
    check returns one; it lives here because verify imports this module.  Its
    time is the report's (VerificationReport.check_ms), so that a record that
    holds can be shared by every report it belongs to."""

    name: str
    status: str
    detail: str
    first_mismatch: Optional[tuple[int, Fraction, Fraction]] = None

    @property
    def passed(self) -> bool:
        return self.status != "fail"

    def to_dict(self, elapsed_ms: float = 0.0) -> dict:
        """The record's JSON object, with elapsed_ms, the check's time, last."""
        out = {"name": self.name, "pass": self.passed, "status": self.status, "detail": self.detail}
        if self.status == "fail" and self.first_mismatch is not None:
            out["first_mismatch"] = _mismatch_dict(*self.first_mismatch)
        out["elapsed_ms"] = elapsed_ms
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
    total = theta_total(group, n_max)
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


# The prime sweep compares blocks of whole primes, and each array of a block has
# at most max(SWEEP_BLOCK, h (floor(N/2) + 1)) entries: no more than the check
# at p = 2 alone holds, so that a large class group needs no more working memory
# than one prime at a time did.
SWEEP_BLOCK = 1 << 16


class _ColumnPlan(NamedTuple):
    """The columns n = 1..floor(N/p) of every prime p <= B, one segment per prime
    in increasing order: each segment's width floor(N/p) and start; at every
    column n and p n; and the columns where p divides n, with n/p there and where
    each prime's run of them starts (one more entry, their count, at the end);
    and for each prime and each value of chi(p), the three records of the
    identities at p when none fails."""

    primes: tuple[int, ...]
    widths: tuple[int, ...]
    starts: tuple[int, ...]
    n: np.ndarray
    pn: np.ndarray
    divisible: np.ndarray
    quotient: np.ndarray
    divisible_starts: tuple[int, ...]
    passing: tuple[dict[int, tuple[CheckRecord, CheckRecord, CheckRecord]], ...]


def _passing_records(p: int, width: int) -> dict[int, tuple[CheckRecord, CheckRecord, CheckRecord]]:
    """The records of eigenform[p], the theta identity and genus_permutation[p]
    when each holds on n = 1..width, for each value of chi(p): the genus
    permutation is a skip at an inert p."""
    records = {}
    for chi, kind in PRIME_TYPES.items():
        detail = f"{kind}; n=1..{width} exact"
        if chi == -1:
            genus = CheckRecord(f"genus_permutation[p={p}]", "skip", "skipped: p inert, no genus translate")
        else:
            genus = CheckRecord(f"genus_permutation[p={p}]", "pass", detail)
        records[chi] = (CheckRecord(f"eigenform[p={p}]", "pass", detail),
                        CheckRecord(f"theta_{kind}[p={p}]", "pass", detail), genus)
    return records


@lru_cache(maxsize=1)
def _column_plan(n_max: int, bound: int) -> _ColumnPlan:
    """The column plan of (n_max, bound), read-only and kept for the last one only:
    it depends on no discriminant, so a range run builds it once."""
    primes = tuple(primes_up_to(bound))
    widths = [n_max // p for p in primes]
    starts = np.cumsum([0] + widths)
    prime = np.repeat(np.array(primes, dtype=np.int64), widths)
    n = np.arange(starts[-1], dtype=np.int64) - np.repeat(starts[:-1], widths) + 1
    pn = prime * n
    divisible = np.flatnonzero(n % prime == 0)
    quotient = n[divisible] // prime[divisible]
    for array in (n, pn, divisible, quotient):
        array.setflags(write=False)
    divisible_starts = np.cumsum([0] + [w // p for w, p in zip(widths, primes)])
    passing = tuple(_passing_records(p, w) for p, w in zip(primes, widths))
    return _ColumnPlan(primes, tuple(widths), tuple(starts[:-1].tolist()), n, pn, divisible, quotient,
                       tuple(divisible_starts.tolist()), passing)


def _sweep_blocks(widths: tuple[int, ...], rows: int, n_max: int) -> Iterator[tuple[int, int]]:
    """The primes i0 <= i < i1 of each block, in order, over the primes of nonzero
    width (a prefix, since the widths do not increase).  rows times a block's
    width stays within max(SWEEP_BLOCK, rows (floor(n_max/2) + 1)), which every
    single prime meets."""
    limit = max(SWEEP_BLOCK, rows * (n_max // 2 + 1))
    compared = sum(1 for w in widths if w)
    i0 = width = 0
    for i, w in enumerate(widths[:compared]):
        if rows * (width + w) > limit:
            yield i0, i
            i0, width = i, 0
        width += w
    if compared > i0:
        yield i0, compared


def _t_columns(x: np.ndarray, pn: np.ndarray, divisible: np.ndarray, quotient: np.ndarray,
               twist: np.ndarray) -> np.ndarray:
    """T_p of every row of x at the columns of a block: x[p n], plus chi(p) x[n/p]
    (n/p = quotient, chi(p) = twist) at the columns divisible, where p | n."""
    out = x[..., pn]
    out[..., divisible] += twist * x[..., quotient]
    return out


def prime_sweep(group: ClassGroup, n_max: int, bound: int) -> list[CheckRecord]:
    """The records of every identity at every prime p <= bound, p increasing:
    eigenform[p], the theta identity of the prime's type, and genus_permutation[p],
    a skip at an inert p.  They are the records the check_* functions return.

    Each identity is compared at all primes at once on the column plan of
    (n_max, bound), with the primes in blocks (see SWEEP_BLOCK).  The left sides
    are T_p at every column of the theta matrix, of its column sum and of the
    genus sums S; the right sides, row gathers per non-inert prime and 0 at an
    inert prime, are subtracted from them.  One np.logical_or.reduceat per block
    over the columns left nonzero gives each identity's status at each prime.
    Only an identity that fails at p calls its check_* function, for the record
    with its first mismatch; a check_* that then passes is a RuntimeError."""
    plan = _column_plan(n_max, bound)
    if not plan.primes:
        return []
    layer = _prime_layer(group.delta, bound)
    theta = theta_matrix(group.delta, n_max)
    sums, _ = genus_eisenstein(group, n_max)
    total = theta_total(group, n_max)
    chi = [layer.chi[p] for p in plan.primes]
    eigenvalues = 1 + np.repeat(np.array(chi, dtype=np.int64), plan.widths)
    twists = np.repeat(np.array(chi, dtype=np.int64), np.diff(plan.divisible_starts))
    genus_ids = list(group.genus_ids)
    failed = np.zeros((3, len(chi)), dtype=bool)
    for i0, i1 in _sweep_blocks(plan.widths, group.h, n_max):
        c0, c1 = plan.starts[i0], plan.starts[i1 - 1] + plan.widths[i1 - 1]
        d = slice(plan.divisible_starts[i0], plan.divisible_starts[i1])
        divisible, quotient, twist = plan.divisible[d] - c0, plan.quotient[d], twists[d]
        # left minus right side of each identity, 0 where it holds
        total_diff, theta_diff, sums_diff = (
            _t_columns(x, plan.pn[c0:c1], divisible, quotient, twist) for x in (total, theta, sums)
        )
        total_diff -= eigenvalues[c0:c1] * total[plan.n[c0:c1]]
        for i in range(i0, i1):
            if chi[i] == -1:
                continue
            p, k, start = plan.primes[i], plan.widths[i], plan.starts[i] - c0
            theta_diff[:, start : start + k] -= theta[layer.perms[p], 1 : k + 1]
            if chi[i] == 1:
                theta_diff[:, start : start + k] -= theta[layer.conjugates[p], 1 : k + 1]
            targets = layer.genus_row[layer.perms[p][genus_ids]]
            sums_diff[:, start : start + k] -= (2 if chi[i] == 1 else 1) * sums[targets, 1 : k + 1]
        unequal = np.empty((3, c1 - c0), dtype=bool)
        unequal[0] = total_diff != 0
        unequal[1] = (theta_diff != 0).any(axis=0)
        unequal[2] = (sums_diff != 0).any(axis=0)
        segments = [start - c0 for start in plan.starts[i0:i1]]
        failed[:, i0:i1] = np.logical_or.reduceat(unequal, segments, axis=1)
    # no genus translate at an inert p: its genus_permutation record is the skip
    failed[2] &= np.array(chi) != -1
    records = [record for i, value in enumerate(chi) for record in plan.passing[i][value]]
    theta_checks = {1: check_split_theta, 0: check_ramified_theta, -1: check_inert_theta}
    for i, row in zip(*np.nonzero(failed.T)):
        check = (check_eigenform, theta_checks[chi[i]], check_genus_permutation)[row]
        record = check(group, plan.primes[i], n_max, bound)
        if record.passed:
            raise RuntimeError(f"the prime sweep fails {records[3 * i + row].name} at {group.delta}, "
                               f"{check.__name__} passes it")
        records[3 * i + row] = record
    return records
