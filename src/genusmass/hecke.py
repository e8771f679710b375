"""Per-prime operator identities on theta series: the eigenvalue identity of the
class-group sum, the split/ramified/inert per-class identities, and the genus
permutation.

sweep_failures compares every identity at every prime up to a bound for a whole
batch of discriminants at once, each one comparison of integer arrays over all
classes (rows of the theta matrix), all genera (rows of the genus sums) or the
class-group sum, with T_p applied to every row at once by slicing.  The prime's
character value and class permutation come from the prime layers of the stack
of groups (prime_layers: one stacked array of the images of every class under
every prime class, from one composition call of every class with each
non-principal prime class).  Where an identity fails, the sweep keeps its first
mismatch, read off the arrays it compared.  sweep_passing gives a
discriminant's records when none fails, and sweep_records its records from its
failures: a failing identity's record is made by its check_* function from the
kept mismatch."""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, NamedTuple, Optional

import numpy as np

from .arith import primes_up_to
from .forms import _ragged
from .class_group import Stack, prime_ideal_rows
from .qseries import first_true

__all__ = ["CheckRecord"]


PRIME_TYPES = {1: "split", 0: "ramified", -1: "inert"}

# The first mismatch of a failing identity: (n, lhs[n], rhs[n]).
Mismatch = tuple[int, Fraction, Fraction]


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
    first_mismatch: Optional[Mismatch] = None

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


class PrimeClasses(NamedTuple):
    """The prime classes of a stack of groups at the primes p_i up to a bound:
    chi[k, i] = (delta_k|p_i), and the products that give the prime layers.
    entries are the (k, i) where the class P of the prime ideal above p_i is
    not principal; left, right are the stack rows of the products h P of every
    class h of group k with that P, one run of h[k] rows per entry, in the
    order of the entries."""

    primes: tuple[int, ...]
    chi: np.ndarray
    entries: tuple[np.ndarray, np.ndarray]
    left: np.ndarray
    right: np.ndarray


@lru_cache(maxsize=1)
def primes_to(bound: int) -> tuple[int, ...]:
    """The primes up to bound, kept for the last bound only."""
    return tuple(primes_up_to(bound))


def prime_classes(stack: Stack, bound: int) -> PrimeClasses:
    """(delta|p) for every group and prime p <= bound and the prime class of each
    non-inert p, for all groups at once (class_group.prime_ideal_rows); and the
    products to compose for the prime layers: every class of a group times the
    class P of each prime whose P is not principal, the groups in order and,
    within each, the primes.  A principal P permutes nothing, and h P^-1 is
    read from the products with P (prime_layers)."""
    primes = primes_to(bound)
    chi, classes = prime_ideal_rows(stack, primes)
    k, i = np.nonzero((classes != -1) & (classes != stack.starts[:, None]))
    rows = stack.h[k]
    return PrimeClasses(primes, chi, (k, i), _ragged(stack.starts[k], rows)[1], classes[k, i].repeat(rows))


class PrimeStack(NamedTuple):
    """The prime layers of a stack of groups at the primes p_i up to a bound,
    read-only: chi[k, i] = (delta_k|p_i); images[0, i, row] and images[1, i, row],
    the stack rows of row P and row P^-1, P the class of the prime ideal above
    p_i in the group of row.  Where p_i is inert for that group, both are row
    itself, and so is images[1] where it is ramified."""

    primes: tuple[int, ...]
    chi: np.ndarray
    images: np.ndarray


def prime_layers(stack: Stack, prime: PrimeClasses, products: np.ndarray) -> PrimeStack:
    """The prime layers of every group of the stack, from the stack rows products
    of prime.left * prime.right, every class times each non-principal prime
    class P, from one compose_stacked call: they are images[0].  The class
    group is abelian, so the inverse map v is an automorphism and
    h P^-1 = v(v(h) P): the images of P read at the inverses and mapped through
    them give images[1].  All primes and classes at once."""
    n, inverses = len(stack.classes), stack.inverses
    images = np.tile(np.arange(n), (2, len(prime.primes), 1))
    k, i = prime.entries
    images[0, i.repeat(stack.h[k]), prime.left] = products
    split = (prime.chi == 1)[stack.owner].T
    images[1] = np.where(split, inverses[images[0][:, inverses]], images[1])
    images.setflags(write=False)
    return PrimeStack(prime.primes, prime.chi, images)


def _failing(identity: str, p: int, chi: int, width: int, mismatch: Mismatch) -> CheckRecord:
    """The failing record of an identity at p, compared on n = 1..width, from its
    first mismatch (n, lhs, rhs); chi = (delta|p) names the prime's type."""
    detail = f"{PRIME_TYPES[chi]}; n=1..{width} {json.dumps(_mismatch_dict(*mismatch))}"
    return CheckRecord(f"{identity}[p={p}]", "fail", detail, mismatch)


# The record of each identity at a prime that fails, made from the first mismatch
# that sweep_failures kept (see there for the two sides).  The three theta
# identities differ only in the prime's type; they keep a name each because the
# benchmark's tracer (perfbench/tracer.py) wraps each by name.


def check_eigenform(p: int, chi: int, width: int, mismatch: Mismatch) -> CheckRecord:
    """a(pn) + (delta|p) a(n/p) = (1 + (delta|p)) a(n) for the class-group total a."""
    return _failing("eigenform", p, chi, width, mismatch)


def check_split_theta(p: int, width: int, mismatch: Mismatch) -> CheckRecord:
    """theta_h | T_p = theta_{h p} + theta_{h p'} for every class h, split p."""
    return _failing("theta_split", p, 1, width, mismatch)


def check_ramified_theta(p: int, width: int, mismatch: Mismatch) -> CheckRecord:
    """theta_h | U_p = theta_{h p} for every class h, ramified p."""
    return _failing("theta_ramified", p, 0, width, mismatch)


def check_inert_theta(p: int, width: int, mismatch: Mismatch) -> CheckRecord:
    """theta_h | T_p = 0 for every class h, inert p."""
    return _failing("theta_inert", p, -1, width, mismatch)


def check_genus_permutation(p: int, chi: int, width: int, mismatch: Mismatch) -> CheckRecord:
    """E_g | T_p = 2 E_{g p} (split) or E_{g p} (ramified) for every genus g, on
    the genus sums S with unit 1/|H^2|: the target of the genus g is the genus
    of the class g p."""
    return _failing("genus_permutation", p, chi, width, mismatch)


# The prime sweep compares blocks of whole primes, and each array of a block has
# at most max(SWEEP_BLOCK, h (floor(N/2) + 1)) entries: no more than the check
# at p = 2 alone holds, so that a large class group needs no more working memory
# than one prime at a time did.
SWEEP_BLOCK = 1 << 16


class _ColumnPlan(NamedTuple):
    """The columns n = 1..floor(N/p) of every prime p <= B, one segment per prime
    in increasing order: each segment's width floor(N/p) and start; at every
    column n, p n and the index of p; and the columns where p divides n, with
    n/p and the index of p there and where each prime's run of them starts (one
    more entry, their count, at the end);
    and for each prime and each value of chi(p), the three records of the
    identities at p when none fails."""

    primes: tuple[int, ...]
    widths: tuple[int, ...]
    starts: tuple[int, ...]
    n: np.ndarray
    pn: np.ndarray
    column_prime: np.ndarray
    divisible: np.ndarray
    quotient: np.ndarray
    divisible_prime: np.ndarray
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
    primes = primes_to(bound)
    widths = [n_max // p for p in primes]
    starts = np.cumsum([0] + widths)
    column_prime = np.repeat(np.arange(len(primes)), widths)
    prime = np.array(primes, dtype=np.int64)[column_prime]
    n = np.arange(starts[-1], dtype=np.int64) - np.repeat(starts[:-1], widths) + 1
    pn = prime * n
    divisible = np.flatnonzero(n % prime == 0)
    quotient = n[divisible] // prime[divisible]
    divisible_prime = column_prime[divisible]
    for array in (n, pn, column_prime, divisible, quotient, divisible_prime):
        array.setflags(write=False)
    divisible_starts = np.cumsum([0] + [w // p for w, p in zip(widths, primes)])
    passing = tuple(_passing_records(p, w) for p, w in zip(primes, widths))
    return _ColumnPlan(primes, tuple(widths), tuple(starts[:-1].tolist()), n, pn, column_prime, divisible,
                       quotient, divisible_prime, tuple(divisible_starts.tolist()), passing)


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


def sweep_failures(stack: Stack, primes: PrimeStack, theta: np.ndarray, totals: np.ndarray, sums: np.ndarray,
                   n_max: int, bound: int) -> tuple[np.ndarray, dict[int, dict[tuple[int, int], Mismatch]]]:
    """Which identity fails at which prime p <= bound, for every group of the
    stack at once, as a 3 x (number of groups) x (number of primes) bool array:
    eigenform, the theta identity and the genus permutation (never at an inert
    p); and the first mismatch of each failure, by group k and (identity, i),
    i the index of the prime.

    theta stacks the theta matrices of the groups (one row per stacked class),
    totals their column sums (one row per group) and sums their genus sums S
    (one row per stacked genus); primes are their stacked prime layers, read
    as they are.  Each identity is compared at all primes at once on the column
    plan of (n_max, bound), with the primes in blocks (see SWEEP_BLOCK; the rows
    of a block are all the stacked classes).  The left sides are T_p at every
    column, with chi(p) taken per row; the right sides, row gathers per prime
    that a row's mask or factor zeroes where its delta is inert at p, are
    subtracted from them.  np.logical_or.reduceat over each delta's rows and
    over each prime's columns gives the statuses.  For a failure, the first
    nonzero difference of its group's rows at its prime's columns, row-major
    (first_true), is its first mismatch (n, lhs, rhs), found while its block
    is held: lhs is T_p there, x[p n] + chi(p) x[n/p], rhs is lhs minus the
    difference, both over |H^2| for the genus permutation."""
    plan = _column_plan(n_max, bound)
    chi, images = primes.chi, primes.images
    genus_owner = stack.owner[stack.leaders]
    class_chi, genus_chi = chi[stack.owner], chi[genus_owner]
    # the rows of the genera of g p; which rows count, where some group's p is
    # inert or not split; and the factor of the genus sums, 2 at a split p,
    # 1 at a ramified one, 0 at an inert one
    targets = stack.genus[images[0][:, stack.leaders]]
    kinds = (class_chi != -1, class_chi == 1)
    genus_factor = 1 + genus_chi
    compared = (totals, theta, sums)
    failed = np.zeros((3, len(stack.deltas), len(plan.primes)), dtype=bool)
    found = {}
    for i0, i1 in _sweep_blocks(plan.widths, len(theta), n_max):
        c0, c1 = plan.starts[i0], plan.starts[i1 - 1] + plan.widths[i1 - 1]
        d = slice(plan.divisible_starts[i0], plan.divisible_starts[i1])
        divisible, quotient, twist = plan.divisible[d] - c0, plan.quotient[d], plan.divisible_prime[d]
        column, n = plan.column_prime[c0:c1], plan.n[c0:c1]
        # left minus right side of each identity, 0 where it holds
        diffs = tuple(
            _t_columns(x, plan.pn[c0:c1], divisible, quotient, rows[:, twist])
            for x, rows in zip(compared, (chi, class_chi, genus_chi))
        )
        total_diff, theta_diff, sums_diff = diffs
        total_diff -= (1 + chi[:, column]) * totals[:, n]
        # h p at a non-inert p, and h p' at a split one, at every column n of p
        # at once, each zeroed where a group's p is not of that kind
        for image, kind in zip(images, kinds):
            rhs = theta[image[column].T, n]
            rhs *= kind[:, column]
            theta_diff -= rhs
            del rhs  # not held into the next block
        # the genus of g p, times its factor
        sums_diff -= genus_factor[:, column] * sums[targets[column].T, n]
        segments = [start - c0 for start in plan.starts[i0:i1]]
        for row, unequal in enumerate((total_diff != 0,
                                       np.logical_or.reduceat(theta_diff != 0, stack.starts, axis=0),
                                       np.logical_or.reduceat(sums_diff != 0, stack.genus_starts, axis=0))):
            failed[row, :, i0:i1] = np.logical_or.reduceat(unequal, segments, axis=1)
        # no genus translate at an inert p: its genus_permutation record is the skip
        failed[2, :, i0:i1] &= chi[:, i0:i1] != -1
        for row, k, i in zip(*failed[:, :, i0:i1].nonzero()):
            i, p, width = i0 + i, plan.primes[i0 + i], plan.widths[i0 + i]
            # the group's rows of the identity's array, and the prime's columns
            lo, count = ((k, 1), (stack.starts[k], stack.h[k]),
                         (stack.genus_starts[k], stack.genus_counts[k]))[row]
            start = plan.starts[i] - c0
            r, col = first_true(diffs[row][lo : lo + count, start : start + width] != 0)
            x, value, m = compared[row][lo + r], int(chi[k, i]), col + 1
            lhs = int(x[p * m]) + (value * int(x[m // p]) if m % p == 0 else 0)
            unit = int(stack.squares[k]) if row == 2 else 1
            mismatch = (m, Fraction(lhs, unit), Fraction(lhs - int(diffs[row][lo + r, start + col]), unit))
            found.setdefault(int(k), {})[int(row), i] = mismatch
    return failed, found


def sweep_passing(chi: list[int], n_max: int, bound: int) -> list[CheckRecord]:
    """The records of every identity at every prime p <= bound, p increasing, when
    none fails, for chi(p) = chi[i] at the i-th prime: the column plan's."""
    plan = _column_plan(n_max, bound)
    return [record for i, value in enumerate(chi) for record in plan.passing[i][value]]


def sweep_records(chi: list[int], n_max: int, bound: int,
                  found: dict[tuple[int, int], Mismatch]) -> list[CheckRecord]:
    """The records of every identity at every prime p <= bound, p increasing, of
    a discriminant with chi(p) = chi[i] at the i-th prime, whose failures are
    found, its first mismatches by (identity, i) from sweep_failures: the
    passing records of the column plan, and for each failure the record that
    its check_* function makes from its first mismatch."""
    plan = _column_plan(n_max, bound)
    records = sweep_passing(chi, n_max, bound)
    theta_checks = {1: check_split_theta, 0: check_ramified_theta, -1: check_inert_theta}
    for (row, i), mismatch in found.items():
        p, width, value = plan.primes[i], plan.widths[i], chi[i]
        if row == 0:
            record = check_eigenform(p, value, width, mismatch)
        elif row == 1:
            record = theta_checks[value](p, width, mismatch)
        else:
            record = check_genus_permutation(p, value, width, mismatch)
        records[3 * i + row] = record
    return records
