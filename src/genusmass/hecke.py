"""Per-prime operator identities on theta series: eigenvalue check for the class-group
sum, the split/ramified/inert per-class identities, and the genus permutation.

Each identity is one comparison of integer arrays over all classes (rows of the
theta matrix) or all genera (rows of the genus sums), with T_p applied to every row
at once by slicing.  The prime's character value and class permutation come from
the prime layers of a stack of groups (prime_layers: one stacked array of the
images of every class under every prime class, from one composition call, each
distinct prime class composed once).

sweep_failures compares every identity at every prime up to a bound for a whole
batch of discriminants at once, on their stacked rows and prime layers;
sweep_passing gives a discriminant's records when none fails, and sweep_records
its records from its failures, calling a check_* function only for an
identity that fails, for its first mismatch, on the discriminant's own arrays
(Layers, the record of them that is sliced out of its batch for a failure)."""

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
from .qseries import first_mismatch, t_rows, u_rows
from .series import EisensteinRows

__all__ = [
    "CheckRecord",
    "check_eigenform",
    "check_split_theta",
    "check_ramified_theta",
    "check_inert_theta",
    "check_genus_permutation",
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
    """What every identity at a prime p <= bound reads, read-only, for one
    group (prime_layer slices it out of its stack's PrimeStack):
    - chi[p] = (delta|p);
    - perms[p], the class permutation h -> h P of each non-inert p, where P is
      the class of the prime ideal above p, and the identity at a principal P;
    - conjugates[p], the permutation h -> h P' of each split p, P' the inverse
      of P;
    - genus_row[h], the row of the genus of the class h among the group's
      genera."""

    chi: dict[int, int]
    perms: dict[int, np.ndarray]
    conjugates: dict[int, np.ndarray]
    genus_row: np.ndarray


class Layers(NamedTuple):
    """One discriminant's layers, sliced out of its batch (verify.batch_record)
    for a check that its batch flags, and all that the check reads: the class
    group, as a stack of one (Stack.group); its genus character table X
    (genus.character_tables); the theta matrix and the genus sums S, in the
    group's coefficient dtype; the
    Eisenstein rows, with their character pairs, the character row and L(0);
    the prime layer; its 3 x (number of primes) slice of sweep_failures; its
    row of verify.identity_failures, whether each of the five per-delta
    identities fails, in verify.IDENTITIES order; and its shares of the
    batch's build and comparison time in seconds (see verify.Batch)."""

    group: Stack
    characters: np.ndarray
    theta: np.ndarray
    sums: np.ndarray
    eisenstein: EisensteinRows
    primes: _PrimeLayer
    failed: np.ndarray
    identities_failed: list[bool]
    shares: list[float]


class PrimeClasses(NamedTuple):
    """The prime classes of a stack of groups at the primes p_i up to a bound:
    chi[k, i] = (delta_k|p_i), and the products that give the prime layers.
    Each distinct non-principal prime class P of a group, up to inversion, is
    composed with every class of its group once: left, right are the stack
    rows of those products h P, in runs of h rows, the run r starting at
    run_starts[r].  entries are the (k, i) where the class of the prime ideal
    above p_i is not principal, each with the run of its class P or of P^-1,
    and flip, which is set where the run's class is P^-1."""

    primes: tuple[int, ...]
    chi: np.ndarray
    entries: tuple[np.ndarray, np.ndarray]
    run: np.ndarray
    flip: np.ndarray
    run_starts: np.ndarray
    left: np.ndarray
    right: np.ndarray


@lru_cache(maxsize=1)
def primes_to(bound: int) -> tuple[int, ...]:
    """The primes up to bound, kept for the last bound only."""
    return tuple(primes_up_to(bound))


def prime_classes(stack: Stack, bound: int) -> PrimeClasses:
    """(delta|p) for every group and prime p <= bound and the prime class of each
    non-inert p, for all groups at once (class_group.prime_ideal_rows); and the
    products to compose for the prime layers: h P for each distinct
    non-principal prime class P, the first of P and P^-1 in the order of the
    groups and then of the primes.  A principal P permutes nothing, and
    h P^-1 = (h^-1 P)^-1 is read from the run of P (prime_layers)."""
    primes = primes_to(bound)
    chi, classes = prime_ideal_rows(stack, primes)
    k, i = np.nonzero((classes != -1) & (classes != stack.identity[:, None]))
    cls = classes[k, i]
    # P and P^-1 share the smaller of their two stack rows; the first entry of
    # each opens its run
    pair, entries = np.minimum(cls, stack.inverses[cls]), np.arange(len(cls))
    first = np.full(len(stack.classes), len(cls))
    np.minimum.at(first, pair, entries)
    first = first[pair]
    opens = first == entries
    run = (np.cumsum(opens) - 1)[first]
    run_classes = cls[opens]
    flip = cls != run_classes[run]
    rows = stack.h[stack.owner[run_classes]]
    if len(rows):
        left = _ragged(stack.starts[stack.owner[run_classes]], rows)[1]
    else:
        left = np.zeros(0, dtype=np.int64)
    return PrimeClasses(primes, chi, (k, i), run, flip, rows.cumsum() - rows, left, run_classes.repeat(rows))


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
    of prime.left * prime.right: every class times each distinct non-principal
    prime class P, up to inversion, from one compose_stacked call.  The class
    group is abelian, so the inverse map v is an automorphism and
    h P^-1 = v(v(h) P): the images of P^-1 are those of P read at the inverses
    and mapped through them, which gives images[1], and images[0] where P^-1
    was composed and P was not.  All primes and classes at once."""
    n, inverses = len(stack.classes), stack.inverses
    images = np.tile(np.arange(n), (2, len(prime.primes), 1))
    (k, i), run, flip = prime.entries, prime.run, prime.flip
    if len(k):
        # one entry per class of each non-principal prime class's group
        entry, row = _ragged(stack.starts[k], stack.h[k])
        flipped = flip[entry]
        source = np.where(flipped, inverses[row], row) - stack.starts[k[entry]]
        found = products[prime.run_starts[run[entry]] + source]
        images[0, i[entry], row] = np.where(flipped, inverses[found], found)
    split = (prime.chi == 1)[stack.owner].T
    images[1] = np.where(split, inverses[images[0][:, inverses]], images[1])
    images.setflags(write=False)
    return PrimeStack(prime.primes, prime.chi, images)


def prime_layer(stack: Stack, primes: PrimeStack, k: int) -> _PrimeLayer:
    """The prime layer of group k, sliced out of the stacked ones."""
    lo, hi = int(stack.starts[k]), int(stack.starts[k] + stack.h[k])
    chi = dict(zip(primes.primes, primes.chi[k].tolist()))
    perms, conjugates = {}, {}
    for i, p in enumerate(primes.primes):
        if chi[p] != -1:
            perms[p] = primes.images[0, i, lo:hi] - lo
            perms[p].setflags(write=False)
        if chi[p] == 1:
            conjugates[p] = primes.images[1, i, lo:hi] - lo
            conjugates[p].setflags(write=False)
    genus_row = stack.genus[lo:hi] - stack.genus_starts[k]
    genus_row.setflags(write=False)
    return _PrimeLayer(chi, perms, conjugates, genus_row)


def _chi(group: Stack, p: int, layer: _PrimeLayer, kind: Optional[int] = None) -> int:
    """(delta|p) from the prime layer, which must hold p; ValueError when it is
    not kind, where kind is given."""
    if p not in layer.chi:
        raise ValueError(f"{p} is not prime, or not in the prime layer")
    chi = layer.chi[p]
    if kind is not None and chi != kind:
        raise ValueError(f"{p} is not {PRIME_TYPES[kind]} for discriminant {group.delta}")
    return chi


def check_eigenform(group: Stack, p: int, total: np.ndarray, layer: _PrimeLayer) -> CheckRecord:
    """a(pn) + (delta|p) a(n/p) = (1 + (delta|p)) a(n) for the class-group total a."""
    chi = _chi(group, p, layer)
    lhs = t_rows(total, p, chi)
    return _compare_rows(p, chi, "eigenform", lhs, (1 + chi) * total[: len(lhs)])


def check_split_theta(group: Stack, p: int, theta: np.ndarray, layer: _PrimeLayer) -> CheckRecord:
    """theta_h | T_p = theta_{h p} + theta_{h p'} for every class h, split p."""
    _chi(group, p, layer, 1)
    lhs = t_rows(theta, p, 1)
    cols = lhs.shape[-1]
    rhs = theta[layer.perms[p], :cols] + theta[layer.conjugates[p], :cols]
    return _compare_rows(p, 1, "theta_split", lhs, rhs)


def check_ramified_theta(group: Stack, p: int, theta: np.ndarray, layer: _PrimeLayer) -> CheckRecord:
    """theta_h | U_p = theta_{h p} for every class h, ramified p."""
    _chi(group, p, layer, 0)
    lhs = u_rows(theta, p)
    rhs = theta[layer.perms[p], : lhs.shape[-1]]
    return _compare_rows(p, 0, "theta_ramified", lhs, rhs)


def check_inert_theta(group: Stack, p: int, theta: np.ndarray, layer: _PrimeLayer) -> CheckRecord:
    """theta_h | T_p = 0 for every class h, inert p."""
    _chi(group, p, layer, -1)
    lhs = t_rows(theta, p, -1)
    return _compare_rows(p, -1, "theta_inert", lhs, np.zeros_like(lhs))


def check_genus_permutation(group: Stack, p: int, sums: np.ndarray, layer: _PrimeLayer) -> CheckRecord:
    """E_g | T_p = 2 E_{g p} (split) or E_{g p} (ramified) for every genus g, on
    the genus sums S, with unit 1/|H^2|: the target of the genus g is the genus
    of the class g p."""
    chi = _chi(group, p, layer)
    if chi == -1:
        raise ValueError(f"{p} is inert for discriminant {group.delta}: no genus translate")
    lhs = t_rows(sums, p, chi)
    targets = layer.genus_row[layer.perms[p][group.leaders]]
    rhs = (2 if chi == 1 else 1) * sums[targets, : lhs.shape[-1]]
    return _compare_rows(p, chi, "genus_permutation", lhs, rhs, Fraction(1, int(group.squares[0])))


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
                   n_max: int, bound: int) -> np.ndarray:
    """Which identity fails at which prime p <= bound, for every group of the
    stack at once, as a 3 x (number of groups) x (number of primes) bool array:
    eigenform, the theta identity and the genus permutation (never at an inert
    p).

    theta stacks the theta matrices of the groups (one row per stacked class),
    totals their column sums (one row per group) and sums their genus sums S
    (one row per stacked genus); primes are their stacked prime layers, read
    as they are.  Each identity is compared at all primes at once on the column
    plan of (n_max, bound), with the primes in blocks (see SWEEP_BLOCK; the rows
    of a block are all the stacked classes).  The left sides are T_p at every
    column, with chi(p) taken per row; the right sides, row gathers per prime
    that a row's mask or factor zeroes where its delta is inert at p, are
    subtracted from them.  np.logical_or.reduceat over each delta's rows and
    over each prime's columns gives the statuses."""
    plan = _column_plan(n_max, bound)
    chi, images = primes.chi, primes.images
    genus_owner = stack.owner[stack.leaders]
    class_chi, genus_chi = chi[stack.owner], chi[genus_owner]
    # the rows of the genera of g p; which rows count, where some group's p is
    # inert or not split; and the factor of the genus sums, 2 at a split p,
    # 1 at a ramified one, 0 at an inert one
    targets = stack.genus[images[0][:, stack.leaders]]
    kinds = [None if (chi != -1).all() else class_chi != -1, None if (chi == 1).all() else class_chi == 1]
    genus_factor = 1 + genus_chi
    failed = np.zeros((3, len(stack.deltas), len(plan.primes)), dtype=bool)
    for i0, i1 in _sweep_blocks(plan.widths, len(theta), n_max):
        c0, c1 = plan.starts[i0], plan.starts[i1 - 1] + plan.widths[i1 - 1]
        d = slice(plan.divisible_starts[i0], plan.divisible_starts[i1])
        divisible, quotient, twist = plan.divisible[d] - c0, plan.quotient[d], plan.divisible_prime[d]
        column, n = plan.column_prime[c0:c1], plan.n[c0:c1]
        # left minus right side of each identity, 0 where it holds
        total_diff, theta_diff, sums_diff = (
            _t_columns(x, plan.pn[c0:c1], divisible, quotient, rows[:, twist])
            for x, rows in ((totals, chi), (theta, class_chi), (sums, genus_chi))
        )
        total_diff -= (1 + chi[:, column]) * totals[:, n]
        # h p at a non-inert p, and h p' at a split one, at every column n of p
        # at once, each zeroed where a group's p is not of that kind
        for image, kind in zip(images, kinds):
            rhs = theta[image[column].T, n]
            if kind is not None:
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
    failed[2] &= chi != -1
    return failed


def sweep_passing(chi: list[int], n_max: int, bound: int) -> list[CheckRecord]:
    """The records of every identity at every prime p <= bound, p increasing, when
    none fails, for chi(p) = chi[i] at the i-th prime: the column plan's."""
    plan = _column_plan(n_max, bound)
    return [record for i, value in enumerate(chi) for record in plan.passing[i][value]]


def sweep_records(layers: Layers, bound: int) -> list[CheckRecord]:
    """The records of every identity at every prime p <= bound, p increasing, from
    the discriminant's slice of sweep_failures (layers.failed): the passing
    records of the column plan, and for each identity that fails at p the record
    of its check_* function on the layers' own arrays, with the first mismatch;
    a check_* that then passes is a RuntimeError."""
    group, theta, layer = layers.group, layers.theta, layers.primes
    plan = _column_plan(theta.shape[1] - 1, bound)
    values = [layer.chi[p] for p in plan.primes]
    records = sweep_passing(values, theta.shape[1] - 1, bound)
    theta_checks = {1: check_split_theta, 0: check_ramified_theta, -1: check_inert_theta}
    for i, row in zip(*np.nonzero(layers.failed.T)):
        if row == 0:
            check, compared = check_eigenform, theta.sum(axis=0)
        elif row == 1:
            check, compared = theta_checks[values[i]], theta
        else:
            check, compared = check_genus_permutation, layers.sums
        record = check(group, plan.primes[i], compared, layer)
        if record.passed:
            raise RuntimeError(f"the prime sweep fails {records[3 * i + row].name} at {group.delta}, "
                               f"{check.__name__} passes it")
        records[3 * i + row] = record
    return records
