"""Per-prime operator identities on theta series: eigenvalue check for the class-group
sum, the split/ramified/inert per-class identities, and the genus permutation.

Each identity is one comparison of integer arrays over all classes (rows of the
theta matrix) or all genera (rows of the genus sums), with T_p applied to every row
at once by slicing.  The prime's character value and class permutation come from
one prime layer per discriminant; prime_layers builds those of a stack of
groups from one composition call, each distinct prime class composed once.

sweep_failures compares every identity at every prime up to a bound for a whole
batch of discriminants at once, on their stacked rows; sweep_records gives a
discriminant's records from its failures, and calls a check_* function only for
an identity that fails, for its first mismatch."""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from typing import Iterator, NamedTuple, Optional

import numpy as np

from .arith import kronecker, primes_up_to
from .cache import memo
from .forms import _ragged
from .class_group import (
    ClassGroup,
    Stack,
    build_class_group,
    compose_stacked,
    genus_rows,
    prime_ideal_class,
    stack_of,
)
from .qseries import first_mismatch, t_rows, u_rows
from .series import genus_eisenstein, theta_matrix, theta_total

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
    chi: dict[int, int]
    perms: dict[int, np.ndarray]
    conjugates: dict[int, np.ndarray]
    genus_row: np.ndarray


class PrimeClasses(NamedTuple):
    """The prime classes of a stack of groups at the primes up to a bound: chi[k, i]
    = (delta_k|p_i); classes[k, i], the class of the prime ideal above p_i, or -1
    at an inert p_i; and the stack rows left, right of the products h P, for every
    class h of group k and each distinct non-principal P of group k up to
    inversion, in runs of h rows, where composed[k] maps each such P to the
    start of its run."""

    primes: tuple[int, ...]
    chi: np.ndarray
    classes: np.ndarray
    composed: list[dict[int, int]]
    left: np.ndarray
    right: np.ndarray


def primes_to(bound: int) -> tuple[int, ...]:
    """The primes up to bound."""
    return tuple(primes_up_to(bound))


def prime_classes(stack: Stack, bound: int) -> PrimeClasses:
    """(delta|p) for every group and prime p <= bound, one scalar kronecker each;
    the prime class of each non-inert p; and the products to compose for the
    prime layers: h P for each distinct non-principal prime class P, where P^-1
    is composed only when P is not.  A principal P permutes nothing, and
    h P^-1 = (h^-1 P)^-1 is read from the run of P (prime_layers)."""
    primes = primes_to(bound)
    chi = [[kronecker(group.delta, p) for p in primes] for group in stack.groups]
    classes, composed, run_starts, run_rows, run_classes = [], [], [], [], []
    rows = 0
    for group, start, values in zip(stack.groups, stack.starts.tolist(), chi):
        runs: dict[int, int] = {}
        classes.append([])
        for p, value in zip(primes, values):
            cls = -1 if value == -1 else prime_ideal_class(group, p)
            classes[-1].append(cls)
            if cls not in (-1, group.identity) and cls not in runs and group.inverses[cls] not in runs:
                runs[cls] = rows
                rows += group.h
                run_starts.append(start)
                run_rows.append(group.h)
                run_classes.append(start + cls)
        composed.append(runs)
    shape = (len(stack.groups), len(primes))
    run_rows = np.array(run_rows, dtype=np.int64)
    left = _ragged(np.array(run_starts, dtype=np.int64), run_rows)[1] if rows else np.zeros(0, dtype=np.int64)
    return PrimeClasses(primes, np.array(chi, dtype=np.int64).reshape(shape),
                        np.array(classes, dtype=np.int64).reshape(shape), composed, left,
                        np.array(run_classes, dtype=np.int64).repeat(run_rows))


def prime_layers(stack: Stack, prime: PrimeClasses, products: np.ndarray) -> list[_PrimeLayer]:
    """The prime layer of each group of the stack (see _prime_layer), from the
    stack rows products of prime.left * prime.right."""
    local = products - stack.starts[stack.owner[prime.left]]
    local.setflags(write=False)
    # the genus of each class as its row in genus_ids order, for every group at once
    stacked = genus_rows(stack)
    local_rows = stacked - stacked[stack.starts][stack.owner]
    local_rows.setflags(write=False)
    layers, classes, chis = [], prime.classes.tolist(), prime.chi.tolist()
    for k, group in enumerate(stack.groups):
        start, h, runs = int(stack.starts[k]), group.h, prime.composed[k]
        inv = np.array(group.inverses)
        perms, conjugates = {}, {}
        for i, p in enumerate(prime.primes):
            cls = classes[k][i]
            if cls == -1:
                continue
            if cls in runs:
                perm = local[runs[cls] : runs[cls] + h]
            else:
                if cls == group.identity:
                    perm = np.arange(h)
                else:
                    run = runs[group.inverses[cls]]
                    perm = inv[local[run : run + h][inv]]
                perm.setflags(write=False)
            perms[p] = perm
            if chis[k][i] == 1:
                conjugates[p] = inv[perm[inv]]
                conjugates[p].setflags(write=False)
        chi = dict(zip(prime.primes, chis[k]))
        layers.append(_PrimeLayer(chi, perms, conjugates, local_rows[start : start + h]))
    return layers


@memo(maxsize=1)
def _prime_layer(delta: int, bound: int) -> _PrimeLayer:
    """What every identity at a prime p <= bound reads, read-only and kept for the
    last (delta, bound) only:
    - chi[p] = (delta|p), one scalar kronecker per prime;
    - perms[p], the class permutation h -> h P of each non-inert p, where P is
      the class of the prime ideal above p: every class times each distinct
      non-principal P, up to inversion, in one compose_stacked call, and the
      identity at a principal P;
    - conjugates[p], the permutation h -> h P' of each split p, P' the inverse
      of P.  The class group is abelian, so the inverse map is an automorphism
      and h P' = (h' P)': this is perms[p] read at the inverses and mapped
      through them, and so is perms[p] when P' was composed and P was not;
    - genus_row[h], the row of the genus of the class h in genus_ids order.
    prime_layers builds the layers of a whole stack of groups at once; this is
    the layer of one."""
    stack = stack_of(build_class_group(delta))
    prime = prime_classes(stack, bound)
    return prime_layers(stack, prime, compose_stacked(stack, prime.left, prime.right))[0]


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


def sweep_failures(groups: list[ClassGroup], layers: list[_PrimeLayer], theta: np.ndarray,
                   totals: np.ndarray, sums: np.ndarray, n_max: int, bound: int) -> np.ndarray:
    """Which identity fails at which prime p <= bound, for every group at once, as
    a 3 x len(groups) x (number of primes) bool array: eigenform, the theta
    identity and the genus permutation (never at an inert p).

    theta stacks the theta matrices of the groups (h rows each, in order), totals
    their column sums (one row each) and sums their genus sums S (one row per
    genus); layers are their prime layers.  Each identity is compared at all
    primes at once on the column plan of (n_max, bound), with the primes in
    blocks (see SWEEP_BLOCK; the rows of a block are all the stacked classes).
    The left sides are T_p at every column, with chi(p) taken per row; the right
    sides, row gathers per prime that a row's mask or factor zeroes where its
    delta is inert at p, are subtracted from them.  np.logical_or.reduceat over
    each delta's rows and over each prime's columns gives the statuses."""
    plan = _column_plan(n_max, bound)
    chi = np.array([[layer.chi[p] for p in plan.primes] for layer in layers], dtype=np.int64)
    chi = chi.reshape(len(groups), len(plan.primes))
    h = [group.h for group in groups]
    class_starts = list(accumulate(h, initial=0))
    genus_starts = list(accumulate((len(group.genus_ids) for group in groups), initial=0))
    leaders = np.array([start + g for start, group in zip(class_starts, groups) for g in group.genus_ids])
    # the stack rows of h p (images[0]) and h p' (images[1]) of every class h at
    # every prime p, and the group's first class where p is inert or not split
    none = np.zeros(max(h), dtype=np.int32)
    images = [[np.array([getattr(layer, maps).get(p, none[:rows]) for p in plan.primes], dtype=np.int32)
               .reshape(len(plan.primes), rows) for layer, rows in zip(layers, h)]
              for maps in ("perms", "conjugates")]
    genus_rows = [layer.genus_row for layer in layers]
    if len(groups) > 1:
        # chi(p) per row, and each group's offsets among the stacked rows
        row_owner = np.repeat(np.arange(len(groups)), h)
        genus_owner = np.repeat(np.arange(len(groups)), np.diff(genus_starts))
        class_chi, genus_chi = chi[row_owner], chi[genus_owner]
        offsets = np.repeat(class_starts[:-1], h)
        images = [np.concatenate(image, axis=1) + offsets for image in images]
        class_genus = np.concatenate(genus_rows) + np.repeat(genus_starts[:-1], h)
    else:
        class_chi = genus_chi = chi
        images, class_genus = [image[0] for image in images], genus_rows[0]
    # the rows of the genera of g p; which rows count, where some group's p is
    # inert or not split; and the factor of the genus sums, 2 at a split p,
    # 1 at a ramified one, 0 at an inert one
    targets = class_genus[images[0][:, leaders]]
    kinds = [None if (chi != -1).all() else class_chi != -1, None if (chi == 1).all() else class_chi == 1]
    genus_factor = 1 + genus_chi
    failed = np.zeros((3, len(groups), len(plan.primes)), dtype=bool)
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
                                       np.logical_or.reduceat(theta_diff != 0, class_starts[:-1], axis=0),
                                       np.logical_or.reduceat(sums_diff != 0, genus_starts[:-1], axis=0))):
            failed[row, :, i0:i1] = np.logical_or.reduceat(unequal, segments, axis=1)
    # no genus translate at an inert p: its genus_permutation record is the skip
    failed[2] &= chi != -1
    return failed


def sweep_records(group: ClassGroup, n_max: int, bound: int, chi: dict[int, int],
                  failed: np.ndarray) -> list[CheckRecord]:
    """The records of every identity at every prime p <= bound, p increasing, from
    the group's 3 x (number of primes) slice of sweep_failures: the passing
    records of the column plan, and for each identity that fails at p the record
    of its check_* function, with the first mismatch; a check_* that then passes
    is a RuntimeError."""
    plan = _column_plan(n_max, bound)
    values = [chi[p] for p in plan.primes]
    records = [record for i, value in enumerate(values) for record in plan.passing[i][value]]
    theta_checks = {1: check_split_theta, 0: check_ramified_theta, -1: check_inert_theta}
    for i, row in zip(*np.nonzero(failed.T)):
        check = (check_eigenform, theta_checks[values[i]], check_genus_permutation)[row]
        record = check(group, plan.primes[i], n_max, bound)
        if record.passed:
            raise RuntimeError(f"the prime sweep fails {records[3 * i + row].name} at {group.delta}, "
                               f"{check.__name__} passes it")
        records[3 * i + row] = record
    return records
