"""Top-level identity suite: the class-group average, the class number formula at
s = 0, the twisted and per-genus Eisenstein identities, and character counts,
aggregated into per-discriminant reports.  A run builds the layers of a batch
of discriminants as stacked arrays (Batch) and compares these five and the
identities at the primes for the whole batch at once (identity_failures,
hecke.sweep_failures): each identity is coded once, as that comparison.  A
passing report is made from the batch's numbers.  For each identity that fails,
the comparison keeps its first mismatch, read off the two sides it compared,
and a verify_* function makes the failing record from that."""

from __future__ import annotations

import json
import os
import time
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from itertools import accumulate, islice
from typing import Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .arith import factorize, is_fundamental, prime_discriminant_factorization, prime_discriminant_tables
from .class_group import Stack, build_class_group, check_laws, class_group_stack, compose_stacked, law_rows
from .forms import stacked_reduced_forms
from .genus import CharacterTables, character_pairs, character_tables
from .hecke import (
    CheckRecord,
    Mismatch,
    PrimeStack,
    prime_classes,
    prime_layers,
    primes_to,
    sweep_failures,
    sweep_passing,
    sweep_records,
)
from .qseries import dirichlet_convolution, first_true
from .series import CharacterReads, EisensteinStack, eisenstein_stack, series_stack

__all__ = [
    "VerificationReport",
    "run_suite",
    "iter_suite",
    "report_json_line",
]


@dataclass(frozen=True)
class VerificationReport:
    delta: int
    precision: int
    class_number: int
    t: int
    genus_count: int
    checks: tuple[CheckRecord, ...]
    elapsed_ms: float = 0.0
    skip_reason: Optional[str] = None
    # the time of each check in milliseconds, in the order of checks; empty for
    # a report built without times, whose checks then read 0
    check_ms: tuple[float, ...] = ()

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        times = self.check_ms or (0.0,) * len(self.checks)
        out = {
            "delta": self.delta,
            "precision": self.precision,
            "h": self.class_number,
            "t": self.t,
            "genus_count": self.genus_count,
            "checks": [c.to_dict(ms) for c, ms in zip(self.checks, times, strict=True)],
        }
        if self.skip_reason is not None:
            out["skipped"] = self.skip_reason
        out["elapsed_ms"] = self.elapsed_ms
        return out


def report_json_line(report: VerificationReport) -> str:
    return json.dumps(report.to_dict())


def _ms_since(start: float) -> float:
    """Milliseconds since the perf_counter reading start, to 0.001 ms."""
    return round((time.perf_counter() - start) * 1000, 3)


# The failing record of each of the five per-delta identities, made from what
# identity_failures kept of the comparison that failed it (see there).


def verify_gauss(mismatch: Mismatch) -> CheckRecord:
    """sum over classes of r(Q_h, n) = w * sum over t | n of (delta|t), n = 1..N."""
    n, left, right = mismatch
    return CheckRecord("gauss_average", "fail", f"mismatch at n={n}: {left} != {right}", mismatch)


def verify_dirichlet(w: int, h: int, l_zero: Fraction) -> CheckRecord:
    """h = (w/2) L(0, (delta|.)) exactly: Dirichlet's class number formula at s = 0,
    with h from the class group and L(0) from the character alone."""
    return CheckRecord("dirichlet_class_number", "fail", f"(w/2)L(0)={w * l_zero / 2} h={h} exact")


def verify_twisted_eisenstein(d: int, big_d: int, mismatch: Mismatch) -> CheckRecord:
    """Twisted theta sums equal the divisor-sum Eisenstein series, X S = w E, every
    character pair at once; the first mismatch is reported in character order,
    at the pair (d, D)."""
    n, left, right = mismatch
    return CheckRecord("twisted_eisenstein", "fail", f"(d,D)=({d},{big_d}) mismatch at n={n}: {left} != {right}",
                       mismatch)


def verify_genus_mass(genus: int, n: Optional[int], left: Fraction, right: Fraction) -> CheckRecord:
    """Genus theta averages equal the character-weighted Eisenstein combinations,
    S / |H^2| = (w/h) X^T E, every genus at once: the first mismatch, at n, or
    with n None the constant terms of the genus, which are not both 1 and are
    reported ahead of any mismatch in it or after it."""
    if n is None:
        return CheckRecord("genus_mass", "fail", f"genus {genus}: constant terms {left}, {right} != 1")
    return CheckRecord("genus_mass", "fail", f"genus {genus} mismatch at n={n}: {left} != {right}",
                       (n, left, right))


def verify_character_counts(pairs: int, genera: int, expected: int) -> CheckRecord:
    """|G*| = |G| = 2^(t-1) = expected, and the character table X is orthogonal:
    X X^T = |G| I.  With both counts right, it is X that fails."""
    if pairs != expected:
        return CheckRecord("character_counts", "fail", f"{pairs} pairs != 2^(t-1) = {expected}")
    if genera != expected:
        return CheckRecord("character_counts", "fail", f"{genera} genera != 2^(t-1) = {expected}")
    detail = f"the character table is not orthogonal: X X^T != {expected} I"
    return CheckRecord("character_counts", "fail", detail)


# The identities of a delta that its batch compares for all of its deltas at once
# (identity_failures), in report order.
IDENTITIES = ("gauss_average", "character_counts", "twisted_eisenstein", "genus_mass", "dirichlet_class_number")


def identity_failures(stack: Stack, tables: CharacterTables, totals: np.ndarray, sums: np.ndarray,
                      eisenstein: EisensteinStack) -> tuple[np.ndarray, np.ndarray, dict[int, dict[int, tuple]]]:
    """Which of the five per-delta identities (IDENTITIES) fails for each of the
    groups of a stack, as a (number of groups) x 5 bool array, all groups at
    once; the seconds that each identity's comparison took; and, by group k and
    identity i, the arguments from which the identity's verify_* makes the
    failing record.

    tables are the groups' character tables X, totals their theta column sums
    (one row each), sums their genus sums S stacked (one row per genus) and
    eisenstein their Eisenstein rows E, of unit 1/k.  Each comparison is on
    integers, with the two sides cross-multiplied by their units'
    denominators:
    - gauss_average: totals against w (chi * 1) at n >= 1, one Dirichlet
      convolution over the stacked character rows;
    - character_counts: the numbers of pairs and of genera against 2^(t-1), and
      X X^T against (number of pairs) I;
    - twisted_eisenstein: X (k S) against w E;
    - genus_mass: h k S against X^T (w |H^2| E), and the constant terms of S
      against |H^2|, so that both sides' are 1;
    - dirichlet_class_number: w L(0) against 2 h.
    X S, X^T E and X X^T are one batched matmul per block of groups whose X has
    one shape, on the rows of S and E of its groups, so that no block is
    padded.  Everything is compared in the dtype of the stacked Eisenstein
    rows, the widest coefficient dtype of the groups: object when one group
    needs it (series._coeff_dtype, whose bound covers each product here).

    A failing comparison's first mismatch is the first unequal (row, n) of the
    group's rows of its two sides, row-major over n (first_true, the order of
    qseries.first_mismatch), found while they are held; its two values are the
    sides divided back by their factors, as Fractions: (X k S)/(k w) = X S / w
    against (w E)/(k w) = E/k, and h k S / (h k |H^2|) = S / |H^2| against
    X^T (w |H^2| E) / (h k |H^2|) = (w/(h k)) X^T E.  A genus whose constant
    terms are not both 1 is reported instead when it comes no later than the
    first mismatch.  character_counts and dirichlet_class_number keep their
    counts, and w, h and L(0)."""
    clock = time.perf_counter
    seconds = np.zeros(len(IDENTITIES))
    last = clock()

    def lap(i: int) -> None:
        nonlocal last
        now = clock()
        seconds[i] += now - last
        last = now

    rows = eisenstein.rows
    dtype = rows.dtype
    w, h, k, squares, pairs, genera = stack.w, stack.h, eisenstein.units, stack.squares, eisenstein.counts, \
        stack.genus_counts
    failed = np.zeros((len(stack.deltas), len(IDENTITIES)), dtype=bool)
    found: dict[int, dict[int, tuple]] = {}

    def keep(group: int, i: int, *args) -> None:
        found.setdefault(int(group), {})[i] = args

    chi = eisenstein.characters.astype(dtype)
    divisor_sums = w[:, None] * dirichlet_convolution(chi, np.ones_like(chi))
    unequal = totals[:, 1:] != divisor_sums[:, 1:]
    failed[:, 0] = unequal.any(axis=1)
    for g in failed[:, 0].nonzero()[0]:
        n = int(unequal[g].argmax()) + 1
        keep(g, 0, (n, Fraction(int(totals[g, n])), Fraction(int(divisor_sums[g, n]))))
    del unequal, divisor_sums
    lap(0)
    failed[:, 4] = w * eisenstein.l_zero[:, 0] != 2 * h * eisenstein.l_zero[:, 1]
    for g in failed[:, 4].nonzero()[0]:
        keep(g, 4, int(w[g]), int(h[g]), Fraction(*eisenstein.l_zero[g].tolist()))
    lap(4)
    expected = 1 << (stack.t - 1)
    failed[:, 1] = (pairs != expected) | (genera != expected)
    lap(1)
    # each side of twisted_eisenstein and genus_mass times its factor, per row:
    # X (k S) against w E, and h k S against X^T (w |H^2| E)
    sums = sums.astype(dtype, copy=False)
    scaled_sums = sums * np.array((k, h * k))[:, stack.owner[stack.leaders], None]
    scaled_rows = rows * np.array((w, w * squares))[:, eisenstein.pair_owner, None]
    pair_starts = pairs.cumsum() - pairs
    lap(2)
    for members, x in tables.blocks:
        count, size = x.shape[1:]
        xt = x.transpose(0, 2, 1)
        failed[members, 1] |= (x @ xt != count * np.eye(count, dtype=np.int64)).any(axis=(1, 2))
        lap(1)
        # the rows of S and E of the block's groups
        genus_rows = stack.genus_starts[members][:, None] + np.arange(size)
        s = scaled_sums[:, genus_rows]
        e = scaled_rows[:, pair_starts[members][:, None] + np.arange(count)]
        lhs = x @ s[0]
        unequal = lhs != e[0]
        fails = unequal.any(axis=(1, 2))
        failed[members, 2] |= fails
        for j in fails.nonzero()[0]:
            g = members[j]
            row, n = first_true(unequal[j])
            unit = int(k[g] * w[g])
            d, big_d = eisenstein.pairs[pair_starts[g] + row].tolist()
            keep(g, 2, d, big_d, (n, Fraction(int(lhs[j, row, n]), unit), Fraction(int(e[0, j, row, n]), unit)))
        del lhs, unequal
        lap(2)
        # a constant term of S that is not |H^2| fails genus_mass; where the two
        # sides then agree, so does the constant term of the right side
        rhs = xt @ e[1]
        unequal = s[1] != rhs
        fails = unequal.any(axis=(1, 2)) | (sums[genus_rows, 0] != squares[members, None]).any(axis=1)
        failed[members, 3] |= fails
        for j in fails.nonzero()[0]:
            g, ids = members[j], stack.leaders[genus_rows[j]] - stack.starts[members[j]]
            unit = int(h[g] * k[g] * squares[g])
            # a genus whose constant terms are not both 1, up to the first
            # mismatch's, comes first: n None, and its constant terms
            row, n = first_true(unequal[j]) if unequal[j].any() else (size, 0)
            constant = (s[1, j, : row + 1, 0] != unit) | (rhs[j, : row + 1, 0] != unit)
            if constant.any():
                row, n = int(constant.argmax()), None
            col = 0 if n is None else n
            keep(g, 3, int(ids[row]), n, Fraction(int(s[1, j, row, col]), unit),
                 Fraction(int(rhs[j, row, col]), unit))
        del rhs, unequal
        lap(3)
    for g in failed[:, 1].nonzero()[0]:
        keep(g, 1, int(pairs[g]), int(genera[g]), int(expected[g]))
    return failed, seconds, found


@lru_cache(maxsize=None)
def _passing_identities(n: int, h: int, genera: int, squares: int, pairs: int) -> tuple[CheckRecord, ...]:
    """The records of the five identities (IDENTITIES) of a delta where none
    fails, at precision n, from its h, genus count, |H^2| and pair count: one
    set of records for every delta that has these numbers."""
    return (
        CheckRecord("gauss_average", "pass", f"n=1..{n} exact"),
        CheckRecord("character_counts", "pass", f"|G*| = |G| = {pairs}, genera of size {squares}"),
        CheckRecord("twisted_eisenstein", "pass", f"{pairs} pairs, n=0..{n} exact"),
        CheckRecord("genus_mass", "pass", f"{genera} genera, n=0..{n} exact"),
        CheckRecord("dirichlet_class_number", "pass", f"(w/2)L(0)={h} h={h} exact"),
    )


# The caches keyed by delta, and the passing records.  _chunk_reports empties
# them when its run ends, so that a range run holds at most one chunk's entries
# and none once it is over; CLI series and classgroup requests, which do not
# run the suite, still reuse a class group.  They are held here, not looked up
# by module name, since a wrapper bound over a module's name (a tracer's, say)
# has no cache_clear.
_RUN_CACHES = (build_class_group, factorize, prime_discriminant_factorization, prime_discriminant_tables,
               _passing_identities)


class Batch(NamedTuple):
    """The layers of a batch of discriminants, all stacked, as _batch_layers builds
    them, and all that their reports read:
    - stack, the class groups (class_group.Stack);
    - theta, totals and sums, the theta row of every class, their sums per
      group and the genus sums S, as int64 (series.series_stack);
    - eisenstein, the Eisenstein rows, with their character pairs, character
      rows and L(0) (series.EisensteinStack);
    - characters, the character tables X (genus.CharacterTables);
    - primes, the prime layers (hecke.PrimeStack);
    - failed, the prime sweep's failures, and sweep_mismatches, the first
      mismatch of each (hecke.sweep_failures);
    - identities_failed, a row of five flags per delta, and
      identity_mismatches, what the record of each failure reads
      (identity_failures);
    - shares, each delta's shares of the batch's build and comparison time in
      seconds, a list per delta: one for each of the five identities, then one for the prime
      layer and sweep, which the first record at a prime carries, each holding
      the layers that its check reads first; then the report's, which holds
      these and the class group build, which no check reads;
    - summary, per delta, what its report reads when none of its checks fails:
      h, t, the genus count, |H^2|, the pair count, chi(p) at each prime, and
      whether any of its checks fails."""

    stack: Stack
    theta: np.ndarray
    totals: np.ndarray
    sums: np.ndarray
    eisenstein: EisensteinStack
    characters: CharacterTables
    primes: PrimeStack
    failed: np.ndarray
    sweep_mismatches: dict[int, dict[tuple[int, int], Mismatch]]
    identities_failed: np.ndarray
    identity_mismatches: dict[int, dict[int, tuple]]
    shares: list[list[float]]
    summary: list[tuple]


def _batch_layers(deltas: list[int], classes: np.ndarray, counts: np.ndarray, n_max: int,
                  primes_bound: int, build_s: float = 0.0) -> Batch:
    """The layers of the fundamental discriminants deltas, from their stacked
    reduced forms, each built for all of them at once and kept stacked: the
    class groups, with their genus characters; the compositions of the group
    laws and of the prime layers, in one compose_stacked call; the theta
    matrices, their totals and genus sums; the Eisenstein rows, with their
    character pairs; the character tables X; the prime layers; one prime sweep;
    and the comparison of the five per-delta identities (identity_failures).
    Each delta's prime-discriminant tables are read once, for the genus
    characters of its classes and, right after, for its L(0) and its windows
    of the Eisenstein rows (series.CharacterReads).

    The time of each layer and of each comparison is divided among the deltas
    by their share of its rows: classes; character pairs for the Eisenstein
    rows, the tables X and the twisted and counting comparisons; genera for the
    genus-mass one; one per delta for the Gauss and Dirichlet ones.  The
    composition call is first divided between the group laws and the prime
    layers by theirs.  build_s, time spent on these deltas before, joins the
    class group build."""
    clock = time.perf_counter
    begin = clock()
    reads, reads_s = CharacterReads(n_max), 0.0

    def read_tables(delta: int) -> None:
        nonlocal reads_s
        t = clock()
        reads.add(delta)
        reads_s += clock() - t

    stack = class_group_stack(deltas, classes, counts, read_tables)
    law = law_rows(stack)
    found = prime_classes(stack, primes_bound)
    start = clock()
    products = compose_stacked(stack, np.concatenate((law[0], found.left)), np.concatenate((law[1], found.right)))
    compose_s = clock() - start
    check_laws(stack, products[: len(law[0])])
    start = clock()
    primes = prime_layers(stack, found, products[len(law[0]) :])
    primes_s, start = clock() - start, clock()
    series = series_stack(stack, n_max)
    theta_s, start = clock() - start, clock()
    eisenstein = eisenstein_stack(deltas, stack.h.tolist(), n_max, reads, [character_pairs(d) for d in deltas])
    eisenstein_s, start = reads_s + clock() - start, clock()
    tables = character_tables(stack, eisenstein.pairs[:, 0], eisenstein.counts)
    tables_s, start = clock() - start, clock()
    failed, sweep_mismatches = sweep_failures(stack, primes, series.theta, series.totals, series.sums, n_max,
                                              primes_bound)
    built = clock()
    primes_s += built - start
    identities, compare_s, identity_mismatches = identity_failures(stack, tables, series.totals, series.sums,
                                                                   eisenstein)
    law_share = len(law[0]) / max(1, len(products))
    primes_s += (1 - law_share) * compose_s
    # the class group build takes the rest, up to the comparisons
    build_s += built - begin - theta_s - eisenstein_s - tables_s - primes_s
    # each delta's shares, by its share of the rows of each layer and
    # comparison: its classes, its character pairs, its genera, or itself
    seconds = np.array([[theta_s, 0, 0, compare_s[0]], [0, tables_s + compare_s[1], 0, 0],
                        [0, eisenstein_s + compare_s[2], 0, 0], [0, 0, compare_s[3], 0], [0, 0, 0, compare_s[4]],
                        [primes_s, 0, 0, 0], [build_s, 0, 0, 0]])
    seconds[-1] += seconds[:-1].sum(axis=0)
    weights = np.array([stack.h, eisenstein.counts, stack.genus_counts, np.ones(len(deltas))], dtype=float)
    shares = (seconds @ (weights / weights.sum(axis=1, keepdims=True))).T.tolist()
    return summarized(Batch(stack, series.theta, series.totals, series.sums, eisenstein, tables, primes, failed,
                            sweep_mismatches, identities, identity_mismatches, shares, []))


def summarized(batch: Batch) -> Batch:
    """The batch with its summary made from its arrays (see Batch)."""
    stack = batch.stack
    flagged = batch.identities_failed.any(axis=1) | batch.failed.any(axis=(0, 2))
    columns = (stack.h, stack.t, stack.genus_counts, stack.squares, batch.eisenstein.counts, batch.primes.chi,
               flagged)
    return batch._replace(summary=list(zip(*(column.tolist() for column in columns))))


def _report_checks(batch: Batch, k: int, primes_bound: int) -> tuple[list[CheckRecord], list[float]]:
    """The records of the report of the k-th delta of the batch, and the seconds
    that the first six took: the five identities (IDENTITIES), then the records
    at the primes from the batch's prime sweep, whose time the first of them
    carries.  The batch compared them all (identity_failures, sweep_failures),
    so where none fails the records are made from the numbers of the batch's
    summary.  Where one fails, its record is made by its verify_* function
    (or, at a prime, hecke's check_*, through sweep_records) from what the
    comparison kept of the failure; each is looked up through the module
    names that a tracer can rebind."""
    clock = time.perf_counter
    h, _, genera, squares, pairs, chi, flagged = batch.summary[k]
    n = batch.theta.shape[1] - 1
    records = list(_passing_identities(n, h, genera, squares, pairs))
    seconds = [0.0] * (len(records) + 1)
    if not flagged:
        start = clock()
        records += sweep_passing(chi, n, primes_bound)
        seconds[-1] = clock() - start
        return records, seconds
    checks = (verify_gauss, verify_character_counts, verify_twisted_eisenstein, verify_genus_mass,
              verify_dirichlet)
    for i, found in batch.identity_mismatches.get(k, {}).items():
        start = clock()
        records[i] = checks[i](*found)
        seconds[i] = clock() - start
    start = clock()
    records += sweep_records(chi, n, primes_bound, batch.sweep_mismatches.get(k, {}))
    seconds[-1] = clock() - start
    return records, seconds


def _suite_job(job: tuple[int, int, int, Optional[Batch], int]) -> VerificationReport:
    """The report of one job (delta, n_max, primes_bound, batch, k): its delta's
    checks on the k-th delta of batch, the layers its chunk built, which is
    None when delta is not a negative fundamental discriminant.  Each check's
    time, and the report's, carry the delta's shares of the batch's time (see
    _batch_layers and Batch.shares), each rounded to 0.001 ms."""
    delta, n_max, primes_bound, batch, k = job
    start = time.perf_counter()
    if batch is None:
        return VerificationReport(
            delta=delta,
            precision=n_max,
            class_number=0,
            t=0,
            genus_count=0,
            checks=(),
            elapsed_ms=_ms_since(start),
            skip_reason="non-fundamental",
        )
    checks, seconds = _report_checks(batch, k, primes_bound)
    seconds.append(time.perf_counter() - start)
    *check_ms, elapsed_ms = (round((s + share) * 1000, 3) for s, share in zip(seconds, batch.shares[k]))
    # the records past the first six took no time of their own; with no primes
    # there are five, and the sweep's time and share stay in the report's alone
    check_ms = check_ms[: len(checks)] + [0.0] * (len(checks) - len(check_ms))
    h, t, genera = batch.summary[k][:3]
    return VerificationReport(
        delta=delta,
        precision=n_max,
        class_number=h,
        t=t,
        genus_count=genera,
        checks=tuple(checks),
        check_ms=tuple(check_ms),
        elapsed_ms=elapsed_ms,
    )


def _worker_count() -> int:
    """GENUSMASS_THREADS, 1 when it is unset; ValueError unless it is a positive integer."""
    raw = os.environ.get("GENUSMASS_THREADS", "1")
    try:
        count = int(raw)
    except ValueError:
        count = 0
    if count < 1:
        raise ValueError(f"GENUSMASS_THREADS must be a positive integer, got {raw!r}")
    return count


def _pool_size(workers: Optional[int], n_jobs: int) -> int:
    """Processes to run n_jobs jobs on: workers, or GENUSMASS_THREADS when it is
    None; 1 means in-process.  ValueError unless workers is None or positive."""
    if workers is None:
        workers = _worker_count()
    elif workers < 1:
        raise ValueError(f"workers must be a positive integer, got {workers!r}")
    return workers if n_jobs > 1 else 1


# A pool worker sends back a chunk's reports in one piece, and the parent holds
# them until they are handed out, so a chunk has at most this many jobs.  On
# [-10^4, -3] at prec 200 / primes 50 with 2 workers (2 vCPU), chunks of 624
# jobs peaked at 42.7 MB in the parent and 36.0 MB in a worker, chunks of 128
# at 35.2 and 30.5 MB, in the same wall time (9.0 and 8.9 s).  With 2 workers
# the cap acts only on ranges of more than 16 * 128 jobs.
CHUNK_JOBS = 128
# A job takes milliseconds, so the pool gets them in chunks, about this many per
# worker, and at most this many chunks per worker are submitted ahead of the
# reports being handed out.
CHUNKS_PER_WORKER = 8


# A batch of a chunk builds the layers of its discriminants together, and each
# holds at most this many entries, h (N + 1) summed over them: their theta rows,
# or, where the primes outnumber the columns, their rows of compositions, one
# per class and prime plus three for the group laws.  One discriminant beyond it
# is a batch of its own.  Every array of a batch then grows with the batch's
# entries, not with the chunk.
BATCH_ENTRIES = 1 << 16


def _chunk_reports(jobs: list[tuple[int, int, int]]) -> Iterator[VerificationReport]:
    """The reports of the jobs, all of one (n_max, primes_bound), in order, each
    made when it is asked for.  A job's delta is fundamental by
    arith.is_fundamental, the test that the reduced forms and the
    prime-discriminant factorization apply too (a delta >= 0 is not).  The
    reduced forms of the chunk's fundamental discriminants come from one
    enumeration; the discriminants then go in batches of consecutive ones of at
    most BATCH_ENTRIES entries (one beyond it alone), and each batch's layers
    are built when its first report is asked for.  Each job takes the next
    delta of a batch, in input order, so that a repeated delta has its own, and
    a job whose delta is not fundamental takes no batch.  The caches keyed by
    delta are emptied once the iterator is exhausted, closed or
    garbage-collected, or passes on an exception."""
    start = time.perf_counter()
    _, n_max, primes_bound = jobs[0]
    fundamental = [delta < 0 and is_fundamental(delta) for delta, _, _ in jobs]
    deltas = [job[0] for job, flag in zip(jobs, fundamental) if flag]
    forms, counts = stacked_reduced_forms(deltas) if deltas else (None, [])
    counts = list(counts)
    starts = list(accumulate(counts, initial=0))
    # the chunk's share of each batch, by its classes
    chunk_s = (time.perf_counter() - start) / max(1, starts[-1])
    width = max(n_max + 1, len(primes_to(primes_bound)) + 3)
    cuts, entries = [], 0
    for k, count in enumerate(counts):
        if not cuts or entries + count * width > BATCH_ENTRIES:
            cuts.append(k)
            entries = 0
        entries += count * width
    cuts.append(len(counts))
    batches = (_batch_layers(deltas[a:b], forms[starts[a] : starts[b]], np.array(counts[a:b]), n_max,
                             primes_bound, chunk_s * (starts[b] - starts[a]))
               for a, b in zip(cuts, cuts[1:]))
    entries = ((batch, k) for batch in batches for k in range(len(batch.stack.deltas)))
    try:
        for job, flag in zip(jobs, fundamental):
            # _suite_job is looked up here, in the worker, because a tracer rebinds it
            yield _suite_job((*job, *(next(entries) if flag else (None, 0))))
    finally:
        for cache in _RUN_CACHES:
            cache.cache_clear()


def _suite_chunk(jobs: list[tuple[int, int, int]]) -> list[VerificationReport]:
    """The reports of a pool chunk's jobs (see _chunk_reports)."""
    return list(_chunk_reports(jobs))


def _pool_reports(
    jobs: Iterator[tuple[int, int, int]], n_jobs: int, workers: int
) -> Iterator[VerificationReport]:
    """The reports of the n_jobs jobs from a pool of processes, in input order,
    each as soon as it and every earlier one are done.  The pool starts when the
    first report is asked for.  jobs are taken from the iterator a chunk at a
    time: when a chunk's reports are taken, the next chunk is submitted, so at
    most CHUNKS_PER_WORKER chunks per worker are in flight.  The pool is shut
    down, its queued jobs cancelled and its processes joined, when the iterator
    is exhausted, closed or garbage-collected, or passes on a job's exception."""
    from concurrent.futures import ProcessPoolExecutor

    chunksize = max(1, min(n_jobs // (CHUNKS_PER_WORKER * workers), CHUNK_JOBS))
    chunks = iter(lambda: list(islice(jobs, chunksize)), [])
    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        ahead = islice(chunks, CHUNKS_PER_WORKER * workers)
        pending = deque(pool.submit(_suite_chunk, chunk) for chunk in ahead)
        while pending:
            reports = pending.popleft().result()
            pending.extend(pool.submit(_suite_chunk, chunk) for chunk in islice(chunks, 1))
            yield from reports
    finally:
        pool.shutdown(cancel_futures=True)


def iter_suite(
    deltas: Sequence[int],
    n_max: int = 100,
    primes_bound: int = 20,
    workers: Optional[int] = None,
) -> Iterator[VerificationReport]:
    """The reports of run_suite one at a time, in the order of the input deltas.
    Jobs are taken a chunk at a time, in-process CHUNK_JOBS of them; each chunk
    builds its layers in batches (see _chunk_reports), and each job's checks
    run when its report is asked for.  With workers > 1 the chunks go to a pool
    (see _pool_reports).  Nothing here keeps a report once it is handed out."""
    workers = _pool_size(workers, len(deltas))
    jobs = ((delta, n_max, primes_bound) for delta in deltas)
    if workers > 1:
        return _pool_reports(jobs, len(deltas), workers)
    return _serial_reports(jobs)


def _serial_reports(jobs: Iterator[tuple[int, int, int]]) -> Iterator[VerificationReport]:
    for chunk in iter(lambda: list(islice(jobs, CHUNK_JOBS)), []):
        yield from _chunk_reports(chunk)


def run_suite(
    deltas: Sequence[int],
    n_max: int = 100,
    primes_bound: int = 20,
    workers: Optional[int] = None,
) -> list[VerificationReport] | Iterator[VerificationReport]:
    """Run every check for each delta; non-fundamental entries are skipped, never fatal.

    Per-delta jobs are independent; GENUSMASS_THREADS (or workers) > 1 fans them
    out over processes.  Reports come in the order of the input deltas.
    In-process this runs every job and returns the list of reports, so that all
    of the work, and any exception, happens inside the call.  With workers > 1
    it returns iter_suite's iterator over the pool, which hands out each report
    as soon as it and every earlier one are done rather than after the last.
    """
    workers = _pool_size(workers, len(deltas))
    reports = iter_suite(deltas, n_max, primes_bound, workers)
    return reports if workers > 1 else list(reports)


def delta_range(hi: int, lo: int) -> range:
    """All integers from max(hi, lo) down to min(hi, lo), inclusive."""
    top, bottom = max(hi, lo), min(hi, lo)
    return range(top, bottom - 1, -1)
