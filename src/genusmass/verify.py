"""Top-level identity suite: the class-group average, the class number formula at
s = 0, the twisted and per-genus Eisenstein identities, and character counts,
aggregated into per-discriminant reports.  A run builds the layers of a batch
of discriminants as stacked arrays (Batch), compares these five and the
identities at the primes for the whole batch at once (identity_failures,
hecke.sweep_failures), and makes a passing report from the batch's numbers; a
discriminant's record is sliced out of its batch only when one of its checks
fails there, and a verify_* function called on it for the first mismatch."""

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

from .arith import (
    distinct_prime_count,
    factorize,
    fundamental_flags,
    prime_discriminant_factorization,
    prime_discriminant_tables,
)
from .class_group import Stack, build_class_group, check_laws, class_group_stack, compose_stacked, law_rows
from .forms import stacked_reduced_forms
from .genus import CharacterTables, character_tables
from .hecke import (
    CheckRecord,
    Layers,
    PrimeStack,
    prime_classes,
    prime_layer,
    prime_layers,
    primes_to,
    sweep_failures,
    sweep_passing,
    sweep_records,
)
from .qseries import dirichlet_convolution, first_mismatch
from .series import CharacterReads, EisensteinStack, eisenstein_stack, own_rows, series_stack

__all__ = [
    "VerificationReport",
    "verify_gauss",
    "verify_dirichlet",
    "verify_twisted_eisenstein",
    "verify_genus_mass",
    "verify_character_counts",
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


def verify_gauss(layers: Layers) -> CheckRecord:
    """sum over classes of r(Q_h, n) = w * sum over t | n of (delta|t), n = 1..N."""
    total = layers.theta.sum(axis=0)
    chi = layers.eisenstein.character.astype(total.dtype)
    rhs = int(layers.group.w[0]) * dirichlet_convolution(chi, np.ones_like(chi))
    found = first_mismatch(total, 1, rhs, 1, lo=1)
    if found is not None:
        _, n, left, right = found
        return CheckRecord("gauss_average", "fail", f"mismatch at n={n}: {left} != {right}", found[1:])
    return CheckRecord("gauss_average", "pass", f"n=1..{len(total) - 1} exact")


def verify_dirichlet(layers: Layers) -> CheckRecord:
    """h = (w/2) L(0, (delta|.)) exactly: Dirichlet's class number formula at s = 0,
    with h from the class group and L(0) from the character alone."""
    group = layers.group
    h = int(group.h[0])
    computed = int(group.w[0]) * layers.eisenstein.l_zero / 2
    status = "pass" if computed == h else "fail"
    return CheckRecord("dirichlet_class_number", status, f"(w/2)L(0)={computed} h={h} exact")


def verify_twisted_eisenstein(layers: Layers) -> CheckRecord:
    """Twisted theta sums equal the divisor-sum Eisenstein series, X S = w E, every
    character pair at once; the first mismatch is reported in character order."""
    group, eisenstein = layers.group, layers.eisenstein
    pairs = eisenstein.pairs
    lhs = layers.characters @ layers.sums
    found = first_mismatch(lhs, Fraction(1, int(group.w[0])), eisenstein.rows, eisenstein.unit)
    if found is not None:
        row, n, left, right = found
        d, big_d = pairs[row]
        detail = f"(d,D)=({d},{big_d}) mismatch at n={n}: {left} != {right}"
        return CheckRecord("twisted_eisenstein", "fail", detail, found[1:])
    return CheckRecord("twisted_eisenstein", "pass", f"{len(pairs)} pairs, n=0..{lhs.shape[1] - 1} exact")


def verify_genus_mass(layers: Layers) -> CheckRecord:
    """Genus theta averages equal the character-weighted Eisenstein combinations,
    S / |H^2| = (w/h) X^T E, every genus at once.  A genus whose two constant
    terms are not both 1 is reported ahead of any mismatch in it or after it."""
    group, eisenstein = layers.group, layers.eisenstein
    lhs, lhs_unit = layers.sums, Fraction(1, int(group.squares[0]))
    rhs = layers.characters.T @ eisenstein.rows
    rhs_unit = eisenstein.unit * Fraction(int(group.w[0]), int(group.h[0]))
    found = first_mismatch(lhs, lhs_unit, rhs, rhs_unit)
    lhs0, rhs0 = lhs[:, 0] * lhs_unit, rhs[:, 0] * rhs_unit
    bad = (lhs0 != 1) | (rhs0 != 1)
    if bad.any() and (found is None or bad.argmax() <= found[0]):
        k = int(bad.argmax())
        detail = f"genus {int(group.leaders[k])}: constant terms {lhs0[k]}, {rhs0[k]} != 1"
        return CheckRecord("genus_mass", "fail", detail)
    if found is not None:
        row, n, left, right = found
        detail = f"genus {int(group.leaders[row])} mismatch at n={n}: {left} != {right}"
        return CheckRecord("genus_mass", "fail", detail, found[1:])
    return CheckRecord("genus_mass", "pass", f"{len(group.leaders)} genera, n=0..{lhs.shape[1] - 1} exact")


def verify_character_counts(layers: Layers) -> CheckRecord:
    """|G*| = |G| = 2^(t-1), and the character table X is orthogonal: X X^T = |G| I."""
    group, pairs = layers.group, layers.eisenstein.pairs
    expected = 2 ** (distinct_prime_count(group.delta) - 1)
    if len(pairs) != expected:
        return CheckRecord("character_counts", "fail", f"{len(pairs)} pairs != 2^(t-1) = {expected}")
    if len(group.leaders) != expected:
        detail = f"{len(group.leaders)} genera != 2^(t-1) = {expected}"
        return CheckRecord("character_counts", "fail", detail)
    table = layers.characters
    if not np.array_equal(table @ table.T, expected * np.eye(expected, dtype=np.int64)):
        detail = f"the character table is not orthogonal: X X^T != {expected} I"
        return CheckRecord("character_counts", "fail", detail)
    detail = f"|G*| = |G| = {expected}, genera of size {int(group.squares[0])}"
    return CheckRecord("character_counts", "pass", detail)


# The identities of a delta that its batch compares for all of its deltas at once
# (identity_failures), in report order, each checked alone by a verify_* above.
IDENTITIES = ("gauss_average", "character_counts", "twisted_eisenstein", "genus_mass", "dirichlet_class_number")


def identity_failures(stack: Stack, tables: CharacterTables, totals: np.ndarray, sums: np.ndarray,
                      eisenstein: EisensteinStack) -> tuple[np.ndarray, np.ndarray]:
    """Which of the five per-delta identities (IDENTITIES) fails for each of the
    groups of a stack, as a (number of groups) x 5 bool array, all groups at
    once, and the seconds that each identity's comparison took.

    tables are the groups' character tables X, totals their theta column sums
    (one row each), sums their genus sums S stacked (one row per genus) and
    eisenstein their Eisenstein rows E, of unit 1/k.  Each comparison is that
    of its verify_* function, on integers: the two sides are cross-multiplied
    by their units' denominators, where first_mismatch multiplies by their
    quotients by a common unit.
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
    needs it (series._coeff_dtype, whose bound covers each product here)."""
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
    chi = eisenstein.characters.astype(dtype)
    failed[:, 0] = (totals[:, 1:] != w[:, None] * dirichlet_convolution(chi, np.ones_like(chi))[:, 1:]).any(axis=1)
    lap(0)
    failed[:, 4] = w * eisenstein.l_zero[:, 0] != 2 * h * eisenstein.l_zero[:, 1]
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
        # the rows of S and E of the block's groups: all of them, in order, when
        # the block holds every group
        genus_rows = stack.genus_starts[members][:, None] + np.arange(size)
        if len(members) == len(stack.deltas):
            s = scaled_sums.reshape(2, len(members), size, -1)
            e = scaled_rows.reshape(2, len(members), count, -1)
        else:
            s = scaled_sums[:, genus_rows]
            e = scaled_rows[:, pair_starts[members][:, None] + np.arange(count)]
        failed[members, 2] |= (x @ s[0] != e[0]).any(axis=(1, 2))
        lap(2)
        # a constant term of S that is not |H^2| fails genus_mass; where the two
        # sides then agree, so does the constant term of the right side
        failed[members, 3] |= ((s[1] != xt @ e[1]).any(axis=(1, 2))
                               | (sums[genus_rows, 0] != squares[members, None]).any(axis=1))
        lap(3)
    return failed, seconds


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
    - failed, the prime sweep's failures (hecke.sweep_failures);
    - identities_failed, a row of five flags per delta (identity_failures);
    - shares, each delta's shares of the batch's build and comparison time in
      seconds, a list per delta: one for each of the five identities, then one for the prime
      layer and sweep, which the first record at a prime carries, each holding
      the layers that its check reads first; then the report's, which holds
      these and the class group build, which no check reads;
    - summary, per delta, what its report reads when none of its checks fails:
      h, t, the genus count, |H^2|, the pair count, chi(p) at each prime, and
      whether any of its checks fails.
    batch_record slices one delta's record (hecke.Layers) out of it."""

    stack: Stack
    theta: np.ndarray
    totals: np.ndarray
    sums: np.ndarray
    eisenstein: EisensteinStack
    characters: CharacterTables
    primes: PrimeStack
    failed: np.ndarray
    identities_failed: np.ndarray
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
    eisenstein = eisenstein_stack(deltas, stack.h.tolist(), n_max, reads=reads)
    eisenstein_s, start = reads_s + clock() - start, clock()
    tables = character_tables(stack, eisenstein.pairs[:, 0], eisenstein.counts)
    tables_s, start = clock() - start, clock()
    failed = sweep_failures(stack, primes, series.theta, series.totals, series.sums, n_max, primes_bound)
    built = clock()
    primes_s += built - start
    identities, compare_s = identity_failures(stack, tables, series.totals, series.sums, eisenstein)
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
                            identities, shares, []))


def summarized(batch: Batch) -> Batch:
    """The batch with its summary made from its arrays (see Batch)."""
    stack = batch.stack
    flagged = batch.identities_failed.any(axis=1) | batch.failed.any(axis=(0, 2))
    columns = (stack.h, stack.t, stack.genus_counts, stack.squares, batch.eisenstein.counts, batch.primes.chi,
               flagged)
    return batch._replace(summary=list(zip(*(column.tolist() for column in columns))))


def batch_record(batch: Batch, k: int) -> Layers:
    """The record of the k-th delta of the batch, sliced out of its stacked
    layers, its theta rows, genus sums and Eisenstein rows copied in the
    group's coefficient dtype."""
    stack = batch.stack
    group = stack.group(k)
    n_max = batch.theta.shape[1] - 1
    start, g0, h = int(stack.starts[k]), int(stack.genus_starts[k]), int(stack.h[k])
    theta = own_rows(batch.theta[start : start + h], group.delta, h, n_max)
    sums = own_rows(batch.sums[g0 : g0 + len(group.leaders)], group.delta, h, n_max)
    return Layers(group, batch.characters.table(k), theta, sums, batch.eisenstein.rows_of(k, theta.dtype),
                  prime_layer(stack, batch.primes, k), batch.failed[:, k], batch.identities_failed[k].tolist(),
                  batch.shares[k])


def _report_checks(batch: Batch, k: int, primes_bound: int) -> tuple[list[CheckRecord], list[float]]:
    """The records of the report of the k-th delta of the batch, and the seconds
    that the first six took: the five identities (IDENTITIES), then the records
    at the primes from the batch's prime sweep, whose time the first of them
    carries.  The batch compared them all (identity_failures, sweep_failures),
    so where none fails the records are made from the numbers of the batch's
    summary.  Where one fails, the delta's record is sliced out of the batch
    (batch_record), and a failing identity's record comes from its verify_*
    function, for its detail and first mismatch, looked up through the module
    names that a tracer can rebind, the records at the primes from
    hecke.sweep_records.  A verify_* that then passes is a RuntimeError."""
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
    layers = batch_record(batch, k)
    for i in (i for i, failed in enumerate(layers.identities_failed) if failed):
        check = (verify_gauss, verify_character_counts, verify_twisted_eisenstein, verify_genus_mass,
                 verify_dirichlet)[i]
        start = clock()
        record = check(layers)
        seconds[i] = clock() - start
        if record.passed:
            raise RuntimeError(f"the batch fails {IDENTITIES[i]} at {layers.group.delta}, "
                               f"{check.__name__} passes it")
        records[i] = record
    start = clock()
    records += sweep_records(layers, primes_bound)
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
    made when it is asked for.  The reduced forms of the chunk's fundamental
    discriminants come from one enumeration; the discriminants then go in
    batches of consecutive ones of at most BATCH_ENTRIES entries (one beyond it
    alone), and each batch's layers are built when its first report is asked
    for.  Each job takes the next delta of a batch, in input order, so that a
    repeated delta has its own, and a job whose delta is not fundamental takes
    no batch.  The
    caches keyed by delta are emptied once the iterator is exhausted, closed or
    garbage-collected, or passes on an exception."""
    start = time.perf_counter()
    _, n_max, primes_bound = jobs[0]
    fundamental = fundamental_flags([delta for delta, _, _ in jobs]).tolist()
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
