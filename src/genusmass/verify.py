"""Top-level identity suite: the class-group average, the class number formula at
s = 0, the twisted and per-genus Eisenstein identities, and character counts,
aggregated into per-discriminant reports."""

from __future__ import annotations

import json
import os
import time
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, islice
from typing import Iterator, Optional, Sequence

import numpy as np

from .arith import (
    distinct_prime_count,
    factorize,
    is_fundamental,
    prime_discriminant_factorization,
    prime_discriminant_tables,
)
from .class_group import build_class_group, check_laws, class_group_stack, compose_stacked, law_rows
from .forms import stacked_reduced_forms
from .genus import build_genus_characters
from .hecke import CheckRecord, Layers, prime_classes, prime_layers, primes_to, sweep_failures, sweep_records
from .qseries import dirichlet_convolution, first_mismatch
from .series import CharacterReads, eisenstein_stack, series_stack, theta_slices

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
    rhs = layers.group.w * dirichlet_convolution(chi, np.ones_like(chi))
    found = first_mismatch(total, 1, rhs, 1, lo=1)
    if found is not None:
        _, n, left, right = found
        return CheckRecord("gauss_average", "fail", f"mismatch at n={n}: {left} != {right}", found[1:])
    return CheckRecord("gauss_average", "pass", f"n=1..{len(total) - 1} exact")


def verify_dirichlet(layers: Layers) -> CheckRecord:
    """h = (w/2) L(0, (delta|.)) exactly: Dirichlet's class number formula at s = 0,
    with h from the class group and L(0) from the character alone."""
    group = layers.group
    computed = group.w * layers.eisenstein.l_zero / 2
    status = "pass" if computed == group.h else "fail"
    return CheckRecord("dirichlet_class_number", status, f"(w/2)L(0)={computed} h={group.h} exact")


def verify_twisted_eisenstein(layers: Layers) -> CheckRecord:
    """Twisted theta sums equal the divisor-sum Eisenstein series, X S = w E, every
    character pair at once; the first mismatch is reported in character order."""
    group, eisenstein = layers.group, layers.eisenstein
    pairs = eisenstein.pairs
    lhs = layers.characters @ layers.sums
    found = first_mismatch(lhs, Fraction(1, group.w), eisenstein.rows, eisenstein.unit)
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
    lhs, lhs_unit = layers.sums, Fraction(1, len(group.squares))
    rhs, rhs_unit = layers.characters.T @ eisenstein.rows, eisenstein.unit * Fraction(group.w, group.h)
    found = first_mismatch(lhs, lhs_unit, rhs, rhs_unit)
    lhs0, rhs0 = lhs[:, 0] * lhs_unit, rhs[:, 0] * rhs_unit
    bad = (lhs0 != 1) | (rhs0 != 1)
    if bad.any() and (found is None or bad.argmax() <= found[0]):
        k = int(bad.argmax())
        detail = f"genus {group.genus_ids[k]}: constant terms {lhs0[k]}, {rhs0[k]} != 1"
        return CheckRecord("genus_mass", "fail", detail)
    if found is not None:
        row, n, left, right = found
        detail = f"genus {group.genus_ids[row]} mismatch at n={n}: {left} != {right}"
        return CheckRecord("genus_mass", "fail", detail, found[1:])
    return CheckRecord("genus_mass", "pass", f"{len(group.genus_ids)} genera, n=0..{lhs.shape[1] - 1} exact")


def verify_character_counts(layers: Layers) -> CheckRecord:
    """|G*| = |G| = 2^(t-1), and the character table X is orthogonal: X X^T = |G| I."""
    group, pairs = layers.group, layers.eisenstein.pairs
    expected = 2 ** (distinct_prime_count(group.delta) - 1)
    if len(pairs) != expected:
        return CheckRecord("character_counts", "fail", f"{len(pairs)} pairs != 2^(t-1) = {expected}")
    if len(group.genus_ids) != expected:
        detail = f"{len(group.genus_ids)} genera != 2^(t-1) = {expected}"
        return CheckRecord("character_counts", "fail", detail)
    table = layers.characters
    if not np.array_equal(table @ table.T, expected * np.eye(expected, dtype=np.int64)):
        detail = f"the character table is not orthogonal: X X^T != {expected} I"
        return CheckRecord("character_counts", "fail", detail)
    detail = f"|G*| = |G| = {expected}, genera of size {len(group.squares)}"
    return CheckRecord("character_counts", "pass", detail)


# The caches keyed by delta.  _chunk_reports empties them when its run ends, so
# that a range run holds at most one chunk's entries and none once it is over;
# CLI series and classgroup requests, which do not run the suite, still reuse a
# class group.  They are held here, not looked up by module name, since a
# wrapper bound over a module's name (a tracer's, say) has no cache_clear.
_PER_DELTA_CACHES = (build_class_group, factorize, prime_discriminant_factorization, prime_discriminant_tables)


def _batch_layers(deltas: list[int], classes: np.ndarray, counts: np.ndarray, n_max: int,
                  primes_bound: int, build_s: float = 0.0) -> list[Layers]:
    """The layers of the fundamental discriminants deltas, from their stacked
    reduced forms, each built for all of them at once: the class groups, with
    their genus characters, and each one's character table X; the compositions
    of the group laws and of the prime layers, in one compose_stacked call; the
    theta matrices, their totals and genus sums; the Eisenstein rows, with
    their character pairs; the prime layers; and one prime sweep.
    Each delta's prime-discriminant tables are read once, for the genus
    characters of its classes and, right after, for its L(0) and its windows
    of the Eisenstein rows (series.CharacterReads).

    The time of each layer is divided among the deltas by their share of its
    rows: classes, or character pairs for the Eisenstein rows; the composition
    call is first divided between the group laws and the prime layers by
    theirs.  build_s, time spent on these deltas before, joins the class group
    build."""
    clock = time.perf_counter
    begin = clock()
    reads, reads_s = CharacterReads(n_max), 0.0

    def read_tables(delta: int) -> None:
        nonlocal reads_s
        t = clock()
        reads.add(delta)
        reads_s += clock() - t

    stack = class_group_stack(deltas, classes, counts, read_tables)
    characters = [build_genus_characters(group) for group in stack.groups]
    law = law_rows(stack)
    primes = prime_classes(stack, primes_bound)
    start = clock()
    products = compose_stacked(stack, np.concatenate((law[0], primes.left)), np.concatenate((law[1], primes.right)))
    compose_s = clock() - start
    check_laws(stack, products[: len(law[0])])
    start = clock()
    layers = prime_layers(stack, primes, products[len(law[0]) :])
    primes_s, start = clock() - start, clock()
    series = series_stack(stack, n_max)
    slices = theta_slices(stack, series, n_max)
    theta_s, start = clock() - start, clock()
    eisenstein = eisenstein_stack(stack.groups, n_max, reads=reads)
    eisenstein_s, start = reads_s + clock() - start, clock()
    failed = sweep_failures(stack.groups, layers, series.theta, series.totals, series.sums, n_max, primes_bound)
    primes_s += clock() - start
    law_share = len(law[0]) / max(1, len(products))
    primes_s += (1 - law_share) * compose_s
    first_prime = f"eigenform[p={primes.primes[0]}]" if primes.primes else None
    # the class group build takes the rest, up to here
    build_s += clock() - begin - theta_s - eisenstein_s - primes_s
    # each delta's share: by its classes, or its character pairs for the Eisenstein rows
    h = counts.tolist()
    per_class = [seconds / sum(h) for seconds in (build_s, primes_s, theta_s)]
    per_pair = eisenstein_s / sum(len(rows.rows) for rows in eisenstein)
    return [Layers(group, table, theta, sums, rows, layer, failed[:, k],
                   {"": per_class[0] * h[k], first_prime: per_class[1] * h[k], "gauss_average": per_class[2] * h[k],
                    "twisted_eisenstein": per_pair * len(rows.rows)})
            for k, (group, table, (theta, sums), rows, layer)
            in enumerate(zip(stack.groups, characters, slices, eisenstein, layers))]


def _report_checks(layers: Layers, primes_bound: int) -> Iterator[CheckRecord]:
    """The checks of one report on its delta's layers, each run when it is
    reached, through the module names that a tracer can rebind; the records at
    the primes come from the batch's prime sweep."""
    yield verify_gauss(layers)
    yield verify_character_counts(layers)
    yield verify_twisted_eisenstein(layers)
    yield verify_genus_mass(layers)
    yield verify_dirichlet(layers)
    yield from sweep_records(layers, primes_bound)


def _suite_job(job: tuple[int, int, int, Optional[Layers]]) -> VerificationReport:
    """The report of one job (delta, n_max, primes_bound, layers): its delta's
    checks on layers, the record its batch built, which is None when delta is
    not a negative fundamental discriminant.  Each check's time, and the
    report's, carry the delta's shares of the batch's build time (see
    _batch_layers)."""
    delta, n_max, primes_bound, layers = job
    start = time.perf_counter()
    if layers is None:
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
    checks, check_ms, shares = [], [], layers.shares
    t0 = time.perf_counter()
    for record in _report_checks(layers, primes_bound):
        t1 = time.perf_counter()
        check_ms.append(round((t1 - t0 + shares.get(record.name, 0.0)) * 1000, 3))
        checks.append(record)
        t0 = t1
    return VerificationReport(
        delta=delta,
        precision=n_max,
        class_number=layers.group.h,
        t=distinct_prime_count(delta),
        genus_count=len(layers.group.genus_ids),
        checks=tuple(checks),
        check_ms=tuple(check_ms),
        elapsed_ms=round((time.perf_counter() - start + sum(layers.shares.values())) * 1000, 3),
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
    alone), and each batch's records are built when its first one is asked for.
    Each job takes the next record, in input order, so that a repeated delta
    has its own, and a job whose delta is not fundamental takes None.  The
    caches keyed by delta are emptied once the iterator is exhausted, closed or
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
    layers = chain.from_iterable(
        _batch_layers(deltas[a:b], forms[starts[a] : starts[b]], np.array(counts[a:b]), n_max, primes_bound,
                      chunk_s * (starts[b] - starts[a]))
        for a, b in zip(cuts, cuts[1:]))
    try:
        for job, flag in zip(jobs, fundamental):
            # _suite_job is looked up here, in the worker, because a tracer rebinds it
            yield _suite_job((*job, next(layers) if flag else None))
    finally:
        for cache in _PER_DELTA_CACHES:
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
