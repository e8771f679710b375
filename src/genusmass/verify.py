"""Top-level identity suite: the class-group average, the class number formula at
s = 0, the twisted and per-genus Eisenstein identities, and character counts,
aggregated into per-discriminant reports."""

from __future__ import annotations

import json
import os
import time
from collections import deque
from dataclasses import dataclass
from itertools import islice
from typing import Iterator, Optional, Sequence

import numpy as np

from .arith import (
    distinct_prime_count,
    factorize,
    is_fundamental,
    prime_discriminant_factorization,
)
from .class_group import build_class_group
from .forms import automorph_count, reduced_forms
from .genus import build_genus_characters, character_pairs
from .hecke import CheckRecord, prime_sweep
from .qseries import dirichlet_convolution, first_mismatch
from .series import (
    eisenstein_for_genus,
    eisenstein_matrix,
    genus_eisenstein,
    kronecker_values,
    l_zero,
    theta_total,
    twisted_sum,
)

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


def verify_gauss(delta: int, n_max: int) -> CheckRecord:
    """sum over classes of r(Q_h, n) = w * sum over t | n of (delta|t), n = 1..n_max."""
    total = theta_total(build_class_group(delta), n_max)
    chi = kronecker_values(delta, delta, 0, n_max + 1).astype(total.dtype)
    rhs = automorph_count(delta) * dirichlet_convolution(chi, np.ones_like(chi))
    found = first_mismatch(total, 1, rhs, 1, lo=1)
    if found is not None:
        _, n, left, right = found
        return CheckRecord("gauss_average", "fail", f"mismatch at n={n}: {left} != {right}", found[1:])
    return CheckRecord("gauss_average", "pass", f"n=1..{n_max} exact")


def verify_dirichlet(delta: int) -> CheckRecord:
    """h = (w/2) L(0, (delta|.)) exactly: Dirichlet's class number formula at s = 0,
    with h from the class group and L(0) from the character alone."""
    h = build_class_group(delta).h
    computed = automorph_count(delta) * l_zero(delta) / 2
    status = "pass" if computed == h else "fail"
    return CheckRecord("dirichlet_class_number", status, f"(w/2)L(0)={computed} h={h} exact")


def verify_twisted_eisenstein(delta: int, n_max: int) -> CheckRecord:
    """Twisted theta sums equal the divisor-sum Eisenstein series, X S = w E, every
    character pair at once; the first mismatch is reported in character order."""
    pairs = character_pairs(delta)
    lhs, lhs_unit = twisted_sum(build_class_group(delta), n_max)
    rhs, rhs_unit = eisenstein_matrix(delta, n_max)
    found = first_mismatch(lhs, lhs_unit, rhs, rhs_unit)
    if found is not None:
        row, n, left, right = found
        d, big_d = pairs[row]
        detail = f"(d,D)=({d},{big_d}) mismatch at n={n}: {left} != {right}"
        return CheckRecord("twisted_eisenstein", "fail", detail, found[1:])
    return CheckRecord("twisted_eisenstein", "pass", f"{len(pairs)} pairs, n=0..{n_max} exact")


def verify_genus_mass(delta: int, n_max: int) -> CheckRecord:
    """Genus theta averages equal the character-weighted Eisenstein combinations,
    S / |H^2| = (w/h) X^T E, every genus at once.  A genus whose two constant
    terms are not both 1 is reported ahead of any mismatch in it or after it."""
    group = build_class_group(delta)
    lhs, lhs_unit = genus_eisenstein(group, n_max)
    rhs, rhs_unit = eisenstein_for_genus(group, n_max)
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
    return CheckRecord("genus_mass", "pass", f"{len(group.genus_ids)} genera, n=0..{n_max} exact")


def verify_character_counts(delta: int) -> CheckRecord:
    """|G*| = |G| = 2^(t-1), and the character table X is orthogonal: X X^T = |G| I."""
    group = build_class_group(delta)
    pairs = character_pairs(delta)
    expected = 2 ** (distinct_prime_count(delta) - 1)
    if len(pairs) != expected:
        return CheckRecord("character_counts", "fail", f"{len(pairs)} pairs != 2^(t-1) = {expected}")
    if len(group.genus_ids) != expected:
        detail = f"{len(group.genus_ids)} genera != 2^(t-1) = {expected}"
        return CheckRecord("character_counts", "fail", detail)
    table = build_genus_characters(group)
    if not np.array_equal(table @ table.T, expected * np.eye(expected, dtype=np.int64)):
        detail = f"the character table is not orthogonal: X X^T != {expected} I"
        return CheckRecord("character_counts", "fail", detail)
    detail = f"|G*| = |G| = {expected}, genera of size {len(group.squares)}"
    return CheckRecord("character_counts", "pass", detail)


# The caches without a size bound.  _suite_job empties them before each delta,
# so that a range run holds one delta's entries at a time; CLI series and
# classgroup requests, which do not run the suite, still reuse a class group.
# They are held here, not looked up by module name, since a wrapper bound over
# a module's name (a tracer's, say) has no cache_clear.
_PER_DELTA_CACHES = (build_class_group, reduced_forms, l_zero, factorize, prime_discriminant_factorization)


def _report_checks(group, n_max: int, primes_bound: int) -> Iterator[CheckRecord]:
    """The checks of one report, each run when it is reached, through the module
    names that a tracer can rebind.  The records at the primes come from one
    prime sweep, run when the first of them is reached, so that its time is
    eigenform[p=2]'s and the later ones read about 0."""
    delta = group.delta
    yield verify_gauss(delta, n_max)
    yield verify_character_counts(delta)
    yield verify_twisted_eisenstein(delta, n_max)
    yield verify_genus_mass(delta, n_max)
    yield verify_dirichlet(delta)
    yield from prime_sweep(group, n_max, primes_bound)


def _suite_job(args: tuple[int, int, int]) -> VerificationReport:
    delta, n_max, primes_bound = args
    for cache in _PER_DELTA_CACHES:
        cache.cache_clear()
    start = time.perf_counter()
    if not (delta < 0 and is_fundamental(delta)):
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
    group = build_class_group(delta)
    checks, check_ms = [], []
    t0 = time.perf_counter()
    for record in _report_checks(group, n_max, primes_bound):
        check_ms.append(_ms_since(t0))
        checks.append(record)
        t0 = time.perf_counter()
    return VerificationReport(
        delta=delta,
        precision=n_max,
        class_number=group.h,
        t=distinct_prime_count(delta),
        genus_count=len(group.genus_ids),
        checks=tuple(checks),
        elapsed_ms=_ms_since(start),
        check_ms=tuple(check_ms),
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
    None; 1 means in-process."""
    workers = _worker_count() if workers is None else max(1, workers)
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


def _suite_chunk(jobs: list[tuple[int, int, int]]) -> list[VerificationReport]:
    # _suite_job is looked up here, in the worker, because a tracer rebinds it
    return [_suite_job(job) for job in jobs]


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
    In-process each job runs when its report is asked for; with workers > 1
    they come from a pool (see _pool_reports).  Nothing here keeps a report
    once it is handed out."""
    workers = _pool_size(workers, len(deltas))
    if workers > 1:
        jobs = ((delta, n_max, primes_bound) for delta in deltas)
        return _pool_reports(jobs, len(deltas), workers)
    return (_suite_job((delta, n_max, primes_bound)) for delta in deltas)


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
