"""Faults injected into the stacked arrays of a batch of discriminants, and the
reports that the corrupted batch gives: one corrupted entry per per-delta
identity (FAULTS) on four batches (BATCHES), a theta count raised at -455, two
images of a prime class swapped at -47 and the genera of two classes swapped at
-84.  Each corrupted batch has its comparisons made again on its own arrays, as
verify._batch_layers makes them.  failing_reports gives the report of the
corrupted discriminant of each, which tests/data/failing.json pins."""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np
import pytest

import genusmass.series as series
import genusmass.verify as verify
from genusmass.forms import stacked_reduced_forms
from genusmass.hecke import sweep_failures
from genusmass.verify import report_json_line
from oracles import fundamental_deltas


def untimed(line: str) -> str:
    """A report line without its elapsed_ms fields."""
    data = json.loads(line)
    data.pop("elapsed_ms")
    for check in data["checks"]:
        check.pop("elapsed_ms")
    return json.dumps(data)


def batch_of(deltas, n_max, bound):
    return verify._batch_layers(deltas, *stacked_reduced_forms(deltas), n_max, bound)


def batch_reports(batch, n_max, bound) -> list[str]:
    """The report lines of each delta of the batch, through _suite_job."""
    return [untimed(report_json_line(verify._suite_job((delta, n_max, bound, batch, k))))
            for k, delta in enumerate(batch.stack.deltas)]


def compared_again(batch, n_max, bound):
    """The batch with its comparisons made again on its own arrays, as
    _batch_layers makes them: the theta totals from its theta rows, the prime
    sweep and the five per-delta identities."""
    totals = np.add.reduceat(batch.theta, batch.stack.starts, axis=0)
    failed, sweep_mismatches = sweep_failures(batch.stack, batch.primes, batch.theta, totals, batch.sums, n_max,
                                              bound)
    identities, _, identity_mismatches = verify.identity_failures(batch.stack, batch.characters, totals,
                                                                  batch.sums, batch.eisenstein)
    return verify.summarized(batch._replace(totals=totals, failed=failed, sweep_mismatches=sweep_mismatches,
                                            identities_failed=identities, identity_mismatches=identity_mismatches))


def bumped(array, row, column, by=1):
    """A copy of array with one entry plus by."""
    array = array.copy()
    array[row, column] += by
    return array


def with_table(batch, k, change):
    """The batch with the character table of its k-th delta replaced by
    change(table), in a copy of its block."""
    tables = batch.characters
    j, position = int(tables.block[k]), int(tables.position[k])
    members, block = tables.blocks[j]
    block = block.copy()
    block[position] = change(block[position].copy())
    blocks = tables.blocks[:j] + [(members, block)] + tables.blocks[j + 1 :]
    return batch._replace(characters=tables._replace(blocks=blocks))


def with_rows(batch, k, row, column):
    """The batch with one Eisenstein coefficient of its k-th delta plus 1: its
    pair row (row -1 the last) at column."""
    eisenstein = batch.eisenstein
    start = int(eisenstein.counts[:k].sum())
    row = start + (row % int(eisenstein.counts[k]))
    return batch._replace(eisenstein=eisenstein._replace(rows=bumped(eisenstein.rows, row, column)))


def with_l_zero(batch, k):
    """The batch with L(0) of its k-th delta off by 2/w, so that (w/2) L(0) is
    h + 1."""
    l_zero = batch.eisenstein.l_zero.copy()
    moved = Fraction(*l_zero[k].tolist()) + Fraction(2, int(batch.stack.w[k]))
    l_zero[k] = moved.numerator, moved.denominator
    return batch._replace(eisenstein=batch.eisenstein._replace(l_zero=l_zero))


def last_class(batch, k) -> int:
    return int(batch.stack.starts[k] + batch.stack.h[k]) - 1


# one corrupted entry of the batch's arrays at its k-th delta for each per-delta
# identity, which fails it: a theta count at n = 17; an entry of X negated; an
# Eisenstein coefficient at n = 7; the constant term of E_{1, delta}; and L(0)
# off by 2/w, so that (w/2) L(0) is h + 1
FAULTS = {
    "gauss_average": lambda batch, k: batch._replace(theta=bumped(batch.theta, last_class(batch, k), 17)),
    "character_counts": lambda batch, k: with_table(batch, k, lambda x: bumped(x, -1, -1, -2 * x[-1, -1])),
    "twisted_eisenstein": lambda batch, k: with_rows(batch, k, -1, 7),
    "genus_mass": lambda batch, k: with_rows(batch, k, 0, 0),
    "dirichlet_class_number": with_l_zero,
}
BATCH = [-84, -455, -5460]
WIDE = fundamental_deltas(-2000, -1800)
# (deltas, n_max, bound, the corrupted delta's place, series.INT64_BOUND or None
# to keep it); with the bound at 10^6, -84 is on int64, -455 and -5460 on
# Python ints
BATCHES = {
    "batch": (BATCH, 60, 13, 1, None),
    "wide": (WIDE, 30, 10, len(WIDE) // 2, None),
    "mixed-int64": (BATCH, 60, 13, 0, 10**6),
    "mixed-object": (BATCH, 60, 13, 2, 10**6),
}


def swept(batch, bound):
    """The batch with its prime sweep made again on its own stacked arrays, so
    that a fault injected into them reaches the sweep."""
    failed, mismatches = sweep_failures(batch.stack, batch.primes, batch.theta, batch.totals, batch.sums,
                                        batch.theta.shape[1] - 1, bound)
    return verify.summarized(batch._replace(failed=failed, sweep_mismatches=mismatches))


# the sweep's faults corrupt the prime layers of one discriminant of this batch,
# in the batch's own arrays, at precision 200 with the primes up to 50
FAULT_BATCH = [-23, -47, -84, -455]


def corrupt_images(bound, target, p, change):
    """The batch FAULT_BATCH at precision 200, with the images of target's
    classes under the class of the prime ideal above p (a run of the stacked
    images[0]) replaced by change(run); and the place of target."""
    batch = batch_of(FAULT_BATCH, 200, bound)
    k = FAULT_BATCH.index(target)
    start, h = int(batch.stack.starts[k]), int(batch.stack.h[k])
    images = batch.primes.images.copy()
    i = batch.primes.primes.index(p)
    images[0, i, start : start + h] = change(images[0, i, start : start + h].copy())
    return batch._replace(primes=batch.primes._replace(images=images)), k


def swapped_pair(batch, k):
    """The first pair of places a > b in the run of the images of the classes of
    the k-th delta under the class above 2 whose theta rows differ."""
    start, h = int(batch.stack.starts[k]), int(batch.stack.h[k])
    run = batch.primes.images[0, 0, start : start + h]
    return next((a, b) for a in range(h) for b in range(a) if (batch.theta[run[a]] != batch.theta[run[b]]).any())


def swapped_images(bound=50):
    """Two images of classes under the class above 2 swapped at -47 (h = 5, 2
    split), in the stacked images of FAULT_BATCH, swept again; and the place of
    -47 and the swapped pair."""
    a, b = swapped_pair(batch_of(FAULT_BATCH, 200, bound), FAULT_BATCH.index(-47))

    def swap(run):
        run[[a, b]] = run[[b, a]]
        return run

    batch, k = corrupt_images(bound, -47, 2, swap)
    return swept(batch, bound), k, (a, b)


def swapped_genera(bound=50):
    """The genera of the first two classes of -84 (four genera of one class)
    swapped in the stacked genus rows of FAULT_BATCH, swept again; and the
    place of -84."""
    batch = batch_of(FAULT_BATCH, 200, bound)
    k = FAULT_BATCH.index(-84)
    start = int(batch.stack.starts[k])
    genus = batch.stack.genus.copy()
    genus[[start, start + 1]] = genus[[start + 1, start]]
    return swept(batch._replace(stack=batch.stack._replace(genus=genus)), bound), k


def bumped_455(n_max=60, bound=13, n=17):
    """r(Q, 17) + 1 for the last class of -455 in a copy of the theta rows of the
    batch BATCH, compared again; and the row of that class."""
    clean = batch_of(BATCH, n_max, bound)
    row = last_class(clean, 1)
    return compared_again(clean._replace(theta=bumped(clean.theta, row, n)), n_max, bound), row


def failing_reports() -> dict:
    """The report of the corrupted delta of each fault, without its times, by a
    key that names the fault: "<identity> <batch>" for FAULTS on BATCHES, then
    the theta count raised at -455 and the sweep's two faults."""
    out = {}
    for name, (deltas, n_max, bound, target, int64_bound) in BATCHES.items():
        with pytest.MonkeyPatch.context() as patch:
            if int64_bound is not None:
                patch.setattr(series, "INT64_BOUND", int64_bound)
            clean = batch_of(deltas, n_max, bound)
            for identity, fault in FAULTS.items():
                batch = compared_again(fault(clean, target), n_max, bound)
                out[f"{identity} {name}"] = json.loads(batch_reports(batch, n_max, bound)[target])
    batch, _ = bumped_455()
    out["theta r(Q,17)+1 at -455"] = json.loads(batch_reports(batch, 60, 13)[1])
    for key, (batch, k) in (("prime images swapped at -47", swapped_images()[:2]),
                            ("genera swapped at -84", swapped_genera())):
        out[key] = json.loads(batch_reports(batch, 200, 50)[k])
    return out


def failing_json() -> str:
    """failing_reports as the text of tests/data/failing.json."""
    return json.dumps(failing_reports(), indent=1) + "\n"
