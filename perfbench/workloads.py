"""Seeded inputs for the four workloads.

Every run does a fixed amount of work that depends only on (workload, seed,
seconds): the seed picks the inputs and `seconds` sizes the work to take about
that long on the program as first benchmarked.  A fixed input set per seed is
what lets the traced run repeat every count exactly and lets two versions of
the program be compared on identical inputs.

The verify workloads pick discriminants stratified by an estimated cost (from
reference class numbers, never from timing the program), so that each run
covers the same cost mix and different seeds give steady figures.
"""

from __future__ import annotations

import random

import reference as ref

PROBE = -400391  # h = 999: the class-group probe every large_h run includes

# per_second: operations per second of --seconds, i.e. the rate of the program as
# first benchmarked, so that a run takes about --seconds on it.
ACCEPTANCE = {"lo": -500, "n_max": 200, "primes": 50, "per_second": 3.5}
LARGE_H = {"lo": -5 * 10**5, "hi": -10**5, "n_max": 20, "primes": 5, "pool": 512, "per_second": 0.25}
CLI = {"lo": -2 * 10**4, "precs": (200, 1000), "pool": 1024, "strata": 16, "repeat_p": 0.5,
       "check_p": 0.25, "per_second": 15.0}
WIDE = {"n_max": 30, "primes": 10, "workers": 2, "per_second": 100.0}

NAMES = ("acceptance", "large_h", "cli_queries", "wide_range_w2")


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def _strata_order(k: int) -> list[int]:
    """0..k-1 in bit-reversed order, so every prefix spreads over the range."""
    bits = max(1, (k - 1).bit_length())
    return sorted(range(k), key=lambda i: int(format(i, f"0{bits}b")[::-1], 2))


def stratified(items: list, cost, size: int, rng: random.Random) -> list:
    """items reordered so that any prefix samples every cost stratum evenly.

    Sorted by cost and cut into strata of `size`; each round takes one item from
    every stratum, strata visited in bit-reversed order.
    """
    ranked = sorted(items, key=lambda x: (cost(x), x))
    strata = [ranked[i:i + size] for i in range(0, len(ranked), size)]
    for s in strata:
        rng.shuffle(s)
    order = _strata_order(len(strata))
    return [strata[i][r] for r in range(size) for i in order if r < len(strata[i])]


def acceptance(seed: int, seconds: float) -> list[dict]:
    """A seeded, cost-stratified share of all fundamental delta in [-500, -3]."""
    pool = ref.fundamentals(ACCEPTANCE["lo"], -3)

    def cost(d):  # the per-prime theta work grows with h and the genus count
        return ref.class_number(d) + 2 ** (len(ref.prime_discriminants(d)) - 1)

    n = min(len(pool), max(1, round(seconds * ACCEPTANCE["per_second"])))
    chosen = stratified(pool, cost, 2, _rng("acceptance", seed))[:n]
    return [{"delta": d} for d in chosen]


def large_h_cost(delta: int) -> float:
    """Estimated seconds for one large_h delta: the h x h table, per-class work,
    the twisted sums (h classes per genus character) and the O(|delta|)
    Kronecker table of the L(1) check, least-squares fitted to timings of 16
    deltas from the range.  Used only to stratify the sample."""
    h = ref.class_number(delta)
    genus_count = 2 ** (len(ref.prime_discriminants(delta)) - 1)
    return 7.4e-6 * h * h + 1.1e-3 * h + 2.2e-4 * h * genus_count + 1.2e-6 * -delta


def large_h(seed: int, seconds: float) -> list[dict]:
    """The probe, then deltas at evenly spaced cost quantiles between the 30th
    and 70th percentile of a pool drawn once; the seed sets only their order.

    The cost estimate misses single deltas by 15-20%, so a sample drawn anew
    for each seed moved the median latency of these six by up to a quarter
    between seeds, as much as the bound: only a fixed sample keeps the seeds'
    spread to the program's own.  Keeping the picks to the middle of the cost
    distribution keeps them at the class numbers this workload is about.
    """
    rng = _rng("large_h", 0)
    pool: set[int] = set()
    while len(pool) < LARGE_H["pool"]:
        d = -rng.randint(-LARGE_H["hi"], -LARGE_H["lo"])
        if d != PROBE and ref.is_fundamental(d):
            pool.add(d)
    ranked = sorted(pool, key=lambda d: (large_h_cost(d), d))
    k = max(1, round(seconds * LARGE_H["per_second"]))
    picks = [ranked[int((0.3 + 0.4 * (i + 0.5) / k) * len(ranked))] for i in range(k)]
    _rng("large_h", seed).shuffle(picks)
    return [{"delta": d} for d in [PROBE] + picks]


def _series_block(rng: random.Random) -> list[tuple]:
    block = [("series", kind, prec, fmt)
             for kind in ("theta", "genus", "eisenstein", "twisted")
             for prec in CLI["precs"]
             for fmt in ("json", "csv", "text")]
    block += [("classgroup", None, None, "text"), ("classgroup", None, None, "json")]
    rng.shuffle(block)
    return block


def cli_queries(seed: int, seconds: float) -> list[dict]:
    """Single CLI requests; each reuses an earlier delta with probability repeat_p.

    The deltas come from a seeded pool cut into class-number strata, and each
    request kind cycles through the strata, so every run sees the same spread
    of h for each kind: a twisted sum at prec 1000 costs in proportion to h.
    """
    rng = _rng("cli_queries", seed)
    pool: set[int] = set()
    while len(pool) < CLI["pool"]:
        d = -rng.randint(3, -CLI["lo"])
        if ref.is_fundamental(d):
            pool.add(d)
    ranked = sorted(pool, key=lambda d: (ref.class_number(d), d))
    k = CLI["strata"]
    strata = [ranked[i * len(ranked) // k:(i + 1) * len(ranked) // k] for i in range(k)]
    order = _strata_order(k)
    turns: dict[tuple, int] = {}
    seen: list[list[int]] = [[] for _ in range(k)]
    n = max(1, round(seconds * CLI["per_second"]))
    out: list[dict] = []
    block: list[tuple] = []
    while len(out) < n:
        if not block:
            block = _series_block(rng)
        cmd, kind, prec, fmt = block.pop()
        turn = turns.get((cmd, kind, prec), 0)
        turns[(cmd, kind, prec)] = turn + 1
        stratum = order[turn % k]
        if seen[stratum] and rng.random() < CLI["repeat_p"]:
            delta = rng.choice(seen[stratum])
        else:
            delta = rng.choice(strata[stratum])
            if delta not in seen[stratum]:
                seen[stratum].append(delta)
        argv = [cmd, "--disc", str(delta), "--format", fmt]
        if cmd == "series":
            if kind == "theta":
                index = rng.randrange(ref.class_number(delta))
            elif kind == "genus":
                index = rng.choice(sorted(set(ref.genus_of(delta))))
            else:
                index = rng.choice(ref.character_ds(delta))
            argv += ["--which", f"{kind}:{index}", "--prec", str(prec)]
        out.append({"argv": argv, "delta": delta, "check": rng.random() < CLI["check_p"]})
    return out


def wide_range_w2(seed: int, seconds: float) -> list[dict]:
    """One run_suite call over [lo, -3] with two workers; the seed is not used,
    because the range itself is the input."""
    lo = -max(10, round(seconds * WIDE["per_second"]))
    return [{"lo": lo}]


def inputs(workload: str, seed: int, seconds: float) -> list[dict]:
    return {
        "acceptance": acceptance,
        "large_h": large_h,
        "cli_queries": cli_queries,
        "wide_range_w2": wide_range_w2,
    }[workload](seed, seconds)


def params(workload: str) -> dict:
    return {"acceptance": ACCEPTANCE, "large_h": LARGE_H, "cli_queries": CLI,
            "wide_range_w2": WIDE}[workload]
