"""Spans around genusmass's public functions, installed from outside the package.

A traced run replaces each function in TARGETS, and every module binding that
refers to the same object (for example `genusmass.verify.build_class_group`),
with a wrapper that records a span: name, start, end, parent span and the id of
the benchmark operation (one discriminant or one CLI request) it belongs to.
Spans are kept in memory and written out when the run ends; a layer's self
time is its span duration minus the time its child spans cover.

Pool workers started by fork inherit the wrappers.  `traced_suite_job` stands
in for `genusmass.verify._suite_job`: in a worker it starts an empty trace and
appends that job's spans to a per-process file, which the parent merges.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from array import array
from collections import defaultdict

# (module, attribute, span name); the span name plus "_s" is the layer metric.
TARGETS = [
    ("forms", "reduced_forms", "forms.reduced_forms"),
    ("forms", "representation_counts", "forms.representation_counts"),
    ("class_group", "build_class_group", "class_group.build"),
    ("class_group", "prime_ideal_class", "class_group.prime_class"),
    ("genus", "build_genus_characters", "genus.characters"),
    ("qseries", "apply_U", "qseries.apply"),
    ("qseries", "apply_V", "qseries.apply"),
    ("qseries", "apply_T", "qseries.apply"),
    ("series", "theta_series", "series.theta"),
    ("series", "eisenstein_series", "series.eisenstein"),
    ("series", "twisted_sum", "series.twisted"),
    ("series", "genus_eisenstein", "series.genus_avg"),
    ("series", "eisenstein_for_genus", "series.genus_mass_rhs"),
    ("series", "series_csv", "series.csv"),
    ("hecke", "check_eigenform", "hecke.eigenform"),
    ("hecke", "check_split_theta", "hecke.split"),
    ("hecke", "check_ramified_theta", "hecke.ramified"),
    ("hecke", "check_inert_theta", "hecke.inert"),
    ("hecke", "check_genus_permutation", "hecke.genus_perm"),
    ("verify", "verify_gauss", "verify.gauss"),
    ("verify", "verify_twisted_eisenstein", "verify.twisted_eisenstein"),
    ("verify", "verify_genus_mass", "verify.genus_mass"),
    ("verify", "verify_character_counts", "verify.character_counts"),
    ("verify", "verify_dirichlet", "verify.dirichlet"),
    ("cli", "main", "cli.request"),
    ("cli", "_emit", "cli.emit"),
]

# QSeries methods: the arithmetic the verifier runs, and serialization.
OP_METHODS = ("__add__", "__sub__", "__neg__", "scale", "first_mismatch")
SERIALIZE_METHODS = ("to_dict", "to_json")

SPAN_NAMES = sorted({t[2] for t in TARGETS} | {"qseries.op", "qseries.serialize"})

HECKE_CHECKS = {
    "hecke.eigenform", "hecke.split", "hecke.ramified", "hecke.inert", "hecke.genus_perm",
}


class Tracer:
    """In-memory span store for one process."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.pid = os.getpid()
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("q")
        self.stack: list[int] = []
        self.op_id = -1
        self.counts: dict[str, int] = defaultdict(int)
        self.distinct: dict[str, set] = defaultdict(set)
        self.table_entries = 0

    def _name(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, after=None):
        """fn with a span around each call; after(args, kwargs, result) runs outside it."""
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer.start)
            tracer.name_id.append(tracer._name(name))
            tracer.parent.append(tracer.stack[-1] if tracer.stack else -1)
            tracer.op.append(tracer.op_id)
            tracer.end.append(0.0)
            tracer.stack.append(idx)
            tracer.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = clock()
                tracer.stack.pop()
            tracer.counts[name + "_calls"] += 1
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def chunk(self) -> dict:
        """Spans recorded since the last reset, with per-name self times."""
        n = len(self.start)
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        spans = []
        for i in range(n):
            dur = self.end[i] - self.start[i]
            name = self.names[self.name_id[i]]
            self_s[name] += dur - covered[i]
            total_s[name] += dur
            spans.append((self.name_id[i], self.start[i], self.end[i], self.parent[i], self.op[i]))
        return {
            "pid": self.pid,
            "names": self.names,
            "spans": spans,
            "self_s": dict(self_s),
            "total_s": dict(total_s),
            "counts": dict(self.counts),
            "distinct": {k: sorted(v) for k, v in self.distinct.items()},
            "table_entries": self.table_entries,
        }


_ACTIVE: Tracer | None = None
_PARENT_PID = -1
_SUITE_JOB = None
_TRACE_DIR = ""


def traced_suite_job(job):
    """Stand-in for verify._suite_job: tags spans with the job's discriminant and,
    in a pool worker, appends each job's spans to that worker's file."""
    tracer = _ACTIVE
    in_worker = os.getpid() != _PARENT_PID
    if in_worker and tracer.pid != os.getpid():
        tracer.reset()  # first job in this worker: drop the state copied at fork
    saved, tracer.op_id = tracer.op_id, job[0]
    try:
        return _SUITE_JOB(job)
    finally:
        tracer.op_id = saved
        if in_worker:
            path = os.path.join(_TRACE_DIR, f"spans-{os.getpid()}.jsonl")
            with open(path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(tracer.chunk()) + "\n")
            tracer.reset()


def _replace_everywhere(original, replacement) -> None:
    for modname, module in list(sys.modules.items()):
        if modname == "genusmass" or modname.startswith("genusmass."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def install(trace_dir: str) -> Tracer:
    """Wrap every target in the imported genusmass package; returns the tracer."""
    global _ACTIVE, _PARENT_PID, _SUITE_JOB, _TRACE_DIR
    # by module path: the package's `qseries` attribute is the function, not the module
    modules = {m: importlib.import_module(f"genusmass.{m}") for m, _, _ in TARGETS}
    qseries, verify = modules["qseries"], modules["verify"]

    tracer = Tracer()
    _ACTIVE, _PARENT_PID, _TRACE_DIR = tracer, os.getpid(), trace_dir

    def build_after(args, kwargs, group):
        delta = args[0]
        if delta not in tracer.distinct["class_group.build"]:
            tracer.distinct["class_group.build"].add(delta)
            table = getattr(group, "table", None)
            if table is not None:
                tracer.table_entries += sum(len(row) for row in table)

    def distinct_by(name, key):
        def after(args, kwargs, result):
            tracer.distinct[name].add(key(args))
        return after

    hooks = {
        "class_group.build": build_after,
        "genus.characters": distinct_by("genus.characters", lambda a: a[0].delta),
        "series.theta": distinct_by("series.theta", lambda a: (a[0].delta, a[1], a[2])),
    }
    for modname, attr, name in TARGETS:
        original = getattr(modules[modname], attr)
        _replace_everywhere(original, tracer.wrap(name, original, hooks.get(name)))

    def count_coeffs(args, kwargs, result):
        if isinstance(result, qseries.QSeries):
            n = len(result.coeffs)
        else:  # first_mismatch: the indices compared
            series, other = args[0], args[1]
            lo = kwargs.get("lo", args[2] if len(args) > 2 else 0)
            hi = kwargs.get("hi", args[3] if len(args) > 3 else None)
            limit = min(series.precision, other.precision)
            last = result[0] if result else (limit if hi is None else min(hi, limit))
            n = max(last - lo + 1, 0)
        tracer.counts["qseries.ops"] += 1
        tracer.counts["qseries.coeffs_processed"] += n

    cls = qseries.QSeries
    for meth in OP_METHODS:
        setattr(cls, meth, tracer.wrap("qseries.op", getattr(cls, meth), count_coeffs))
    for meth in SERIALIZE_METHODS:
        setattr(cls, meth, tracer.wrap("qseries.serialize", getattr(cls, meth)))

    kron = sys.modules["genusmass.arith"].kronecker

    def counted_kronecker(m, n):
        tracer.counts["arith.kronecker_calls"] += 1
        return kron(m, n)

    _replace_everywhere(kron, counted_kronecker)

    _SUITE_JOB = verify._suite_job
    verify._suite_job = traced_suite_job
    return tracer


def merge(chunks: list[dict]) -> dict:
    """Totals over chunks from every process: self and total time per span name,
    counts, distinct keys."""
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = defaultdict(int)
    distinct: dict[str, set] = defaultdict(set)
    table_entries = 0
    for ch in chunks:
        for k, v in ch["self_s"].items():
            self_s[k] += v
        for k, v in ch["total_s"].items():
            total_s[k] += v
        for k, v in ch["counts"].items():
            counts[k] += v
        for k, v in ch["distinct"].items():
            distinct[k].update(json.dumps(x) for x in v)
        table_entries += ch["table_entries"]
    return {"self_s": self_s, "total_s": total_s, "counts": counts, "distinct": distinct,
            "table_entries": table_entries}


def layer_metrics(totals: dict) -> dict[str, float]:
    """The per-layer metrics derived from the span totals alone.  Every `_s` metric
    is self time except cli.request_s, the whole `main` call."""
    self_s, counts, distinct = totals["self_s"], totals["counts"], totals["distinct"]

    def ratio(name):
        calls = counts.get(name + "_calls", 0)
        return len(distinct.get(name, ())) / calls if calls else 0.0

    out = {f"{name}_s": self_s.get(name, 0.0) for name in SPAN_NAMES}
    out.update({
        "cli.request_s": totals["total_s"].get("cli.request", 0.0),
        "forms.representation_counts_calls": counts.get("forms.representation_counts_calls", 0),
        "class_group.build_calls": counts.get("class_group.build_calls", 0),
        "class_group.build_distinct_ratio": ratio("class_group.build"),
        "class_group.table_entries": totals["table_entries"],
        "genus.characters_calls": counts.get("genus.characters_calls", 0),
        "genus.characters_distinct_ratio": ratio("genus.characters"),
        "qseries.ops": counts.get("qseries.ops", 0),
        "qseries.coeffs_processed": counts.get("qseries.coeffs_processed", 0),
        "series.theta_calls": counts.get("series.theta_calls", 0),
        "series.theta_distinct_ratio": ratio("series.theta"),
        "hecke.checks": sum(counts.get(n + "_calls", 0) for n in HECKE_CHECKS),
        "arith.kronecker_calls": counts.get("arith.kronecker_calls", 0),
    })
    return out
