"""Command-line surface: class-group tables, series expansions, verification suite."""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import closing, contextmanager
from functools import lru_cache
from typing import Callable, Iterator, Optional

import numpy as np

from .arith import is_fundamental, is_squarefree
from .class_group import Stack, build_class_group, compose_stacked, composes_in_int64
from .genus import build_genus_characters, character_pairs
from .qseries import QSeries
from .series import (
    eisenstein_series,
    genus_eisenstein,
    series_csv,
    theta_series,
    twisted_sum,
)
from .verify import VerificationReport, _worker_count, delta_range, iter_suite, report_json_line

USAGE_ERROR = 2
CHECK_FAILURE = 1


class UsageError(Exception):
    pass


def parse_disc(text: str) -> int:
    """Accept both '-20' and 'm20' spellings of a negative discriminant."""
    if text.startswith(("m", "M")):
        text = "-" + text[1:]
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"not an integer discriminant: {text!r}") from None


def explain_not_fundamental(delta: int) -> str:
    if delta >= 0:
        return f"not a negative discriminant: {delta} >= 0"
    if delta % 4 in (2, 3):
        return f"not a discriminant: {delta} is not 0 or 1 (mod 4)"
    if delta % 4 == 1:
        return f"not fundamental: {delta} has a square factor"
    m = delta // 4
    if m % 4 == 1:
        return f"not fundamental: {delta} = 4*({m})"
    if not is_squarefree(m):
        return f"not fundamental: {delta}/4 has a square factor"
    return f"not fundamental: {delta}"


def require_in_bounds(delta: int) -> None:
    """A usage error for a negative delta beyond the tightest of the library's
    int64 bounds, composition's (class_group.composes_in_int64), which the
    library would meet only after building its forms, or its character tables.
    Every command takes this one bound, so series --which eisenstein:d, which
    builds no class group and is bounded in the library by L(0)'s 4 * 10^9
    alone, is refused from 3,221,225,471 on too.  A range is searched only
    where it is negative."""
    if delta < 0 and not composes_in_int64(delta):
        raise UsageError(f"|delta| = {abs(delta)} is too large for the library's int64 arithmetic")


def require_fundamental(delta: int) -> None:
    require_in_bounds(delta)
    if not (delta < 0 and is_fundamental(delta)):
        raise UsageError(explain_not_fundamental(delta))


@contextmanager
def _output(out: Optional[str]) -> Iterator[Callable[[str], None]]:
    """A write(text) to stdout, or to the file out, which is opened first; each
    text is flushed as it is written.  An OSError on out is a usage error."""

    def unwritable(exc: OSError) -> UsageError:
        return UsageError(f"cannot write {out}: {exc.strerror}")

    try:
        fh = open(out, "w", encoding="utf-8") if out else sys.stdout
    except OSError as exc:
        raise unwritable(exc) from None

    def write(text: str) -> None:
        try:
            fh.write(text)
            fh.flush()
        except OSError as exc:
            if not out:
                raise
            raise unwritable(exc) from None

    try:
        yield write
    finally:
        if out:
            try:
                fh.close()  # after a failed write, this fails on the text still buffered
            except OSError as exc:
                raise unwritable(exc) from None


def _emit(text: str, out: Optional[str]) -> None:
    with _output(out) as write:
        write(text)


# The classgroup table composes its pairs in blocks of whole rows of at most
# this many products, so that its working memory does not grow with h^2.
TABLE_BLOCK = 1 << 14


def _composition_table(group: Stack) -> list[list[int]]:
    """Every product i*j in a stack of one group, composed once per unordered pair
    i <= j, one compose_stacked call per block of rows."""
    h = int(group.h[0])
    table = np.empty((h, h), dtype=np.int64)
    step = max(1, TABLE_BLOCK // h)
    for start in range(0, h, step):
        i = np.repeat(np.arange(start, min(start + step, h)), h)
        j = np.tile(np.arange(h), len(i) // h)
        upper = np.flatnonzero(j >= i)
        i, j = i[upper], j[upper]
        table[i, j] = table[j, i] = compose_stacked(group, i, j)
    return table.tolist()


def cmd_classgroup(args: argparse.Namespace) -> int:
    delta = parse_disc(args.disc)
    require_fundamental(delta)
    if args.fmt not in ("json", "text"):
        raise UsageError(f"classgroup supports text or json output, not {args.fmt}")
    group = build_class_group(delta)
    h, w, identity = int(group.h[0]), int(group.w[0]), int(group.starts[0])
    ids, genus_of = group.leaders.tolist(), group.leaders[group.genus]
    genera = {g: np.flatnonzero(genus_of == g).tolist() for g in ids}
    squares = genera[int(genus_of[identity])]
    chars = list(zip(character_pairs(delta), build_genus_characters(group).tolist()))
    table = _composition_table(group)
    if args.fmt == "json":
        payload = {
            "delta": delta,
            "h": h,
            "w": w,
            "classes": group.classes.tolist(),
            "composition_table": table,
            "identity": identity,
            "squares": squares,
            "genera": {str(g): members for g, members in genera.items()},
            "characters": [
                {"d": d, "D": big_d, "values": {str(g): v for g, v in zip(ids, values)}}
                for (d, big_d), values in chars
            ],
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
        return 0
    lines = [
        f"discriminant {delta}: h = {h}, w = {w}",
        "classes:",
    ]
    for i, (a, b, c) in enumerate(group.classes.tolist()):
        lines.append(f"  {i}: [{a},{b},{c}]")
    lines.append("composition table:")
    for i, row in enumerate(table):
        lines.append(f"  {i}: " + " ".join(str(k) for k in row))
    lines.append(f"squares H^2: {squares}")
    lines.append("genera (id: classes):")
    for g, members in genera.items():
        lines.append(f"  {g}: {members}")
    lines.append("genus characters (d, D | value per genus):")
    for (d, big_d), values in chars:
        lines.append(f"  ({d},{big_d}): " + " ".join(f"{v:+d}" for v in values))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _build_series(delta: int, which: str, n_max: int) -> QSeries:
    """The series of the label which; an Eisenstein series reads the character
    alone, and the others the class group."""
    kind, _, arg = which.partition(":")
    if not arg:
        raise UsageError(f"unknown series label {which!r}; use kind:index")
    try:
        value = int(arg)
    except ValueError:
        raise UsageError(f"series label index must be an integer: {which!r}") from None
    group = None if kind == "eisenstein" else build_class_group(delta)
    if kind == "theta":
        h = int(group.h[0])
        if not 0 <= value < h:
            raise UsageError(f"class index {value} out of range 0..{h - 1}")
        return theta_series(group, value, n_max)
    if kind == "genus":
        ids = group.leaders.tolist()
        if value not in ids:
            raise UsageError(f"genus id {value} not in {ids}")
        return QSeries(delta, *genus_eisenstein(group, n_max, value))
    if kind in ("eisenstein", "twisted"):
        pairs = dict(character_pairs(delta))
        if value not in pairs:
            raise UsageError(f"d = {value} is not a character pair; choose from {sorted(pairs)}")
        if kind == "eisenstein":
            return eisenstein_series(value, pairs[value], n_max)
        return QSeries(delta, *twisted_sum(group, n_max, value))
    raise UsageError(f"unknown series kind {kind!r}; use theta, genus, eisenstein, or twisted")


def cmd_series(args: argparse.Namespace) -> int:
    delta = parse_disc(args.disc)
    require_fundamental(delta)
    if args.prec < 1:
        raise UsageError(f"precision must be >= 1, got {args.prec}")
    series = _build_series(delta, args.which, args.prec)
    if args.fmt == "json":
        _emit(series.to_json() + "\n", args.out)
    elif args.fmt == "csv":
        _emit(series_csv(series), args.out)
    else:
        terms = (str(num) if den == 1 else f"{num}/{den}" for num, den in series.reduced())
        _emit(", ".join(terms) + "\n", args.out)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    disc = None if args.disc is None else parse_disc(args.disc)
    bounds = None
    if args.range_ is not None:
        parts = args.range_.split(":")
        if len(parts) != 2:
            raise UsageError(f"range must look like A:B, got {args.range_!r}")
        bounds = (parse_disc(parts[0]), parse_disc(parts[1]))
        for end in bounds:
            require_in_bounds(end)
    if args.prec < 1:
        raise UsageError(f"precision must be >= 1, got {args.prec}")
    if args.primes < 2:
        raise UsageError(f"prime bound must be >= 2, got {args.primes}")
    if disc is not None and bounds is not None:
        raise UsageError("verify takes --disc or --range, not both")
    if disc is not None:
        deltas = [disc]
        require_fundamental(disc)
    elif bounds is not None:
        deltas = delta_range(*bounds)
        # only the negative part can hold one; scanning the rest could take hours
        if not any(is_fundamental(d) for d in range(min(deltas.start, -1), deltas.stop, -1)):
            lo, hi = bounds
            raise UsageError(f"range {lo}:{hi} holds no negative fundamental discriminant")
    else:
        raise UsageError("verify needs --disc or --range")
    if args.fmt not in ("json", "text"):
        raise UsageError(f"verify supports text or json output, not {args.fmt}")
    try:
        workers = _worker_count()
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    # the reports are closed when writing one raises, which shuts a pool down
    reports = iter_suite(deltas, n_max=args.prec, primes_bound=args.primes, workers=workers)
    with _output(args.out) as write, closing(reports):
        all_passed = True
        for report in reports:
            all_passed = all_passed and report.passed
            write(report_json_line(report) + "\n" if args.fmt == "json" else _report_text(report))
    return 0 if all_passed else CHECK_FAILURE


def _report_text(r: VerificationReport) -> str:
    """A report's lines in the text format: a summary, with the count of skipped
    checks when there are any, then each failed check."""
    if r.skip_reason:
        return f"delta={r.delta} skipped: {r.skip_reason}\n"
    n_ok = sum(c.status == "pass" for c in r.checks)
    n_skipped = sum(c.status == "skip" for c in r.checks)
    skipped = f", {n_skipped} skipped" if n_skipped else ""
    status = "ok" if r.passed else "FAIL"
    lines = [
        f"delta={r.delta} h={r.class_number} t={r.t} genera={r.genus_count} "
        f":: {n_ok}/{len(r.checks)} checks passed{skipped} [{status}]"
    ]
    lines.extend(f"  FAIL {c.name}: {c.detail}" for c in r.checks if not c.passed)
    return "".join(line + "\n" for line in lines)


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by every later call
    in the process, so that repeated main calls do not build it again.
    parse_args leaves a parser unchanged and returns a new Namespace, so one
    call leaves nothing behind for the next; callers must not mutate it."""
    parser = argparse.ArgumentParser(
        prog="genusmass",
        description="Class groups, genus characters, theta and Eisenstein series for "
        "negative fundamental discriminants, with a coefficientwise identity verifier.",
        epilog="Negative discriminants may be spelled -20 or m20.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", dest="fmt", choices=("text", "json", "csv"), default="text")
    common.add_argument("--out", default=None, help="write output to this path")

    p_cg = sub.add_parser("classgroup", parents=[common], help="reduced forms, composition, genera")
    p_cg.add_argument("--disc", required=True, help="negative fundamental discriminant")

    p_series = sub.add_parser("series", parents=[common], help="emit one q-series")
    p_series.add_argument("--disc", required=True)
    p_series.add_argument(
        "--which",
        required=True,
        help="theta:h | genus:g | eisenstein:d | twisted:d",
    )
    p_series.add_argument("--prec", type=int, default=100, help="truncation order (default 100)")

    p_verify = sub.add_parser("verify", parents=[common], help="run the identity suite")
    p_verify.add_argument("--disc", default=None)
    p_verify.add_argument("--range", dest="range_", default=None, help="A:B, e.g. -3:-500")
    p_verify.add_argument("--prec", type=int, default=100)
    p_verify.add_argument("--primes", type=int, default=20, help="check primes up to this bound")
    return parser


def _merge_range_flag(argv: list[str]) -> list[str]:
    # argparse reads "-3:-500" as a flag; splice it onto --range with "=".
    out = []
    i = 0
    while i < len(argv):
        if argv[i] == "--range" and i + 1 < len(argv):
            out.append(f"--range={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def main(argv: Optional[list[str]] = None) -> int:
    """Run one command and return its exit status; argv defaults to sys.argv[1:].
    It can be called any number of times in one process: the parser is built
    once (build_parser).  An argument argparse rejects returns its status, 2,
    and --help returns 0, as from the shell."""
    parser = build_parser()
    try:
        args = parser.parse_args(_merge_range_flag(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return exc.code
    try:
        if args.command == "classgroup":
            return cmd_classgroup(args)
        if args.command == "series":
            return cmd_series(args)
        return cmd_verify(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except BrokenPipeError:
        # stdout's reader left before the end (verify ... | head): not every check
        # was written, so exit 1, without a traceback; stdout goes to devnull so
        # that the interpreter's flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return CHECK_FAILURE


if __name__ == "__main__":
    sys.exit(main())
