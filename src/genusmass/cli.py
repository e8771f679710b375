"""Command-line surface: class-group tables, series expansions, verification suite."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Optional

from .arith import is_fundamental, is_squarefree
from .class_group import ClassGroup, build_class_group
from .genus import build_genus_characters
from .qseries import QSeries
from .series import (
    eisenstein_series,
    genus_eisenstein,
    series_csv,
    theta_series,
    twisted_sum,
)
from .verify import delta_range, report_json_line, run_suite

USAGE_ERROR = 2
CHECK_FAILURE = 1


@dataclass
class CliConfig:
    command: str
    disc: Optional[int] = None
    range_bounds: Optional[tuple[int, int]] = None
    which: Optional[str] = None
    precision: int = 100
    primes: int = 20
    fmt: str = "text"
    out: Optional[str] = None


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


def _is_negative_fundamental(delta: int) -> bool:
    return delta < 0 and delta % 4 in (0, 1) and is_fundamental(delta)


def require_fundamental(delta: int) -> None:
    if not _is_negative_fundamental(delta):
        raise UsageError(explain_not_fundamental(delta))


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _composition_table(group: ClassGroup) -> list[list[int]]:
    """Every product i*j, composed once per unordered pair."""
    table = [[0] * group.h for _ in range(group.h)]
    for i in range(group.h):
        for j in range(i, group.h):
            table[i][j] = table[j][i] = group.compose(i, j)
    return table


def cmd_classgroup(cfg: CliConfig) -> int:
    require_fundamental(cfg.disc)
    if cfg.fmt not in ("json", "text"):
        raise UsageError(f"classgroup supports text or json output, not {cfg.fmt}")
    group = build_class_group(cfg.disc)
    chars = build_genus_characters(group)
    table = _composition_table(group)
    if cfg.fmt == "json":
        payload = {
            "delta": group.delta,
            "h": group.h,
            "w": group.w,
            "classes": [q.triple() for q in group.classes],
            "composition_table": table,
            "identity": group.identity,
            "squares": list(group.squares),
            "genera": {str(g): list(group.genus_members(g)) for g in group.genus_ids},
            "characters": [
                {"d": chi.d, "D": chi.D, "values": {str(g): chi.value(g) for g in group.genus_ids}}
                for chi in chars
            ],
        }
        _emit(json.dumps(payload, indent=2) + "\n", cfg.out)
        return 0
    lines = [
        f"discriminant {group.delta}: h = {group.h}, w = {group.w}",
        "classes:",
    ]
    for i, q in enumerate(group.classes):
        lines.append(f"  {i}: {q!r}")
    lines.append("composition table:")
    for i, row in enumerate(table):
        lines.append(f"  {i}: " + " ".join(str(k) for k in row))
    lines.append(f"squares H^2: {list(group.squares)}")
    lines.append("genera (id: classes):")
    for g in group.genus_ids:
        lines.append(f"  {g}: {list(group.genus_members(g))}")
    lines.append("genus characters (d, D | value per genus):")
    for chi in chars:
        values = " ".join(f"{chi.value(g):+d}" for g in group.genus_ids)
        lines.append(f"  ({chi.d},{chi.D}): {values}")
    _emit("\n".join(lines) + "\n", cfg.out)
    return 0


def _build_series(cfg: CliConfig) -> QSeries:
    group = build_class_group(cfg.disc)
    kind, _, arg = (cfg.which or "").partition(":")
    if not arg:
        raise UsageError(f"unknown series label {cfg.which!r}; use kind:index")
    try:
        value = int(arg)
    except ValueError:
        raise UsageError(f"series label index must be an integer: {cfg.which!r}") from None
    if kind == "theta":
        if not 0 <= value < group.h:
            raise UsageError(f"class index {value} out of range 0..{group.h - 1}")
        return theta_series(group, value, cfg.precision)
    if kind == "genus":
        if value not in group.genus_ids:
            raise UsageError(f"genus id {value} not in {list(group.genus_ids)}")
        return genus_eisenstein(group, value, cfg.precision)
    if kind in ("eisenstein", "twisted"):
        chars = {chi.d: chi for chi in build_genus_characters(group)}
        if value not in chars:
            raise UsageError(f"d = {value} is not a character pair; choose from {sorted(chars)}")
        chi = chars[value]
        if kind == "eisenstein":
            return eisenstein_series(chi.d, chi.D, cfg.precision)
        return twisted_sum(group, chi, cfg.precision)
    raise UsageError(f"unknown series kind {kind!r}; use theta, genus, eisenstein, or twisted")


def cmd_series(cfg: CliConfig) -> int:
    require_fundamental(cfg.disc)
    if cfg.precision < 1:
        raise UsageError(f"precision must be >= 1, got {cfg.precision}")
    series = _build_series(cfg)
    if cfg.fmt == "json":
        _emit(series.to_json() + "\n", cfg.out)
    elif cfg.fmt == "csv":
        _emit(series_csv(series), cfg.out)
    else:
        terms = (str(num) if den == 1 else f"{num}/{den}" for num, den in series.reduced())
        _emit(", ".join(terms) + "\n", cfg.out)
    return 0


def cmd_verify(cfg: CliConfig) -> int:
    if cfg.precision < 1:
        raise UsageError(f"precision must be >= 1, got {cfg.precision}")
    if cfg.primes < 2:
        raise UsageError(f"prime bound must be >= 2, got {cfg.primes}")
    if cfg.disc is not None and cfg.range_bounds is not None:
        raise UsageError("verify takes --disc or --range, not both")
    if cfg.disc is not None:
        deltas = [cfg.disc]
        require_fundamental(cfg.disc)
    elif cfg.range_bounds is not None:
        deltas = delta_range(*cfg.range_bounds)
        if not any(_is_negative_fundamental(d) for d in deltas):
            lo, hi = cfg.range_bounds
            raise UsageError(f"range {lo}:{hi} holds no negative fundamental discriminant")
    else:
        raise UsageError("verify needs --disc or --range")
    reports = run_suite(deltas, n_max=cfg.precision, primes_bound=cfg.primes)
    all_passed = all(r.passed for r in reports)
    if cfg.fmt == "json":
        text = "".join(report_json_line(r) + "\n" for r in reports)
    elif cfg.fmt == "text":
        lines = []
        for r in reports:
            if r.skip_reason:
                lines.append(f"delta={r.delta} skipped: {r.skip_reason}")
                continue
            n_ok = sum(c.passed for c in r.checks)
            status = "ok" if r.passed else "FAIL"
            lines.append(
                f"delta={r.delta} h={r.class_number} t={r.t} genera={r.genus_count} "
                f":: {n_ok}/{len(r.checks)} checks passed [{status}]"
            )
            for c in r.checks:
                if not c.passed:
                    lines.append(f"  FAIL {c.name}: {c.detail}")
        text = "\n".join(lines) + "\n"
    else:
        raise UsageError(f"verify supports text or json output, not {cfg.fmt}")
    _emit(text, cfg.out)
    return 0 if all_passed else CHECK_FAILURE


def build_parser() -> argparse.ArgumentParser:
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


def _config_from_args(args: argparse.Namespace) -> CliConfig:
    cfg = CliConfig(command=args.command, fmt=args.fmt, out=args.out)
    if getattr(args, "disc", None) is not None:
        cfg.disc = parse_disc(args.disc)
    if getattr(args, "range_", None) is not None:
        parts = args.range_.split(":")
        if len(parts) != 2:
            raise UsageError(f"range must look like A:B, got {args.range_!r}")
        cfg.range_bounds = (parse_disc(parts[0]), parse_disc(parts[1]))
    if hasattr(args, "prec"):
        cfg.precision = args.prec
    if hasattr(args, "primes"):
        cfg.primes = args.primes
    if getattr(args, "which", None) is not None:
        cfg.which = args.which
    return cfg


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
    parser = build_parser()
    args = parser.parse_args(_merge_range_flag(sys.argv[1:] if argv is None else argv))
    try:
        cfg = _config_from_args(args)
        if cfg.command == "classgroup":
            return cmd_classgroup(cfg)
        if cfg.command == "series":
            return cmd_series(cfg)
        return cmd_verify(cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
