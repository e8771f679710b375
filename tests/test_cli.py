import argparse
import json
from fractions import Fraction
import os
import subprocess
import sys

import pytest

import genusmass.class_group as class_group
import genusmass.cli as cli
import genusmass.series as series
from genusmass.class_group import build_class_group
from genusmass.cli import main, parse_disc
from genusmass.genus import character_pairs
from oracles import (
    compose,
    dirichlet_convolution_sieve,
    fraction_coeffs,
    kronecker_values,
    l_zero_oracle,
    series_from_json,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDiscParsing:
    def test_spellings(self):
        assert parse_disc("-20") == -20
        assert parse_disc("m20") == -20
        assert parse_disc("M7") == -7


class TestClassgroup:
    def test_text_output(self, capsys):
        code, out, _ = run_cli(capsys, "classgroup", "--disc", "-20")
        assert code == 0
        assert "h = 2" in out
        assert "[1,0,5]" in out and "[2,2,3]" in out
        assert "(1,-20)" in out and "(5,-4)" in out

    def test_w_for_minus3(self, capsys):
        code, out, _ = run_cli(capsys, "classgroup", "--disc", "-3")
        assert code == 0
        assert "h = 1, w = 6" in out

    def test_non_fundamental_rejected(self, capsys):
        code, _, err = run_cli(capsys, "classgroup", "--disc", "-12")
        assert code == 2
        assert "not fundamental: -12 = 4*(-3)" in err

    def test_json_output(self, capsys):
        code, out, _ = run_cli(capsys, "classgroup", "--disc", "m84", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["h"] == 4
        assert len(data["characters"]) == 4
        assert data["composition_table"][0] == [0, 1, 2, 3]

    @pytest.mark.parametrize("block", [1, 7, 1 << 14])
    @pytest.mark.parametrize("crossover", [0, float("inf")])
    def test_composition_table_in_blocks(self, monkeypatch, block, crossover):
        """The table from blocks of one row (block 1 < h), of a few rows, and of
        all rows, on both paths of compose_rows, is the table of the pairwise products."""
        monkeypatch.setattr(cli, "TABLE_BLOCK", block)
        monkeypatch.setattr(class_group, "ARRAY_MIN_ROWS", crossover)
        for delta in (-3, -84, -455, -5460):
            group = build_class_group(delta)
            expected = [[compose(group, i, j) for j in range(group.h)] for i in range(group.h)]
            assert cli._composition_table(group) == expected, delta

    def test_csv_not_supported(self, capsys):
        code, _, err = run_cli(capsys, "classgroup", "--disc", "-20", "--format", "csv")
        assert code == 2
        assert "csv" in err


class TestSeries:
    def test_eisenstein_text(self, capsys):
        code, out, _ = run_cli(capsys, "series", "--disc", "-4", "--which", "eisenstein:1", "--prec", "5")
        assert code == 0
        assert out.strip() == "1/4, 1, 1, 0, 1, 2"

    def test_theta_text(self, capsys):
        code, out, _ = run_cli(capsys, "series", "--disc", "-20", "--which", "theta:0", "--prec", "3")
        assert code == 0
        assert out.strip() == "1, 2, 0, 0"

    def test_twisted_text(self, capsys):
        code, out, _ = run_cli(capsys, "series", "--disc", "-20", "--which", "twisted:5", "--prec", "1")
        assert code == 0
        assert out.strip() == "0, 1"

    def test_json_round_trips(self, capsys):
        code, out, _ = run_cli(
            capsys, "series", "--disc", "-23", "--which", "genus:0", "--prec", "12", "--format", "json"
        )
        assert code == 0
        series = series_from_json(out)
        assert series.disc == -23
        assert series.precision == 12

    def test_csv_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "series", "--disc", "-4", "--which", "eisenstein:1", "--prec", "2", "--format", "csv"
        )
        assert code == 0
        assert out.splitlines() == ["n,numerator,denominator", "0,1,4", "1,1,1", "2,1,1"]

    @pytest.mark.parametrize("delta", [-84, -455, -400391])
    def test_eisenstein_request_builds_no_class_group(self, capsys, monkeypatch, delta):
        """An Eisenstein series request reads the character alone: with the class
        group build refusing, its output in every format is the one with the
        group available, and its coefficients are the sieve's divisor sums with
        the constant term L(0)/2 of the whole-period sum."""
        labels = [f"eisenstein:{d}" for d, _ in character_pairs(delta)[:: 3]]
        requests = [("series", "--disc", str(delta), "--which", label, "--prec", "200", "--format", fmt)
                    for label in labels for fmt in ("json", "csv", "text")]
        expected = [run_cli(capsys, *argv) for argv in requests]

        def refused(*args):
            raise AssertionError("an Eisenstein request built a class group")

        for module in (class_group, cli, series):
            monkeypatch.setattr(module, "build_class_group", refused)
        assert [run_cli(capsys, *argv) for argv in requests] == expected
        for argv, (code, out, _) in zip(requests, expected):
            if argv[-1] == "json":
                d = int(argv[4].partition(":")[2])
                row = dirichlet_convolution_sieve(kronecker_values(delta, d, 0, 201).astype(object),
                                                  kronecker_values(delta, delta // d, 0, 201).astype(object))
                row[0] = l_zero_oracle(delta) / 2 if d == 1 else 0
                assert code == 0 and fraction_coeffs(series_from_json(out)) == tuple(map(Fraction, row)), argv

    @pytest.mark.parametrize(
        "label", ["nope:1", "theta:9", "genus:7", "eisenstein:3", "twisted:2", "theta", "theta:x"]
    )
    def test_bad_labels(self, capsys, label):
        code, _, err = run_cli(capsys, "series", "--disc", "-20", "--which", label)
        assert code == 2
        assert err.startswith("error:")

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "series.csv"
        code, out, _ = run_cli(
            capsys,
            "series", "--disc", "-20", "--which", "theta:1", "--prec", "3",
            "--format", "csv", "--out", str(target),
        )
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("n,numerator,denominator")

    def test_unwritable_out_is_usage_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "series.csv"
        code, out, err = run_cli(
            capsys, "series", "--disc", "-20", "--which", "theta:1", "--out", str(target)
        )
        assert code == 2
        assert out == ""
        assert err == f"error: cannot write {target}: No such file or directory\n"


class TestVerify:
    def test_single_disc_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--disc", "-84", "--prec", "60", "--primes", "12"
        )
        assert code == 0
        assert "delta=-84" in out and "[ok]" in out

    def test_skipped_checks_are_counted_apart(self, capsys):
        # 11 is inert for -20: its genus_permutation record is a skip, not a pass
        code, out, _ = run_cli(capsys, "verify", "--disc", "-20", "--prec", "30", "--primes", "11")
        assert code == 0
        assert out == "delta=-20 h=2 t=2 genera=2 :: 19/20 checks passed, 1 skipped [ok]\n"

    def test_range_json_lines(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify", "--range", "-3:-20", "--prec", "30", "--primes", "6", "--format", "json",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 18
        for line in lines:
            data = json.loads(line)
            assert data["delta"] in range(-20, -2)
            if "skipped" not in data:
                assert all(c["pass"] for c in data["checks"])

    def test_invalid_disc_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--disc", "-10")
        assert code == 2
        assert "not 0 or 1 (mod 4)" in err

    @pytest.mark.parametrize(
        "flag,value,message",
        [
            ("--prec", "0", "precision must be >= 1, got 0"),
            ("--prec", "-5", "precision must be >= 1, got -5"),
            ("--primes", "-3", "prime bound must be >= 2, got -3"),
            ("--primes", "1", "prime bound must be >= 2, got 1"),
        ],
    )
    def test_bad_numeric_flag_is_usage_error(self, capsys, flag, value, message):
        # --prec 0 used to pass vacuously, --prec -5 to raise, --primes -3 to run no prime check
        code, out, err = run_cli(capsys, "verify", "--disc", "-84", flag, value)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("bounds", ["3:100", "-1:-2", "1000000000000:1"])
    def test_range_without_fundamental_is_usage_error(self, capsys, bounds):
        # such a range used to print only skip lines and exit 0; only its negative
        # part is searched, so a long positive one is refused at once
        code, out, err = run_cli(capsys, "verify", "--range", bounds)
        assert code == 2
        assert out == ""
        assert err == f"error: range {bounds} holds no negative fundamental discriminant\n"

    def test_disc_and_range_together_is_usage_error(self, capsys):
        # --range used to be ignored silently next to --disc
        code, out, err = run_cli(capsys, "verify", "--disc", "-4", "--range", "-3:-3")
        assert code == 2
        assert out == ""
        assert err == "error: verify takes --disc or --range, not both\n"

    def test_range_keeps_skip_lines(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--range", "-1:-4", "--prec", "10", "--primes", "5")
        assert code == 0
        lines = out.splitlines()
        assert lines[:2] == ["delta=-1 skipped: non-fundamental", "delta=-2 skipped: non-fundamental"]
        assert lines[2].startswith("delta=-3 h=1") and lines[3].startswith("delta=-4 h=1")

    @pytest.mark.parametrize("threads", ["junk", "0", "-3"])
    def test_bad_thread_count_is_usage_error(self, capsys, monkeypatch, tmp_path, threads):
        # such a value used to run serially without a word; the --out file is not opened
        monkeypatch.setenv("GENUSMASS_THREADS", threads)
        target = tmp_path / "report.jsonl"
        code, out, err = run_cli(capsys, "verify", "--disc", "-84", "--out", str(target))
        assert code == 2
        assert out == ""
        assert err == f"error: GENUSMASS_THREADS must be a positive integer, got {threads!r}\n"
        assert not target.exists()

    def test_needs_disc_or_range(self, capsys):
        code, _, err = run_cli(capsys, "verify")
        assert code == 2
        assert "--disc or --range" in err

    def test_failure_exit_code(self, capsys, monkeypatch):
        # a failing check must surface as exit code 1
        import genusmass.cli as cli
        from genusmass.hecke import CheckRecord
        from genusmass.verify import VerificationReport

        bad = VerificationReport(
            delta=-20, precision=10, class_number=2, t=2, genus_count=2,
            checks=(CheckRecord(name="gauss_average", status="fail", detail="forced"),),
        )
        monkeypatch.setattr(cli, "iter_suite", lambda *a, **k: (r for r in [bad]))
        code, out, _ = run_cli(capsys, "verify", "--disc", "-20")
        assert code == 1
        assert "FAIL gauss_average" in out

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.jsonl"
        code, out, _ = run_cli(
            capsys,
            "verify", "--range", "-3:-8", "--prec", "20", "--primes", "5",
            "--format", "json", "--out", str(target),
        )
        assert code == 0
        assert out == ""
        lines = target.read_text().strip().splitlines()
        assert [json.loads(line)["delta"] for line in lines] == [-3, -4, -5, -6, -7, -8]

    def test_unwritable_out_is_usage_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "report.jsonl"
        code, out, err = run_cli(capsys, "verify", "--disc", "-84", "--out", str(target))
        assert code == 2
        assert out == ""
        assert err == f"error: cannot write {target}: No such file or directory\n"

    def test_unwritable_out_fails_before_any_delta_runs(self, capsys, monkeypatch, tmp_path):
        # the whole range used to run before the output file was opened
        import genusmass.verify as verify

        calls = []
        job = verify._suite_job
        monkeypatch.setattr(verify, "_suite_job", lambda args: calls.append(args) or job(args))
        target = tmp_path / "missing" / "report.jsonl"
        code, out, err = run_cli(capsys, "verify", "--range", "-3:-500", "--out", str(target))
        assert code == 2
        assert out == ""
        assert err == f"error: cannot write {target}: No such file or directory\n"
        assert calls == []

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_each_report_is_written_as_it_arrives(self, capsys, monkeypatch, fmt):
        """Before the job for a delta runs, the output of every earlier delta is
        on stdout already."""
        import genusmass.verify as verify

        seen = {}
        job = verify._suite_job

        def recording(args):
            seen[args[0]] = capsys.readouterr().out
            return job(args)

        monkeypatch.setattr(verify, "_suite_job", recording)
        code, out, _ = run_cli(capsys, "verify", "--range", "-3:-8", "--prec", "10", "--primes", "5",
                               "--format", fmt)
        assert code == 0
        assert seen[-3] == ""
        for delta in (-4, -5, -6, -7, -8):
            assert seen[delta].splitlines()[0].startswith(
                f'{{"delta": {delta + 1},' if fmt == "json" else f"delta={delta + 1} "
            )

    def test_failure_exit_code_with_a_later_pass(self, capsys, monkeypatch):
        # the exit status is worked out as the reports arrive: one failure makes it 1
        from genusmass.hecke import CheckRecord
        from genusmass.verify import VerificationReport

        def report(delta, passed):
            return VerificationReport(
                delta=delta, precision=10, class_number=1, t=1, genus_count=1,
                checks=(CheckRecord(name="gauss_average", status="pass" if passed else "fail", detail="forced"),),
            )

        monkeypatch.setattr(cli, "iter_suite", lambda *a, **k: (r for r in [report(-3, False), report(-4, True)]))
        code, out, _ = run_cli(capsys, "verify", "--range", "-3:-4")
        assert code == 1
        assert out.splitlines() == [
            "delta=-3 h=1 t=1 genera=1 :: 0/1 checks passed [FAIL]",
            "  FAIL gauss_average: forced",
            "delta=-4 h=1 t=1 genera=1 :: 1/1 checks passed [ok]",
        ]

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_failed_write_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--range", "-3:-30", "--prec", "10", "--out", "/dev/full")
        assert code == 2
        assert out == ""
        assert err == "error: cannot write /dev/full: No space left on device\n"

    def test_csv_rejected_before_the_suite_runs(self, capsys, monkeypatch):
        import genusmass.cli as cli

        def refuse(*args, **kwargs):
            raise AssertionError("iter_suite called for an unsupported format")

        monkeypatch.setattr(cli, "iter_suite", refuse)
        code, out, err = run_cli(capsys, "verify", "--range", "-3:-500", "--format", "csv")
        assert code == 2
        assert out == ""
        assert err == "error: verify supports text or json output, not csv\n"


@pytest.fixture
def parsers_used(monkeypatch):
    """The parser that each main call parses its argv with, in call order."""
    used = []
    parse_args = argparse.ArgumentParser.parse_args

    def recording(self, *args, **kwargs):
        used.append(self)
        return parse_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recording)
    return used


class TestSharedParser:
    """main builds its parser once per process, and one call leaves nothing in
    it for the next."""

    def test_three_calls_build_one_parser_tree(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        cli.build_parser.cache_clear()
        per_call = []
        for _ in range(3):
            before = len(built)
            code, _, _ = run_cli(capsys, "classgroup", "--disc", "-20")
            assert code == 0
            per_call.append(len(built) - before)
        assert per_call[0] > 0 and per_call[1:] == [0, 0]

    def test_request_after_an_argparse_error_matches_a_fresh_process(self, capsys, parsers_used):
        argv = ["series", "--disc", "-84", "--which", "genus:0", "--prec", "20"]
        assert main(argv[:-1] + ["abc"]) == 2
        assert "invalid int value: 'abc'" in capsys.readouterr().err
        code, out, err = run_cli(capsys, *argv)
        fresh = subprocess.run(
            [sys.executable, "-m", "genusmass.cli", *argv], capture_output=True, text=True
        )
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)
        assert len(parsers_used) == 2 and parsers_used[0] is parsers_used[1]

    def test_help_returns_0_with_the_usage_on_stdout(self, capsys):
        code, out, err = run_cli(capsys, "--help")
        assert code == 0 and err == ""
        assert out.startswith("usage: ") and "classgroup" in out

    def test_argparse_error_returns_2_in_process_and_exits_2_from_the_shell(self, capsys):
        argv = ["series", "--disc", "-84", "--which", "genus:0", "--prec", "abc"]
        code, out, err = run_cli(capsys, *argv)
        fresh = subprocess.run(
            [sys.executable, "-m", "genusmass.cli", *argv], capture_output=True, text=True
        )
        assert code == fresh.returncode == 2
        assert out == fresh.stdout == ""
        assert "invalid int value: 'abc'" in err
        assert err == fresh.stderr

    def test_out_does_not_carry_over_to_the_next_call(self, capsys, tmp_path, parsers_used):
        target = tmp_path / "series.csv"
        argv = ["series", "--disc", "-20", "--which", "theta:1", "--prec", "3", "--format", "csv"]
        code, out, _ = run_cli(capsys, *argv, "--out", str(target))
        assert code == 0 and out == ""
        written = target.read_text()
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and out == written
        assert target.read_text() == written
        assert len(parsers_used) == 2 and parsers_used[0] is parsers_used[1]


def test_series_requests_reuse_the_class_group(capsys):
    build_class_group.cache_clear()
    for which in ("theta:0", "genus:0"):
        code, _, _ = run_cli(capsys, "series", "--disc", "-84", "--which", which, "--prec", "10")
        assert code == 0
    assert build_class_group.cache_info().misses == 1


@pytest.mark.parametrize("threads", ["1", "2"])
def test_reader_leaving_early_stops_verify_without_a_traceback(threads):
    # about 180 KB of JSON lines, more than a pipe holds, flushed line by line
    proc = subprocess.Popen(
        [sys.executable, "-m", "genusmass.cli", "verify", "--range", "-3:-300",
         "--prec", "10", "--primes", "5", "--format", "json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "GENUSMASS_THREADS": threads},
    )
    assert json.loads(proc.stdout.readline())["delta"] == -3
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert err == b""
    assert proc.returncode == 1


def test_entry_point_subprocess():
    result = subprocess.run(
        [sys.executable, "-m", "genusmass.cli", "classgroup", "--disc", "m20"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "h = 2" in result.stdout
