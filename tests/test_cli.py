import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import harmonic_beta
from harmonic_beta import beta_engine, float_oracle, harmonic_core, identity_suite, series_lab
from harmonic_beta.cli import _FLAGS, _NO_CSV, _REQUIRED, _TARGETS, _parse, build_parser, run
from harmonic_beta.harmonic_core import format_rational
from harmonic_beta.identity_suite import CHECK_GROUPS, IdentityReport
from harmonic_beta.reporting import (
    dumps,
    format_float,
    render_bernoulli,
    render_estimate,
    render_value,
    report_line,
)
from harmonic_beta.series_lab import PiPower, SeriesEstimate

from references import direct_harmonic_function, direct_harmonic_number


def test_every_exported_name_resolves():
    missing = [name for name in harmonic_beta.__all__ if not hasattr(harmonic_beta, name)]
    assert missing == []
    # the package's surface is its modules' __all__, each name declared once
    modules = [harmonic_core, beta_engine, identity_suite, series_lab, float_oracle]
    assert harmonic_beta.__all__ == ["__version__", *(n for m in modules for n in m.__all__)]
    assert len(set(harmonic_beta.__all__)) == len(harmonic_beta.__all__)
    for module in modules:
        for name in module.__all__:
            assert getattr(harmonic_beta, name) is getattr(module, name), name
    # the surface before it was derived, less generic_check: none of these may leave it
    earlier = {
        "__version__", "CHECK_GROUPS", "DomainError", "EXACT_N_MAX",
        "IdentityReport", "MonteCarloResult", "PiPower", "QuadratureError",
        "QuadratureResult", "SeriesEstimate", "alt_power_sum", "bell_expansion",
        "bernoulli_table", "beta_F", "binomial_inverse", "check_inversion",
        "corollary_2_4_partial", "cube_monte_carlo", "derivative_F", "eq31_series",
        "eq32_series", "format_rational", "harmonic_function",
        "harmonic_number", "hurwitz_partial", "lemma_c_partial", "log_moment_quadrature",
        "multi_integral_exact", "parse_rational", "run_all", "zeta_even_coefficient",
    }
    assert len(earlier) == 31 and earlier <= set(harmonic_beta.__all__)


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestComputeCommand:
    def test_harmonic_number(self, capsys):
        code, out, _ = invoke(capsys, "compute", "H", "--n", "3", "--alpha", "1")
        assert code == 0 and out == "11/6\n"

    def test_harmonic_function(self, capsys):
        code, out, _ = invoke(capsys, "compute", "H", "--n", "2", "--x", "1", "--alpha", "1")
        assert code == 0 and out == "13/12\n"

    @pytest.mark.parametrize("x", [None, "1/2", "7/3", "-49/100"])
    @pytest.mark.parametrize("alpha", [1, 2, 4, 13, 30])
    def test_shifted_harmonic_by_the_kernel_equals_the_direct_sum(self, capsys, x, alpha):
        # compute H sums on the harmonic kernel; the direct sums are its references
        for n in (0, 1, 2, 5, 64, 200):
            flags = [] if x is None else [f"--x={x}"]
            code, out, _ = invoke(
                capsys, "compute", "H", "--n", str(n), *flags, "--alpha", str(alpha)
            )
            if x is None:
                expected = direct_harmonic_number(n, alpha)
            else:
                expected = direct_harmonic_function(n, Fraction(x), alpha)
            assert (code, out) == (0, format_rational(expected) + "\n")

    def test_beta(self, capsys):
        code, out, _ = invoke(capsys, "compute", "F", "--n", "3", "--x", "0")
        assert code == 0 and out == "1/4\n"

    def test_derivative_json(self, capsys):
        code, out, _ = invoke(
            capsys, "compute", "dF", "--n", "0", "--x", "0", "--r", "3", "--format", "json"
        )
        assert code == 0
        assert json.loads(out) == {"op": "dF", "n": 0, "x": "0", "r": 3, "value": "-6"}

    def test_bell_text(self, capsys):
        code, out, _ = invoke(capsys, "compute", "bell", "--r", "4", "--format", "text")
        assert code == 0
        assert out == "6*h4 + 8*h1*h3 + 3*h2^2 + 6*h1^2*h2 + h1^4\n"

    def test_bell_json(self, capsys):
        code, out, _ = invoke(capsys, "compute", "bell", "--r", "2", "--format", "json")
        data = json.loads(out)
        assert data["order"] == 2
        assert data["terms"] == [
            {"monomial": [0, 1], "coefficient": 1},
            {"monomial": [2, 0], "coefficient": 1},
        ]

    def test_bernoulli(self, capsys):
        code, out, _ = invoke(capsys, "compute", "bernoulli", "--N", "4")
        assert code == 0
        assert out.splitlines() == [
            "B_0 = 1",
            "B_1 = -1/2",
            "B_2 = 1/6",
            "B_3 = 0",
            "B_4 = -1/30",
        ]

    def test_zeta_even(self, capsys):
        code, out, _ = invoke(capsys, "compute", "zeta-even", "--n", "1")
        assert code == 0 and out == "1/6 * pi^2\n"

    def test_module_entry_point(self):
        src = os.path.dirname(os.path.dirname(harmonic_beta.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "harmonic_beta", "compute", "H", "--n", "3", "--alpha", "1"],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=path),
            timeout=60,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "11/6\n", "")

    def test_missing_flag_is_usage_error(self, capsys):
        code, _, err = invoke(capsys, "compute", "dF", "--n", "2")
        assert code == 2
        assert "requires --r" in err


class TestArgumentValidation:
    def test_decimal_x_rejected(self, capsys):
        code, _, err = invoke(capsys, "compute", "F", "--n", "1", "--x", "0.5")
        assert code == 2
        assert "p/q" in err

    def test_unknown_subcommand(self, capsys):
        code, _, _ = invoke(capsys, "frobnicate")
        assert code == 2

    def test_unknown_flag(self, capsys):
        code, _, _ = invoke(capsys, "compute", "F", "--n", "1", "--bogus", "3")
        assert code == 2

    def test_domain_error_exits_two(self, capsys):
        code, _, err = invoke(capsys, "compute", "F", "--n", "1", "--x", "-2")
        assert code == 2
        assert "x > -1" in err

    def test_zero_denominator_exits_two(self, capsys):
        code, out, err = invoke(capsys, "verify", "thm2.2", "--x", "1/0")
        assert code == 2 and out == ""
        assert "zero denominator" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "thm2.2", "--n-max", "-1"),
            ("verify", "thm2.6", "--r-max", "-1"),
            ("verify", "inversion", "--n-max", "-1"),
            ("verify", "all", "--r-max", "-1"),
            ("verify", "fixture-fail", "--n-max", "-1"),
        ],
    )
    def test_negative_sweep_bound_exits_two(self, capsys, argv):
        # the library refuses the sweep, as it does for every caller
        code, out, err = invoke(capsys, *argv)
        name = argv[2].removeprefix("--").replace("-", "_")
        assert (code, out) == (2, "")
        assert err == f"error: verify requires {name} >= 0, got {name}=-1\n"

    @pytest.mark.parametrize("target", ["thm2.2", "thm2.6", "lemma-a", "beta-eq", "all"])
    def test_out_of_domain_x_exits_two(self, capsys, target):
        r_max = ["--r-max", "0"] if "r-max" in _TARGETS["verify"][target] else []
        code, out, err = invoke(
            capsys, "verify", target, "--x=0,-1", "--n-max", "2", *r_max, "--format", "text"
        )
        assert code == 2 and out == ""
        assert err == "error: verify requires x > -1, got x=-1\n"

    @pytest.mark.parametrize(
        "xs, repeated", [("0,0/5", "0"), ("1/2,7/3,2/4", "1/2"), ("-1/2,1,-1/2,1", "-1/2")]
    )
    def test_repeated_x_sample_exits_two(self, capsys, xs, repeated):
        # a repeated sample would print and count each of its reports twice
        code, out, err = invoke(capsys, "verify", "thm2.2", f"--x={xs}", "--n-max", "1")
        assert (code, out) == (2, "")
        assert err == f"error: verify --x repeats {repeated}\n"

    @pytest.mark.parametrize("x", ["9" * 400, f"-{'9' * 400}/1{'0' * 400}"])
    def test_x_past_the_float_range_exits_two(self, capsys, x):
        # x + 1 overflows binary64, or underflows to 0: a bad input, not a failed check
        code, out, err = invoke(capsys, "oracle", "quad", "--n", "2", "--m", "1", f"--x={x}")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "requires x + 1 within the float range" in err

    @pytest.mark.parametrize(
        "n, m, x, message",
        [
            # 30!/(x+1)**31 is about 2**1137: the quadrature's integral is inf
            ("0", "30", "-9999999999/10000000000",
             "log_moment_quadrature requires an integral within the float range"),
            # about 2**-30786 and 2**-14501: both sides round to 0, a vacuous pass
            ("0", "30", f"1{'0' * 300}", "oracle quad requires a value within the normal float range"),
            ("100", "30", "9" * 35, "oracle quad requires a value within the normal float range"),
        ],
        ids=["above", "below-large-x", "below-large-n"],
    )
    def test_quad_value_past_the_float_range_exits_two(self, capsys, monkeypatch, n, m, x, message):
        # each refusal comes before the exact value: the quadrature's, and the
        # bound's for a value below the float range
        def unreachable(*args):
            raise AssertionError("derivative_F computed for a refused input")

        monkeypatch.setattr(beta_engine, "derivative_F", unreachable)
        code, out, err = invoke(capsys, "oracle", "quad", "--n", n, "--m", m, f"--x={x}")
        assert (code, out) == (2, "")
        assert err == f"error: {message} (n={n}, m={m}, x={x})\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("compute", "F", "--n", "1", "--x", "0.5"),
            ("verify", "thm2.2", "--n-max", "1.5"),
            ("compute", "dF", "--n", "2"),
            ("frobnicate",),
        ],
    )
    def test_usage_error_is_one_line(self, capsys, argv):
        code, out, err = invoke(capsys, *argv)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.endswith("\n")
        assert "usage:" not in err and ": error: " in err


class TestVerifyCommand:
    def test_small_verify_passes(self, capsys):
        code, out, _ = invoke(
            capsys, "verify", "beta-eq", "--n-max", "6", "--x", "0,1/2,7/3"
        )
        assert code == 0
        lines = [json.loads(line) for line in out.strip().splitlines()]
        assert all(entry["status"] == "pass" for entry in lines)
        assert len(lines) == 3 * 7

    def test_report_shape(self, capsys):
        _, out, _ = invoke(capsys, "verify", "beta-eq", "--n-max", "0", "--x", "1/2")
        entry = json.loads(out.strip().splitlines()[0])
        assert list(entry) == ["identity_id", "params", "status"]
        assert entry["params"] == {"n": 0, "x": "1/2"}

    def test_fixture_fail_exits_one_with_witness(self, capsys):
        code, out, _ = invoke(capsys, "verify", "fixture-fail")
        assert code == 1
        first = json.loads(out.strip().splitlines()[0])
        assert first["status"] == "fail"
        assert first["witness"] == {"lhs": "1", "rhs": "1/2"}

    def test_csv_output(self, capsys):
        code, out, _ = invoke(
            capsys, "verify", "fixture-fail", "--n-max", "2", "--format", "csv"
        )
        lines = out.strip().splitlines()
        assert lines[0] == "identity_id,n,x,r,status,lhs,rhs"
        assert lines[1] == "fixture-fail,0,,,fail,1,1/2"

    def test_text_output_summary(self, capsys):
        code, out, _ = invoke(
            capsys, "verify", "beta-eq", "--n-max", "3", "--x", "0", "--format", "text"
        )
        assert code == 0
        assert out.strip().splitlines()[-1] == "4/4 passed"

    def test_byte_identical_runs(self, capsys):
        args = ("verify", "thm2.2", "--n-max", "8", "--x", "0,1/2")
        code1, out1, _ = invoke(capsys, *args)
        code2, out2, _ = invoke(capsys, *args)
        assert (code1, out1) == (code2, out2)

    def test_thm_sweeps_exit_zero(self, capsys):
        for target in ("thm2.2", "thm2.3", "thm2.5"):
            code, _, _ = invoke(
                capsys, "verify", target, "--n-max", "5", "--x", "0,1/2"
            )
            assert code == 0

    def test_thm26_and_lemma_a(self, capsys):
        code, _, _ = invoke(
            capsys, "verify", "thm2.6", "--n-max", "5", "--r-max", "2", "--x", "0"
        )
        assert code == 0
        code, _, _ = invoke(
            capsys, "verify", "lemma-a", "--n-max", "5", "--r-max", "2", "--x", "1/2"
        )
        assert code == 0

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "report.jsonl"
        code, out, _ = invoke(
            capsys, "verify", "beta-eq", "--n-max", "2", "--x", "0", "--out", str(path)
        )
        assert code == 0 and out == ""
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 3

    def test_full_verify_stream(self, capsys):
        code, out, _ = invoke(
            capsys, "verify", "all", "--n-max", "25", "--r-max", "6", "--x", "0,1/2,7/3"
        )
        assert code == 0
        entries = [json.loads(line) for line in out.strip().splitlines()]
        assert all(e["status"] == "pass" for e in entries)
        assert len(entries) > 2000

    def test_small_sweep_matches_recorded_digest(self, capsys):
        # recorded digest of this invocation's stdout; any change to a
        # verdict, a witness or the byte format alters it
        code, out, _ = invoke(
            capsys, "verify", "all", "--n-max", "8", "--r-max", "3", "--x", "0,1/2,-49/100"
        )
        assert code == 0
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == "9d9c4da0efd22484534f6120f96cffc5b9d26b50a292c9e3f94ff6457afe4b91"

    @pytest.mark.parametrize(
        "argv,digest",
        [
            (
                "oracle mc --n 1 --r 2 --samples 10000000 --seed 42",
                "7bcf48174673ee919a4ac3f84f46f295121fe0fc715478cbb45357ffd6932d47",
            ),
            (
                "oracle mc --n 3 --r 2 --samples 10000000 --seed 11",
                "78131d29e27c7abdf42023f7e3446ac0e05ab98c4fecc24845966aa364169d9c",
            ),
            (
                "oracle mc --n 5 --r 3 --samples 10000000 --seed 7",
                "09783b2f01bf2f3748fc6cfee8554fa239e06a60529bb7388ba2d8999d6dcef3",
            ),
        ],
    )
    def test_monte_carlo_matches_recorded_digest(self, capsys, argv, digest):
        # recorded with the u.prod(axis=1) kernel; the in-place column
        # product must give the same sums bit for bit
        code, out, _ = invoke(capsys, *argv.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestSeriesCommand:
    def test_zeta_json(self, capsys):
        code, out, _ = invoke(capsys, "series", "zeta", "--N", "100", "--s", "2")
        assert code == 0
        data = json.loads(out)
        assert data["claimed_limit"] == {"coeff": "1/6", "pi_power": 2}
        assert data["exact"] is True

    def test_lemma_c(self, capsys):
        code, out, _ = invoke(capsys, "series", "lemma-c", "--r", "2", "--N", "200")
        assert code == 0
        data = json.loads(out)
        assert data["claimed_limit"] == "2"

    def test_corollary_targets(self, capsys):
        for target, claim in (("cor2.4-r3", "6"), ("cor2.4-r4", "24"), ("cor2.4-r5", "120")):
            code, out, _ = invoke(capsys, "series", target, "--N", "60")
            assert code == 0
            assert json.loads(out)["claimed_limit"] == claim

    def test_eq31(self, capsys):
        code, out, _ = invoke(capsys, "series", "eq31", "--r", "2", "--x", "1/2", "--N", "100")
        assert code == 0
        data = json.loads(out)
        assert data["target_id"] == "eq31(r=2,x=1/2)"
        assert "claimed_limit" not in data
        code, out, _ = invoke(capsys, "series", "eq31", "--r", "2", "--N", "100")
        assert (code, json.loads(out)["claimed_limit"]) == (0, {"coeff": "1/90", "pi_power": 4})

    def test_eq32(self, capsys):
        code, out, _ = invoke(capsys, "series", "eq32", "--r", "1", "--N", "150")
        assert code == 0
        data = json.loads(out)
        assert data["claimed_limit"] == "-6"

    def test_exact_threshold_enforced(self, capsys):
        code, _, err = invoke(capsys, "series", "lemma-c", "--r", "2", "--N", "10001")
        assert code == 2
        assert "--float" in err

    def test_float_mode_above_threshold(self, capsys):
        code, out, _ = invoke(
            capsys, "series", "lemma-c", "--r", "2", "--N", "10500", "--float"
        )
        assert code == 0
        data = json.loads(out)
        assert data["exact"] is False
        assert isinstance(data["partial"], float)

    @pytest.mark.parametrize("n", ["100", "10000"])
    def test_float_at_or_below_the_exact_threshold_exits_two(self, capsys, n):
        code, out, err = invoke(capsys, "series", "zeta", "--s", "2", "--N", n, "--float")
        assert (code, out) == (2, "")
        assert err == (
            "harmonic-beta: error: --float needs --N above the exact-mode threshold "
            f"10000, got {n}; up to it series sums exactly\n"
        )

    def test_threshold_is_read_at_call_time(self, capsys, monkeypatch):
        # the CLI holds no copy of series_lab.EXACT_N_MAX
        monkeypatch.setattr(series_lab, "EXACT_N_MAX", 50)
        argv = ["series", "lemma-c", "--r", "2", "--N", "60"]
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == (
            "harmonic-beta: error: --N 60 exceeds the exact-mode threshold 50; "
            "pass --float to sum in binary64 with a rigorous rounding radius\n"
        )
        code, out, _ = invoke(capsys, *argv, "--float")
        assert code == 0 and json.loads(out)["exact"] is False
        code, _, err = invoke(capsys, "series", "lemma-c", "--r", "2", "--N", "50", "--float")
        assert code == 2 and "--float needs --N above the exact-mode threshold 50" in err
        # a parser built now, outside build_parser's cache, states the patched threshold
        series_help = build_parser.__wrapped__().commands["series"].format_help()
        assert "for, 50 < N <= 100000000:" in " ".join(series_help.split())

    def test_missing_required_flags(self, capsys):
        assert invoke(capsys, "series", "zeta", "--N", "10")[0] == 2
        assert invoke(capsys, "series", "lemma-c", "--N", "10")[0] == 2
        assert invoke(capsys, "series", "eq31", "--N", "10")[0] == 2
        assert invoke(capsys, "series", "eq32", "--N", "10")[0] == 2


class TestOracleCommand:
    def test_quad_pass(self, capsys):
        code, out, _ = invoke(
            capsys, "oracle", "quad", "--n", "2", "--m", "2", "--x", "0"
        )
        assert code == 0
        data = json.loads(out)
        assert data["status"] == "pass"
        assert set(data["oracle"]) == {"value", "err", "evals"}

    def test_quad_tiny_value_passes(self, capsys):
        # F_40(100) is about 4.0e-38: an absolute tolerance once failed it
        code, out, err = invoke(capsys, "oracle", "quad", "--n", "40", "--m", "0", "--x", "100")
        assert (code, err) == (0, "")
        assert json.loads(out)["status"] == "pass"

    @pytest.mark.parametrize("x", ["-49/100", "0", "7/3", "1000000"])
    def test_quad_refusal_bound_dominates_the_exact_value(self, x):
        x = Fraction(x)
        for n in range(21):
            for m in range(9):
                bound = math.factorial(m) * (n + 1) ** m * math.factorial(n) / (x + 1) ** (n + m + 1)
                exact = abs(beta_engine.derivative_F(n, x, m))
                assert exact <= bound < Fraction(2) ** harmonic_beta.cli._log2_bound(n, m, x), (n, m)

    def test_mc_pass_and_schema(self, capsys):
        code, out, _ = invoke(
            capsys,
            "oracle", "mc", "--n", "1", "--r", "2", "--samples", "200000", "--seed", "42",
        )
        assert code == 0
        data = json.loads(out)
        assert data["status"] == "pass"
        oracle = data["oracle"]
        assert oracle["samples"] == 200000 and oracle["seed"] == 42
        assert oracle["generator"] == "numpy-sfc64"

    def test_mc_byte_identical(self, capsys):
        args = ("oracle", "mc", "--n", "3", "--r", "2", "--samples", "50000", "--seed", "9")
        _, out1, _ = invoke(capsys, *args)
        _, out2, _ = invoke(capsys, *args)
        assert out1 == out2


class TestParseDispatch:
    """An argv that starts with a command is parsed by that command's parser
    alone; exit codes and messages are those of the one top-level parse."""

    @pytest.mark.parametrize(
        "argv, code, err",
        [
            ([], 2, "harmonic-beta: error: the following arguments are required: command\n"),
            (["--help"], 0, ""),
            (
                ["nope"],
                2,
                "harmonic-beta: error: argument command: invalid choice: 'nope' "
                "(choose from 'compute', 'verify', 'series', 'oracle')\n",
            ),
            (["oracle"], 2, "harmonic-beta oracle: error: the following arguments are required: target\n"),
            (["oracle", "-h"], 0, ""),
            (
                ["oracle", "quad", "--n", "3", "--bogus"],
                2,
                "harmonic-beta: error: unrecognized arguments: --bogus\n",
            ),
            (
                ["oracle", "quad", "--n", "x"],
                2,
                "harmonic-beta oracle: error: argument --n: invalid int value: 'x'\n",
            ),
            (["verify", "inversion", "--x", "1/2"], 2, "harmonic-beta: error: verify inversion takes no --x\n"),
        ],
    )
    def test_exit_code_and_message(self, capsys, argv, code, err):
        got_code, out, got_err = invoke(capsys, *argv)
        assert (got_code, got_err) == (code, err)
        if argv and argv[-1] in ("--help", "-h"):
            prog = " ".join(["harmonic-beta", *argv[:-1]])
            assert out.startswith(f"usage: {prog} [-h] ")
        else:
            assert out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["compute", "H", "--n", "3", "--x=-49/100", "--alpha", "2", "--format", "json"],
            ["verify", "all", "--n-max", "2", "--x", "0,1/2"],
            ["series", "zeta", "--s", "2", "--N", "20000", "--float", "--out", "o.txt"],
            ["oracle", "mc", "--n", "1", "--r", "2", "--seed", "-3"],
        ],
    )
    def test_namespace_is_the_top_level_parse(self, argv):
        parser = build_parser()
        assert vars(_parse(parser, argv)) == vars(parser.parse_args(argv))


class TestReportLine:
    """Each report shape's JSON line, pinned byte for byte."""

    @pytest.mark.parametrize(
        "report, line",
        [
            (
                IdentityReport("thm2.2a", {"n": 3, "x": Fraction(-49, 100)}, "pass"),
                '{"identity_id": "thm2.2a", "params": {"n": 3, "x": "-49/100"}, '
                '"status": "pass"}',
            ),
            (
                IdentityReport(
                    "fixture-fail", {"n": 2}, "fail", witness=(Fraction(7, 4), Fraction(2))
                ),
                '{"identity_id": "fixture-fail", "params": {"n": 2}, "status": "fail", '
                '"witness": {"lhs": "7/4", "rhs": "2"}}',
            ),
            (
                IdentityReport(
                    "lemma-a", {"n": 0, "x": Fraction(0), "r": 4}, "fail",
                    reason='needs "x" > -1\u00e9',
                ),
                '{"identity_id": "lemma-a", "params": {"n": 0, "x": "0", "r": 4}, '
                '"status": "fail", "reason": "needs \\"x\\" > -1\\u00e9"}',
            ),
            (
                IdentityReport(
                    "oracle-quad", {"n": 2, "x": Fraction(1, 2), "r": 1}, "fail",
                    reason="expected -0.10000000000000001",
                    oracle={"value": -0.1, "err": 1e-17, "evals": 60},
                ),
                '{"identity_id": "oracle-quad", "params": {"n": 2, "x": "1/2", "r": 1}, '
                '"status": "fail", "reason": "expected -0.10000000000000001", '
                '"oracle": {"value": -0.10000000000000001, "err": 1.0000000000000001e-17, '
                '"evals": 60}}',
            ),
            (
                IdentityReport(
                    "oracle-mc", {"n": 1, "r": 2}, "pass",
                    oracle={
                        "estimate": 0.75, "stderr": 0.5, "samples": 10,
                        "seed": 42, "generator": "numpy-sfc64",
                    },
                ),
                '{"identity_id": "oracle-mc", "params": {"n": 1, "r": 2}, "status": "pass", '
                '"oracle": {"estimate": 0.75, "stderr": 0.5, "samples": 10, "seed": 42, '
                '"generator": "numpy-sfc64"}}',
            ),
        ],
        ids=["pass", "fail-witness", "fail-reason", "oracle-quad", "oracle-mc"],
    )
    def test_line_is_pinned_and_keeps_its_key_order(self, report, line):
        assert report_line(report) == line
        loaded = json.loads(line)
        keys = ["identity_id", "params", "status", "witness", "reason", "oracle"]
        assert list(loaded) == [key for key in keys if key in loaded]
        assert list(loaded["params"]) == [key for key in "nxr" if key in report.params]
        assert dumps(loaded) == line


_PI_CLAIM = SeriesEstimate(
    "zeta(x=0,s=2)", 3, Fraction(49, 36), True, Fraction(1, 4), Fraction(1, 3),
    PiPower(Fraction(1, 6), 2),
)
_RATIONAL_CLAIM = SeriesEstimate(
    "lemma-c(r=2)", 10, Fraction(17, 10), True, Fraction(0), Fraction(1, 5), Fraction(2)
)
_NO_CLAIM = SeriesEstimate(
    "zeta(x=1/2,s=3)", 2, Fraction(1216, 3375), True, Fraction(2, 49), Fraction(2, 25)
)
_FLOAT_PARTIAL = SeriesEstimate(
    "cor2.4-r3", 20000, 0.1, False, Fraction(-1, 1000), Fraction(1, 1000), Fraction(1, 10)
)


class TestRenderEstimate:
    """Each estimate shape in each format, pinned byte for byte."""

    @pytest.mark.parametrize(
        "estimate, fmt, text",
        [
            (
                _PI_CLAIM,
                "json",
                '{"target_id": "zeta(x=0,s=2)", "N": 3, "partial": "49/36", "exact": true, '
                '"tail_low": "1/4", "tail_high": "1/3", '
                '"claimed_limit": {"coeff": "1/6", "pi_power": 2}}\n',
            ),
            (
                _PI_CLAIM,
                "csv",
                "target_id,N,partial,exact,tail_low,tail_high,claimed_limit\n"
                '"zeta(x=0,s=2)",3,49/36,True,1/4,1/3,1/6 * pi^2\n',
            ),
            (
                _PI_CLAIM,
                "text",
                "target     zeta(x=0,s=2)\nN          3\npartial    49/36\nexact      True\n"
                "tail_low   1/4\ntail_high  1/3\nclaimed    1/6 * pi^2\ncontained  True\n",
            ),
            (
                _RATIONAL_CLAIM,
                "json",
                '{"target_id": "lemma-c(r=2)", "N": 10, "partial": "17/10", "exact": true, '
                '"tail_low": "0", "tail_high": "1/5", "claimed_limit": "2"}\n',
            ),
            (
                _RATIONAL_CLAIM,
                "csv",
                "target_id,N,partial,exact,tail_low,tail_high,claimed_limit\n"
                "lemma-c(r=2),10,17/10,True,0,1/5,2\n",
            ),
            (
                _RATIONAL_CLAIM,
                "text",
                "target     lemma-c(r=2)\nN          10\npartial    17/10\nexact      True\n"
                "tail_low   0\ntail_high  1/5\nclaimed    2\ncontained  False\n",
            ),
            (
                _NO_CLAIM,
                "json",
                '{"target_id": "zeta(x=1/2,s=3)", "N": 2, "partial": "1216/3375", "exact": true, '
                '"tail_low": "2/49", "tail_high": "2/25"}\n',
            ),
            (
                _NO_CLAIM,
                "csv",
                "target_id,N,partial,exact,tail_low,tail_high,claimed_limit\n"
                '"zeta(x=1/2,s=3)",2,1216/3375,True,2/49,2/25,\n',
            ),
            (
                _NO_CLAIM,
                "text",
                "target     zeta(x=1/2,s=3)\nN          2\npartial    1216/3375\nexact      True\n"
                "tail_low   2/49\ntail_high  2/25\n",
            ),
            (
                _FLOAT_PARTIAL,
                "json",
                '{"target_id": "cor2.4-r3", "N": 20000, "partial": 0.10000000000000001, '
                '"exact": false, "tail_low": "-1/1000", "tail_high": "1/1000", '
                '"claimed_limit": "1/10"}\n',
            ),
            (
                _FLOAT_PARTIAL,
                "csv",
                "target_id,N,partial,exact,tail_low,tail_high,claimed_limit\n"
                "cor2.4-r3,20000,0.10000000000000001,False,-1/1000,1/1000,1/10\n",
            ),
            (
                _FLOAT_PARTIAL,
                "text",
                "target     cor2.4-r3\nN          20000\npartial    0.10000000000000001\n"
                "exact      False\ntail_low   -1/1000\ntail_high  1/1000\nclaimed    1/10\n"
                "contained  True\n",
            ),
        ],
        ids=[
            f"{shape}-{fmt}"
            for shape in ("pi-claim", "rational-claim", "no-claim", "float-partial")
            for fmt in ("json", "csv", "text")
        ],
    )
    def test_render_is_pinned(self, estimate, fmt, text):
        assert render_estimate(estimate, fmt) == text
        if fmt == "json":
            assert dumps(json.loads(text)) + "\n" == text


class TestRenderValue:
    """compute H/F/dF's three forms, pinned byte for byte."""

    @pytest.mark.parametrize(
        "op, params, value, forms",
        [
            (
                "dF",
                {"n": 4, "x": Fraction(1, 3), "r": 2},
                Fraction(87366991149, 192914176000),
                (
                    '{"op": "dF", "n": 4, "x": "1/3", "r": 2, '
                    '"value": "87366991149/192914176000"}\n',
                    "n,x,r,value\n4,1/3,2,87366991149/192914176000\n",
                    "87366991149/192914176000\n",
                ),
            ),
            (
                "H",
                {"n": 3, "alpha": 1},
                Fraction(11, 6),
                (
                    '{"op": "H", "n": 3, "alpha": 1, "value": "11/6"}\n',
                    "n,alpha,value\n3,1,11/6\n",
                    "11/6\n",
                ),
            ),
            (
                "F",
                {"n": 2, "x": Fraction(-1, 2)},
                Fraction(16, 15),
                (
                    '{"op": "F", "n": 2, "x": "-1/2", "value": "16/15"}\n',
                    "n,x,value\n2,-1/2,16/15\n",
                    "16/15\n",
                ),
            ),
        ],
        ids=["dF", "H", "F-negative-x"],
    )
    def test_render_is_pinned(self, op, params, value, forms):
        for fmt, text in zip(("json", "csv", "text"), forms):
            assert render_value(op, params, value, fmt) == text

    def test_csv_cells_are_quoted_by_the_csv_writer(self):
        text = render_value("H", {"tag": 'a,"b', "x": Fraction(-1, 2)}, Fraction(1), "csv")
        assert text == 'tag,x,value\n"a,""b",-1/2,1\n'


class TestRenderBernoulli:
    def test_render_is_pinned(self):
        values = (Fraction(1), Fraction(-1, 2), Fraction(1, 6))
        assert render_bernoulli(values, "json") == '{"values": ["1", "-1/2", "1/6"]}\n'
        assert render_bernoulli(values, "text") == "B_0 = 1\nB_1 = -1/2\nB_2 = 1/6\n"


class TestFloatFormatting:
    def test_seventeen_significant_digits(self):
        assert format_float(3.141592653589793) == "3.1415926535897931"
        assert format_float(1.0) == "1.0"
        assert format_float(0.1) == "0.10000000000000001"
        assert format_float(1e-300) == "1e-300"

    def test_round_trips(self):
        for value in (1.0, 0.1, 2 / 3, 1e-12, 123456.789):
            assert float(format_float(value)) == value


class TestDumps:
    @pytest.mark.parametrize(
        "record",
        [
            harmonic_beta.IdentityReport("thm2.2", {"n": 0}, "pass"),
            harmonic_beta.SeriesEstimate("t", 1, Fraction(1), True, Fraction(0), Fraction(1)),
            harmonic_beta.PiPower(Fraction(1, 6), 2),
            harmonic_beta.QuadratureResult(1.0, 0.0, 15),
            harmonic_beta.MonteCarloResult(0.5, 0.01),
            harmonic_beta.bell_expansion(2),  # a read-only mapping, not a dict
        ],
        ids=lambda record: type(record).__name__,
    )
    def test_records_are_refused(self, record):
        # a NamedTuple record is a tuple, but not a JSON array
        with pytest.raises(TypeError, match=f"cannot serialize {type(record).__name__}$"):
            dumps(record)

    def test_plain_sequences_are_arrays(self):
        text = dumps({"w": (Fraction(1, 2), 3), "v": [1.0, None]})
        assert text == '{"w": ["1/2", 3], "v": [1.0, null]}'
        # the Bernoulli table is a plain tuple
        assert dumps(harmonic_beta.bernoulli_table(4)) == '["1", "-1/2", "1/6", "0", "-1/30"]'


class TestOutputFile:
    def test_missing_directory_exits_two(self, capsys, tmp_path):
        path = tmp_path / "missing" / "x"
        code, out, err = invoke(
            capsys, "compute", "H", "--n", "3", "--alpha", "1", "--out", str(path)
        )
        assert (code, out) == (2, "")
        assert err == f"error: cannot write {path}: No such file or directory\n"
        assert not path.parent.exists()

    def test_directory_as_path_exits_two(self, capsys, tmp_path):
        code, out, err = invoke(
            capsys, "verify", "thm2.2", "--n-max", "2", "--out", str(tmp_path)
        )
        assert (code, out) == (2, "")
        assert err == f"error: cannot write {tmp_path}: Is a directory\n"


def _verify_choices() -> list[str]:
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    verify = commands.choices["verify"]
    return next(a for a in verify._actions if a.dest == "target").choices


# Two values of each verify flag, as a check group takes them.
_GROUP_ARGS = {
    "n-max": (3, 5),
    "r-max": (0, 2),
    "x": ((Fraction(0), Fraction(1, 2)), (Fraction(7, 3),)),
}


def _count_ids(out: str) -> dict[str, int]:
    counts: dict[str, int] = {}
    for line in out.splitlines():
        identity_id = json.loads(line)["identity_id"]
        counts[identity_id] = counts.get(identity_id, 0) + 1
    return counts


class TestCheckGroupTable:
    def test_verify_choices_come_from_the_table(self):
        assert list(CHECK_GROUPS) == [
            "thm2.2", "thm2.3", "thm2.5", "thm2.6", "lemma-a", "beta-eq", "inversion"
        ]
        assert list(_TARGETS["verify"]) == [*CHECK_GROUPS, "all", "fixture-fail"]
        assert _verify_choices() == [*CHECK_GROUPS, "all", "fixture-fail"]

    def test_verify_rows_are_pinned(self):
        # the rows derive from identity_suite.GROUP_AXES, and the tests that
        # read _TARGETS cannot see a derivation that widens or narrows one
        assert [(target, tuple(reads)) for target, reads in _TARGETS["verify"].items()] == [
            ("thm2.2", ("n-max", "x")),
            ("thm2.3", ("n-max", "x")),
            ("thm2.5", ("n-max", "x")),
            ("thm2.6", ("n-max", "x", "r-max")),
            ("lemma-a", ("n-max", "x", "r-max")),
            ("beta-eq", ("n-max", "x")),
            ("inversion", ("n-max",)),
            ("all", ("n-max", "x", "r-max")),
            ("fixture-fail", ("n-max",)),
        ]

    @pytest.mark.parametrize(
        "target, flag",
        [
            (target, flag)
            for target in CHECK_GROUPS
            for flag in _FLAGS["verify"]
            if flag not in _TARGETS["verify"][target]
        ],
    )
    def test_a_left_out_flag_changes_no_report(self, target, flag):
        # the CLI passes a group None for a flag its row leaves out; the group
        # must not read it, or the row would hide a flag the group uses
        runs = []
        for value in _GROUP_ARGS[flag]:
            given = {name: values[0] for name, values in _GROUP_ARGS.items()}
            given[flag] = value
            runs.append(CHECK_GROUPS[target](given["n-max"], given["r-max"], given["x"]))
        assert runs[0] == runs[1] and runs[0]

    @pytest.mark.parametrize(
        "target, identity_id, count",
        [("thm2.6", "thm2.6-finite", 33), ("lemma-a", "lemma-a", 43)],
    )
    def test_single_group_is_not_capped(self, capsys, target, identity_id, count):
        n_max = count - 1
        code, out, _ = invoke(
            capsys, "verify", target, "--n-max", str(n_max), "--r-max", "0", "--x", "0"
        )
        assert code == 0
        assert _count_ids(out) == {identity_id: count}

    def test_all_caps_thm26_and_lemma_a(self, capsys):
        code, out, _ = invoke(
            capsys, "verify", "all", "--n-max", "42", "--r-max", "0", "--x", "0"
        )
        assert code == 0
        counts = _count_ids(out)
        assert (counts["thm2.6-finite"], counts["lemma-a"]) == (31, 41)
        assert counts["beta-eq"] == 43 and counts["inversion"] == 1000


# -- CLI property test: every argv ends in 0, 1 or 2 without a traceback -------

_X = st.sampled_from(["0", "1/2", "7/3", "-49/100", "-1", "-2", "1/0", "0.5"])


def _int(hi: int):
    """Small values up to ``hi`` plus the bad spellings -1, 1/0 and 0.5."""
    return st.one_of(st.integers(0, hi).map(str), st.sampled_from(["-1", "1/0", "0.5"]))


_N, _R, _SAMPLES = _int(12), _int(4), _int(1000)
# --r of compute and series also at and just past each documented cap:
# compute bell/dF 30, exact lemma-c 10 (G_9), eq31 and exact eq32 8 (G_9)
_CAP_R = st.one_of(_R, st.sampled_from(["8", "9", "10", "11", "30", "31"]))
# series zeta --s also at and just past the exact-mode cap of 18
_CAP_S = st.one_of(_R, st.sampled_from(["18", "19"]))
# compute --n and --N also at and just past each cap: dF 100, zeta-even 200,
# bernoulli 400, H 2000, F 10000
_CAP_N = st.one_of(
    _N, st.sampled_from(["100", "101", "200", "201", "400", "401", "2000", "2001", "10000", "10001"])
)
# compute H --alpha also at and just past its cap of 30
_ALPHA = st.one_of(_R, st.sampled_from(["30", "31"]))
# up to 300, or 20000: float mode with --float, a usage error without
_BIG_N = st.one_of(_int(300), st.just("20000"))

# The values drawn for each flag of each command; a target is given only the
# flags its row of the CLI's table says it reads.
_VALUES = {
    "compute": {"--n": _CAP_N, "--x": _X, "--alpha": _ALPHA, "--r": _CAP_R, "--N": _CAP_N},
    "verify": {
        "--n-max": _N,
        "--r-max": _R,
        "--x": st.lists(_X, min_size=1, max_size=2).map(",".join),
    },
    "series": {"--N": _BIG_N, "--x": _X, "--s": _CAP_S, "--r": _CAP_R},
    "oracle": {
        "--n": _N, "--m": _R, "--x": _X, "--r": _R, "--samples": _SAMPLES, "--seed": _N
    },
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_VALUES)))
    target = draw(st.sampled_from(sorted(_TARGETS[command])))
    valued = {f"--{flag}": _VALUES[command][f"--{flag}"] for flag in _TARGETS[command][target]}
    argv = [command, target]
    valued = dict(valued, **{"--format": st.sampled_from(["text", "json", "csv"])})
    for flag, values in valued.items():
        # --n-max is always given: its default of 50 is not a small value
        if flag == "--n-max" or draw(st.booleans()):
            value = draw(values)
            # "--x=-1" and "--x -1" both parse; "--x -1/2" is a usage error
            argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    if command == "series" and draw(st.booleans()):
        argv.append("--float")
    out = draw(st.sampled_from([None, "file", "missing-dir", "dir"]))
    return argv, out


# Float-mode inputs past the documented caps, one set of flags per case;
# every other flag is valid.
_FLOAT_CAPS = {
    "zeta": [
        {"--x": "1/4503599627370496"},  # q(N+1)+p >= 2**53
        {"--s": "80"},  # 1/(n+1)**80 leaves the normal range
        {"--N": "100000001"},  # past the float-mode --N cap
    ],
    "lemma-c": [
        {"--r": "21"},  # G_20's recurrence holds the coefficient 19! >= 2**53
        {"--N": "100000000"},  # N(N+1) >= 2**53
        {"--r": "20", "--N": "22631579"},  # N * 190 products of G_19 > 4.3 * 10**9
        {"--r": "11", "--N": "78181819"},  # N * 55 products of G_10 > 4.3 * 10**9
    ],
    "cor2.4-r5": [{"--N": "100000000"}],
    "eq32": [
        {"--r": "19"},
        {"--r": "18", "--N": "22631579"},  # N * 190 products of G_19 > 4.3 * 10**9
    ],
    "eq31": [{"--N": "100000001"}],  # refused before the 512 term checks
}


# Valid float-mode values of the flags a series target reads.
_FLOAT_VALUES = {"--N": "20000", "--s": "2", "--r": "2"}


@st.composite
def _float_cap_argv(draw):
    target = draw(st.sampled_from(sorted(_FLOAT_CAPS)))
    reads = _TARGETS["series"][target]
    values = {flag: value for flag, value in _FLOAT_VALUES.items() if flag[2:] in reads}
    values.update(draw(st.sampled_from(_FLOAT_CAPS[target])))
    argv = ["series", target, "--float"]
    for flag, value in values.items():
        argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    return argv + ["--format", draw(st.sampled_from(["text", "json", "csv"]))]


def _x_samples(count: int) -> str:
    """A verify --x list of ``count`` distinct samples."""
    return ",".join(f"{i}/7" for i in range(count))


# Every cap at the cap: (argv at the cap, the capped flag, its first value
# past the cap; for verify --x, the number of samples).
_CAPS = [
    (["series", "lemma-c", "--r", "10", "--N", "40"], "--r", "11"),
    (["series", "eq32", "--r", "8", "--N", "40"], "--r", "9"),
    (["compute", "bell", "--r", "30"], "--r", "31"),
    (["compute", "dF", "--n", "3", "--x", "1/2", "--r", "30"], "--r", "31"),
    (["series", "eq31", "--r", "8", "--N", "40"], "--r", "9"),
    (["series", "zeta", "--s", "18", "--N", "40"], "--s", "19"),
    (["compute", "H", "--n", "2000", "--x", "1/2"], "--n", "2001"),
    (["compute", "H", "--n", "3", "--x", "1/2", "--alpha", "30"], "--alpha", "31"),
    (["compute", "F", "--n", "10000", "--x", "1/2"], "--n", "10001"),
    (["compute", "dF", "--n", "100", "--x", "1/2", "--r", "2"], "--n", "101"),
    (["compute", "bernoulli", "--N", "400"], "--N", "401"),
    (["compute", "zeta-even", "--n", "200"], "--n", "201"),
    (["oracle", "quad", "--n", "100", "--m", "2", "--x", "1/2"], "--n", "101"),
    (["oracle", "quad", "--n", "3", "--m", "30", "--x", "1/2"], "--m", "31"),
    (["oracle", "mc", "--n", "1000", "--r", "2", "--samples", "1000"], "--n", "1001"),
    (["oracle", "mc", "--n", "3", "--r", "10", "--samples", "1000"], "--r", "11"),
    (["oracle", "mc", "--n", "1", "--r", "1", "--samples", "10000000"], "--samples", "10000001"),
    (["verify", "thm2.2", "--n-max", "100", "--x", "0"], "--n-max", "101"),
    (["verify", "thm2.3", "--n-max", "100", "--x", "0"], "--n-max", "101"),
    (["verify", "thm2.5", "--n-max", "100", "--x", "0"], "--n-max", "101"),
    (["verify", "thm2.6", "--n-max", "100", "--r-max", "0", "--x", "0"], "--n-max", "101"),
    (["verify", "lemma-a", "--n-max", "100", "--r-max", "0", "--x", "0"], "--n-max", "101"),
    (["verify", "beta-eq", "--n-max", "100", "--x", "0"], "--n-max", "101"),
    (["verify", "inversion", "--n-max", "100"], "--n-max", "101"),
    (["verify", "all", "--n-max", "100", "--r-max", "0", "--x", "0"], "--n-max", "101"),
    (["verify", "fixture-fail", "--n-max", "100"], "--n-max", "101"),
    (["verify", "thm2.6", "--n-max", "3", "--r-max", "10", "--x", "0"], "--r-max", "11"),
    (["verify", "lemma-a", "--n-max", "3", "--r-max", "10", "--x", "0"], "--r-max", "11"),
    (["verify", "all", "--n-max", "3", "--r-max", "10", "--x", "0"], "--r-max", "11"),
    (["verify", "thm2.2", "--n-max", "3", "--x", _x_samples(10)], "--x", "11"),
    (["verify", "thm2.3", "--n-max", "3", "--x", _x_samples(10)], "--x", "11"),
    (["verify", "thm2.5", "--n-max", "3", "--x", _x_samples(10)], "--x", "11"),
    (["verify", "thm2.6", "--n-max", "3", "--r-max", "0", "--x", _x_samples(10)], "--x", "11"),
    (["verify", "lemma-a", "--n-max", "3", "--r-max", "0", "--x", _x_samples(10)], "--x", "11"),
    (["verify", "beta-eq", "--n-max", "3", "--x", _x_samples(10)], "--x", "11"),
    (["verify", "all", "--n-max", "3", "--r-max", "0", "--x", _x_samples(10)], "--x", "11"),
]

# The caps of the CLI's table: (command, target, flag, cap).
_TABLE_CAPS = [
    (command, target, flag, cap)
    for command, targets in _TARGETS.items()
    for target, reads in targets.items()
    for flag, (_, cap) in reads.items()
    if cap is not None
]


def _table_argv(command: str, target: str, **given: str) -> list[str]:
    """``command target`` with each required flag at a small valid value
    and the flags in ``given`` (name without dashes) at theirs."""
    argv = [command, target]
    for flag, (default, _) in _TARGETS[command][target].items():
        if flag in given:
            argv += [f"--{flag}", given.pop(flag)]
        elif default is _REQUIRED:
            argv += [f"--{flag}", "40" if flag == "N" else "2"]
    for flag, value in given.items():
        argv += [f"--{flag}", value]
    return argv


# Each (command, target, flag) the table leaves out: the flag and a value
# that would parse, or "csv" for --format where a target has no CSV form.
_LEFT_OUT = [
    (command, target, flag, "1/2" if flag == "x" else "2")
    for command, targets in _TARGETS.items()
    for target, reads in targets.items()
    for flag in _FLAGS[command]
    if flag not in reads
] + [("compute", target, "format", "csv") for target in _NO_CSV]


class TestCliProperty:
    @settings(max_examples=60, deadline=None)
    @given(case=_argv())
    def test_exit_code_and_no_traceback(self, case):
        argv, out = case
        with tempfile.TemporaryDirectory() as tmp:
            if out is not None:
                target = {
                    "file": os.path.join(tmp, "out.txt"),
                    "missing-dir": os.path.join(tmp, "missing", "out.txt"),
                    "dir": tmp,
                }[out]
                argv = [*argv, "--out", target]
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = run(argv)
        assert code in (0, 1, 2), (argv, code)
        assert "Traceback" not in stderr.getvalue()

    @settings(max_examples=30, deadline=None)
    @given(case=_float_cap_argv())
    def test_float_caps_exit_two_with_one_line(self, case):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = run(case)
        assert (code, stdout.getvalue()) == (2, ""), case
        assert stderr.getvalue().startswith("error: float mode")
        assert stderr.getvalue().count("\n") == 1

    @pytest.mark.parametrize("past", ["cap+1", "100*cap"])
    @pytest.mark.parametrize("command,target,flag,cap", _TABLE_CAPS)
    def test_table_caps_exit_two_with_the_cap_message(self, command, target, flag, cap, past):
        value = cap + 1 if past == "cap+1" else 100 * cap
        # verify's --x cap counts samples
        samples = (command, flag) == ("verify", "x")
        given = _x_samples(value) if samples else str(value)
        code, out, err = _in_process(_table_argv(command, target, **{flag: given}))
        assert (code, out) == (2, "")
        unit = " samples" if samples else ""
        assert err == f"error: {command} {target} caps --{flag} at {cap}{unit}, got {value}\n"

    @pytest.mark.parametrize("times", [1, 100])
    @pytest.mark.parametrize("argv,flag,past", [row for row in _CAPS if row[0][0] == "series"])
    def test_series_caps_exit_two_with_one_line(self, argv, flag, past, times):
        # exact-mode series caps live in series_lab
        argv = list(argv)
        argv[argv.index(flag) + 1] = str(times * int(past))
        code, out, err = _in_process(argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_every_table_cap_has_an_at_cap_run(self):
        at_cap = {(argv[0], argv[1], flag) for argv, flag, _ in _CAPS}
        assert {(c, t, f"--{flag}") for c, t, flag, _ in _TABLE_CAPS} <= at_cap

    @pytest.mark.parametrize("command,target,flag,value", _LEFT_OUT)
    def test_left_out_flags_exit_two_with_one_line(self, command, target, flag, value):
        code, out, err = _in_process(_table_argv(command, target, **{flag: value}))
        assert (code, out) == (2, "")
        what = f"--{flag} csv" if flag == "format" else f"--{flag}"
        assert err == f"harmonic-beta: error: {command} {target} takes no {what}\n"

    @pytest.mark.parametrize("argv", [argv for argv, _, _ in _CAPS])
    def test_r_at_cap_runs(self, argv):
        code, out, err = _in_process(argv)
        failing = argv[:2] == ["verify", "fixture-fail"]  # a check that must fail
        assert (code, err) == (1 if failing else 0, "") and out, argv

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no int->str digit limit"
    )
    @pytest.mark.parametrize(
        "argv",
        [
            ["series", "zeta", "--s", "2", "--N", "3"],
            ["series", "eq31", "--r", "0", "--N", "3"],
            ["verify", "thm2.2", "--n-max", "2"],
            ["compute", "F", "--n", "2"],
            ["oracle", "quad", "--n", "2", "--m", "1"],
        ],
    )
    @pytest.mark.parametrize("digits", [("{}", 0), ("1/{}", 0), ("-{}/1{}", 1)])
    def test_x_past_the_int_digit_limit_exits_two_with_one_line(self, argv, digits):
        # the interpreter's default limit of 4,300 digits binds p and q of --x
        form, longer_q = digits
        before = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            past = form.format("9" * 4301, "9" * 4301)
            code, out, err = _in_process([*argv, f"--x={past}"])
            assert (code, out) == (2, "") and err.count("\n") == 1, argv
            assert err.endswith(
                f"p/q rational of {len(past)} characters exceeds the int digit limit\n"
            )
            if argv[0] != "oracle":  # quad refuses an x this large as a float
                at = form.format("9" * (4300 - longer_q), "9" * (4300 - longer_q))
                code, out, err = _in_process([*argv, f"--x={at}"])
                assert (code, err) == (0, "") and out, argv
            assert sys.get_int_max_str_digits() == 4300
        finally:
            sys.set_int_max_str_digits(before)

    @pytest.mark.parametrize("target", ["eq32", "lemma-c"])
    @pytest.mark.parametrize("mode", [["--N", "10000"], ["--N", "20000", "--float"]])
    def test_r_far_past_the_cap_is_refused_at_once(self, target, mode):
        # neither G_{r+-1} nor the product-rule route is built before the refusal
        start = time.perf_counter()
        code, out, err = _in_process(["series", target, "--r", "500", *mode])
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "") and err.startswith("error: ") and err.count("\n") == 1


# -- one parser per process ----------------------------------------------------


def _fresh_processes(argvs: list[list[str]]) -> list[tuple[int, str, str]]:
    """Each argv run by ``python -m harmonic_beta`` in its own new process."""
    src = os.path.dirname(os.path.dirname(harmonic_beta.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    procs = [
        subprocess.Popen(
            [sys.executable, "-m", "harmonic_beta", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=dict(os.environ, PYTHONPATH=path),
        )
        for argv in argvs
    ]
    results = []
    for proc in procs:
        out, err = proc.communicate(timeout=120)
        results.append((proc.returncode, out, err))
    return results


def _in_process(argv: list[str]) -> tuple[int, str, str]:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = run(argv)
    return code, stdout.getvalue(), stderr.getvalue()


class TestOneParserPerProcess:
    ARGVS = [
        ["verify", "thm2.2", "--n-max", "3", "--x=0,1/2", "--format", "text"],
        ["series", "zeta", "--s", "2", "--N", "40", "--format", "text"],
        ["oracle", "quad", "--n", "2", "--m", "1", "--x", "1/2"],
        # the default --x after an explicit one
        ["verify", "thm2.2", "--n-max", "2", "--format", "text"],
        ["compute", "F", "--x", "0.5"],
        ["series", "lemma-c", "--r", "2", "--N", "20000", "--float"],
    ]

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_interleaved_runs_print_what_fresh_processes_print(self):
        expected = _fresh_processes(self.ARGVS)
        assert [code for code, _, _ in expected] == [0, 0, 0, 0, 2, 0]
        for argvs in (self.ARGVS, self.ARGVS[::-1]):
            got = [_in_process(argv) for argv in argvs]
            assert got == [expected[self.ARGVS.index(argv)] for argv in argvs]


# -- start-up loads none of numpy, scipy, dataclasses, inspect and csv ----------


@pytest.mark.parametrize(
    "module,argv,loads",
    [
        ("harmonic_beta", None, ""),
        ("harmonic_beta.cli", None, ""),
        ("harmonic_beta.cli", "verify all --n-max 5", ""),
        ("harmonic_beta.cli", "verify all --n-max 5 --format csv", "csv"),
        ("harmonic_beta.cli", "series lemma-c --r 4 --N 300", ""),
        ("harmonic_beta.cli", "series lemma-c --r 4 --N 300 --format csv", "csv"),
        ("harmonic_beta.cli", "compute dF --n 5 --x 1/2 --r 3", ""),
        ("harmonic_beta.cli", "oracle quad --n 2 --m 1 --x 1/2", "numpy"),
        ("harmonic_beta.cli", "series zeta --s 2 --N 10001 --float", "numpy"),
        ("harmonic_beta.cli", "series zeta --s 2 --N 10001 --float --format csv", "csv numpy"),
    ],
)
def test_start_up_loads_no_heavy_module(module, argv, loads):
    """Start-up (import, and build_parser() for the CLI) loads none of the five;
    a run then loads csv for --format csv only and numpy for binary64 work only.
    Modules count as loaded when the bare interpreter (with what site
    preloads) did not have them."""
    src = os.path.dirname(os.path.dirname(harmonic_beta.__file__))
    code = (
        "import sys\n"
        "bare = set(sys.modules)\n"
        f"import {module}\n"
        "def report(names):\n"
        "    print(*sorted(set(names) & (set(sys.modules) - bare)), file=sys.stderr)\n"
    )
    if module == "harmonic_beta.cli":
        code += "harmonic_beta.cli.build_parser()\n"
    code += "report(['numpy', 'scipy', 'dataclasses', 'inspect', 'csv'])\n"
    if argv is not None:
        code += f"assert harmonic_beta.cli.run({argv.split()!r}) == 0\n"
        code += "report(['numpy', 'csv'])\n"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=60,
    )
    expected = "\n" if argv is None else f"\n{loads}\n"
    assert (proc.returncode, proc.stderr) == (0, expected)


# -- the int->str digit limit is the caller's ----------------------------------


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no int->str digit limit"
)
class TestIntDigitLimit:
    def test_import_leaves_the_limit_unchanged(self):
        src = os.path.dirname(os.path.dirname(harmonic_beta.__file__))
        code = (
            "import sys; before = sys.get_int_max_str_digits(); "
            "import harmonic_beta, harmonic_beta.cli, harmonic_beta.reporting; "
            "print(before == sys.get_int_max_str_digits())"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=src),
            timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (0, "True\n")

    def test_run_prints_long_partials_and_restores_the_limit(self):
        before = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)  # the interpreter's default
        try:
            code, out, err = _in_process(["series", "lemma-c", "--r", "4", "--N", "10000"])
            assert sys.get_int_max_str_digits() == 4300
        finally:
            sys.set_int_max_str_digits(before)
        assert (code, err) == (0, "")
        # recorded when the limit was still raised at import
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == "cdf2d75a3d8c32d57812a65ce8fe934d4b57323e2cba4a45136ebd037662b444"
