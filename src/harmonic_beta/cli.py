"""Command-line front end: compute, verify, series, and oracle workflows.

Exit codes: 0 all checks passed / value computed; 1 at least one identity
failed, a bracket excluded its claimed limit, or an oracle disagreed;
2 usage or parse error.  Output is byte-stable for identical invocations.

x arguments accept only exact "p/q" rationals; decimals are rejected so the
verification path can never silently lose exactness.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from fractions import Fraction
from typing import Callable, Sequence

from . import beta_engine, float_oracle, harmonic_core, identity_suite, series_lab
from .harmonic_core import DomainError, format_rational, parse_rational
from .identity_suite import IdentityReport
from .reporting import (
    dumps,
    estimate_to_csv,
    format_float,
    identity_report_dict,
    reports_to_csv,
)
from .series_lab import EXACT_N_MAX, SeriesEstimate

__all__ = ["run", "main"]

# Largest value of each (quantity, flag) ``compute`` and ``oracle`` accept,
# refused before any work; README lists the time of each worst allowed run.
# G_30 has 5,604 monomials; zeta-even --n needs B_2n, so it stops at half the
# bernoulli cap.  oracle quad runs compute dF's derivative_F(n, x, m), so it
# takes dF's caps; an mc sample draws --r uniforms and its time is linear
# in --samples, and --n sizes the exact reference sum.
_COMPUTE_CAPS = {
    ("H", "n"): 2000, ("H", "alpha"): 30, ("F", "n"): 10_000, ("dF", "n"): 100,
    ("dF", "r"): 30, ("bell", "r"): 30, ("bernoulli", "N"): 400, ("zeta-even", "n"): 200,
}
_ORACLE_CAPS = {
    ("quad", "n"): 100, ("quad", "m"): 30,
    ("mc", "n"): 1000, ("mc", "r"): 10, ("mc", "samples"): 10_000_000,
}

# Largest --n-max and --r-max of every verify target, and most --x samples,
# refused before any work; each sample adds a sweep's worth of work.  README
# lists the time of the slowest allowed runs.
_VERIFY_CAPS = {"n_max": 100, "r_max": 10}
_VERIFY_X_SAMPLES_MAX = 10

# Largest --N float mode sums, refused before any work; it binds zeta and
# eq31, as the log-weight targets stop at N(N+1) < 2**53.  README lists the
# time of the worst allowed runs.
_FLOAT_N_MAX = 10**8


def _rational(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except DomainError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _rational_list(text: str) -> list[Fraction]:
    return [_rational(piece) for piece in text.split(",")]


def _count(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose errors are the one line ``prog: error: message``.

    ``add_subparsers`` builds every subparser with this class too.
    """

    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; every default is immutable, so no
    parse can leak into the next."""
    parser = _Parser(
        prog="harmonic-beta",
        description=(
            "Exact generalized harmonic numbers, the beta-integral family and its "
            "derivatives, identity verification sweeps, bracketed series partial "
            "sums, and independent floating-point oracles."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser("compute", help="evaluate one quantity exactly")
    compute.add_argument(
        "what", choices=["H", "F", "dF", "bell", "bernoulli", "zeta-even"]
    )
    compute.add_argument("--n", type=int)
    compute.add_argument("--x", type=_rational)
    compute.add_argument("--alpha", type=int, default=1)
    compute.add_argument("--r", type=int)
    compute.add_argument("--N", type=int)
    _output_flags(compute, default_format="text")

    verify = sub.add_parser("verify", help="run identity sweeps, report pass/fail")
    verify.add_argument(
        "target", choices=[*identity_suite.CHECK_GROUPS, "all", "fixture-fail"]
    )
    verify.add_argument("--n-max", type=_count, default=50)
    verify.add_argument("--r-max", type=_count, default=6)
    verify.add_argument(
        "--x",
        type=_rational_list,
        default=tuple(identity_suite.DEFAULT_X_SAMPLES),
        help="comma-separated p/q sample list",
    )
    _output_flags(verify, default_format="json")

    series = sub.add_parser("series", help="bracketed partial sums of series targets")
    series.add_argument(
        "target",
        choices=["zeta", "lemma-c", "cor2.4-r3", "cor2.4-r4", "cor2.4-r5", "eq31", "eq32"],
    )
    series.add_argument("--N", type=int, required=True)
    series.add_argument("--x", type=_rational, default=Fraction(0))
    series.add_argument("--s", type=int)
    series.add_argument("--r", type=int)
    series.add_argument(
        "--float",
        dest="float_mode",
        action="store_true",
        help=f"allow {EXACT_N_MAX} < N <= {_FLOAT_N_MAX}: sum in binary64 and widen the "
        "bracket by a rigorous rounding radius (tail_low may then be negative)",
    )
    _output_flags(series, default_format="json")

    oracle = sub.add_parser("oracle", help="floating-point cross-checks")
    oracle.add_argument("which", choices=["quad", "mc"])
    oracle.add_argument("--n", type=int, required=True)
    oracle.add_argument("--m", type=int)
    oracle.add_argument("--x", type=_rational, default=Fraction(0))
    oracle.add_argument("--r", type=int)
    oracle.add_argument("--samples", type=int, default=100_000)
    oracle.add_argument("--seed", type=int, default=0)
    _output_flags(oracle, default_format="json")

    return parser


def _output_flags(parser: argparse.ArgumentParser, default_format: str) -> None:
    parser.add_argument(
        "--format", choices=["text", "json", "csv"], default=default_format
    )
    parser.add_argument("--out", default=None, help="write output to this file")
    parser.add_argument(
        "--timings",
        action="store_true",
        help="emit measured elapsed_ms (default prints 0 so identical "
        "invocations stay byte-identical)",
    )


def run(argv: Sequence[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    handler: Callable[[argparse.Namespace, argparse.ArgumentParser], tuple[int, str]]
    handler = {
        "compute": _run_compute,
        "verify": _run_verify,
        "series": _run_series,
        "oracle": _run_oracle,
    }[args.command]
    try:
        code, text = handler(args, parser)
    except SystemExit as exc:  # parser.error() inside a handler
        code = exc.code
        return code if isinstance(code, int) else 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, float_oracle.QuadratureError) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    if args.out:
        try:
            with open(args.out, "w") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return code


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # downstream consumer (e.g. head) closed the pipe; not our error
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        code = 0
    sys.exit(code)


def _require(parser: argparse.ArgumentParser, condition: bool, message: str) -> None:
    if not condition:
        parser.error(message)  # exits with code 2


# -- compute ------------------------------------------------------------------


def _refuse_past_caps(command: str, what: str, caps: dict, args) -> None:
    for (quantity, flag), cap in caps.items():
        value = getattr(args, flag)
        if quantity == what and value is not None and value > cap:
            raise DomainError(f"{command} {what} caps --{flag} at {cap}, got {value}")


def _run_compute(args, parser) -> tuple[int, str]:
    what = args.what
    _refuse_past_caps("compute", what, _COMPUTE_CAPS, args)
    if what == "H":
        _require(parser, args.n is not None, "compute H requires --n")
        if args.x is None:
            value = harmonic_core.harmonic_number(args.n, args.alpha)
            params = {"n": args.n, "alpha": args.alpha}
        else:
            value = harmonic_core.harmonic_function(args.n, args.x, args.alpha)
            params = {"n": args.n, "x": args.x, "alpha": args.alpha}
        return 0, _scalar_output(args, "H", params, value)
    if what == "F":
        _require(parser, args.n is not None, "compute F requires --n")
        x = args.x if args.x is not None else Fraction(0)
        value = beta_engine.beta_F(args.n, x)
        return 0, _scalar_output(args, "F", {"n": args.n, "x": x}, value)
    if what == "dF":
        _require(parser, args.n is not None, "compute dF requires --n")
        _require(parser, args.r is not None, "compute dF requires --r")
        x = args.x if args.x is not None else Fraction(0)
        value = beta_engine.derivative_F(args.n, x, args.r)
        return 0, _scalar_output(args, "dF", {"n": args.n, "x": x, "r": args.r}, value)
    if what == "bell":
        _require(parser, args.r is not None, "compute bell requires --r")
        expansion = beta_engine.bell_expansion(args.r)
        if args.format == "json":
            payload = {
                "order": expansion.order,
                "terms": [
                    {"monomial": list(exponents), "coefficient": coeff}
                    for exponents, coeff in expansion.terms.items()
                ],
                "text": expansion.text(),
            }
            return 0, dumps(payload) + "\n"
        return 0, expansion.text() + "\n"
    if what == "bernoulli":
        _require(parser, args.N is not None, "compute bernoulli requires --N")
        table = harmonic_core.bernoulli_table(args.N)
        if args.format == "json":
            return 0, dumps({"values": list(table.values)}) + "\n"
        lines = [
            f"B_{k} = {format_rational(v)}" for k, v in enumerate(table.values)
        ]
        return 0, "\n".join(lines) + "\n"
    if what == "zeta-even":
        _require(parser, args.n is not None, "compute zeta-even requires --n")
        coeff = harmonic_core.zeta_even_coefficient(args.n)
        if args.format == "json":
            return 0, dumps({"coeff": coeff, "pi_power": 2 * args.n}) + "\n"
        return 0, f"{format_rational(coeff)} * pi^{2 * args.n}\n"
    raise AssertionError(what)


def _scalar_output(args, name: str, params: dict, value: Fraction) -> str:
    if args.format == "json":
        payload = {"op": name}
        payload.update(
            {
                k: (format_rational(v) if isinstance(v, Fraction) else v)
                for k, v in params.items()
            }
        )
        payload["value"] = value
        return dumps(payload) + "\n"
    if args.format == "csv":
        header = ",".join(list(params) + ["value"])
        row = ",".join(
            [
                format_rational(v) if isinstance(v, Fraction) else str(v)
                for v in params.values()
            ]
            + [format_rational(value)]
        )
        return f"{header}\n{row}\n"
    return format_rational(value) + "\n"


# -- verify -------------------------------------------------------------------


def _run_verify(args, parser) -> tuple[int, str]:
    for attr, cap in _VERIFY_CAPS.items():
        value = getattr(args, attr)
        if value > cap:
            flag = attr.replace("_", "-")
            raise DomainError(f"verify caps --{flag} at {cap}, got {value}")
    xs = args.x
    if len(xs) > _VERIFY_X_SAMPLES_MAX:
        raise DomainError(
            f"verify caps --x at {_VERIFY_X_SAMPLES_MAX} samples, got {len(xs)}"
        )
    for x in xs:
        if x <= -1:
            raise DomainError(f"requires x > -1, got x={x}")
    if args.target == "all":
        reports = identity_suite.run_all(args.n_max, args.r_max, xs)
    elif args.target == "fixture-fail":
        reports = identity_suite.deliberate_mismatch_check(args.n_max)
    else:
        reports = identity_suite.CHECK_GROUPS[args.target](args.n_max, args.r_max, xs)
    if args.target != "all":  # run_all returns its reports sorted
        reports.sort(key=IdentityReport.sort_key)
    failed = sum(1 for r in reports if r.status == identity_suite.FAIL)
    return (1 if failed else 0), _render_reports(args, reports)


def _render_reports(args, reports: list[IdentityReport]) -> str:
    # without --timings every elapsed_ms prints as 0
    timings = getattr(args, "timings", False)
    if args.format == "csv":
        return reports_to_csv(reports, timings=timings)
    if args.format == "text":
        lines = []
        for report in reports:
            bits = [report.identity_id]
            for key in ("r", "n"):
                if key in report.params:
                    bits.append(f"{key}={report.params[key]}")
            if "x" in report.params:
                bits.append(f"x={format_rational(report.params['x'])}")
            line = " ".join(bits) + f": {report.status}"
            if report.witness:
                line += (
                    f" (lhs={format_rational(report.witness[0])}"
                    f" rhs={format_rational(report.witness[1])})"
                )
            lines.append(line)
        passed = sum(1 for r in reports if r.passed)
        lines.append(f"{passed}/{len(reports)} passed")
        return "\n".join(lines) + "\n"
    return "\n".join(dumps(identity_report_dict(r, timings=timings)) for r in reports) + "\n"


# -- series -------------------------------------------------------------------


def _run_series(args, parser) -> tuple[int, str]:
    float_mode = args.N > EXACT_N_MAX
    if float_mode and not args.float_mode:
        parser.error(
            f"--N {args.N} exceeds the exact-mode threshold {EXACT_N_MAX}; "
            "pass --float to sum in binary64 with a rigorous rounding radius"
        )
    if args.N > _FLOAT_N_MAX:
        raise DomainError(f"float mode caps --N at {_FLOAT_N_MAX}, got {args.N}")
    target = args.target
    if target in ("lemma-c", "eq31", "eq32"):
        _require(parser, args.r is not None, f"series {target} requires --r")
    if target == "zeta":
        _require(parser, args.s is not None, "series zeta requires --s")
        estimate = series_lab.hurwitz_partial(args.x, args.s, args.N, float_mode)
    elif target == "lemma-c":
        estimate = series_lab.lemma_c_partial(args.r, args.N, float_mode)
    elif target.startswith("cor2.4-"):
        estimate = series_lab.corollary_2_4_partial(
            target.removeprefix("cor2.4-"), args.N, float_mode
        )
    elif target == "eq31":
        estimate = series_lab.eq31_series(args.r, args.x, args.N, float_mode)
    elif target == "eq32":
        estimate = series_lab.eq32_series(args.r, args.N, float_mode)
    else:
        raise AssertionError(target)
    contained = estimate.contains_claim()
    code = 1 if contained is False else 0
    return code, _render_estimate(args, estimate)


def _render_estimate(args, estimate: SeriesEstimate) -> str:
    if args.format == "csv":
        return estimate_to_csv(estimate)
    if args.format == "text":
        data = estimate.to_json_dict()
        partial = data["partial"]
        lines = [
            f"target     {data['target_id']}",
            f"N          {data['N']}",
            f"partial    {partial if isinstance(partial, str) else format_float(partial)}",
            f"exact      {data['exact']}",
            f"tail_low   {data['tail_low']}",
            f"tail_high  {data['tail_high']}",
        ]
        claimed = data.get("claimed_limit")
        if isinstance(claimed, dict):
            lines.append(f"claimed    {claimed['coeff']} * pi^{claimed['pi_power']}")
        elif claimed is not None:
            lines.append(f"claimed    {claimed}")
        contained = estimate.contains_claim()
        if contained is not None:
            lines.append(f"contained  {contained}")
        return "\n".join(lines) + "\n"
    return dumps(estimate.to_json_dict()) + "\n"


# -- oracle -------------------------------------------------------------------


def _run_oracle(args, parser) -> tuple[int, str]:
    import time

    _refuse_past_caps("oracle", args.which, _ORACLE_CAPS, args)
    if args.which == "quad":
        _require(parser, args.m is not None, "oracle quad requires --m")
        start = time.perf_counter()
        result = float_oracle.log_moment_quadrature(args.n, args.m, args.x)
        expected = float(beta_engine.derivative_F(args.n, args.x, args.m))
        elapsed = int((time.perf_counter() - start) * 1000)
        scale = max(abs(expected), 1e-300)
        ok = abs(result.value - expected) / scale <= 1e-9
        report = IdentityReport(
            identity_id="oracle-quad",
            params={"n": args.n, "x": args.x, "r": args.m},
            status=identity_suite.PASS if ok else identity_suite.FAIL,
            reason=None if ok else f"expected {format_float(expected)}",
            elapsed_ms=elapsed,
            oracle={
                "value": result.value,
                "err": result.abs_error_estimate,
                "evals": result.evaluations,
            },
        )
    else:
        _require(parser, args.r is not None, "oracle mc requires --r")
        start = time.perf_counter()
        estimate = float_oracle.cube_monte_carlo(
            args.n, args.r, args.samples, args.seed
        )
        exact = float(series_lab.multi_integral_exact(args.n, args.r))
        elapsed = int((time.perf_counter() - start) * 1000)
        ok = abs(estimate.estimate - exact) <= 4 * estimate.stderr or (
            estimate.stderr == 0.0 and estimate.estimate == exact
        )
        report = IdentityReport(
            identity_id="oracle-mc",
            params={"n": args.n, "r": args.r},
            status=identity_suite.PASS if ok else identity_suite.FAIL,
            reason=None if ok else f"expected {format_float(exact)}",
            elapsed_ms=elapsed,
            oracle={
                "estimate": estimate.estimate,
                "stderr": estimate.stderr,
                "samples": args.samples,
                "seed": args.seed,
                "generator": float_oracle.GENERATOR_ID,
            },
        )
    code = 0 if report.passed else 1
    return code, _render_reports(args, [report])


if __name__ == "__main__":
    main()
