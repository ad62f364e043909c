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

# The flags each compute, series and oracle target reads, flag -> (default,
# cap): _REQUIRED marks a flag with no default, a cap of None a flag with
# no cap here (series caps its flags per mode in series_lab).  A command
# offers the union of its targets' flags, and _check_flags refuses, before
# any work, a flag the target does not read, a missing required flag and a
# value past its cap; README lists the time of each worst allowed run.
# G_30 has 5,604 monomials; zeta-even --n needs B_2n, so it stops at half the
# bernoulli cap.  oracle quad computes compute dF's derivative_F(n, x, m), so
# it takes dF's caps; an mc sample draws --r uniforms and its time is linear
# in --samples, and --n sizes the exact reference sum.  compute H without
# --x is the plain H_n^(alpha).
_REQUIRED = object()
_NEEDED = (_REQUIRED, None)
_X_AT_0 = (Fraction(0), None)
_TARGETS = {
    "compute": {
        "H": {"n": (_REQUIRED, 2000), "x": (None, None), "alpha": (1, 30)},
        "F": {"n": (_REQUIRED, 10_000), "x": _X_AT_0},
        "dF": {"n": (_REQUIRED, 100), "x": _X_AT_0, "r": (_REQUIRED, 30)},
        "bell": {"r": (_REQUIRED, 30)},
        "bernoulli": {"N": (_REQUIRED, 400)},
        "zeta-even": {"n": (_REQUIRED, 200)},
    },
    "series": {
        "zeta": {"N": _NEEDED, "x": _X_AT_0, "s": _NEEDED},
        "lemma-c": {"N": _NEEDED, "r": _NEEDED},
        "cor2.4-r3": {"N": _NEEDED},
        "cor2.4-r4": {"N": _NEEDED},
        "cor2.4-r5": {"N": _NEEDED},
        "eq31": {"N": _NEEDED, "x": _X_AT_0, "r": _NEEDED},
        "eq32": {"N": _NEEDED, "r": _NEEDED},
    },
    "oracle": {
        "quad": {"n": (_REQUIRED, 100), "m": (_REQUIRED, 30), "x": _X_AT_0},
        "mc": {
            "n": (_REQUIRED, 1000),
            "r": (_REQUIRED, 10),
            "samples": (100_000, 10_000_000),
            "seed": (0, None),
        },
    },
}
_FLAGS = {
    command: list(dict.fromkeys(flag for reads in targets.values() for flag in reads))
    for command, targets in _TARGETS.items()
}
# compute targets with no CSV form
_NO_CSV = ("bell", "bernoulli", "zeta-even")

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

    _table_parser(sub, "compute", "evaluate one quantity exactly", "text")

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

    series = _table_parser(sub, "series", "bracketed partial sums of series targets", "json")
    series.add_argument(
        "--float",
        dest="float_mode",
        action="store_true",
        help=f"required for, and only for, {EXACT_N_MAX} < N <= {_FLOAT_N_MAX}: sum in "
        "binary64 and widen the bracket by a rigorous rounding radius (tail_low may "
        "then be negative)",
    )

    _table_parser(sub, "oracle", "floating-point cross-checks", "json")
    return parser


def _table_parser(sub, command: str, summary: str, default_format: str) -> argparse.ArgumentParser:
    """The subparser of a _TARGETS command: its targets and every flag one of
    them reads, each defaulting to None so _check_flags sees what was given."""
    parser = sub.add_parser(command, help=summary)
    targets = _TARGETS[command]
    parser.add_argument("target", choices=list(targets))
    for flag in _FLAGS[command]:
        readers = ", ".join(target for target, reads in targets.items() if flag in reads)
        parser.add_argument(
            f"--{flag}", type=_rational if flag == "x" else int, help=f"read by {readers}"
        )
    _output_flags(parser, default_format)
    return parser


def _output_flags(parser: argparse.ArgumentParser, default_format: str) -> None:
    parser.add_argument(
        "--format", choices=["text", "json", "csv"], default=default_format
    )
    parser.add_argument("--out", default=None, help="write output to this file")


def run(argv: Sequence[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    handler: Callable[[argparse.Namespace], tuple[int, str]]
    handler = {
        "compute": _run_compute,
        "verify": _run_verify,
        "series": _run_series,
        "oracle": _run_oracle,
    }[args.command]
    try:
        if args.command in _TARGETS:
            _check_flags(parser, args)
        code, text = handler(args)
    except SystemExit as exc:  # parser.error() after parsing
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


def _check_flags(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Hold a compute, series or oracle run to its row of _TARGETS, before
    any work: refuse a flag the target does not read, a missing required
    flag and a value past its cap, and fill in the defaults."""
    command, target = args.command, args.target
    reads = _TARGETS[command][target]
    for flag in _FLAGS[command]:
        value = getattr(args, flag)
        if flag not in reads:
            if value is not None:
                parser.error(f"{command} {target} takes no --{flag}")
            continue
        default, cap = reads[flag]
        if value is None:
            if default is _REQUIRED:
                parser.error(f"{command} {target} requires --{flag}")
            setattr(args, flag, default)
        elif cap is not None and value > cap:
            raise DomainError(f"{command} {target} caps --{flag} at {cap}, got {value}")
    if target in _NO_CSV and args.format == "csv":
        parser.error(f"{command} {target} takes no --format csv")


# -- compute ------------------------------------------------------------------


def _run_compute(args) -> tuple[int, str]:
    what = args.target
    if what == "H":
        if args.x is None:
            value = harmonic_core.harmonic_number(args.n, args.alpha)
            params = {"n": args.n, "alpha": args.alpha}
        else:
            value = harmonic_core.harmonic_function(args.n, args.x, args.alpha)
            params = {"n": args.n, "x": args.x, "alpha": args.alpha}
        return 0, _scalar_output(args, "H", params, value)
    if what == "F":
        value = beta_engine.beta_F(args.n, args.x)
        return 0, _scalar_output(args, "F", {"n": args.n, "x": args.x}, value)
    if what == "dF":
        value = beta_engine.derivative_F(args.n, args.x, args.r)
        return 0, _scalar_output(args, "dF", {"n": args.n, "x": args.x, "r": args.r}, value)
    if what == "bell":
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
        table = harmonic_core.bernoulli_table(args.N)
        if args.format == "json":
            return 0, dumps({"values": list(table.values)}) + "\n"
        lines = [
            f"B_{k} = {format_rational(v)}" for k, v in enumerate(table.values)
        ]
        return 0, "\n".join(lines) + "\n"
    coeff = harmonic_core.zeta_even_coefficient(args.n)  # zeta-even
    if args.format == "json":
        return 0, dumps({"coeff": coeff, "pi_power": 2 * args.n}) + "\n"
    return 0, f"{format_rational(coeff)} * pi^{2 * args.n}\n"


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


def _run_verify(args) -> tuple[int, str]:
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
    if args.format == "csv":
        return reports_to_csv(reports)
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
    return "\n".join(dumps(identity_report_dict(r)) for r in reports) + "\n"


# -- series -------------------------------------------------------------------


def _run_series(args) -> tuple[int, str]:
    float_mode = args.N > EXACT_N_MAX
    if float_mode and not args.float_mode:
        build_parser().error(
            f"--N {args.N} exceeds the exact-mode threshold {EXACT_N_MAX}; "
            "pass --float to sum in binary64 with a rigorous rounding radius"
        )
    if args.float_mode and not float_mode:
        build_parser().error(
            f"--float needs --N above the exact-mode threshold {EXACT_N_MAX}, "
            f"got {args.N}; up to it series sums exactly"
        )
    if args.N > _FLOAT_N_MAX:
        raise DomainError(f"float mode caps --N at {_FLOAT_N_MAX}, got {args.N}")
    target = args.target
    if target == "zeta":
        estimate = series_lab.hurwitz_partial(args.x, args.s, args.N, float_mode)
    elif target == "lemma-c":
        estimate = series_lab.lemma_c_partial(args.r, args.N, float_mode)
    elif target.startswith("cor2.4-"):
        estimate = series_lab.corollary_2_4_partial(
            target.removeprefix("cor2.4-"), args.N, float_mode
        )
    elif target == "eq31":
        estimate = series_lab.eq31_series(args.r, args.x, args.N, float_mode)
    else:  # eq32
        estimate = series_lab.eq32_series(args.r, args.N, float_mode)
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


def _run_oracle(args) -> tuple[int, str]:
    if args.target == "quad":
        result = float_oracle.log_moment_quadrature(args.n, args.m, args.x)
        expected = float(beta_engine.derivative_F(args.n, args.x, args.m))
        scale = max(abs(expected), 1e-300)
        ok = abs(result.value - expected) / scale <= 1e-9
        report = IdentityReport(
            identity_id="oracle-quad",
            params={"n": args.n, "x": args.x, "r": args.m},
            status=identity_suite.PASS if ok else identity_suite.FAIL,
            reason=None if ok else f"expected {format_float(expected)}",
            oracle={
                "value": result.value,
                "err": result.abs_error_estimate,
                "evals": result.evaluations,
            },
        )
    else:
        estimate = float_oracle.cube_monte_carlo(
            args.n, args.r, args.samples, args.seed
        )
        exact = float(series_lab.multi_integral_exact(args.n, args.r))
        ok = abs(estimate.estimate - exact) <= 4 * estimate.stderr or (
            estimate.stderr == 0.0 and estimate.estimate == exact
        )
        report = IdentityReport(
            identity_id="oracle-mc",
            params={"n": args.n, "r": args.r},
            status=identity_suite.PASS if ok else identity_suite.FAIL,
            reason=None if ok else f"expected {format_float(exact)}",
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
