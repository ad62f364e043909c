"""Command-line front end: compute, verify, series, and oracle workflows.

Exit codes: 0 all checks passed / value computed; 1 at least one identity
failed, a bracket excluded its claimed limit, or an oracle disagreed;
2 usage or parse error.  Output is byte-stable for identical invocations.

x arguments accept only exact "p/q" rationals; decimals are rejected so the
verification path can never silently lose exactness.

Each handler computes its record and returns what a ``reporting`` renderer
makes of it in ``--format``; this module lays out no output itself.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from fractions import Fraction
from typing import Sequence

from . import beta_engine, float_oracle, harmonic_core, identity_suite, reporting, series_lab
from .harmonic_core import DomainError, parse_rational
from .identity_suite import IdentityReport

__all__ = ["run", "main"]

# The flags each target reads, flag -> (default, cap): _REQUIRED marks a
# flag with no default, a cap of None a flag with no cap here (series caps
# its flags per mode in series_lab), and verify's --x cap counts samples.  A
# command offers the union of its targets' flags, and _check_flags refuses,
# before any work, a flag the target does not read, a missing required flag
# and a value past its cap; README lists the time of each worst allowed run.
# G_30 has 5,604 monomials; zeta-even --n needs B_2n, so it stops at half the
# bernoulli cap.  oracle quad computes compute dF's derivative_F(n, x, m), so
# it takes dF's caps; an mc sample draws --r uniforms and its time is linear
# in --samples, and --n sizes the exact reference sum.  compute H is
# harmonic_number(n, alpha) without --x and harmonic_function(n, x, alpha)
# with it.  Each verify --x sample adds a sweep's worth of work.  The target
# of a verify group reads the flag of each grid axis in
# identity_suite.GROUP_AXES, as _SWEEP maps them, and all reads every flag.
_REQUIRED = object()
_NEEDED = (_REQUIRED, None)
_X_AT_0 = (Fraction(0), None)
_SWEEP = {
    "n": ("n-max", (50, 100)),
    "x": ("x", (identity_suite.DEFAULT_X_SAMPLES, 10)),
    "r": ("r-max", (6, 10)),
}
_VERIFY_AXES = {**identity_suite.GROUP_AXES, "all": set(_SWEEP)}
_TARGETS = {
    "compute": {
        "H": {"n": (_REQUIRED, 2000), "x": (None, None), "alpha": (1, 30)},
        "F": {"n": (_REQUIRED, 10_000), "x": _X_AT_0},
        "dF": {"n": (_REQUIRED, 100), "x": _X_AT_0, "r": (_REQUIRED, 30)},
        "bell": {"r": (_REQUIRED, 30)},
        "bernoulli": {"N": (_REQUIRED, 400)},
        "zeta-even": {"n": (_REQUIRED, 200)},
    },
    "verify": {
        target: dict(flag for axis, flag in _SWEEP.items() if axis in _VERIFY_AXES[target])
        for target in [*identity_suite.CHECK_GROUPS, "all", "fixture-fail"]
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


def _rational(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except DomainError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _rational_list(text: str) -> list[Fraction]:
    return [_rational(piece) for piece in text.split(",")]


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose errors are the one line ``prog: error: message``.

    ``add_subparsers`` builds every subparser with this class too.  The
    top-level parser keeps its commands' parsers in ``commands``.
    """

    commands: dict[str, argparse.ArgumentParser]

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
    _table_parser(sub, "verify", "run identity sweeps, report pass/fail", "json")
    series = _table_parser(sub, "series", "bracketed partial sums of series targets", "json")
    series.add_argument(
        "--float",
        dest="float_mode",
        action="store_true",
        help=f"required for, and only for, {series_lab.EXACT_N_MAX} < N <= "
        f"{series_lab.FLOAT_N_MAX}: sum in binary64 and widen the bracket by a rigorous "
        "rounding radius (tail_low may then be negative)",
    )

    _table_parser(sub, "oracle", "floating-point cross-checks", "json")
    parser.commands = sub.choices
    return parser


def _table_parser(sub, command: str, summary: str, default_format: str) -> argparse.ArgumentParser:
    """The subparser of a _TARGETS command: its targets and every flag one of
    them reads, each defaulting to None so _check_flags sees what was given.
    verify's --x is a comma-separated sample list; identity_suite refuses a
    bad sweep, a negative --n-max or --r-max among them."""
    parser = sub.add_parser(command, help=summary)
    targets = _TARGETS[command]
    parser.add_argument("target", choices=list(targets))
    for flag in _FLAGS[command]:
        readers = ", ".join(target for target, reads in targets.items() if flag in reads)
        kind = int
        if flag == "x":
            kind = _rational_list if command == "verify" else _rational
        parser.add_argument(f"--{flag}", type=kind, help=f"read by {readers}")
    parser.add_argument("--format", choices=["text", "json", "csv"], default=default_format)
    parser.add_argument("--out", default=None, help="write output to this file")
    return parser


def _parse(parser: _Parser, argv: list[str]) -> argparse.Namespace:
    """``parser.parse_args(argv)``, with one level of parsing where argv
    starts with a command: the rest goes straight to that command's parser,
    and the words it leaves get the top-level ``unrecognized arguments``
    error, as parse_args would give them."""
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:])
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    args.command = argv[0]
    return args


def run(argv: Sequence[str]) -> int:
    parser = build_parser()
    try:
        args = _parse(parser, list(argv))
        _check_flags(parser, args)
        code, text = _HANDLERS[args.command](args)
    except SystemExit as exc:  # parser.error() or --help, in parsing or after it
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
    """Hold a run to its row of _TARGETS, before any work: refuse a flag the
    target does not read, a missing required flag and a value past its cap,
    and fill in the defaults."""
    command, target = args.command, args.target
    reads = _TARGETS[command][target]
    for flag in _FLAGS[command]:
        attr = flag.replace("-", "_")
        value = getattr(args, attr)
        if flag not in reads:
            if value is not None:
                parser.error(f"{command} {target} takes no --{flag}")
            continue
        default, cap = reads[flag]
        if value is None:
            if default is _REQUIRED:
                parser.error(f"{command} {target} requires --{flag}")
            setattr(args, attr, default)
        elif cap is not None:
            got, unit = (len(value), " samples") if isinstance(value, list) else (value, "")
            if got > cap:
                raise DomainError(f"{command} {target} caps --{flag} at {cap}{unit}, got {got}")
    if target in _NO_CSV and args.format == "csv":
        parser.error(f"{command} {target} takes no --format csv")


# -- compute ------------------------------------------------------------------


def _run_compute(args) -> tuple[int, str]:
    what = args.target
    if what == "bell":
        return 0, reporting.render_bell(args.r, beta_engine.bell_expansion(args.r), args.format)
    if what == "bernoulli":
        return 0, reporting.render_bernoulli(harmonic_core.bernoulli_table(args.N), args.format)
    if what == "zeta-even":
        claim = series_lab.PiPower(harmonic_core.zeta_even_coefficient(args.n), 2 * args.n)
        return 0, reporting.render_pi_power(claim, args.format)
    if what == "F":
        value = beta_engine.beta_F(args.n, args.x)
    elif what == "dF":
        value = beta_engine.derivative_F(args.n, args.x, args.r)
    elif args.x is None:
        value = harmonic_core.harmonic_number(args.n, args.alpha)
    else:
        value = harmonic_core.harmonic_function(args.n, args.x, args.alpha)
    # the value's params are the flags its row reads, in the row's order
    params = {flag: getattr(args, flag) for flag in _TARGETS["compute"][what]}
    if args.x is None:  # H without --x
        del params["x"]
    return 0, reporting.render_value(what, params, value, args.format)


# -- verify -------------------------------------------------------------------


def _run_verify(args) -> tuple[int, str]:
    """Run the target on the flags its row reads; a flag it leaves out is None."""
    if args.target == "all":
        reports = identity_suite.run_all(args.n_max, args.r_max, args.x)
    elif args.target == "fixture-fail":
        reports = identity_suite.deliberate_mismatch_check(args.n_max)
    else:
        reports = identity_suite.CHECK_GROUPS[args.target](args.n_max, args.r_max, args.x)
    failed = sum(1 for r in reports if r.status == identity_suite.FAIL)
    return (1 if failed else 0), reporting.render_reports(reports, args.format)


# -- series -------------------------------------------------------------------


def _run_series(args) -> tuple[int, str]:
    """Sum the target to --N; --float must be given exactly when N is above
    the exact-mode threshold, read from series_lab at call time."""
    exact_n_max = series_lab.EXACT_N_MAX
    float_mode = args.N > exact_n_max
    if float_mode and not args.float_mode:
        build_parser().error(
            f"--N {args.N} exceeds the exact-mode threshold {exact_n_max}; "
            "pass --float to sum in binary64 with a rigorous rounding radius"
        )
    if args.float_mode and not float_mode:
        build_parser().error(
            f"--float needs --N above the exact-mode threshold {exact_n_max}, "
            f"got {args.N}; up to it series sums exactly"
        )
    target = args.target
    if target == "zeta":
        estimate = series_lab.hurwitz_partial(args.x, args.s, args.N)
    elif target == "lemma-c":
        estimate = series_lab.lemma_c_partial(args.r, args.N)
    elif target.startswith("cor2.4-"):
        estimate = series_lab.corollary_2_4_partial(target.removeprefix("cor2.4-"), args.N)
    elif target == "eq31":
        estimate = series_lab.eq31_series(args.r, args.x, args.N)
    else:  # eq32
        estimate = series_lab.eq32_series(args.r, args.N)
    contained = estimate.contains_claim()
    code = 1 if contained is False else 0
    return code, reporting.render_estimate(estimate, args.format)


# -- oracle -------------------------------------------------------------------


def _run_oracle(args) -> tuple[int, str]:
    """The oracle's float value against the exact one, as one report."""
    if args.target == "quad":
        result = float_oracle.log_moment_quadrature(args.n, args.m, args.x)
        expected = float(beta_engine.derivative_F(args.n, args.x, args.m))
        # checked after the quadrature, so its refusals come first; a subnormal
        # float has lost relative precision, down to a vacuous 0 == 0
        if abs(expected) < sys.float_info.min:
            raise DomainError(
                f"oracle quad requires a value within the normal float range "
                f"(n={args.n}, m={args.m}, x={args.x})"
            )
        ok = abs(result.value - expected) / abs(expected) <= 1e-9
        params = {"n": args.n, "x": args.x, "r": args.m}
        oracle = {
            "value": result.value,
            "err": result.abs_error_estimate,
            "evals": result.evaluations,
        }
    else:
        estimate = float_oracle.cube_monte_carlo(args.n, args.r, args.samples, args.seed)
        expected = float(series_lab.multi_integral_exact(args.n, args.r))
        ok = abs(estimate.estimate - expected) <= 4 * estimate.stderr or (
            estimate.stderr == 0.0 and estimate.estimate == expected
        )
        params = {"n": args.n, "r": args.r}
        oracle = {
            "estimate": estimate.estimate,
            "stderr": estimate.stderr,
            "samples": args.samples,
            "seed": args.seed,
            "generator": float_oracle.GENERATOR_ID,
        }
    report = IdentityReport(
        identity_id=f"oracle-{args.target}",
        params=params,
        status=identity_suite.PASS if ok else identity_suite.FAIL,
        reason=None if ok else f"expected {reporting.format_float(expected)}",
        oracle=oracle,
    )
    return (0 if ok else 1), reporting.render_reports([report], args.format)


# Each command's handler: it computes the record and returns (exit code, output text).
_HANDLERS = {
    "compute": _run_compute,
    "verify": _run_verify,
    "series": _run_series,
    "oracle": _run_oracle,
}


if __name__ == "__main__":
    main()
