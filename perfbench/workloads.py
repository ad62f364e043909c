"""The benchmark's workloads and the verdict gate that checks their output.

A workload is the list of ``harmonic_beta.cli.run`` argvs one pass runs,
each paired with what its output must say.  ``--seed 0`` reproduces the
documented defaults; other seeds vary the inputs the program's work depends
on while keeping its size.  The gate decides every verdict from the output
text alone, against exact references computed here without the package.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

WORKLOADS = {
    "sweep": "verify all with default flags: the workflow users run most; the binomial "
    "transform and the derivative route do the work",
    "series": "exact series accumulation at the exact-mode ceiling N = 10^4; "
    "series_lab's big-integer loop does the work and binomial_inverse never runs",
    "float": "float-mode series to N = 10^6 plus 1,476 quadrature and 3 Monte Carlo oracle "
    "calls: the only workload where float_oracle works and cli.run is called often",
}

#: Not a benchmark workload: a sweep that must fail, proving the gate can fail.
SELFTEST = "fixture-fail"

#: The documented default x sample and the denominators every seed keeps.
DEFAULT_X = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(7, 3), Fraction(-49, 100))
MC_DEFAULT_SEEDS = (42, 11, 7)
MC_CASES = ((1, 2), (3, 2), (5, 3))
MC_SAMPLES = 10_000_000
QUAD_X = ("0", "1/2", "1", "7/3")
EXACT_N_MAX = 10_000

# Enough digits that the enclosure is far narrower than any bracket here.
_PI_DIGITS = "3.14159265358979323846264338327950288419716939937510"
PI_LOW = Fraction(_PI_DIGITS)
PI_HIGH = PI_LOW + Fraction(1, 10**50)


@dataclass(frozen=True)
class PiPower:
    coeff: Fraction
    power: int


@dataclass(frozen=True)
class Invocation:
    """One argv and what its output must show."""

    argv: tuple[str, ...]
    kind: str  # "reports", "series", "quad" or "mc"
    expect: dict = field(default_factory=dict)


@dataclass
class Verdict:
    attempted: int
    failed: int
    problem: str | None = None
    extras: dict = field(default_factory=dict)


# -- inputs -------------------------------------------------------------------


def sweep_x(seed: int) -> list[Fraction]:
    """Seed 0: the default sample.  Otherwise five distinct p/q in (-1, 3]
    with the default's denominators (1, 2, 1, 3, 100), so the size of the
    rationals, and with it the work, matches the default."""
    if seed == 0:
        return list(DEFAULT_X)
    rng = random.Random(f"sweep-{seed}")
    chosen: list[Fraction] = []
    for q in (d.denominator for d in DEFAULT_X):
        while True:
            x = Fraction(rng.randint(-q + 1, 3 * q), q)
            if x.denominator == q and x not in chosen:
                break
        chosen.append(x)
    return chosen


def mc_seeds(seed: int) -> tuple[int, ...]:
    if seed == 0:
        return MC_DEFAULT_SEEDS
    rng = random.Random(f"float-{seed}")
    return tuple(rng.randrange(1, 2**31) for _ in MC_CASES)


def _sweep_counts(n_max: int, r_max: int, nx: int, inversions: int) -> dict[str, int]:
    """Reports per identity id that ``verify all`` must emit."""
    n = n_max + 1
    counts = {key: nx * n for key in ("eq15", "thm2.2a", "thm2.3a", "thm2.3b", "eq20",
                                      "eq21", "eq28", "thm2.5a", "beta-eq")}
    counts.update({key: n for key in ("eq16", "thm2.2b", "thm2.3c", "thm2.3d", "eq29",
                                      "thm2.5b", "inversion-duality")})
    counts["thm2.6-finite"] = (r_max + 1) * nx * (min(n_max, 30) + 1)
    counts["lemma-a"] = (r_max + 1) * nx * (min(n_max, 40) + 1)
    counts["inversion"] = inversions
    return counts


def build(workload: str, seed: int) -> list[Invocation]:
    """The argvs of one pass; ``series`` ignores the seed (it has no random input)."""
    if workload == "sweep":
        argv = ["verify", "all"]
        xs = sweep_x(seed)
        if seed != 0:
            argv.append("--x=" + ",".join(str(x) for x in xs))
        return [Invocation(tuple(argv), "reports", {"counts": _sweep_counts(50, 6, len(xs), 1000)})]
    if workload == SELFTEST:
        return [Invocation(("verify", "fixture-fail"), "reports", {"counts": {"fixture-fail": 51}})]
    if workload == "series":
        return [
            _series(["series", "lemma-c", "--r", "4", "--N", "10000"], "lemma-c(r=4)", Fraction(4)),
            _series(["series", "eq32", "--r", "2", "--N", "10000"], "eq32(r=2)", Fraction(24)),
        ]
    if workload == "float":
        out = [
            _series(["series", "cor2.4-r5", "--N", "1000000", "--float"], "cor2.4-r5", Fraction(120)),
            _series(["series", "zeta", "--s", "2", "--N", "1000000", "--float"],
                    "zeta(x=0,s=2)", PiPower(Fraction(1, 6), 2)),
        ]
        for x in QUAD_X:
            for n in range(41):
                for m in range(9):
                    out.append(Invocation(
                        ("oracle", "quad", "--n", str(n), "--m", str(m), "--x", x),
                        "quad", {"n": n, "m": m, "x": x},
                    ))
        for (n, r), mc_seed in zip(MC_CASES, mc_seeds(seed)):
            out.append(Invocation(
                ("oracle", "mc", "--n", str(n), "--r", str(r), "--samples", str(MC_SAMPLES),
                 "--seed", str(mc_seed)),
                "mc", {"n": n, "r": r, "seed": mc_seed},
            ))
        return out
    raise ValueError(f"unknown workload {workload!r}")


def _series(argv: list[str], target_id: str, claim) -> Invocation:
    n = int(argv[argv.index("--N") + 1])
    return Invocation(tuple(argv), "series",
                      {"target_id": target_id, "N": n, "exact": n <= EXACT_N_MAX, "claim": claim})


# -- exact references, independent of the package ----------------------------


@lru_cache(maxsize=None)
def log_moment_exact(n: int, m: int, x: Fraction) -> Fraction:
    """integral_0^1 (1-t)^n (log t)^m t^x dt = sum_k C(n,k)(-1)^k (-1)^m m!/(x+k+1)^(m+1)."""
    total = sum(
        Fraction((-1) ** k * math.comb(n, k)) / (x + k + 1) ** (m + 1) for k in range(n + 1)
    )
    return (-1) ** m * math.factorial(m) * total


def cube_exact(n: int, r: int) -> Fraction:
    """integral over [0,1]^r of (1 - x_1...x_r)^n = sum_k C(n,k)(-1)^k/(k+1)^r."""
    return sum(Fraction((-1) ** k * math.comb(n, k), (k + 1) ** r) for k in range(n + 1))


def _claim_interval(claim) -> tuple[Fraction, Fraction]:
    if isinstance(claim, PiPower):
        return claim.coeff * PI_LOW**claim.power, claim.coeff * PI_HIGH**claim.power
    return claim, claim


def _claim_text(claim):
    if isinstance(claim, PiPower):
        return {"coeff": str(claim.coeff), "pi_power": claim.power}
    return str(claim)


# -- the gate -----------------------------------------------------------------


def judge(inv: Invocation, code, stdout: str) -> Verdict:
    """Check one invocation's exit code and output against what it must show."""
    attempted = sum(inv.expect["counts"].values()) if inv.kind == "reports" else 1
    try:
        problem, extras = _CHECKS[inv.kind](inv.expect, stdout)
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        problem, extras = f"unreadable output: {exc!r}", {}
    failed = extras.pop("failed_reports", attempted) if problem else 0
    if code != 0:
        problem = f"exit code {code}" + (f"; {problem}" if problem else "")
        failed = attempted
    return Verdict(attempted, failed, problem, extras)


def _check_reports(expect: dict, stdout: str):
    reports = [json.loads(line) for line in stdout.splitlines() if line]
    counts: dict[str, int] = {}
    bad = 0
    for report in reports:
        counts[report["identity_id"]] = counts.get(report["identity_id"], 0) + 1
        if report["status"] != "pass":
            bad += 1
    if counts != expect["counts"]:
        return f"report counts {sum(counts.values())} differ from the expected grid", {}
    if bad:
        return f"{bad} reports did not pass", {"failed_reports": bad}
    return None, {}


def _check_series(expect: dict, stdout: str):
    data = json.loads(stdout)
    for key in ("target_id", "N", "exact"):
        if data[key] != expect[key]:
            return f"{key} is {data[key]!r}, expected {expect[key]!r}", {}
    claim = expect["claim"]
    if data.get("claimed_limit") != _claim_text(claim):
        return f"claimed_limit is {data.get('claimed_limit')!r}", {}
    partial = data["partial"]
    partial = Fraction(partial) if isinstance(partial, str) else Fraction(float(partial))
    low = partial + Fraction(data["tail_low"])
    high = partial + Fraction(data["tail_high"])
    claim_low, claim_high = _claim_interval(claim)
    width = Fraction(data["tail_high"]) - Fraction(data["tail_low"])
    extras = {"bracket_width_rel": float(width / claim_low)}
    if not (low <= claim_low and claim_high <= high):
        return "bracket excludes its claimed limit", extras
    return None, extras


def _single_report(stdout: str, identity_id: str) -> dict:
    lines = [line for line in stdout.splitlines() if line]
    if len(lines) != 1:
        raise ValueError(f"{len(lines)} reports, expected 1")
    report = json.loads(lines[0])
    if report["identity_id"] != identity_id:
        raise ValueError(f"identity_id {report['identity_id']!r}")
    return report


def _check_quad(expect: dict, stdout: str):
    report = _single_report(stdout, "oracle-quad")
    exact = float(log_moment_exact(expect["n"], expect["m"], Fraction(expect["x"])))
    rel = abs(report["oracle"]["value"] - exact) / abs(exact)
    extras = {"oracle_max_rel_err": rel}
    if report["status"] != "pass":
        return "status " + report["status"], extras
    if not rel <= 1e-9:
        return f"relative error {rel:.3e} above 1e-9", extras
    return None, extras


def _check_mc(expect: dict, stdout: str):
    report = _single_report(stdout, "oracle-mc")
    oracle = report["oracle"]
    if oracle["seed"] != expect["seed"] or oracle["samples"] != MC_SAMPLES:
        return "seed or sample count differs from the request", {}
    exact = float(cube_exact(expect["n"], expect["r"]))
    z = abs(oracle["estimate"] - exact) / oracle["stderr"]
    extras = {"mc_max_z": z}
    if report["status"] != "pass":
        return "status " + report["status"], extras
    if not z <= 4:
        return f"estimate {z:.2f} standard errors from the exact value", extras
    return None, extras


_CHECKS = {"reports": _check_reports, "series": _check_series, "quad": _check_quad, "mc": _check_mc}
