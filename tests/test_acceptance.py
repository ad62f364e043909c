"""Acceptance gate: every criterion at its stated tolerance and budget.

Each test prints one pass/fail line (run with ``pytest -s`` to see them all
even on success).  Failures surface through normal assertions.
"""

import math
import time
from fractions import Fraction

from harmonic_beta.beta_engine import alt_power_sum, bell_expansion, derivative_F
from harmonic_beta.float_oracle import cube_monte_carlo, log_moment_quadrature
from harmonic_beta.harmonic_core import bernoulli_table, zeta_even_coefficient
from harmonic_beta.identity_suite import (
    check_inversion,
    check_theorem_2_2,
    check_theorem_2_3,
    check_theorem_2_5,
    check_theorem_2_6_finite,
)
from harmonic_beta.series_lab import (
    corollary_2_4_partial,
    eq31_series,
    eq32_series,
    hurwitz_partial,
    lemma_c_partial,
    multi_integral_exact,
)

X_SWEEP = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(7, 3))


def _report(number: int, label: str, ok: bool) -> None:
    print(f"criterion {number:02d} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} ({label}) failed"


def test_criterion_01_bell_coefficients():
    start = time.perf_counter()
    got2 = dict(bell_expansion(2).terms)
    got3 = dict(bell_expansion(3).terms)
    got4 = dict(bell_expansion(4).terms)
    elapsed = time.perf_counter() - start
    ok = (
        got2 == {(0, 1): 1, (2, 0): 1}
        and got3 == {(0, 0, 1): 2, (1, 1, 0): 3, (3, 0, 0): 1}
        and got4
        == {
            (0, 0, 0, 1): 6,
            (1, 0, 1, 0): 8,
            (0, 2, 0, 0): 3,
            (2, 1, 0, 0): 6,
            (4, 0, 0, 0): 1,
        }
        and elapsed < 1e-3
    )
    _report(1, "bell expansion coefficients, < 1 ms", ok)


def test_criterion_02_derivative_closure():
    start = time.perf_counter()
    ok = True
    for x in X_SWEEP:
        for n in range(41):
            for r in range(9):
                lhs = derivative_F(n, x, r)
                rhs = math.factorial(r) * alt_power_sum(n, x, r + 1)
                if r % 2:
                    rhs = -rhs
                if lhs != rhs:
                    ok = False
    elapsed = time.perf_counter() - start
    _report(2, f"derivative closure n<=40 r<=8 ({elapsed:.1f}s < 10s)", ok and elapsed < 10)


def test_criterion_03_finite_identity_sweeps():
    start = time.perf_counter()
    reports = (
        check_theorem_2_2(50, X_SWEEP)
        + check_theorem_2_3(50, X_SWEEP)
        + check_theorem_2_5(50, X_SWEEP)
    )
    elapsed = time.perf_counter() - start
    ok = bool(reports) and all(r.passed for r in reports) and elapsed < 30
    _report(3, f"theorem sweeps n<=50, {len(reports)} points ({elapsed:.1f}s < 30s)", ok)


def test_criterion_04_general_order_finite_identity():
    start = time.perf_counter()
    reports = check_theorem_2_6_finite(6, 30, (Fraction(0), Fraction(1, 2)))
    elapsed = time.perf_counter() - start
    ok = bool(reports) and all(r.passed for r in reports) and elapsed < 30
    _report(4, f"general-order identity r<=6 n<=30 ({elapsed:.1f}s < 30s)", ok)


def test_criterion_05_inversion_involution():
    reports = [
        r for r in check_inversion(count=1000, max_len=64) if r.identity_id == "inversion"
    ]
    ok = len(reports) == 1000 and all(r.passed for r in reports)
    _report(5, "involution on 1000 random sequences", ok)


def test_criterion_06_series_limits_bracketed():
    eq31_series(2, 0, 10_000)  # the eq31 term checks; raises on a mismatch
    targets = [
        lemma_c_partial(2, 10_000),  # claims 2
        corollary_2_4_partial("r3", 10_000),  # claims 3!
        corollary_2_4_partial("r4", 10_000),  # claims 4!
        corollary_2_4_partial("r5", 10_000),  # claims 5!
        lemma_c_partial(4, 10_000),  # the general claim, order 4
        eq32_series(2, 10_000),  # claims (+1)(2+2)!
    ]
    ok = True
    for est in targets:
        limit = est.claimed_limit
        below = est.partial < limit
        contained = est.partial + est.tail_low <= limit <= est.partial + est.tail_high
        narrow = est.width() <= Fraction(5, 100) * limit
        if not (est.exact and below and contained and narrow):
            ok = False
    _report(6, "series limits bracketed at N=10^4 (width <= 5% of limit)", ok)


def test_criterion_07_zeta_brackets():
    ok = True
    for s in (2, 4, 6, 8):
        est = hurwitz_partial(0, s, 1000)
        target = math.pi**s * float(zeta_even_coefficient(s // 2))
        lo, hi = est.bracket()
        if not (lo - 1e-12 <= target <= hi + 1e-12):
            ok = False
    _report(7, "power-sum brackets contain pi-power limits (s=2,4,6,8)", ok)


def test_criterion_08_quadrature_agreement():
    start = time.perf_counter()
    ok = True
    for x in (Fraction(0), Fraction(1, 2)):
        for n in range(21):
            for m in range(5):
                exact = float(derivative_F(n, x, m))
                got = log_moment_quadrature(n, m, x).value
                if abs(got - exact) / abs(exact) > 1e-9:
                    ok = False
    elapsed = time.perf_counter() - start
    _report(8, f"quadrature oracle rel err <= 1e-9 ({elapsed:.1f}s < 60s)", ok and elapsed < 60)


def test_criterion_09_monte_carlo_agreement():
    ok = True
    for n, r, seed in ((1, 2, 42), (3, 2, 11), (5, 3, 7)):
        exact = float(multi_integral_exact(n, r))
        result = cube_monte_carlo(n, r, 10**6, seed)
        if abs(result.estimate - exact) > 4 * result.stderr:
            ok = False
    _report(9, "Monte Carlo within 4 standard errors at 10^6 samples", ok)


def test_criterion_10_bernoulli_and_zeta_values():
    table = bernoulli_table(20)
    ok = (
        table[2] == Fraction(1, 6)
        and table[4] == Fraction(-1, 30)
        and table[6] == Fraction(1, 42)
        and table[8] == Fraction(-1, 30)
        and zeta_even_coefficient(1) == Fraction(1, 6)
        and zeta_even_coefficient(2) == Fraction(1, 90)
        and zeta_even_coefficient(3) == Fraction(1, 945)
        and zeta_even_coefficient(4) == Fraction(1, 9450)
    )
    _report(10, "Bernoulli table and even-zeta coefficients", ok)
