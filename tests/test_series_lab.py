import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmonic_beta import series_lab
from harmonic_beta.beta_engine import alt_power_sum, bell_expansion
from harmonic_beta.cli import run
from harmonic_beta.identity_suite import binomial_inverse
from harmonic_beta.harmonic_core import DomainError, harmonic_number
from harmonic_beta.series_lab import (
    EXACT_N_MAX,
    PiPower,
    SeriesEstimate,
    corollary_2_4_partial,
    hurwitz_partial,
    lemma_c_partial,
    multi_integral_exact,
    theorem_2_6_series,
)
from harmonic_beta.series_lab import (
    _COROLLARY_DISPLAYS,
    _checkpoint_lattice,
    _leibniz_route_terms,
    _log_weight_partials,
    _log_weight_series,
    _raw_tail_bound,
)

POLYNOMIALS = [dict(bell_expansion(r).terms) for r in range(1, 6)] + [
    dict(display) for display, _ in _COROLLARY_DISPLAYS.values()
]


def reference_partials(poly, stops):
    """The per-term loop: sum P(H_{n+1}, ...)/(n(n+1)) one Fraction term at a time."""
    order = max(len(exponents) for exponents in poly)
    h = [Fraction(1)] * order  # H_{n+1}^{(alpha)}, starts at n = 0
    running = Fraction(0)
    out = []
    for n in range(1, stops[-1] + 1):
        m = n + 1
        for alpha in range(order):
            h[alpha] += Fraction(1, m ** (alpha + 1))
        value = Fraction(0)
        for exponents, coeff in poly.items():
            term = Fraction(coeff)
            for alpha, e in enumerate(exponents):
                term *= h[alpha] ** e
            value += term
        running += value / (n * (n + 1))
        if n in stops:
            out.append(running)
    return out


class TestHurwitzPartial:
    def test_single_term(self):
        for x in (Fraction(0), Fraction(1, 2), Fraction(7, 3)):
            est = hurwitz_partial(x, 3, 1)
            assert est.partial == 1 / (x + 1) ** 3

    def test_partial_is_plain_power_sum(self):
        est = hurwitz_partial(0, 2, 50)
        assert est.partial == sum(Fraction(1, (n + 1) ** 2) for n in range(50))

    def test_bracket_contains_claim_s2(self):
        for N in (10, 100, 1000):
            est = hurwitz_partial(0, 2, N)
            lo, hi = est.bracket()
            assert lo <= math.pi**2 / 6 <= hi
            assert est.contains_claim()

    def test_bracket_contains_claim_s4(self):
        est = hurwitz_partial(0, 4, 100)
        assert isinstance(est.claimed_limit, PiPower)
        assert est.claimed_limit.coeff == Fraction(1, 90)
        lo, hi = est.bracket()
        assert lo <= math.pi**4 / 90 <= hi

    def test_tail_bounds_formula(self):
        x = Fraction(1, 2)
        est = hurwitz_partial(x, 3, 25)
        assert est.tail_low == 1 / (2 * (25 + x + 1) ** 2)
        assert est.tail_high == 1 / (2 * (25 + x) ** 2)

    def test_divergent_rejected(self):
        with pytest.raises(DomainError):
            hurwitz_partial(0, 1, 10)

    def test_domain(self):
        with pytest.raises(DomainError):
            hurwitz_partial(-1, 2, 10)

    def test_no_claim_for_odd_exponent(self):
        assert hurwitz_partial(0, 3, 10).claimed_limit is None
        assert hurwitz_partial(Fraction(1, 2), 2, 10).claimed_limit is None

    def test_width_non_increasing(self):
        widths = [hurwitz_partial(0, 2, N).width() for N in (1, 2, 3, 5, 8, 20, 100)]
        assert all(a >= b for a, b in zip(widths, widths[1:]))

    def test_float_mode(self):
        est = hurwitz_partial(0, 2, 2000, float_mode=True)
        assert est.exact is False
        assert isinstance(est.partial, float)
        assert est.contains_claim()


class TestLemmaCPartial:
    def test_r1_telescopes_exactly(self):
        for N in (1, 10, 1000, 5000):
            est = lemma_c_partial(1, N)
            assert est.partial == 1 - Fraction(1, N + 1)
        assert lemma_c_partial(1, 100_000).partial == 1 - Fraction(1, 100_001)

    def test_terms_match_direct_route(self):
        # sum over n of (1/n) * alt_power_sum(n,0,r), assembled independently
        for r in (2, 3):
            N = 30
            expected = sum(
                alt_power_sum(n, 0, r) / n for n in range(1, N + 1)
            )
            assert lemma_c_partial(r, N).partial == expected

    def test_r2_bracket(self):
        est = lemma_c_partial(2, 2000)
        assert est.claimed_limit == 2
        assert est.partial < 2
        assert est.contains_claim()

    def test_r3_bracket(self):
        est = lemma_c_partial(3, 1500)
        assert est.claimed_limit == 3
        assert est.partial < 3
        assert est.contains_claim()

    def test_positive_terms_monotone_partial(self):
        partials = [lemma_c_partial(3, N).partial for N in (5, 10, 20, 40)]
        assert all(a < b for a, b in zip(partials, partials[1:]))

    def test_width_non_increasing(self):
        widths = [lemma_c_partial(2, N).width() for N in (1, 2, 3, 4, 7, 16, 100, 500)]
        assert all(a >= b for a, b in zip(widths, widths[1:]))

    def test_tail_low_zero(self):
        est = lemma_c_partial(4, 100)
        assert est.tail_low == 0
        assert est.tail_high > 0

    def test_r_zero_rejected(self):
        with pytest.raises(DomainError):
            lemma_c_partial(0, 10)

    def test_float_mode(self):
        est = lemma_c_partial(2, 3000, float_mode=True)
        assert est.exact is False
        assert abs(est.partial - 2.0) < 0.01
        assert est.contains_claim()


class TestBlockAccumulation:
    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(POLYNOMIALS),
        st.one_of(st.sampled_from([63, 64, 65, 128, 129]), st.integers(1, 400)),
    )
    def test_matches_per_term_loop_at_every_stop(self, poly, N):
        stops = sorted(_checkpoint_lattice(N) | {N})
        assert _log_weight_partials(poly, stops) == reference_partials(poly, stops)

    def test_changed_crosscheck_coefficient_fails_before_summing(self):
        terms = dict(bell_expansion(3).terms)
        changed = dict(terms)
        changed[(1, 1, 0)] += 1
        start = time.perf_counter()
        with pytest.raises(ArithmeticError, match="lemma-c\\(r=4\\): term routes disagree"):
            _log_weight_series(
                "lemma-c(r=4)", terms, Fraction(1, 6), 10_000, Fraction(4),
                crosscheck_terms=changed,
            )
        assert time.perf_counter() - start < 1.0

    def test_crosscheck_ignores_padding_and_zero_coefficients(self):
        terms = dict(bell_expansion(2).terms)  # h1^2 + h2
        padded = {(2, 0, 0): 1, (0, 1, 0): 1, (1, 0, 0): 0}
        est = _log_weight_series("g2", terms, Fraction(1), 50, None, crosscheck_terms=padded)
        assert est.partial == _log_weight_series("g2", terms, Fraction(1), 50, None).partial


class TestCorollary24Partial:
    def test_first_term_direct_arithmetic(self):
        # oracle: single term (H_2^(2) + H_2^2) / (1*2)
        h2 = harmonic_number(2, 1)
        h22 = harmonic_number(2, 2)
        expected = (h22 + h2 * h2) / 2
        assert expected == Fraction(7, 4)
        assert corollary_2_4_partial("r3", 1).partial == expected

    def test_claims(self):
        assert corollary_2_4_partial("r3", 5).claimed_limit == 6
        assert corollary_2_4_partial("r4", 5).claimed_limit == 24
        assert corollary_2_4_partial("r5", 5).claimed_limit == 120

    @pytest.mark.parametrize("variant,r", [("r3", 3), ("r4", 4), ("r5", 5)])
    def test_terms_are_scaled_lemma_terms(self, variant, r):
        # the cross-check runs inside; equality of partials is the visible half
        N = 120
        cor = corollary_2_4_partial(variant, N)
        lem = lemma_c_partial(r, N)
        assert cor.partial == math.factorial(r - 1) * lem.partial

    def test_brackets_contain_claims(self):
        for variant in ("r3", "r4", "r5"):
            est = corollary_2_4_partial(variant, 400)
            assert est.partial < est.claimed_limit
            assert est.contains_claim()

    def test_unknown_variant(self):
        with pytest.raises(DomainError):
            corollary_2_4_partial("r6", 10)

    def test_term_identity_against_alternating_sums(self):
        # display numerator / ((r-1)! (n+1)) == alt_power_sum(n, 0, r), n <= 200
        for r in (2, 3, 4):
            expansion = bell_expansion(r - 1)
            h = [Fraction(1)] * (r - 1)  # H_{n+1}^{(alpha)}, starts at n = 0
            for n in range(201):
                if n:
                    m = n + 1
                    for alpha in range(r - 1):
                        h[alpha] += Fraction(1, m ** (alpha + 1))
                numerator = expansion.evaluate(h)
                expected = numerator / (math.factorial(r - 1) * (n + 1))
                assert alt_power_sum(n, 0, r) == expected


class TestTheorem26Series:
    def test_r0_reduces_to_zeta2(self):
        eq31, eq32 = theorem_2_6_series(0, 0, 200)
        assert isinstance(eq31.claimed_limit, PiPower)
        assert eq31.claimed_limit.coeff == Fraction(1, 6)
        assert eq31.claimed_limit.exponent == 2
        lo, hi = eq31.bracket()
        assert lo <= math.pi**2 / 6 <= hi
        # the x = 0 series claims 2! * ... = (0+2)! = 2
        assert eq32.claimed_limit == 2

    def test_eq31_partial_equals_power_sum_after_term_checks(self):
        eq31, _ = theorem_2_6_series(1, 0, 1000)
        assert eq31.partial == hurwitz_partial(0, 3, 1000).partial

    def test_eq31_general_x(self):
        x = Fraction(1, 2)
        eq31, _ = theorem_2_6_series(1, x, 120)
        assert eq31.partial == hurwitz_partial(x, 3, 120).partial
        assert eq31.claimed_limit is None

    def test_eq32_even_r(self):
        _, eq32 = theorem_2_6_series(2, 0, 600, term_check_cap=64)
        assert eq32.claimed_limit == 24
        assert eq32.partial < 24
        assert eq32.contains_claim()

    def test_eq32_odd_r_negative_series(self):
        _, eq32 = theorem_2_6_series(1, 0, 600, term_check_cap=64)
        assert eq32.claimed_limit == -6
        assert eq32.partial > -6  # partial sums decrease toward the limit
        assert eq32.tail_high == 0
        assert eq32.tail_low < 0
        assert eq32.contains_claim()

    @staticmethod
    def _assert_eq31_check_fails(capsys, message):
        with pytest.raises(ArithmeticError) as raised:
            theorem_2_6_series(1, 0, 50)
        assert str(raised.value) == message
        assert run(["series", "eq32", "--r", "1", "--N", "50"]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"check failed: {message}\n")
        # with no term checked there is nothing to compare
        theorem_2_6_series(1, 0, 50, term_check_cap=0)

    def test_eq31_term_mismatch_fails(self, capsys, monkeypatch):
        def corrupted(n, x, r):
            value = alt_power_sum(n, x, r)
            return value + 1 if n == 7 else value

        monkeypatch.setattr(series_lab, "alt_power_sum", corrupted)
        self._assert_eq31_check_fails(
            capsys, "derivative route disagrees with direct summation at k=7"
        )

    def test_eq31_inversion_mismatch_fails(self, capsys, monkeypatch):
        def corrupted(sequence):
            out = binomial_inverse(sequence)
            return [v + 1 if n == 5 else v for n, v in enumerate(out)]

        monkeypatch.setattr(series_lab, "binomial_inverse", corrupted)
        self._assert_eq31_check_fails(capsys, "eq31(r=1,x=0): inversion mismatch at n=5")

    def test_leibniz_route_matches_recursion_route_symbolically(self):
        for r in range(7):
            assert _leibniz_route_terms(r) == dict(bell_expansion(r + 1).terms)

    def test_domain(self):
        with pytest.raises(DomainError):
            theorem_2_6_series(-1, 0, 10)
        with pytest.raises(DomainError):
            theorem_2_6_series(1, -2, 10)


class TestMultiIntegralExact:
    def test_unit_cube(self):
        for r in (1, 2, 5):
            assert multi_integral_exact(0, r) == 1

    def test_two_dimensional_first_power(self):
        # integral of 1 - xy over the unit square
        assert multi_integral_exact(1, 2) == Fraction(3, 4)

    def test_one_dimensional(self):
        assert multi_integral_exact(2, 1) == Fraction(1, 3)

    def test_equals_alternating_sum(self):
        for n in range(7):
            for r in (1, 2, 3):
                assert multi_integral_exact(n, r) == alt_power_sum(n, 0, r)


class TestSerialization:
    def test_json_dict_exact(self):
        est = lemma_c_partial(2, 10)
        data = est.to_json_dict()
        assert list(data) == [
            "target_id",
            "N",
            "partial",
            "exact",
            "tail_low",
            "tail_high",
            "claimed_limit",
        ]
        assert data["exact"] is True
        assert isinstance(data["partial"], str)
        assert data["claimed_limit"] == "2"

    def test_json_dict_pi_claim(self):
        data = hurwitz_partial(0, 2, 10).to_json_dict()
        assert data["claimed_limit"] == {"coeff": "1/6", "pi_power": 2}

    def test_json_dict_no_claim(self):
        data = hurwitz_partial(0, 3, 10).to_json_dict()
        assert "claimed_limit" not in data

    def test_float_partial_stays_float(self):
        data = lemma_c_partial(2, 50, float_mode=True).to_json_dict()
        assert isinstance(data["partial"], float)
        assert data["exact"] is False


class TestTailMachinery:
    def test_raw_bound_dominates_actual_tail(self):
        # compare the closed-form bound with a long direct tail estimate
        d = {1: Fraction(1)}  # terms (1+ln(n+1))/(n(n+1)) dominate H_{n+1}/(n(n+1))
        bound = _raw_tail_bound(d, 100)
        h = harmonic_number(101, 1)
        actual_tail = Fraction(0)
        for n in range(101, 4000):
            h += Fraction(1, n + 1)
            actual_tail += h / Fraction(n * (n + 1))
        assert bound > actual_tail
