import functools
import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from harmonic_beta import identity_suite, series_lab
from harmonic_beta.beta_engine import (
    alt_power_sum,
    bell_expansion,
    mixed_sum,
)
from harmonic_beta.cli import run
from harmonic_beta.identity_suite import binomial_inverse
from harmonic_beta.reporting import render_estimate
from harmonic_beta.harmonic_core import (
    DomainError,
    HarmonicNumerators,
    harmonic_number,
)
from harmonic_beta.series_lab import (
    EXACT_BELL_MAX,
    EXACT_N_MAX,
    FLOAT_N_MAX,
    PiPower,
    SeriesEstimate,
    corollary_2_4_partial,
    eq31_series,
    eq32_series,
    hurwitz_partial,
    lemma_c_partial,
    multi_integral_exact,
)
from harmonic_beta.series_lab import (
    _CHUNK,
    _EQ31_R_MAX,
    _TERM_CHECK_CAP,
    _bell_order,
    _checkpoint_lattice,
    _closed_form_sums,
    _direct_partials,
    _hurwitz_ball,
    _leibniz_route_terms,
    _log_moment_coefficients,
    _log_weight_ball,
    _log_weight_series,
    _pi_bounds,
    _raw_tail_bound,
    _scaled,
)

from references import direct_harmonic_function, direct_harmonic_numbers, evaluate

# pi to 100 decimals, truncated: PI_100 < pi < PI_100 + 10**-100
PI_100 = Fraction(
    "3.1415926535897932384626433832795028841971693993751058209749445923"
    "078164062862089986280348253421170679"
)


@pytest.fixture
def float_from_n1(monkeypatch):
    """Every N >= 1 sums in float mode, as N > EXACT_N_MAX does."""
    monkeypatch.setattr(series_lab, "EXACT_N_MAX", 0)


def reference_partials(k, stops):
    """The per-term loop: sum G_k(H_{n+1}, ...)/(n(n+1)) one Fraction term at a time."""
    poly = bell_expansion(k)
    h = [Fraction(1)] * k  # H_{n+1}^{(alpha)}, starts at n = 0
    running = Fraction(0)
    out = []
    for n in range(1, stops[-1] + 1):
        m = n + 1
        for alpha in range(k):
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


def closed_form_partials(k, stops):
    """T_k(m) = (k+1)! - S/((m+1) L**k) at each stop from the closed form's (S, L)."""
    sums = _closed_form_sums(k, stops)
    return [math.factorial(k + 1) - Fraction(S, (m + 1) * L**k) for m, (S, L) in zip(stops, sums)]


@functools.lru_cache(maxsize=None)
def _block_parts(k):
    """[(f, w_f, R_f)]: G_k(H + delta) = sum_f H**f * R_f(delta), w_f the weight of R_f."""
    parts = {}  # f -> R_f
    for exponents, coeff in bell_expansion(k).items():
        for f in itertools.product(*(range(e + 1) for e in exponents)):
            c = coeff
            for e, fe in zip(exponents, f):
                c *= math.comb(e, fe)
            rest = tuple(e - fe for e, fe in zip(exponents, f))
            parts.setdefault(f, {})
            parts[f][rest] = parts[f].get(rest, 0) + c
    return [
        (f, k - sum((i + 1) * e for i, e in enumerate(f)), rest)
        for f, rest in parts.items()
    ]


def block_partials(k, stops):
    """The block route: sum G_k(H_{n+1}, ...)/(n(n+1)) for k >= 1.

    The terms are taken in blocks [a, b] of at most 64 that end at every
    stop.  In a block H_{n+1} = H_a + delta(n), with delta the block's own
    rows, so G_k(H_{n+1}) = sum_f H_a**f * R_f(delta(n)) by the binomial
    theorem.  Each sum of R_f(delta(n))/(n(n+1)) runs on small integers over
    a * lcm(a+1..n+1)**(w_f+1); the large numerators of H_a**f enter once per
    block, when the base rows advance past the block.
    """
    parts = _block_parts(k)
    base = HarmonicNumerators(0, k)
    base.advance()  # H_1
    acc = 0  # the partial sum so far, over base.L ** (k + 1)
    out = []
    a = 1
    for stop in stops:
        while a <= stop:
            b = min(stop, a + 63)
            block = HarmonicNumerators(a, k)
            sums = [0] * len(parts)  # part i over a * block.L ** (w_f + 1)
            for n in range(a, b + 1):
                g = block.advance()
                sums = [s * g ** (w_f + 1) for s, (_, w_f, _) in zip(sums, parts)]
                unit = a * block.L
                diff = unit // n - unit // (n + 1)
                for i, (_, _, rest) in enumerate(parts):
                    sums[i] += evaluate(rest, block.numerators) * diff
            base_numerators = base.numerators  # H_a; advance rebinds the list
            g = base.advance(b + 1 - a)
            h = base.L // block.L
            block_poly = {
                f: g ** (k - w_f) * (s * h ** (w_f + 1) // a)
                for (f, w_f, _), s in zip(parts, sums)
            }
            acc = acc * g ** (k + 1) + evaluate(block_poly, base_numerators)
            a = b + 1
        out.append(Fraction(acc, base.L ** (k + 1)))
    return out


class TestHurwitzPartial:
    def test_single_term(self):
        for x in (Fraction(0), Fraction(1, 2), Fraction(7, 3)):
            est = hurwitz_partial(x, 3, 1)
            assert est.partial == 1 / (x + 1) ** 3

    def test_partial_is_plain_power_sum(self):
        est = hurwitz_partial(0, 2, 50)
        assert est.partial == sum(Fraction(1, (n + 1) ** 2) for n in range(50))

    @pytest.mark.parametrize("x", [Fraction(0), Fraction(1, 2), Fraction(-49, 100), Fraction(7, 3)])
    @pytest.mark.parametrize("s", [2, 3, 7, 18])
    def test_kernel_partial_equals_the_shifted_power_sum(self, x, s):
        # the order-s harmonic kernel against one Fraction per term
        for N in (1, 2, 15, 16, 17, 40, 100):
            assert hurwitz_partial(x, s, N).partial == direct_harmonic_function(N - 1, x, s)

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

    def test_exact_mode_caps_s(self):
        with pytest.raises(DomainError, match="exact mode sums zeta only up to s = 18; got s=19"):
            hurwitz_partial(0, series_lab._EXACT_S_MAX + 1, 10)
        with pytest.raises(DomainError, match="exact mode"):
            hurwitz_partial(Fraction(-49, 100), 2000, EXACT_N_MAX)
        assert hurwitz_partial(0, 20, 20_000).contains_claim()

    def test_float_mode(self, float_from_n1):
        est = hurwitz_partial(0, 2, 2000)
        assert est.exact is False
        assert isinstance(est.partial, float)
        assert est.contains_claim()


class TestRationalVerdicts:
    def test_pi_claim_just_outside_is_not_contained(self):
        est = hurwitz_partial(0, 2, 1000)
        claim_low, claim_high = est.claimed_limit.enclosure(200)
        # 1e-13 relative lies within a 1e-12 float slack; only rationals reject it
        high = claim_low * (1 - Fraction(1, 10**13))
        outside = est._replace(tail_high=high - est.partial)
        assert outside.contains_claim() is False
        high = claim_high * (1 + Fraction(1, 10**13))
        inside = est._replace(tail_high=high - est.partial)
        assert inside.contains_claim() is True

    def test_rational_claim_just_outside_float_bracket_is_not_contained(self):
        est = lemma_c_partial(2, 20_000)
        assert est.contains_claim() is True
        high = 2 * (1 - Fraction(1, 10**13))
        outside = est._replace(tail_high=high - Fraction(est.partial))
        assert outside.contains_claim() is False

    def test_bounds_enclose_pi_within_2_pow_minus_200(self):
        low, high = _pi_bounds(200)
        assert 0 < high - low <= Fraction(1, 2**200)
        # both ends must be consistent with the first 100 decimals
        assert low < PI_100 + Fraction(1, 10**100) and PI_100 < high
        finer_low, finer_high = _pi_bounds(1000)
        assert 0 < finer_high - finer_low <= Fraction(1, 2**1000)
        assert low < finer_low and finer_high < high

    @pytest.mark.parametrize("s", [16, 18])
    def test_pi_claim_undecided_by_the_first_enclosure_is_decided(self, s):
        est = hurwitz_partial(0, s, 10_000)
        low, high = est.bounds()
        claim_low, claim_high = est.claimed_limit.enclosure(200)
        assert claim_low < low <= claim_high or claim_low <= high < claim_high  # at 2**-200
        assert est.contains_claim() is True

    def test_pi_claim_is_refined_until_decided(self):
        claim = PiPower(Fraction(1, 6), 2)
        low, high = claim.enclosure(2000)
        est = SeriesEstimate("t", 1, low, True, Fraction(0), high - low, claim)
        assert est.contains_claim() is True
        for factor in (1 + Fraction(1, 2**300), 1 - Fraction(1, 2**300)):
            perturbed = PiPower(claim.coeff * factor, 2)
            assert est._replace(claimed_limit=perturbed).contains_claim() is False

    def test_pi_power_enclosure(self):
        low, high = _pi_bounds(200)
        assert PiPower(Fraction(1, 90), 4).enclosure(200) == (low**4 / 90, high**4 / 90)
        assert PiPower(Fraction(-2), 3).enclosure(200) == (-2 * high**3, -2 * low**3)
        assert PiPower(Fraction(5), 0).enclosure(200) == (5, 5)


class TestLemmaCPartial:
    def test_r1_telescopes_exactly(self, monkeypatch):
        for N in (1, 10, 1000, 5000):
            est = lemma_c_partial(1, N)
            assert est.partial == 1 - Fraction(1, N + 1)
        monkeypatch.setattr(series_lab, "EXACT_N_MAX", 100_000)
        assert lemma_c_partial(1, 100_000).partial == 1 - Fraction(1, 100_001)

    @pytest.mark.parametrize("N", [1, 2, 3, 64, 65, 10_000])
    @pytest.mark.parametrize("scale", [1, 3])
    def test_weight_zero_closed_form_matches_per_term_loop(self, N, scale):
        # lemma-c r = 1 sums G_0 = 1: the closed form m/(m+1) against one
        # term at a time at every stop, which the published width takes its
        # envelope over
        est = _scaled(_log_weight_series("c", 0, N, None), Fraction(scale))
        lattice = _checkpoint_lattice(N)
        stops = sorted(lattice | {N})
        refs = [scale * p for p in reference_partials(0, stops)]
        d_coeffs = _log_moment_coefficients({(): 1})
        envelope = min(
            p + scale * _raw_tail_bound(d_coeffs, n) for n, p in zip(stops, refs) if n in lattice
        )
        assert (est.partial, est.tail_high) == (refs[-1], envelope - refs[-1])
        if scale == 1:
            assert lemma_c_partial(1, N).bounds() == est.bounds()

    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("N", [1, 2, 3, 48, 64, 65, 700])
    def test_width_is_the_envelope_less_the_partial(self, k, N):
        # the width formed over (b+1)(N+1) L_N**k against Fraction arithmetic on
        # the per-term partials at every lattice stop
        scale = Fraction(1, math.factorial(k))
        est = _scaled(_log_weight_series("c", k, N, None), scale)
        lattice = _checkpoint_lattice(N)
        stops = sorted(lattice | {N})
        refs = [scale * p for p in reference_partials(k, stops)]
        d_coeffs = _log_moment_coefficients(bell_expansion(k))
        envelope = min(
            p + scale * _raw_tail_bound(d_coeffs, n) for n, p in zip(stops, refs) if n in lattice
        )
        assert (est.partial, est.tail_low, est.tail_high) == (refs[-1], 0, envelope - refs[-1])

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

    def test_float_mode(self, float_from_n1):
        est = lemma_c_partial(2, 3000)
        assert est.exact is False
        assert abs(est.partial - 2.0) < 0.01
        assert est.contains_claim()


class TestScaled:
    @settings(max_examples=100, deadline=None)
    @given(
        st.booleans(),
        st.fractions(),
        st.floats(allow_nan=False, allow_infinity=False),
        st.lists(st.fractions(), min_size=2, max_size=2).map(sorted),
        st.one_of(
            st.none(), st.fractions(), st.builds(PiPower, st.fractions(), st.integers(0, 6))
        ),
        st.sampled_from([1, -1]),
        st.integers(0, 20),
    )
    def test_bounds_are_c_times_the_old_ones(self, exact, rational, binary64, tails, claim, sign, k):
        # c = +-1/k!, which covers the scales of lemma-c (1/(r-1)!) and eq32 ((-1)**r)
        c = Fraction(sign, math.factorial(k))
        est = SeriesEstimate("t", 7, rational if exact else binary64, exact, *tails, claim)
        scaled = _scaled(est, c)
        low, high = (c * end for end in est.bounds())
        assert scaled.bounds() == ((low, high) if c > 0 else (high, low))
        if exact:
            assert scaled.partial == c * rational
        else:
            assert type(scaled.partial) is float
            assert scaled.partial == float(c * Fraction(binary64))
        assert (scaled.target_id, scaled.N, scaled.exact) == ("t", 7, exact)
        assert scaled.claimed_limit == claim

    def test_a_wrong_scale_fails_the_lemma_c_verdict(self):
        # lemma-c at r = 4 is T_3/3!; the claim 4 is the target's own, not scaled
        unit = _log_weight_series("lemma-c(r=4)", 3, 1000, Fraction(4))
        right = _scaled(unit, Fraction(1, math.factorial(3)))
        assert right == lemma_c_partial(4, 1000)
        assert right.contains_claim() is True
        assert _scaled(unit, Fraction(1, math.factorial(4))).contains_claim() is False


class TestClosedForm:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 5),
        st.one_of(st.sampled_from([511, 512, 513]), st.integers(1, 400)),
    )
    def test_matches_per_term_loop_at_every_stop(self, k, N):
        stops = sorted(_checkpoint_lattice(N) | {N})
        reference = reference_partials(k, stops)
        assert closed_form_partials(k, stops) == reference
        checked = [m for m in stops if m <= _TERM_CHECK_CAP]
        assert _direct_partials(k, checked) == reference[: len(checked)]

    @pytest.mark.parametrize("k,N", [(3, 10_000), (9, 1000)])
    def test_matches_block_route(self, k, N):
        stops = sorted(_checkpoint_lattice(N) | {N})
        assert closed_form_partials(k, stops) == block_partials(k, stops)

    def test_weight_zero_builds_no_harmonic_state(self, monkeypatch):
        def unbuilt(*args):
            raise AssertionError(f"harmonic state built: {args}")

        monkeypatch.setattr(series_lab, "HarmonicNumerators", unbuilt)
        stops = [1, 2, 3, 10**6]
        assert closed_form_partials(0, stops) == [Fraction(m, m + 1) for m in stops]

    @pytest.mark.parametrize("N", [1, 50, 512, 10_000])
    def test_corrupted_closed_form_fails_the_term_check(self, capsys, monkeypatch, N):
        real = series_lab._bell_values

        def corrupted(numerators, k):
            values = real(numerators, k)
            if k >= 2:
                values[2] += numerators[1]  # G_2 = h1^2 + h2 becomes h1^2 + 2*h2
            return values

        monkeypatch.setattr(series_lab, "_bell_values", corrupted)
        # G_2 enters only the closed form of G_3, not its direct sum
        message = "lemma-c(r=4): closed form differs from the direct sum at N=1"
        with pytest.raises(ArithmeticError) as raised:
            lemma_c_partial(4, N)
        assert str(raised.value) == message
        assert run(["series", "lemma-c", "--r", "4", "--N", str(N)]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"check failed: {message}\n")
        # lemma-c r = 2 sums G_1, whose closed form takes G_0 and G_1 only
        assert run(["series", "lemma-c", "--r", "2", "--N", str(N)]) == 0

    def test_changed_crosscheck_coefficient_fails_before_summing(self, capsys, monkeypatch):
        def unsummed(*args):
            raise AssertionError(f"summing started: {args}")

        for name in ("_closed_form_sums", "_direct_partials", "_log_weight_ball"):
            monkeypatch.setattr(series_lab, name, unsummed)
        display = dict(identity_suite._DISPLAYS[4])
        display[(1, 1, 0)] += 1
        monkeypatch.setitem(identity_suite._DISPLAYS, 4, display)
        leibniz = dict(_leibniz_route_terms(2))
        leibniz[(0, 0, 1)] += 1
        monkeypatch.setattr(series_lab, "_leibniz_route_terms", lambda r: leibniz)
        for N in (EXACT_N_MAX, 20_000):  # exact, then float mode
            for call, target_id, argv in (
                (lambda: corollary_2_4_partial("r4", N), "cor2.4-r4", ["cor2.4-r4"]),
                (lambda: eq32_series(2, N), "eq32(r=2)", ["eq32", "--r", "2"]),
            ):
                message = f"{target_id}: term routes disagree"
                with pytest.raises(ArithmeticError) as raised:
                    call()
                assert str(raised.value) == message
                argv = ["series", *argv, "--N", str(N)] + (["--float"] if N > EXACT_N_MAX else [])
                assert run(argv) == 1
                captured = capsys.readouterr()
                assert (captured.out, captured.err) == ("", f"check failed: {message}\n")

    @pytest.mark.parametrize("exact_n_max", [EXACT_N_MAX, 49])  # N = 50 exact, then float
    def test_crosscheck_refuses_padding_and_zero_coefficients(self, monkeypatch, exact_n_max):
        # G_2 = h1^2 + h2 and G_3 with a padded exponent tuple, then with a
        # zero coefficient: the same polynomials, but not the same terms
        monkeypatch.setattr(series_lab, "EXACT_N_MAX", exact_n_max)
        g2, g3 = dict(bell_expansion(2)), dict(bell_expansion(3))
        for display, leibniz in (
            ({e + (0,): c for e, c in g2.items()}, {e + (0,): c for e, c in g3.items()}),
            ({**g2, (1, 0): 0}, {**g3, (0, 0, 0): 0}),
        ):
            monkeypatch.setitem(identity_suite._DISPLAYS, 3, display)
            monkeypatch.setattr(series_lab, "_leibniz_route_terms", lambda r: leibniz)
            for call, target_id in (
                (lambda: corollary_2_4_partial("r3", 50), "cor2.4-r3"),
                (lambda: eq32_series(1, 50), "eq32(r=1)"),
            ):
                with pytest.raises(ArithmeticError) as raised:
                    call()
                assert str(raised.value) == f"{target_id}: term routes disagree"


@st.composite
def _chunk_and_n(draw, n_max=2000):
    """A chunk size and N <= n_max, with N at the chunk size -1, +0 and +1 drawn explicitly."""
    chunk = draw(st.sampled_from([c for c in (1, 2, 37, 256, 1999) if c < n_max]))
    near = st.sampled_from([chunk - 1, chunk, chunk + 1]).filter(lambda n: n >= 1)
    return chunk, draw(st.one_of(near, st.integers(1, n_max)))


_BALL_ORDERS = st.integers(1, 6)


@st.composite
def _order_chunk_and_n(draw):
    """A Bell order k <= 19, a chunk size and N.  Past G_6 the exact reference
    costs far more per term, so there N stays at most 12."""
    k = draw(st.integers(1, 19))
    return k, draw(_chunk_and_n(2000 if k <= 6 else 12))


def _guarded_chunk():
    """A chunk of 1..2**14 positive normal floats in [2**-1000, 2**960]: up
    to 50 drawn one by one, or generated from a drawn seed with random
    mantissas and exponents over a drawn span of the range, or a few drawn
    values repeated, so sums land on and near ties."""
    low, high = 2.0**-1000, 2.0**960
    drawn = st.lists(st.floats(low, high), min_size=1, max_size=50)

    def generated(args):
        size, seed, first, width = args
        rng = np.random.default_rng(seed)
        exponents = rng.integers(first, min(first + width, 959), size=size, endpoint=True)
        return np.ldexp(rng.uniform(1.0, 2.0, size), exponents)

    generated_chunks = st.tuples(
        st.integers(1, 2**14), st.integers(0, 2**32), st.integers(-1000, 959), st.integers(0, 1959)
    ).map(generated)
    repeated = st.tuples(
        st.lists(st.floats(low, high), min_size=1, max_size=4), st.integers(1, 2**14)
    ).map(lambda vs: (vs[0] * (vs[1] // len(vs[0]) + 1))[: vs[1]])
    return st.one_of(drawn, generated_chunks, repeated)


class TestExactSum:
    """_fsum_ball's binned sum is math.fsum's correctly rounded value, bit for bit."""

    @staticmethod
    def total(chunks):
        return series_lab._fsum_ball(iter([np.array(c, dtype=np.float64) for c in chunks]), 2)[0]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(_guarded_chunk(), min_size=1, max_size=4))
    def test_equals_fsum(self, chunks):
        expected = math.fsum(itertools.chain.from_iterable(list(c) for c in chunks))
        assert self.total(chunks).hex() == expected.hex()

    @pytest.mark.parametrize(
        "chunks, expected",
        [
            # exactly halfway between two floats: round half to even
            ([[1.0, 2**-53]], 1.0),
            ([[1.0 + 2**-52, 2**-53]], 1.0 + 2**-51),
            ([[1.0], [2**-53]], 1.0),
            ([[1.0 + 2**-52], [2**-53]], 1.0 + 2**-51),
            # just past halfway rounds up
            ([[1.0, 2**-53, 2**-1000]], 1.0 + 2**-52),
            # the two ends of the guarded range, 1,960 bins apart
            ([[2.0**960, 2.0**-1000]], 2.0**960),
        ],
    )
    def test_ties_round_half_to_even(self, chunks, expected):
        assert self.total(chunks).hex() == expected.hex()
        assert math.fsum(itertools.chain.from_iterable(chunks)) == expected

    def test_radius_follows_the_rounded_total(self):
        total, radius = series_lab._fsum_ball(iter([np.array([0.5, 0.25])]), 10)
        assert (total, radius) == (0.75, Fraction(3, 4) * 10 / (2**53 - 20))


class TestFloatBall:
    """Float mode's ball must enclose the exact partial sum."""

    @settings(max_examples=60, deadline=None)
    @given(_order_chunk_and_n())
    # the chunk boundaries at G_9 and at the float cap G_19
    @example((9, (37, 36)))
    @example((9, (37, 37)))
    @example((9, (37, 38)))
    @example((19, (2, 1)))
    @example((19, (2, 2)))
    @example((19, (2, 3)))
    def test_log_weight_ball_encloses_exact_sum(self, k_chunk_n):
        k, (chunk, N) = k_chunk_n
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(series_lab, "_CHUNK", chunk)
            total, radius = _log_weight_ball(k, N)
        exact = block_partials(k, [N])[0]
        assert abs(exact - Fraction(total)) <= radius

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 100).flatmap(
            lambda q: st.tuples(st.integers(-q + 1, 3 * q), st.just(q))
        ),
        st.integers(2, 8),
        _chunk_and_n(),
    )
    def test_hurwitz_ball_encloses_exact_sum(self, pq, s, chunk_n):
        x = Fraction(*pq)
        chunk, N = chunk_n
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(series_lab, "_CHUNK", chunk)
            total, radius = _hurwitz_ball(x, s, N)
        exact = hurwitz_partial(x, s, N)
        assert abs(exact.partial - Fraction(total)) <= radius
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(series_lab, "EXACT_N_MAX", 0)
            low, high = hurwitz_partial(x, s, N).bounds()
        exact_low, exact_high = exact.bounds()
        assert low <= exact_low and exact_high <= high

    @settings(max_examples=40, deadline=None)
    @given(
        st.one_of(
            st.tuples(_BALL_ORDERS, st.just(1)),
            # eq32 for r = 0..3: G_{r+1} with sign (-1)**r
            st.integers(0, 3).map(lambda r: (r + 1, (-1) ** r)),
        ),
        st.integers(1, 2000),
    )
    def test_estimate_brackets_exact_partial_and_tail(self, k_sign, N):
        k, sign = k_sign
        scale = Fraction(1, 3)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(series_lab, "EXACT_N_MAX", 0)
            est = _scaled(_log_weight_series("t", k, N, None), sign * scale)
        exact = sign * scale * block_partials(k, [N])[0]
        tail = sign * scale * _raw_tail_bound(_log_moment_coefficients(bell_expansion(k)), N)
        low, high = est.bounds()
        assert low <= min(exact, exact + tail) and max(exact, exact + tail) <= high

    def test_encloses_across_the_default_chunk(self):
        stops = [_CHUNK - 1, _CHUNK, _CHUNK + 1]
        powers = [hurwitz_partial(1, 3, stops[0]).partial]  # sum of 1/(n+2)**3, n < N
        for N in stops[1:]:
            powers.append(powers[-1] + Fraction(1, (N + 1) ** 3))
        for N, value in zip(stops, powers):
            total, radius = _hurwitz_ball(Fraction(1), 3, N)
            assert abs(value - Fraction(total)) <= radius
        for N, value in zip(stops, block_partials(1, stops)):
            total, radius = _log_weight_ball(1, N)
            assert abs(value - Fraction(total)) <= radius

    def test_radius_is_the_derived_bound(self):
        u = Fraction(1, 2**53)

        def gamma_ratio(K):
            gamma = K * u / (1 - K * u)
            return gamma / (1 - gamma)

        N = 1000
        for k in (0, 1, 4, 19):
            total, radius = _log_weight_ball(k, N)
            assert radius == gamma_ratio(k * (N + 4) + 2) * Fraction(total)
        total, radius = _hurwitz_ball(Fraction(1, 2), 5, N)
        assert radius == gamma_ratio(2 * 5) * Fraction(total)

    @pytest.mark.parametrize("N", [1, 2])
    def test_hurwitz_radius_covers_near_worst_case_roundings(self, N):
        # x = (q-1)/q puts the first t = q/(q(n+1)+p) and its powers just above
        # powers of 1/2, where a rounding's relative error can come close to
        # 2**-53; for q = 6231 and s = 8 the error is over 12 such units, more
        # than a radius with K = s + 1 = 9 covers
        q, s = 6231, 8
        total, radius = _hurwitz_ball(Fraction(q - 1, q), s, N)
        exact = sum(Fraction(q, q * (n + 1) + q - 1) ** s for n in range(N))
        error = abs(exact - Fraction(total))
        assert error > 12 * Fraction(total) / 2**53
        assert error <= radius

    @pytest.mark.parametrize(
        "call",
        [
            lambda: _log_weight_ball(1, 94_906_266),  # N(N+1) >= 2**53
            lambda: _bell_order(20, EXACT_N_MAX + 1),  # G_20's recurrence holds 19! >= 2**53
            lambda: _log_weight_ball(19, 22_631_579),  # N * 190 products of G_19 > budget
            lambda: eq32_series(19, 20_000),  # G_20 holds 19!
            lambda: hurwitz_partial(Fraction(1, 2**52), 2, 2),  # q(N+1)+p >= 2**53
            # q(N+1) = 2**53 + 1 is not a float although q(N+1)+p < 2**53
            lambda: hurwitz_partial(Fraction(1 - 3002399751580331, 3002399751580331), 2, 2),
            lambda: hurwitz_partial(Fraction(0), 80, 20_000),  # 1/n**80 underflows
            lambda: hurwitz_partial(Fraction(-999, 1000), 100, 1),  # 1000**100 overflows
            lambda: lemma_c_partial(21, 20_000),  # G_20 holds 19!
        ],
    )
    def test_inputs_past_the_float_caps_are_rejected(self, float_from_n1, call):
        with pytest.raises(DomainError, match="float mode"):
            call()

    def test_hurwitz_refusals_come_before_any_work(self, monkeypatch):
        def unbuilt(*args):
            raise AssertionError(f"work started: {args}")

        # the pi-power claim of an even s, and eq31's term checks
        monkeypatch.setattr(series_lab, "zeta_even_coefficient", unbuilt)
        monkeypatch.setattr(series_lab, "derivative_rows", unbuilt)
        with pytest.raises(DomainError) as raised:
            hurwitz_partial(0, 4000, 20_000)
        assert str(raised.value) == (
            "float mode: (1/(n+x+1))**4000 leaves the normal float range for x=0, N=20000"
        )
        with pytest.raises(DomainError) as raised:
            eq31_series(8, Fraction(-999999999999, 10**12), 20_000)
        assert str(raised.value) == (
            "float mode requires q(N+1)+max(p,0) < 2**53, got 20001000000000000"
        )

    def test_hurwitz_length_cap_binds_library_calls_before_any_work(self, monkeypatch):
        def unbuilt(*args):
            raise AssertionError(f"work started: {args}")

        # the float sum itself, and eq31's term checks
        monkeypatch.setattr(series_lab, "_hurwitz_ball", unbuilt)
        monkeypatch.setattr(series_lab, "derivative_rows", unbuilt)
        message = f"float mode caps --N at 100000000, got {FLOAT_N_MAX + 1}"
        for call in (
            lambda: hurwitz_partial(0, 2, FLOAT_N_MAX + 1),
            lambda: eq31_series(0, 0, FLOAT_N_MAX + 1),
        ):
            with pytest.raises(DomainError) as raised:
                call()
            assert str(raised.value) == message

    def test_term_budget_refuses_before_any_float_work(self, monkeypatch, float_from_n1):
        budget = series_lab._FLOAT_TERM_BUDGET
        # G_5's recurrence has 15 products: N = 33 spends 495 of a budget of
        # 500, N = 34 is past it
        monkeypatch.setattr(series_lab, "_FLOAT_TERM_BUDGET", 500)
        assert lemma_c_partial(6, 33).N == 33

        def unsummed(*args):
            raise AssertionError("float work started")

        monkeypatch.setattr(series_lab, "_fsum_ball", unsummed)
        with pytest.raises(DomainError, match=r"requires N \* 15 products of G_5 <= 500, got N=34"):
            lemma_c_partial(6, 34)
        monkeypatch.setattr(series_lab, "_FLOAT_TERM_BUDGET", budget)
        N = budget // 190 + 1  # G_19's recurrence has 190 products
        for call in (lambda: lemma_c_partial(20, N), lambda: eq32_series(18, N)):
            with pytest.raises(DomainError, match=r"float mode requires N \* 190 products"):
                call()

    def test_large_r_is_rejected_before_its_expansion_is_built(self, monkeypatch):
        def unbuilt(k):
            raise AssertionError(f"built G_{k}")

        monkeypatch.setattr(series_lab, "bell_expansion", unbuilt)
        with pytest.raises(DomainError, match="float mode"):
            lemma_c_partial(1000, 20_000)
        with pytest.raises(DomainError, match="float mode"):
            eq32_series(19, 20_000)

    def test_exact_mode_caps_the_bell_order_before_any_work(self, monkeypatch):
        def unbuilt(*args):
            raise AssertionError(f"work started: {args}")

        monkeypatch.setattr(series_lab, "bell_expansion", unbuilt)
        monkeypatch.setattr(series_lab, "derivative_rows", unbuilt)
        for call in (
            lambda: lemma_c_partial(EXACT_BELL_MAX + 2, 10),  # G_10
            lambda: lemma_c_partial(1000, 10),
            lambda: eq32_series(EXACT_BELL_MAX, 10),  # G_10
        ):
            with pytest.raises(DomainError, match="exact mode"):
                call()


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
                numerator = evaluate(expansion, h)
                expected = numerator / (math.factorial(r - 1) * (n + 1))
                assert alt_power_sum(n, 0, r) == expected


class TestTheorem26Series:
    def test_r0_reduces_to_zeta2(self):
        eq31 = eq31_series(0, 0, 200)
        assert isinstance(eq31.claimed_limit, PiPower)
        assert eq31.claimed_limit.coeff == Fraction(1, 6)
        assert eq31.claimed_limit.exponent == 2
        lo, hi = eq31.bracket()
        assert lo <= math.pi**2 / 6 <= hi
        # the x = 0 series claims 2! * ... = (0+2)! = 2
        assert eq32_series(0, 200).claimed_limit == 2

    def test_eq31_partial_equals_power_sum_after_term_checks(self):
        eq31 = eq31_series(1, 0, 1000)
        assert eq31 == hurwitz_partial(0, 3, 1000)._replace(target_id="eq31(r=1,x=0)")

    def test_estimate_is_not_a_tuple(self):
        # perfbench/tracing.py reads a tuple result as several estimates
        est = hurwitz_partial(0, 2, 10)
        assert not isinstance(est, tuple)
        assert est._replace(N=11) != est and est._replace(N=11)._replace(N=10) == est

    def test_estimate_refuses_assignment(self):
        est = hurwitz_partial(0, 2, 10)
        assert est.contains_claim() is True
        with pytest.raises(AttributeError):
            est.tail_high = Fraction(-5)
        with pytest.raises(AttributeError):
            del est.tail_high
        with pytest.raises(AttributeError):
            est.extra = 1
        assert est == hurwitz_partial(0, 2, 10) and est.contains_claim() is True
        assert est._replace(tail_high=Fraction(-5)).contains_claim() is False

    def test_eq31_general_x(self):
        x = Fraction(1, 2)
        eq31 = eq31_series(1, x, 120)
        assert eq31.partial == hurwitz_partial(x, 3, 120).partial
        assert eq31.claimed_limit is None

    def test_eq31_float_mode_is_the_float_power_sum(self):
        eq31 = eq31_series(2, 0, 20_000)
        assert eq31.exact is False
        assert eq31 == hurwitz_partial(0, 4, 20_000)._replace(target_id="eq31(r=2,x=0)")

    def test_eq32_even_r(self):
        eq32 = eq32_series(2, 600)
        assert eq32.claimed_limit == 24
        assert eq32.partial < 24
        assert eq32.contains_claim()

    def test_eq32_odd_r_negative_series(self):
        eq32 = eq32_series(1, 600)
        assert eq32.claimed_limit == -6
        assert eq32.partial > -6  # partial sums decrease toward the limit
        assert eq32.tail_high == 0
        assert eq32.tail_low < 0
        assert eq32.contains_claim()

    @staticmethod
    def _assert_eq31_check_fails(capsys, message):
        for N in (50, 20_000):  # exact and float mode: the checks do not depend on it
            with pytest.raises(ArithmeticError) as raised:
                eq31_series(1, 0, N)
            assert str(raised.value) == message
        assert run(["series", "eq31", "--r", "1", "--N", "50"]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"check failed: {message}\n")
        # eq32 shares neither route
        assert run(["series", "eq32", "--r", "1", "--N", "50"]) == 0
        assert capsys.readouterr().err == ""

    def test_eq31_term_mismatch_fails(self, capsys, monkeypatch):
        def corrupted(harmonics, derivatives, r):
            value = mixed_sum(harmonics, derivatives, r)
            # harmonics[0] = H_k(0, 1) = H_{k+1}: corrupt the inner term k = 7
            return value + 1 if harmonics[0] == harmonic_number(8, 1) else value

        monkeypatch.setattr(series_lab, "mixed_sum", corrupted)
        self._assert_eq31_check_fails(capsys, "eq31(r=1,x=0): inner term does not collapse at k=7")

    def test_eq31_inversion_mismatch_fails(self, capsys, monkeypatch):
        def corrupted(sequence):
            out = binomial_inverse(sequence)
            return [v + 1 if n == 5 else v for n, v in enumerate(out)]

        monkeypatch.setattr(series_lab, "binomial_inverse", corrupted)
        self._assert_eq31_check_fails(capsys, "eq31(r=1,x=0): inner term does not collapse at k=5")

    def test_eq31_checks_stop_at_the_cap(self, monkeypatch):
        checked = []

        def counted(sequence):
            checked.append(len(sequence))
            return binomial_inverse(sequence)

        monkeypatch.setattr(series_lab, "binomial_inverse", counted)
        eq31_series(0, 0, 30)
        eq31_series(0, 0, 10_000)
        assert checked == [30, _TERM_CHECK_CAP]

    def test_leibniz_route_matches_recursion_route_symbolically(self):
        for r in range(19):  # through eq32's float-mode cap, r = 18
            assert _leibniz_route_terms(r) == dict(bell_expansion(r + 1))

    def test_domain(self, monkeypatch):
        def unbuilt(*args):
            raise AssertionError(f"work started: {args}")

        monkeypatch.setattr(series_lab, "derivative_rows", unbuilt)
        monkeypatch.setattr(series_lab, "bell_expansion", unbuilt)
        for call in (
            lambda: eq31_series(-1, 0, 10),
            lambda: eq31_series(_EQ31_R_MAX + 1, 0, 10),
            lambda: eq31_series(1, -2, 10),
            lambda: eq31_series(1, 0, 0),
            lambda: eq32_series(-1, 10),
        ):
            with pytest.raises(DomainError):
                call()


# Each public series function with its arguments before N.
_SERIES_FUNCTIONS = [
    (hurwitz_partial, (0, 2)),
    (lemma_c_partial, (2,)),
    (corollary_2_4_partial, ("r3",)),
    (eq31_series, (0, 0)),
    (eq32_series, (0,)),
]
_SERIES_IDS = [function.__name__ for function, _ in _SERIES_FUNCTIONS]


class TestModeThreshold:
    """N picks the mode: exact up to EXACT_N_MAX, float mode above it."""

    @pytest.mark.parametrize("function, args", _SERIES_FUNCTIONS, ids=_SERIES_IDS)
    def test_exact_up_to_the_threshold_and_float_above_it(self, function, args):
        assert function(*args, EXACT_N_MAX).exact is True
        assert function(*args, EXACT_N_MAX + 1).exact is False

    @pytest.mark.parametrize("function, args", _SERIES_FUNCTIONS, ids=_SERIES_IDS)
    def test_threshold_is_read_at_call_time(self, monkeypatch, function, args):
        monkeypatch.setattr(series_lab, "EXACT_N_MAX", 50)
        assert function(*args, 50).exact is True
        assert function(*args, 51).exact is False

    def test_bell_order_at_the_threshold_names_the_exact_cap(self):
        # N = EXACT_N_MAX sums exactly, so G_20 is refused by exact mode's cap
        with pytest.raises(DomainError) as raised:
            _bell_order(20, EXACT_N_MAX)
        assert str(raised.value) == (
            "exact mode sums G_k only up to k = 9 (lemma-c --r <= 10, eq32 --r <= 8); got G_20"
        )

    @pytest.mark.parametrize("function, args", _SERIES_FUNCTIONS, ids=_SERIES_IDS)
    def test_no_mode_argument(self, function, args):
        with pytest.raises(TypeError):
            function(*args, 20_000, float_mode=True)
        with pytest.raises(TypeError):
            function(*args, 20_000, True)


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

    def test_equals_the_nested_recurrence(self):
        # I_1(n) = 1/(n+1) and I_r(n) = (1/(n+1)) * sum(I_(r-1)(j), j <= n)
        row = [Fraction(1, n + 1) for n in range(101)]
        for r in range(1, 11):
            if r > 1:
                row = [total / (n + 1) for n, total in enumerate(itertools.accumulate(row))]
            for n in (0, 1, 5, 40, 100):
                assert multi_integral_exact(n, r) == row[n]


class TestSerialization:
    def test_json_dict_exact(self):
        est = lemma_c_partial(2, 10)
        data = json.loads(render_estimate(est, "json"))
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
        data = json.loads(render_estimate(hurwitz_partial(0, 2, 10), "json"))
        assert data["claimed_limit"] == {"coeff": "1/6", "pi_power": 2}

    def test_json_dict_no_claim(self):
        data = json.loads(render_estimate(hurwitz_partial(0, 3, 10), "json"))
        assert "claimed_limit" not in data

    def test_float_partial_stays_float(self, float_from_n1):
        data = json.loads(render_estimate(lemma_c_partial(2, 50), "json"))
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

    def test_raw_bound_dominates_the_exact_remainder(self):
        # (k+1)! - T_k(N) = k!/(N+1) * sum(G_j(H_{N+1},...)/j!, j = 0..k), at every
        # lattice N of exact mode and every exact Bell order k
        lattice = sorted({2**i for i in range(14)} | {3 * 2**i for i in range(12)})
        lattice = [N for N in lattice if N <= EXACT_N_MAX]
        assert lattice == sorted(_checkpoint_lattice(EXACT_N_MAX)) and len(lattice) == 26
        orders = range(1, EXACT_BELL_MAX + 1)
        harmonics = [direct_harmonic_numbers([N + 1 for N in lattice], a) for a in orders]
        pairs = 0
        for i, N in enumerate(lattice):
            # H^(a)_{N+1} = numerators[a-1] / L**a, L = lcm(1..N+1)
            L = math.lcm(*range(1, N + 2))
            values = [h[i] for h in harmonics]
            numerators = [v.numerator * (L**a // v.denominator) for a, v in enumerate(values, 1)]
            g = [evaluate(bell_expansion(j), numerators) for j in range(EXACT_BELL_MAX + 1)]
            for k in orders:
                # the remainder is R/((N+1) L**k): G_j(H) = G_j(numerators)/L**j
                R = sum(
                    math.factorial(k) // math.factorial(j) * g[j] * L ** (k - j)
                    for j in range(k + 1)
                )
                bound = _raw_tail_bound(_log_moment_coefficients(bell_expansion(k)), N)
                assert bound.numerator * (N + 1) * L**k >= R * bound.denominator, (N, k)
                if N <= 32:  # the remainder formula against the per-term loop
                    remainder = Fraction(R, (N + 1) * L**k)
                    assert math.factorial(k + 1) - remainder == reference_partials(k, [N])[0]
                pairs += 1
        assert pairs == 234

    @pytest.mark.parametrize("k", [4, 8])
    def test_log_moment_coefficients_by_a_separate_loop(self, k):
        # G_4 has an h2**2 term and G_8 an h2**4 term: each cap enters once per power
        expected = {}
        for exponents, coeff in bell_expansion(k).items():
            d = Fraction(coeff)
            for alpha, power in enumerate(exponents[1:], start=2):
                for _ in range(power):
                    d *= series_lab._zeta_cap(alpha)
            expected[exponents[0]] = expected.get(exponents[0], 0) + d
        assert _log_moment_coefficients(bell_expansion(k)) == expected
        if k == 4:  # G_4 = h1**4 + 6 h1**2 h2 + 8 h1 h3 + 3 h2**2 + 6 h4
            c2, c3, c4 = (series_lab._zeta_cap(alpha) for alpha in (2, 3, 4))
            assert expected == {4: 1, 2: 6 * c2, 1: 8 * c3, 0: 3 * c2**2 + 6 * c4}


def _power_sum(x, s, N):
    """sum(1/(n+x+1)**s, n = 0..N-1), term by term."""
    return sum(1 / (Fraction(x) + n + 1) ** s for n in range(N))


def _log_weight_sum(c, s, N):
    """c * sum(alt_power_sum(n, 0, s)/n, n = 1..N), each alternating sum by its binomial sum.

    By Lemma a at x = 0, G_k(H_{n+1},...)/(n(n+1)) = k! * alt_power_sum(n, 0, k+1)/n.
    """
    return c * sum(
        Fraction((-1) ** k * math.comb(n, k), (k + 1) ** s) / n
        for n in range(1, N + 1)
        for k in range(n + 1)
    )


# (estimate at N, the partial at N summed term by term, whether it claims a limit)
_SMALL_N_SERIES = {
    "zeta-s2": (lambda N: hurwitz_partial(0, 2, N), lambda N: _power_sum(0, 2, N), True),
    "zeta-s18": (lambda N: hurwitz_partial(0, 18, N), lambda N: _power_sum(0, 18, N), True),
    "zeta-s3-x": (
        lambda N: hurwitz_partial(Fraction(-49, 100), 3, N),
        lambda N: _power_sum(Fraction(-49, 100), 3, N),
        False,
    ),
    **{
        f"lemma-c-r{r}": (
            lambda N, r=r: lemma_c_partial(r, N), lambda N, r=r: _log_weight_sum(1, r, N), True
        )
        for r in (1, 2, 4, 10)
    },
    **{
        f"cor2.4-r{r}": (
            lambda N, r=r: corollary_2_4_partial(f"r{r}", N),
            lambda N, r=r: _log_weight_sum(math.factorial(r - 1), r, N),
            True,
        )
        for r in (3, 4, 5)
    },
    "eq31-r0": (lambda N: eq31_series(0, 0, N), lambda N: _power_sum(0, 2, N), True),
    "eq31-r8": (lambda N: eq31_series(8, 0, N), lambda N: _power_sum(0, 10, N), True),
    "eq31-r1-x": (
        lambda N: eq31_series(1, Fraction(1, 2), N),
        lambda N: _power_sum(Fraction(1, 2), 3, N),
        False,
    ),
    **{
        f"eq32-r{r}": (
            lambda N, r=r: eq32_series(r, N),
            lambda N, r=r: _log_weight_sum((-1) ** r * math.factorial(r + 1), r + 2, N),
            True,
        )
        for r in (0, 1, 8)
    },
}


class TestSmallestN:
    """Every series target at N = 1, 2 and 3, where the lattice is shortest."""

    @pytest.mark.parametrize("N", [1, 2, 3])
    @pytest.mark.parametrize("target", _SMALL_N_SERIES)
    def test_partial_is_the_direct_sum_and_the_bracket_holds_the_claim(self, target, N):
        estimate, direct, claims = _SMALL_N_SERIES[target]
        result = estimate(N)
        assert (result.N, result.exact) == (N, True)
        assert result.partial == direct(N)
        assert result.contains_claim() is (True if claims else None)
