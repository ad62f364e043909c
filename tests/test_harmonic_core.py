import contextlib
import decimal
import math
import sys
from fractions import Fraction

import numpy as np

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from harmonic_beta import harmonic_core
from harmonic_beta.harmonic_core import (
    _GCD_BITS,
    _LEAF_BASES,
    _STR_BITS,
    _coprime_fraction,
    _reduced_fraction,
    DomainError,
    HarmonicNumerators,
    bernoulli_table,
    format_rational,
    harmonic_function,
    harmonic_number,
    parse_rational,
    zeta_even_coefficient,
)
from harmonic_beta.beta_engine import beta_F
from harmonic_beta.float_oracle import log_moment_quadrature
from harmonic_beta.identity_suite import CHECK_GROUPS, run_all
from harmonic_beta.series_lab import hurwitz_partial

from references import direct_harmonic_function, direct_harmonic_number

x_values = st.fractions(
    min_value=Fraction(-9, 10), max_value=Fraction(5), max_denominator=30
)


class TestHarmonicNumber:
    def test_empty_sum_is_zero(self):
        assert harmonic_number(0, 3) == 0

    def test_small_values(self):
        assert harmonic_number(3, 1) == Fraction(11, 6)
        assert harmonic_number(2, 2) == Fraction(5, 4)

    def test_alpha_zero_rejected(self):
        with pytest.raises(DomainError):
            harmonic_number(3, 0)

    @given(st.integers(1, 120), st.integers(1, 5))
    def test_telescoping(self, n, alpha):
        delta = harmonic_number(n, alpha) - harmonic_number(n - 1, alpha)
        assert delta == Fraction(1, n**alpha)


class TestHarmonicFunction:
    def test_single_term(self):
        assert harmonic_function(0, Fraction(1, 2), 2) == Fraction(4, 9)

    def test_direct_summation(self):
        # 1/2 + 1/3 + 1/4 at x = 1
        assert harmonic_function(2, 1, 1) == Fraction(13, 12)

    @given(st.integers(0, 60), st.integers(1, 6))
    def test_shift_identity(self, n, alpha):
        assert harmonic_function(n, 0, alpha) == harmonic_number(n + 1, alpha)

    @given(st.integers(1, 40), x_values, st.integers(1, 4))
    def test_telescoping(self, n, x, alpha):
        delta = harmonic_function(n, x, alpha) - harmonic_function(n - 1, x, alpha)
        assert delta == 1 / (n + x + 1) ** alpha

    @given(st.integers(0, 30), x_values, st.integers(1, 4))
    def test_positive_and_reduced(self, n, x, alpha):
        value = harmonic_function(n, x, alpha)
        assert value > 0
        assert math.gcd(value.numerator, value.denominator) == 1
        assert value.denominator > 0

    def test_domain_boundary_rejected(self):
        with pytest.raises(DomainError):
            harmonic_function(2, -1, 1)
        with pytest.raises(DomainError):
            harmonic_function(2, Fraction(-3, 2), 1)


@pytest.mark.parametrize("alpha", [1, 2, 7, 12])
@pytest.mark.parametrize("n", [0, 1, 2, 17, 300])
def test_kernel_sums_equal_the_direct_sums(n, alpha):
    # harmonic_number and harmonic_function sum on the harmonic kernel; the
    # tests' direct Fraction sums are their independent reference
    assert harmonic_number(n, alpha) == direct_harmonic_number(n, alpha)
    for x in map(Fraction, ("0", "1/2", "7/3", "-49/100", "-999/1000")):
        assert harmonic_function(n, x, alpha) == direct_harmonic_function(n, x, alpha)


class TestShiftIsAnExactRational:
    def test_binary64_and_text_x_are_refused(self):
        calls = [
            lambda: CHECK_GROUPS["beta-eq"](2, None, [0.1]),
            lambda: run_all(1, 0, [0.1]),
            lambda: beta_F(1, 0.5),
            lambda: harmonic_function(1, 0.25, 1),
            lambda: hurwitz_partial(0.1, 2, 100),
            lambda: log_moment_quadrature(1, 1, 0.5),
            lambda: beta_F(1, "1/2"),
            lambda: harmonic_function(1, decimal.Decimal("0.5"), 1),
            lambda: harmonic_function(1, np.float64(0.5), 1),
        ]
        for call in calls:
            with pytest.raises(DomainError, match="requires a rational x, got "):
                call()
        # the message names the function and the type
        message = "^harmonic_function requires a rational x, got float 0.25$"
        with pytest.raises(DomainError, match=message):
            harmonic_function(1, 0.25, 1)
        with pytest.raises(DomainError, match="^beta_F requires a rational x, got str '1/2'$"):
            beta_F(1, "1/2")

    @pytest.mark.parametrize("x", [1, True, np.int64(1), Fraction(1)])
    def test_ints_bools_numpy_ints_and_fractions_pass(self, x):
        assert harmonic_function(1, x, 1) == Fraction(5, 6)
        assert beta_F(1, x) == Fraction(1, 6)


def _harmonic_vector(n, x, r):
    """(H_n(x,1), ..., H_n(x,r)) from one harmonic state advanced past n."""
    rows = HarmonicNumerators(x, r)
    rows.advance(n + 1)
    return rows.values()


class TestHarmonicVector:
    """All orders 1..r of H_n(x, alpha) at once, as HarmonicNumerators.values() gives them."""

    def test_batch_matches_scalar(self):
        assert _harmonic_vector(1, 0, 2) == (Fraction(3, 2), Fraction(5, 4))

    def test_single_unit_term(self):
        assert _harmonic_vector(0, 0, 3) == (1, 1, 1)

    def test_first_entry_direct_summation_oracle(self):
        # independent oracle: sum the bases explicitly
        expected = Fraction(2, 3) + Fraction(2, 5) + Fraction(2, 7)
        values = _harmonic_vector(2, Fraction(1, 2), 1)
        assert values[0] == expected
        assert values[0] == Fraction(142, 105)

    @given(st.integers(0, 25), x_values, st.integers(1, 5))
    def test_agrees_with_harmonic_function(self, n, x, r):
        values = _harmonic_vector(n, x, r)
        assert len(values) == r
        for alpha in range(1, r + 1):
            assert values[alpha - 1] == direct_harmonic_function(n, x, alpha)


class TestHarmonicNumerators:
    def test_starts_empty(self):
        rows = HarmonicNumerators(Fraction(1, 2), 3)
        assert rows.L == 1
        assert rows.values() == (0, 0, 0)

    def test_order_zero_rejected(self):
        with pytest.raises(DomainError):
            HarmonicNumerators(0, 0)

    def test_domain_boundary_rejected(self):
        with pytest.raises(DomainError):
            HarmonicNumerators(-1, 1)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 30),
        st.fractions(min_value=Fraction(-99, 100), max_value=3, max_denominator=100),
        st.integers(1, 8),
    )
    def test_every_row_matches_direct_sum(self, n, x, order):
        rows = HarmonicNumerators(x, order)
        bases_lcm = 1
        for k in range(n + 1):
            rows.advance()
            bases_lcm = math.lcm(bases_lcm, x.denominator * (k + 1) + x.numerator)
            assert rows.L == bases_lcm
            expected = tuple(direct_harmonic_function(k, x, a) for a in range(1, order + 1))
            assert rows.values() == expected

    def test_advance_returns_growth_factor(self):
        rows = HarmonicNumerators(0, 1)
        growth = [rows.advance() for _ in range(6)]  # bases 1..6
        assert growth == [1, 2, 3, 2, 5, 1]
        assert rows.L == 60

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(7, 3), Fraction(-49, 100)]),
        st.integers(1, 9),
        st.integers(0, 20),
        st.one_of(
            # runs about one leaf and two leaves long, and about a power of two
            st.sampled_from(
                [1, 2, _LEAF_BASES - 1, _LEAF_BASES, _LEAF_BASES + 1, 2 * _LEAF_BASES + 1,
                 63, 64, 65]
            ),
            st.integers(0, 400),
        ),
    )
    def test_tree_equals_advancing_one_base_at_a_time(self, x, order, k, count):
        tree = HarmonicNumerators(x, order)
        rows = HarmonicNumerators(x, order)
        for _ in range(k):  # the run joins a state that is not empty
            tree.advance()
            rows.advance()
        growth = 1
        for _ in range(count):
            growth *= rows.advance()
        assert tree.advance(count) == growth
        assert (tree.x, tree.L, tree.numerators) == (rows.x, rows.L, rows.numerators)
        assert tree.advance() == rows.advance()  # both continue at the next base
        assert tree.values() == rows.values()

    def test_tree_rejects_a_negative_count(self):
        with pytest.raises(DomainError):
            HarmonicNumerators(0, 2).advance(-1)

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(7, 3), Fraction(-49, 100)]),
        st.integers(1, 12),
        st.lists(st.integers(0, 70), min_size=1, max_size=3),
    )
    def test_harmonic_function_equals_the_order_of_the_full_state(self, x, alpha, runs):
        # harmonic_function sums order alpha alone; the state carries orders 1..alpha
        full, taken = HarmonicNumerators(x, alpha), 0
        for count in runs:
            full.advance(count)
            taken += count  # the bases for n = 0..taken-1
            if taken:
                assert harmonic_function(taken - 1, x, alpha) == full.values()[alpha - 1]

    @pytest.mark.parametrize("order", [0, -1])
    def test_order_below_one_rejected_before_x(self, order):
        message = f"^harmonic rows require order >= 1, got order={order}$"
        with pytest.raises(DomainError, match=message):
            HarmonicNumerators(-1, order)


def _akiyama_tanigawa(n: int) -> list[Fraction]:
    """Independent route to the Bernoulli numbers ("second" kind: B1 = +1/2)."""
    row = [Fraction(0)] * (n + 1)
    out = []
    for m in range(n + 1):
        row[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        out.append(row[0])
    return out


class TestBernoulli:
    def test_table_is_a_plain_tuple_of_fractions(self):
        table = bernoulli_table(6)
        assert type(table) is tuple and len(table) == 7
        assert all(type(value) is Fraction for value in table)
        assert bernoulli_table(0) == (Fraction(1),)

    def test_negative_n_rejected(self):
        with pytest.raises(DomainError, match="requires N >= 0, got N=-1"):
            bernoulli_table(-1)

    def test_displayed_coefficients(self):
        table = bernoulli_table(8)
        assert table[1] == Fraction(-1, 2)
        assert table[2] == Fraction(1, 6)
        assert table[4] == Fraction(-1, 30)
        assert table[6] == Fraction(1, 42)
        assert table[8] == Fraction(-1, 30)

    def test_odd_indices_vanish(self):
        table = bernoulli_table(41)
        for k in range(1, 21):
            assert table[2 * k + 1] == 0

    def test_against_akiyama_tanigawa_oracle(self):
        table = bernoulli_table(24)
        oracle = _akiyama_tanigawa(24)
        for k, value in enumerate(table):
            expected = -oracle[k] if k == 1 else oracle[k]
            assert value == expected

    def test_defining_recurrence(self):
        table = bernoulli_table(30)
        for n in range(1, 30):
            total = sum(
                math.comb(n + 1, k) * table[k] for k in range(n + 1)
            )
            assert total == 0


class TestZetaEvenCoefficient:
    def test_displayed_values(self):
        assert zeta_even_coefficient(1) == Fraction(1, 6)
        assert zeta_even_coefficient(2) == Fraction(1, 90)
        assert zeta_even_coefficient(3) == Fraction(1, 945)
        assert zeta_even_coefficient(4) == Fraction(1, 9450)

    def test_always_positive(self):
        for n in range(1, 21):
            assert zeta_even_coefficient(n) > 0

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            zeta_even_coefficient(0)


class TestRationalText:
    def test_format(self):
        assert format_rational(Fraction(11, 6)) == "11/6"
        assert format_rational(Fraction(-1, 30)) == "-1/30"
        assert format_rational(Fraction(5)) == "5"

    def test_parse(self):
        assert parse_rational("11/6") == Fraction(11, 6)
        assert parse_rational("-1/30") == Fraction(-1, 30)
        assert parse_rational("5") == Fraction(5)

    @pytest.mark.parametrize(
        "bad", ["0.5", "1e3", "1/-2", " 1/2", "1/2 ", "a/b", "", "1/0", "-3/00"]
    )
    def test_rejects_non_canonical(self, bad):
        with pytest.raises(DomainError):
            parse_rational(bad)

    @given(st.fractions(max_denominator=10**9))
    def test_roundtrip(self, q):
        assert parse_rational(format_rational(q)) == q


@contextlib.contextmanager
def _unlimited_int_str():
    """str(int) with no digit limit, for the duration."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(before)


# the divide-and-conquer split halves the bit count down to _STR_BITS, so
# powers of 2 and 10 near multiples of it fall on the split boundaries
_BOUNDARY_BITS = [b + d for b in (_STR_BITS, 2 * _STR_BITS, 4 * _STR_BITS, 3 * _STR_BITS, 65536)
                  for d in (-1, 0, 1)]
_BOUNDARY_INTS = st.one_of(
    st.sampled_from(_BOUNDARY_BITS).flatmap(
        lambda b: st.sampled_from([2**b, 2**b - 1, 2**b + 1, 2 ** (b - 1)])
    ),
    st.sampled_from(_BOUNDARY_BITS).map(lambda b: int(b * math.log10(2))).flatmap(
        lambda d: st.sampled_from([10**d, 10**d - 1, 10**d + 1, 5 * 10**d])
    ),
)


class TestDecimalRendering:
    """format_rational against str, which needs the digit limit lifted past 4,300 digits."""

    @settings(max_examples=80, deadline=None)
    @given(
        st.one_of(
            _BOUNDARY_INTS,
            st.integers(0, 40_000).flatmap(lambda bits: st.integers(0, 2**bits)),
        ),
        st.sampled_from([1, -1]),
    )
    @example(0, 1)
    @example(10**200_000, -1)  # a few 10**5 digits
    @example(2**700_000 - 1, 1)
    @example(3**400_000, -1)
    def test_integer_text_equals_str(self, magnitude, sign):
        n = sign * magnitude
        with _unlimited_int_str():
            assert format_rational(n) == str(n)

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(-(2**30_000), 2**30_000),
        st.integers(1, 2**30_000),
    )
    @example(-(10**5000), 3**9000)
    def test_rational_text_equals_str(self, numerator, denominator):
        value = Fraction(numerator, denominator)
        with _unlimited_int_str():
            assert format_rational(value) == str(value)

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no int->str digit limit"
    )
    def test_renders_past_the_lowest_digit_limit_without_changing_it(self):
        before = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)  # the least limit Python accepts
        try:
            assert format_rational(Fraction(1, 10**5000)) == "1/1" + "0" * 5000
            assert format_rational(-(2**_STR_BITS)) == "-" + f"{2**_STR_BITS:d}"
            assert sys.get_int_max_str_digits() == 640
        finally:
            sys.set_int_max_str_digits(before)


@st.composite
def _smooth_quotients(draw):
    """(n, d, base) with every prime of d dividing base; n shares high powers of those primes."""
    primes = draw(st.lists(st.sampled_from([2, 3, 5, 7, 11, 101, 65537]), min_size=1,
                           max_size=5, unique=True))
    base = math.prod(p ** draw(st.integers(1, 3)) for p in primes)
    d = math.prod(p ** draw(st.integers(0, 400)) for p in primes)
    shared = math.prod(p ** draw(st.integers(0, 500)) for p in primes)
    n = draw(st.integers(-(10**60), 10**60)) * shared
    return n, d, base * draw(st.integers(1, 50))


class TestReducedFraction:
    @settings(max_examples=150, deadline=None)
    @given(_smooth_quotients(), st.booleans())
    @example((2**100 * 3**7 * 5, 2**64 * 3**30 * 7, 2 * 3 * 7), True)
    @example((0, 6**500, 6), True)
    @example((-(12**600) * 11, 2**2000 * 3**500, 6), False)
    def test_equals_fraction(self, quotient, every_size):
        # every_size takes the stripping loop even for small denominators
        n, d, base = quotient
        if every_size:
            harmonic_core._GCD_BITS = 0
        try:
            value = _reduced_fraction(n, d, base)
        finally:
            harmonic_core._GCD_BITS = _GCD_BITS
        expected = Fraction(n, d)
        assert (value.numerator, value.denominator) == (expected.numerator, expected.denominator)
        assert value == expected and hash(value) == hash(expected)

    @pytest.mark.parametrize("j", [1, 2, 5])
    def test_equals_fraction_over_a_power_of_an_lcm(self, j):
        # the shape the closed form and the Hurwitz sum meet: n/L**j, L = lcm(1..2000)
        L = math.lcm(*range(1, 2001))
        for n in (L**j // 7 + 1, 6**50 * (L + 1), -(L // 4) * 16**30 + 12**j):
            assert _reduced_fraction(n, L**j, L) == Fraction(n, L**j)


class TestCoprimeFraction:
    @given(st.integers(-(10**80), 10**80), st.integers(1, 10**80))
    def test_round_trips(self, numerator, denominator):
        g = math.gcd(numerator, denominator)
        numerator, denominator = numerator // g, denominator // g
        value = _coprime_fraction(numerator, denominator)
        expected = Fraction(numerator, denominator)
        assert type(value) is Fraction
        assert (value.numerator, value.denominator) == (numerator, denominator)
        assert value == expected and hash(value) == hash(expected)
        assert str(value) == str(expected)
        assert value + 0 == expected and value * 2 / 2 == expected
        assert Fraction(str(value)) == value
