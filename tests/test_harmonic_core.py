import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmonic_beta.harmonic_core import (
    _LEAF_BASES,
    DomainError,
    HarmonicNumerators,
    bernoulli_table,
    binomial,
    format_rational,
    harmonic_function,
    harmonic_number,
    parse_rational,
    zeta_even_coefficient,
)

x_values = st.fractions(
    min_value=Fraction(-9, 10), max_value=Fraction(5), max_denominator=30
)


class TestBinomial:
    def test_small_entries(self):
        assert binomial(5, 2) == 10
        assert binomial(7, 0) == 1
        assert binomial(4, 6) == 0
        assert binomial(3, -1) == 0

    def test_negative_n_rejected(self):
        with pytest.raises(DomainError):
            binomial(-1, 0)

    @given(st.integers(0, 80), st.integers(-5, 85))
    def test_matches_math_comb(self, n, k):
        expected = math.comb(n, k) if 0 <= k <= n else 0
        assert binomial(n, k) == expected

    @given(st.integers(1, 60), st.integers(0, 60))
    def test_pascal_recurrence(self, n, k):
        assert binomial(n, k) == binomial(n - 1, k) + binomial(n - 1, k - 1)


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
            assert values[alpha - 1] == harmonic_function(n, x, alpha)


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
            expected = tuple(harmonic_function(k, x, a) for a in range(1, order + 1))
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
        for k, value in enumerate(table.values):
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
