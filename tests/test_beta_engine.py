import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from harmonic_beta import beta_engine
from harmonic_beta.beta_engine import (
    _bell_values,
    alt_power_row,
    alt_power_sum,
    bell_expansion,
    beta_F,
    derivative_F,
    derivative_rows,
    mixed_sum,
)
from harmonic_beta.harmonic_core import DomainError, HarmonicNumerators
from harmonic_beta.reporting import render_bell

from references import direct_harmonic_function, evaluate

x_values = st.fractions(
    min_value=Fraction(-9, 10), max_value=Fraction(4), max_denominator=24
)

X_SAMPLES = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(7, 3), Fraction(-49, 100))


def _partitions(r, largest=None):
    """Every partition of r as a tuple of parts, largest first."""
    if r == 0:
        yield ()
        return
    for part in range(min(r, largest or r), 0, -1):
        for rest in _partitions(r - part, part):
            yield (part, *rest)


def _cycle_index(r):
    """G_r by h_r = sum(p_lambda/z_lambda) over the partitions lambda of r
    (Macdonald, Symmetric Functions and Hall Polynomials, ch. I): the monomial
    with e_a parts a has coefficient r!/z_lambda, z_lambda = prod(a**e_a * e_a!)."""
    out = {}
    for parts in _partitions(r):
        exponents = tuple(parts.count(a) for a in range(1, r + 1))
        z = math.prod(a**e * math.factorial(e) for a, e in enumerate(exponents, 1))
        out[exponents] = math.factorial(r) // z
    return out


class TestBetaF:
    def test_x_zero_telescopes(self):
        for n in range(12):
            assert beta_F(n, 0) == Fraction(1, n + 1)

    def test_half(self):
        assert beta_F(1, Fraction(1, 2)) == Fraction(4, 15)

    def test_value_positive(self):
        assert beta_F(3, 0) == Fraction(1, 4)
        assert beta_F(6, Fraction(7, 3)) > 0

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 120), x_values)
    def test_matches_fraction_product_loop(self, n, x):
        # the reference: n+1 reducing Fraction products
        denom = Fraction(1)
        for k in range(n + 1):
            denom *= x + k + 1
        assert beta_F(n, x) == Fraction(math.factorial(n)) / denom

    def test_domain(self):
        with pytest.raises(DomainError):
            beta_F(2, -1)
        with pytest.raises(DomainError):
            beta_F(2, Fraction(-101, 100))


class TestBetaFSum:
    # F_n(x) as the alternating binomial sum alt_power_sum(n, x, 1)
    def test_direct_arithmetic(self):
        assert alt_power_sum(2, 0, 1) == 1 - Fraction(2, 2) + Fraction(1, 3)

    def test_single_term(self):
        x = Fraction(3, 7)
        assert alt_power_sum(0, x, 1) == 1 / (x + 1)

    def test_agrees_with_product_both_routes(self):
        # both sides computed independently at a non-trivial point
        x = Fraction(1, 2)
        product = Fraction(math.factorial(5))
        for k in range(6):
            product /= x + k + 1
        assert alt_power_sum(5, x, 1) == product == beta_F(5, x)

    @given(st.integers(0, 60), x_values)
    def test_product_sum_agreement(self, n, x):
        assert beta_F(n, x) == alt_power_sum(n, x, 1)

    def test_product_sum_agreement_full_sweep(self):
        for n in range(61):
            for x in X_SAMPLES:
                assert beta_F(n, x) == alt_power_sum(n, x, 1)


class TestAltPowerSum:
    def test_direct_summation_oracle(self):
        # independent oracle: expand the three terms by hand
        expected = 1 - Fraction(1, 2) + Fraction(1, 9)
        assert alt_power_sum(2, 0, 2) == expected == Fraction(11, 18)

    def test_r_one_is_beta(self):
        for n in range(8):
            for x in X_SAMPLES:
                assert alt_power_sum(n, x, 1) == beta_F(n, x)

    def test_single_term(self):
        assert alt_power_sum(0, 0, 5) == 1

    @given(st.integers(0, 40), x_values, st.integers(1, 6))
    def test_positive(self, n, x, r):
        assert alt_power_sum(n, x, r) > 0

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 60),
        st.integers(1, 10**6).flatmap(
            lambda q: st.tuples(st.integers(-q + 1, 4 * q), st.just(q))
        ),
        st.integers(1, 8),
    )
    def test_matches_direct_binomial_sum(self, n, pq, r):
        x = Fraction(*pq)
        direct = sum(
            (Fraction((-1) ** k * math.comb(n, k)) / (x + k + 1) ** r for k in range(n + 1)),
            Fraction(0),
        )
        assert alt_power_sum(n, x, r) == direct

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 60),
        st.integers(1, 10**6).flatmap(
            lambda q: st.tuples(st.integers(-q + 1, 4 * q), st.just(q))
        ),
        st.integers(1, 9),
    )
    @example(0, (7, 3), 9)
    @example(0, (-999999, 1000000), 1)
    @example(40, (-999999, 1000000), 9)
    def test_row_matches_naive_sums_and_point_calls(self, n_max, pq, s):
        # one D and one power table for the row; each entry on its own route
        x = Fraction(*pq)
        row = alt_power_row(n_max, x, s)
        assert len(row) == n_max + 1
        for n, value in enumerate(row):
            naive = sum(
                (Fraction((-1) ** k * math.comb(n, k)) / (x + k + 1) ** s for k in range(n + 1)),
                Fraction(0),
            )
            assert value == naive == alt_power_sum(n, x, s)
        assert alt_power_row(n_max, x, s, first=n_max) == row[-1:]

    @pytest.mark.parametrize(
        "args", [(-1, 0, 1), (3, 0, 0), (3, Fraction(-1), 2), (2, 0, 1, 3), (2, 0, 1, -1)]
    )
    def test_row_refuses_bad_input(self, args):
        with pytest.raises(DomainError):
            alt_power_row(*args)


class TestBellExpansion:
    def test_order_zero_is_constant_one(self):
        assert dict(bell_expansion(0)) == {(): 1}
        assert evaluate(bell_expansion(0), []) == 1

    def test_order_two(self):
        assert dict(bell_expansion(2)) == {(0, 1): 1, (2, 0): 1}

    def test_order_three(self):
        assert dict(bell_expansion(3)) == {
            (0, 0, 1): 2,
            (1, 1, 0): 3,
            (3, 0, 0): 1,
        }

    def test_order_four(self):
        assert dict(bell_expansion(4)) == {
            (0, 0, 0, 1): 6,
            (1, 0, 1, 0): 8,
            (0, 2, 0, 0): 3,
            (2, 1, 0, 0): 6,
            (4, 0, 0, 0): 1,
        }

    def test_grading_and_coefficient_sum(self):
        for r in range(13):
            terms = bell_expansion(r)
            for exponents, coeff in terms.items():
                assert coeff > 0
                assert sum((i + 1) * e for i, e in enumerate(exponents)) == r
            assert sum(terms.values()) == math.factorial(r)

    def test_every_coefficient_is_the_cycle_index(self):
        # the cycle index has a monomial for every partition of r, so this
        # pins the whole of G_r: no monomial missing or extra
        for r in range(31):
            assert dict(bell_expansion(r)) == _cycle_index(r)

    def test_terms_are_read_only(self, monkeypatch):
        # a cache of G_0..G_3 alone, so G_4 is built from G_3 after the writes
        cache = {r: bell_expansion(r) for r in range(4)}
        monkeypatch.setattr(beta_engine, "_expansion_cache", cache)
        with pytest.raises(TypeError):
            bell_expansion(3)[(0, 0, 1)] = 5
        with pytest.raises(TypeError):
            del bell_expansion(3)[(0, 0, 1)]
        assert dict(bell_expansion(3)) == _cycle_index(3)
        assert dict(bell_expansion(4)) == _cycle_index(4)

    def test_text_form(self):
        assert render_bell(0, bell_expansion(0), "text") == "1\n"
        assert render_bell(2, bell_expansion(2), "text") == "h2 + h1^2\n"
        assert render_bell(3, bell_expansion(3), "text") == "2*h3 + 3*h1*h2 + h1^3\n"
        assert (
            render_bell(4, bell_expansion(4), "text")
            == "6*h4 + 8*h1*h3 + 3*h2^2 + 6*h1^2*h2 + h1^4\n"
        )
        assert render_bell(0, {}, "text") == "0\n"

    def test_text_is_stable(self):
        text = render_bell(5, bell_expansion(5), "text")
        assert render_bell(5, bell_expansion(5), "text") == text

    def test_json_form(self):
        assert render_bell(2, bell_expansion(2), "json") == (
            '{"order": 2, "terms": [{"monomial": [0, 1], "coefficient": 1}, '
            '{"monomial": [2, 0], "coefficient": 1}], "text": "h2 + h1^2"}\n'
        )
        assert render_bell(0, {}, "json") == '{"order": 0, "terms": [], "text": "0"}\n'

    def test_matches_complete_bell_recurrence_oracle(self):
        # independent symbolic route using the classic recurrence
        # B_{m+1} = sum_k C(m,k) B_{m-k} x_{k+1}, with x_a = (a-1)! h_a
        for r in range(9):
            assert _complete_bell_poly(r) == dict(bell_expansion(r))

    def test_cache_returns_same_object(self):
        assert bell_expansion(6) is bell_expansion(6)


def _poly_mul(a: dict, b: dict, size: int) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(
                (ea[i] if i < len(ea) else 0) + (eb[i] if i < len(eb) else 0)
                for i in range(size)
            )
            out[key] = out.get(key, 0) + ca * cb
    return out


def _poly_add_into(target: dict, other: dict, factor: int, size: int) -> None:
    for e, c in other.items():
        key = tuple(e[i] if i < len(e) else 0 for i in range(size))
        target[key] = target.get(key, 0) + factor * c
        if target[key] == 0:
            del target[key]


def _complete_bell_poly(r: int) -> dict:
    """G_r via the complete-Bell recurrence on arguments (a-1)! h_a."""
    polys = [{(): 1}]
    for m in range(r):
        nxt: dict = {}
        for k in range(m + 1):
            gen = {tuple(1 if i == k else 0 for i in range(m + 1)): math.factorial(k)}
            product = _poly_mul(polys[m - k], gen, m + 1)
            _poly_add_into(nxt, product, math.comb(m, k), m + 1)
        polys.append(nxt)
    result = {
        tuple(e[i] if i < len(e) else 0 for i in range(r)): c
        for e, c in polys[r].items()
    }
    return result


class TestDerivativeF:
    def test_order_zero(self):
        for n in range(6):
            for x in X_SAMPLES:
                assert derivative_F(n, x, 0) == beta_F(n, x)

    def test_simple_pole_derivatives(self):
        # F_0(x) = 1/(x+1), so the r-th derivative at 0 is (-1)^r r!
        for r in range(10):
            expected = math.factorial(r) * (-1 if r % 2 else 1)
            assert derivative_F(0, 0, r) == expected

    def test_first_derivative_log_form(self):
        for n in range(8):
            for x in X_SAMPLES:
                expected = -direct_harmonic_function(n, x, 1) * beta_F(n, x)
                assert derivative_F(n, x, 1) == expected

    @given(st.integers(0, 25), x_values, st.integers(0, 6))
    def test_closure_against_alternating_sum(self, n, x, r):
        rhs = math.factorial(r) * alt_power_sum(n, x, r + 1)
        if r % 2:
            rhs = -rhs
        assert derivative_F(n, x, r) == rhs

    @given(st.integers(0, 20), x_values, st.integers(0, 8))
    def test_sign_pattern(self, n, x, r):
        value = derivative_F(n, x, r)
        assert (value > 0) == (r % 2 == 0)

    def test_finite_difference_sanity(self):
        h = Fraction(1, 10**6)
        for n, x in [(2, Fraction(0)), (5, Fraction(1, 2)), (8, Fraction(7, 3))]:
            fd = float((beta_F(n, x + h) - beta_F(n, x)) / h)
            exact = float(derivative_F(n, x, 1))
            assert abs(fd - exact) / abs(exact) <= 1e-4

    def test_bell_route_equals_vector_evaluation(self):
        n, x, r = 7, Fraction(1, 2), 5
        expansion = bell_expansion(r)
        rows = HarmonicNumerators(x, r)
        rows.advance(n + 1)
        expected = -evaluate(expansion, rows.values()) * beta_F(n, x)
        assert derivative_F(n, x, r) == expected


@st.composite
def _shifts(draw):
    """x = p/q > -1 with q up to 10**6."""
    q = draw(st.integers(1, 10**6))
    return Fraction(draw(st.integers(-q + 1, 4 * q)), q)


class TestIntegerBellEvaluation:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(0, 40), x=_shifts(), r=st.integers(0, 8))
    def test_integer_route_equals_fraction_evaluation(self, n, x, r):
        # G_r(H) = (q/L)**r * G_r(N) on the integer numerators; the reference
        # substitutes the Fraction values of direct sums into G_r
        harmonics = [direct_harmonic_function(n, x, a) for a in range(1, r + 1)]
        expected = evaluate(bell_expansion(r), harmonics) * beta_F(n, x)
        expected = -expected if r % 2 else expected
        assert derivative_F(n, x, r) == expected
        assert derivative_rows(n, x, r)[n][1][r] == expected

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 12).flatmap(
            lambda k: st.tuples(
                st.just(k),
                st.lists(
                    st.one_of(st.just(0), st.integers(-(10**12), 10**12)),
                    min_size=k,
                    max_size=k,
                ),
            )
        )
    )
    def test_bell_recurrence_equals_the_step_polynomial(self, case):
        k, numerators = case
        values = _bell_values(numerators, k)
        assert values == [evaluate(bell_expansion(j), numerators) for j in range(k + 1)]

    @pytest.mark.parametrize(
        "numerators",
        [[1] * 30, [0] * 29 + [7], [(-3) ** a * (a + 5) for a in range(30)]],
    )
    def test_bell_recurrence_at_order_30(self, numerators):
        assert _bell_values(numerators, 30)[30] == evaluate(bell_expansion(30), numerators)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 19),
        st.lists(st.lists(st.integers(0, 3), min_size=19, max_size=19), min_size=1, max_size=5),
    )
    # all ones gives G_j = j!, exact up to 18!; h_19 alone meets the largest
    # coefficient, 18!, at G_19 = 18! * h_19
    @example(19, [[1] * 19])
    @example(19, [[0] * 18 + [1], [1] + [0] * 17 + [1], [2] + [0] * 18])
    def test_float_arrays_of_small_integers_give_the_integer_values(self, k, points):
        # one evaluator serves both modes: on binary64 arrays the recurrence
        # is exact while every G_j is an integer below 2**53
        import numpy as np

        h = [np.array(column, dtype=np.float64) for column in zip(*points)]
        floats = _bell_values(h, k)
        ints = [_bell_values(point, k) for point in points]
        for j in range(k + 1):
            expected = [values[j] for values in ints]
            if max(expected) >= 2**53:
                break
            assert np.broadcast_to(floats[j], len(points)).tolist() == expected


def _mixed_sum_per_term(harmonics, derivatives, r):
    """The reference: r+1 reducing Fraction terms, summed one by one."""
    acc = Fraction(0)
    fact_l = 1
    for l in range(r + 1):
        term = math.comb(r, l) * fact_l * harmonics[l] * derivatives[r - l]
        acc += -term if l % 2 else term
        fact_l *= l + 1
    result = acc / math.factorial(r + 1)
    return -result if r % 2 else result


class TestMixedSum:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 40), x_values, st.integers(0, 8))
    def test_matches_per_term_sum(self, n, x, r):
        harmonics, derivatives = derivative_rows(n, x, r)[n]
        assert mixed_sum(harmonics, derivatives, r) == _mixed_sum_per_term(
            harmonics, derivatives, r
        )

    def test_matches_per_term_sum_on_arbitrary_rationals(self):
        # not a derivative row: denominators that share no structure
        harmonics = [Fraction(3, 7), Fraction(-5, 12), Fraction(11, 9), Fraction(2, 1)]
        derivatives = [Fraction(-1, 6), Fraction(7, 10), Fraction(4, 15), Fraction(-9, 14)]
        for r in range(4):
            assert mixed_sum(harmonics, derivatives, r) == _mixed_sum_per_term(
                harmonics, derivatives, r
            )
