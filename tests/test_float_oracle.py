import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from harmonic_beta.beta_engine import derivative_F
from harmonic_beta.float_oracle import (
    _row_products,
    EVALUATION_CAP,
    cube_monte_carlo,
    log_moment_quadrature,
)
from harmonic_beta.harmonic_core import DomainError
from harmonic_beta.series_lab import multi_integral_exact


class TestLogMomentQuadrature:
    def test_elementary_antiderivative(self):
        # integral of log t over (0,1) is -1
        result = log_moment_quadrature(0, 1, 0)
        assert abs(result.value - (-1.0)) <= 1e-12

    def test_power_integral(self):
        for x in (Fraction(0), Fraction(1, 2), Fraction(7, 3)):
            result = log_moment_quadrature(0, 0, x)
            assert abs(result.value - 1.0 / float(x + 1)) <= 1e-12

    def test_matches_exact_engine(self):
        expected = float(derivative_F(2, 0, 2))
        result = log_moment_quadrature(2, 2, 0)
        assert abs(result.value - expected) / abs(expected) <= 1e-10

    def test_sign_pattern(self):
        for m in range(5):
            value = log_moment_quadrature(3, m, Fraction(1, 2)).value
            assert (value > 0) == (m % 2 == 0)

    def test_agreement_sample_grid(self):
        for n in (0, 5, 13):
            for m in (0, 1, 3):
                for x in (Fraction(0), Fraction(1, 2)):
                    exact = float(derivative_F(n, x, m))
                    got = log_moment_quadrature(n, m, x).value
                    assert abs(got - exact) / abs(exact) <= 1e-9

    def test_result_metadata(self):
        result = log_moment_quadrature(4, 2, Fraction(1, 2))
        assert result.abs_error_estimate >= 0.0
        assert 0 < result.evaluations <= EVALUATION_CAP

    def test_domain(self):
        with pytest.raises(DomainError):
            log_moment_quadrature(1, 1, -1)
        with pytest.raises(DomainError):
            log_moment_quadrature(-1, 1, 0)
        with pytest.raises(DomainError):
            log_moment_quadrature(1, -1, 0)


class TestCubeMonteCarlo:
    def test_constant_integrand_exact(self):
        result = cube_monte_carlo(0, 3, 1000, 123)
        assert result.estimate == 1.0
        assert result.stderr == 0.0

    def test_seeded_determinism(self):
        a = cube_monte_carlo(5, 3, 200_000, 7)
        b = cube_monte_carlo(5, 3, 200_000, 7)
        assert a.estimate == b.estimate
        assert a.stderr == b.stderr

    def test_different_seeds_differ(self):
        a = cube_monte_carlo(1, 2, 50_000, 1)
        b = cube_monte_carlo(1, 2, 50_000, 2)
        assert a.estimate != b.estimate

    def test_within_four_stderr_of_exact(self):
        cases = [(1, 2, 42), (3, 2, 11), (5, 3, 7)]
        for n, r, seed in cases:
            exact = float(multi_integral_exact(n, r))
            result = cube_monte_carlo(n, r, 400_000, seed)
            assert abs(result.estimate - exact) <= 4 * result.stderr

    def test_negative_seed_accepted(self):
        result = cube_monte_carlo(1, 2, 1000, -99)
        assert 0.0 < result.estimate < 1.0

    def test_sample_floor(self):
        with pytest.raises(DomainError):
            cube_monte_carlo(1, 2, 1, 0)

    def test_batch_boundary_consistency(self):
        # crossing the internal batch size must not break determinism
        big = (1 << 17) + 17
        a = cube_monte_carlo(2, 2, big, 5)
        b = cube_monte_carlo(2, 2, big, 5)
        assert a == b

    @settings(max_examples=80, deadline=None)
    @given(
        u=st.integers(1, 8).flatmap(
            lambda r: st.one_of(
                # batches as cube_monte_carlo draws them, and arbitrary [0, 1) values
                st.tuples(st.integers(1, 5000), st.integers(0, 2**32)).map(
                    lambda rows_seed: np.random.Generator(
                        np.random.Philox(rows_seed[1])
                    ).random((rows_seed[0], r))
                ),
                hnp.arrays(
                    np.float64,
                    st.tuples(st.integers(1, 300), st.just(r)),
                    elements=st.floats(0.0, 1.0, exclude_max=True),
                ),
            )
        )
    )
    def test_row_products_match_numpy_prod(self, u):
        assert np.array_equal(_row_products(u), u.prod(axis=1))
