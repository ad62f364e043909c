import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from harmonic_beta import float_oracle
from harmonic_beta.beta_engine import derivative_F
from harmonic_beta.cli import run
from harmonic_beta.float_oracle import (
    _gauss_kronrod,
    _row_products,
    EVALUATION_CAP,
    QuadratureError,
    cube_monte_carlo,
    log_moment_quadrature,
)
from harmonic_beta.harmonic_core import DomainError
from harmonic_beta.series_lab import multi_integral_exact


class TestGaussKronrod:
    def test_exact_on_polynomials(self):
        # K15 integrates degree <= 22 exactly and G7 degree <= 13, so one
        # round settles every interval of the quartered graded mesh
        for k in range(14):
            value, abserr, evaluations = _gauss_kronrod(lambda u: u**k, 5.0, 10**6)
            assert math.isclose(value, 5.0 ** (k + 1) / (k + 1), rel_tol=1e-13)
            assert abserr <= 1e-13 * value
            assert evaluations == 15 * 16  # [0, 1], [1, 2], [2, 4], [4, 5], each in quarters

    def test_bisects_a_narrow_peak(self):
        peak = lambda u: np.exp(-100 * (u - 30.0) ** 2)
        value, _, evaluations = _gauss_kronrod(peak, 64.0, 10**6)
        assert math.isclose(value, math.sqrt(math.pi) / 10, rel_tol=1e-12)
        assert evaluations > 15 * 7

    def test_budget_exhausted_returns_none(self):
        assert _gauss_kronrod(lambda u: np.exp(-100 * (u - 30.0) ** 2), 64.0, 200) is None

    def test_non_finite_ends_the_integration(self):
        value, abserr, evaluations = _gauss_kronrod(lambda u: np.full_like(u, np.inf), 1.0, 10**6)
        assert not math.isfinite(abserr) and evaluations == 15 * 4


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

    def test_settles_in_one_round_on_the_quartered_mesh(self):
        # U = (40 + 5 * 8) / (10 / 3) = 24: [0, 1], [1, 2], [2, 4], [4, 8],
        # [8, 16], [16, 24], each in quarters, and no bisection or tail growth
        assert log_moment_quadrature(40, 8, Fraction(7, 3)).evaluations == 6 * 4 * 15

    def test_result_metadata(self):
        result = log_moment_quadrature(4, 2, Fraction(1, 2))
        assert result.abs_error_estimate >= 0.0
        assert 0 < result.evaluations <= EVALUATION_CAP

    # x close to -1 (slow decay), large x (a narrow peak near u = 0) and large n
    @pytest.mark.parametrize(
        "x", [Fraction(-999, 1000), Fraction(-49, 100), Fraction(0), Fraction(7, 3),
              Fraction(100), Fraction(1000)]
    )
    def test_relative_accuracy_off_the_benchmark_grid(self, x):
        for n in (0, 1, 5, 40, 200):
            for m in range(9):
                exact = float(derivative_F(n, x, m))
                got = log_moment_quadrature(n, m, x).value
                assert abs(got - exact) <= 1e-9 * abs(exact), (n, m, x)

    def test_value_near_the_top_of_the_float_range(self, capsys):
        # F_0^(30)(x) = 30!/(x+1)**31 is about 2.65e280 here, a float, although
        # u**30 on the grown cut-offs and the tail's U**j/c**(31-j) are not
        x = Fraction(-99999999, 100000000)
        assert run(["oracle", "quad", "--n", "0", "--m", "30", f"--x={x}"]) == 0
        value = json.loads(capsys.readouterr().out)["oracle"]["value"]
        exact = float(derivative_F(0, x, 30))
        assert abs(value - exact) <= 1e-9 * abs(exact)

    def test_value_inside_the_float_range_is_not_refused(self, capsys):
        # F_0^(20)(x) = 20!/(x+1)**21 is about 2.43e270, inside the float range,
        # so neither oracle quad refusal applies
        x = Fraction(-999999999999, 1000000000000)
        assert run(["oracle", "quad", "--n", "0", "--m", "20", f"--x={x}"]) == 0
        assert json.loads(capsys.readouterr().out)["status"] == "pass"

    def test_evaluation_cap_raises(self, monkeypatch, capsys):
        monkeypatch.setattr(float_oracle, "EVALUATION_CAP", 100)
        with pytest.raises(QuadratureError, match="evaluation cap 100 exceeded"):
            log_moment_quadrature(2, 1, 0)
        self._assert_cli_check_fails(capsys, "evaluation cap 100 exceeded")

    def test_tail_budget_raises(self, monkeypatch, capsys):
        monkeypatch.setattr(float_oracle, "_exp_tail", lambda upper, m, c: math.inf)
        with pytest.raises(QuadratureError, match="tail target not reached"):
            log_moment_quadrature(2, 1, 0)
        self._assert_cli_check_fails(capsys, "tail target not reached")

    def test_error_estimate_check_raises(self, monkeypatch, capsys):
        # with no round tolerance the first, unrefined round is final
        monkeypatch.setattr(float_oracle, "_ROUND_RTOL", math.inf)
        with pytest.raises(QuadratureError, match="too large for value"):
            log_moment_quadrature(2, 1, 100)
        self._assert_cli_check_fails(capsys, "error estimate", "100")

    def test_cut_off_overflow_raises(self, capsys):
        # x + 1 = 1e-320 is subnormal, so the first cut-off 40/(x+1) is inf
        x = Fraction(1, 10**320) - 1
        with pytest.raises(QuadratureError, match="cut-off overflows"):
            log_moment_quadrature(1, 0, x)
        self._assert_cli_check_fails(capsys, "cut-off overflows", f"{x}")

    @staticmethod
    def _assert_cli_check_fails(capsys, message, x="0"):
        assert run(["oracle", "quad", "--n", "2", "--m", "1", f"--x={x}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"check failed: {message}")
        assert captured.err.count("\n") == 1

    def test_domain(self):
        with pytest.raises(DomainError):
            log_moment_quadrature(1, 1, -1)
        with pytest.raises(DomainError):
            log_moment_quadrature(-1, 1, 0)
        with pytest.raises(DomainError):
            log_moment_quadrature(1, -1, 0)
        with pytest.raises(DomainError, match="requires an integral within the float range"):
            log_moment_quadrature(0, 30, Fraction(-9999999999, 10000000000))


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

    @pytest.mark.parametrize(
        "n,r,samples",
        [(3, 1, 3 * 8192 + 5), (2, 10, 8192 - 1), (4, 10, (1 << 17) + 8192 + 3)],
    )
    def test_blocked_draws_equal_whole_batch_draws(self, n, r, samples):
        # each batch drawn and multiplied in one piece, as with no fixed buffers
        seed, size = 2024, float_oracle._MC_BATCH
        total = total_sq = 0.0
        for batch, start in enumerate(range(0, samples, size)):
            rng = np.random.Generator(
                np.random.SFC64(np.random.SeedSequence(entropy=seed, spawn_key=(batch,)))
            )
            values = (1.0 - rng.random((min(size, samples - start), r)).prod(axis=1)) ** n
            total += float(values.sum())
            total_sq += float((values * values).sum())
        mean = total / samples
        variance = max(total_sq - samples * mean * mean, 0.0) / (samples - 1)
        expected = (mean, math.sqrt(variance / samples))
        assert tuple(cube_monte_carlo(n, r, samples, seed)) == expected

    @settings(max_examples=80, deadline=None)
    @given(
        u=st.integers(1, 8).flatmap(
            lambda r: st.one_of(
                # batches as cube_monte_carlo draws them, and arbitrary [0, 1) values
                st.tuples(st.integers(1, 5000), st.integers(0, 2**32)).map(
                    lambda rows_seed: np.random.Generator(
                        np.random.SFC64(rows_seed[1])
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
        assert np.array_equal(_row_products(u, np.empty(len(u))), u.prod(axis=1))
