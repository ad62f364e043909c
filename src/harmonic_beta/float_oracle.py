"""Independent floating-point cross-checks for the exact engine.

Two completely different computational paths: adaptive quadrature of the
log-moment integrals and Monte Carlo estimation of the r-dimensional cube
integral.  Neither touches the rational machinery, so agreement is a real
consistency check rather than a tautology.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np
from scipy import integrate

from .harmonic_core import DomainError, RationalLike

__all__ = [
    "QuadratureError",
    "QuadratureResult",
    "MonteCarloResult",
    "GENERATOR_ID",
    "log_moment_quadrature",
    "cube_monte_carlo",
]

#: Hard cap on integrand evaluations for one quadrature call.
EVALUATION_CAP = 1_000_000

#: Identity of the random source, recorded in reports for reproducibility.
GENERATOR_ID = "numpy-philox4x64"

_MC_BATCH = 1 << 17


class QuadratureError(RuntimeError):
    """Quadrature failed to converge within the evaluation cap."""


@dataclass(frozen=True)
class QuadratureResult:
    """Value plus the scheme's own error estimate (not a rigorous bound)."""

    value: float
    abs_error_estimate: float
    evaluations: int


class MonteCarloResult(NamedTuple):
    estimate: float
    stderr: float


def _exp_tail(upper: float, m: int, c: float) -> float:
    """integral_U^inf u**m e**(-c u) du, closed form via the factorial recurrence."""
    # e^{-cU} * sum_j (m!/j!) U^j / c^(m-j+1)
    total = 0.0
    coeff = 1.0  # m!/j! built downward from j = m
    for j in range(m, -1, -1):
        total += coeff * upper**j / c ** (m - j + 1)
        coeff *= j  # moving j -> j-1 multiplies by j
    return math.exp(-c * upper) * total


def log_moment_quadrature(n: int, m: int, x: RationalLike) -> QuadratureResult:
    """Numerically integrate (1-t)**n (log t)**m t**x over (0,1).

    The substitution t = e**(-u) removes the logarithmic endpoint
    singularity entirely, leaving (-1)**m times the smooth integral of
    (1-e**(-u))**n u**m e**(-(x+1)u) over [0, U].  U is grown until the
    analytic tail bound (with the (1-e**(-u))**n factor enveloped by 1)
    drops below 1e-14 of the accumulated value; the accumulated value only
    grows with U, so the relative target is conservative.
    """
    if n < 0:
        raise DomainError(f"log_moment_quadrature requires n >= 0, got n={n}")
    if m < 0:
        raise DomainError(f"log_moment_quadrature requires m >= 0, got m={m}")
    x = Fraction(x)
    if x <= -1:
        raise DomainError(f"log_moment_quadrature requires x > -1, got x={x}")
    c = float(x + 1)

    def integrand(u: float) -> float:
        decay = math.exp(-c * u)
        if n == 0:
            body = 1.0
        else:
            em = -math.expm1(-u)  # 1 - e^-u, accurate near 0
            body = em**n
        return body * u**m * decay

    evaluations = 0
    upper = (40.0 + 5.0 * m) / c
    value = 0.0
    abserr = 0.0
    for _ in range(64):
        quad_value, quad_err, info = integrate.quad(
            integrand, 0.0, upper, epsabs=1e-15, epsrel=1e-12, limit=400, full_output=True
        )[:3]
        evaluations += int(info["neval"])
        if evaluations > EVALUATION_CAP:
            raise QuadratureError(
                f"evaluation cap {EVALUATION_CAP} exceeded (n={n}, m={m}, x={x})"
            )
        value, abserr = quad_value, quad_err
        if _exp_tail(upper, m, c) <= 1e-14 * max(abs(value), 1e-300):
            break
        upper *= 1.5
    else:
        raise QuadratureError(
            f"tail target not reached within iteration budget (n={n}, m={m}, x={x})"
        )
    if abserr > 1e-8 * max(abs(value), 1.0):
        raise QuadratureError(
            f"error estimate {abserr:.3e} too large for value {value:.3e} "
            f"(n={n}, m={m}, x={x})"
        )
    signed = -value if m % 2 else value
    return QuadratureResult(
        value=signed, abs_error_estimate=abserr, evaluations=evaluations
    )


def _row_products(u: np.ndarray) -> np.ndarray:
    """u.prod(axis=1), bit for bit: the columns multiplied left to right,
    in place in one new array."""
    out = u[:, 0].copy()
    for j in range(1, u.shape[1]):
        out *= u[:, j]
    return out


def cube_monte_carlo(
    n: int, r: int, samples: int, seed: int
) -> MonteCarloResult:
    """Plain Monte Carlo for the r-cube integral of (1 - x_1*...*x_r)**n.

    Deterministic for a fixed (n, r, samples, seed): sampling is batched
    with a counter-based generator keyed by (seed, batch index), so batches
    could be evaluated concurrently without changing the stream.
    """
    if n < 0:
        raise DomainError(f"cube_monte_carlo requires n >= 0, got n={n}")
    if r < 1:
        raise DomainError(f"cube_monte_carlo requires r >= 1, got r={r}")
    if samples < 2:
        raise DomainError(f"cube_monte_carlo requires samples >= 2, got {samples}")

    entropy = seed & ((1 << 128) - 1)
    total = 0.0
    total_sq = 0.0
    done = 0
    batch = 0
    while done < samples:
        count = min(_MC_BATCH, samples - done)
        rng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(entropy=entropy, spawn_key=(batch,)))
        )
        u = rng.random((count, r))
        # in place, so no batch holds a second array of the products
        values = _row_products(u)
        np.subtract(1.0, values, out=values)
        values **= n
        total += float(values.sum())
        total_sq += float((values * values).sum())
        done += count
        batch += 1
    mean = total / samples
    variance = max(total_sq - samples * mean * mean, 0.0) / (samples - 1)
    stderr = math.sqrt(variance / samples)
    return MonteCarloResult(estimate=mean, stderr=stderr)
