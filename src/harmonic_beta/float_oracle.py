"""Independent floating-point cross-checks for the exact engine.

Two completely different computational paths: adaptive quadrature of the
log-moment integrals and Monte Carlo estimation of the r-dimensional cube
integral.  Neither touches the rational machinery, so agreement is a real
consistency check rather than a tautology.

Both run in binary64 on numpy arrays.  numpy is imported by the functions
that use it, on their first call, so importing this module (as the CLI does
at start-up) does not load it.
"""

from __future__ import annotations

import functools
import math
from typing import TYPE_CHECKING, Callable, NamedTuple

from .harmonic_core import DomainError, RationalLike, _check_shift

if TYPE_CHECKING:
    import numpy as np

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
GENERATOR_ID = "numpy-sfc64"

_MC_BATCH = 1 << 17
#: Rows of uniforms drawn at once within a batch.
_MC_BLOCK = 8192


class QuadratureError(RuntimeError):
    """Quadrature failed to converge within the evaluation cap."""


class QuadratureResult(NamedTuple):
    """Value plus the scheme's own error estimate (not a rigorous bound)."""

    value: float
    abs_error_estimate: float
    evaluations: int


class MonteCarloResult(NamedTuple):
    estimate: float
    stderr: float


def _exp_tail(upper: float, m: int, c: float) -> float:
    """integral_U^inf u**m e**(-c u) du = sum_j e**(-cU) (m!/j!) U**j / c**(m-j+1).

    Each term is formed from its logarithm, so no power of U or c leaves the
    float range on its own; a term past that range makes the tail inf.
    """
    log_u, log_c = math.log(upper), math.log(c)
    total = 0.0
    for j in range(m + 1):
        log_term = math.lgamma(m + 1) - math.lgamma(j + 1) + j * log_u
        log_term -= (m - j + 1) * log_c + c * upper
        total += math.exp(log_term) if log_term < 709.0 else math.inf  # e**709 < 2**1024
    return total


# QUADPACK's qk15 rule (Piessens, de Doncker-Kapenga, Ueberhuber and Kahaner,
# "QUADPACK: A Subroutine Package for Automatic Integration", 1983): the 15
# Kronrod nodes on [-1, 1] with their weights, and the weights of the 7-point
# Gauss rule whose nodes are every other Kronrod node, _KRONROD_NODES[1::2].
# Plain tuples, so importing this module does not load numpy.
_KRONROD_NODES = (
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144838258730, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.000000000000000000000000000000000,
    -0.207784955007898467600689403773245, -0.405845151377397166906606412076961,
    -0.586087235467691130294144838258730, -0.741531185599394439863864773280788,
    -0.864864423359769072789712788640926, -0.949107912342758524526189684047851,
    -0.991455371120812639206854697526329,
)
_KRONROD_WEIGHTS = (
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
    0.204432940075298892414161999234649, 0.190350578064785409913256402421014,
    0.169004726639267902826583426598550, 0.140653259715525918745189590510238,
    0.104790010322250183839876322541518, 0.063092092629978553290700663189204,
    0.022935322010529224963732008058970,
)
_GAUSS_WEIGHTS = (
    0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
    0.381830050505118944950369775488975, 0.417959183673469387755102040816327,
    0.381830050505118944950369775488975, 0.279705391489276667901467771423780,
    0.129484966168869693270611432679082,
)

#: A bisection round ends the integration once sum(|K15 - G7|) over all
#: intervals is at most this share of |value|.
_ROUND_RTOL = 1e-13

#: Where each interval of the graded first mesh is cut, as shares of its width.
_QUARTERS = (0.0, 0.25, 0.5, 0.75)


@functools.cache
def _rule_arrays() -> tuple[np.ndarray, np.ndarray]:
    """The Kronrod nodes and a (15, 2) weight matrix, made once: a (k, 15)
    array of values times it gives K15 and K15 - G7 on each interval."""
    import numpy as np

    gauss = np.zeros(len(_KRONROD_NODES))
    gauss[1::2] = _GAUSS_WEIGHTS
    kronrod = np.array(_KRONROD_WEIGHTS)
    return np.array(_KRONROD_NODES), np.stack([kronrod, kronrod - gauss], axis=1)


def _gauss_kronrod(
    f: Callable[[np.ndarray], np.ndarray], upper: float, budget: int
) -> tuple[float, float, int] | None:
    """integral_0^upper f(u) du by adaptive G7/K15 over all intervals at once.

    The first mesh is graded, [0, 1], [1, 2], [2, 4], ... up to ``upper``,
    with each of those intervals split into four equal parts: on the
    log-moment integrand one round over the quarters reaches _ROUND_RTOL in
    nearly every call, which the graded intervals alone do not, and the
    bisection stays for integrands on which one round does not.  Each round
    evaluates K15 and K15 - G7 on every pending interval from one call of
    ``f`` on a (k, 15) array and one product with the rule's (15, 2)
    weights.  It ends the integration when the summed |K15 - G7| is within
    _ROUND_RTOL of |value|, or when the value is not finite; otherwise
    intervals whose error fits their length's share of that tolerance are
    settled and the rest are bisected.  Returns (value, summed |K15 - G7|,
    evaluations), or None if the next round would take the evaluations past
    ``budget``.
    """
    import numpy as np

    nodes, weights = _rule_arrays()
    edges, step = [0.0], 1.0
    while step < upper:
        edges.append(step)
        step *= 2
    edges.append(upper)
    points = [a + (b - a) * share for a, b in zip(edges, edges[1:]) for share in _QUARTERS]
    points.append(upper)
    mesh = np.array(points)
    left, right = mesh[:-1], mesh[1:]
    settled_value = settled_error = 0.0
    evaluations = 0
    while True:
        evaluations += left.size * nodes.size
        if evaluations > budget:
            return None
        centre, half = 0.5 * (left + right), 0.5 * (right - left)
        # an overflow leaves a non-finite error, which ends the integration
        with np.errstate(over="ignore", invalid="ignore"):
            sums = half[:, None] * (f(centre[:, None] + half[:, None] * nodes) @ weights)
        kronrod, error = sums[:, 0], np.abs(sums[:, 1])
        value = settled_value + float(kronrod.sum())
        abserr = settled_error + float(error.sum())
        tolerance = _ROUND_RTOL * abs(value)
        if abserr <= tolerance or not math.isfinite(abserr):
            return value, abserr, evaluations
        fits = error <= tolerance * (right - left) / upper
        settled_value += float(kronrod[fits].sum())
        settled_error += float(error[fits].sum())
        split = ~fits
        left, right = (
            np.concatenate([left[split], centre[split]]),
            np.concatenate([centre[split], right[split]]),
        )


def log_moment_quadrature(n: int, m: int, x: RationalLike) -> QuadratureResult:
    """Numerically integrate (1-t)**n (log t)**m t**x over (0,1).

    The substitution t = e**(-u) removes the logarithmic endpoint
    singularity entirely, leaving (-1)**m times the smooth integral of
    (1-e**(-u))**n u**m e**(-(x+1)u) over [0, U], integrated by
    :func:`_gauss_kronrod`.  U is grown until the analytic tail bound (with
    the (1-e**(-u))**n factor enveloped by 1) drops below 1e-14 of the
    accumulated value; the accumulated value only grows with U, so the
    relative target is conservative.  The error estimate must be within
    1e-8 of |value|.  An x + 1 or an integral past binary64's range raises
    DomainError.
    """
    if n < 0:
        raise DomainError(f"log_moment_quadrature requires n >= 0, got n={n}")
    if m < 0:
        raise DomainError(f"log_moment_quadrature requires m >= 0, got m={m}")
    x = _check_shift(x, "log_moment_quadrature")
    try:
        c = float(x + 1)
    except OverflowError:
        c = math.inf
    if c in (0.0, math.inf):  # x + 1 underflows or overflows binary64
        raise DomainError(
            f"log_moment_quadrature requires x + 1 within the float range, got x={x}"
        )
    import numpy as np

    def integrand(u: np.ndarray) -> np.ndarray:
        # every node has u > 0; u**m and e**(-cu) apart can leave the float range
        return np.exp(m * np.log(u) - c * u) * (-np.expm1(-u)) ** n

    evaluations = 0
    upper = (40.0 + 5.0 * m) / c
    value = 0.0
    abserr = 0.0
    for _ in range(64):
        if math.isinf(upper):  # an x this close to -1 leaves the float range
            raise QuadratureError(f"cut-off overflows (n={n}, m={m}, x={x})")
        result = _gauss_kronrod(integrand, upper, EVALUATION_CAP - evaluations)
        if result is None:
            raise QuadratureError(
                f"evaluation cap {EVALUATION_CAP} exceeded (n={n}, m={m}, x={x})"
            )
        value, abserr, used = result
        evaluations += used
        if _exp_tail(upper, m, c) <= 1e-14 * max(abs(value), 1e-300):
            break
        upper *= 1.5
    else:
        raise QuadratureError(
            f"tail target not reached within iteration budget (n={n}, m={m}, x={x})"
        )
    if not math.isfinite(value):
        raise DomainError(
            f"log_moment_quadrature requires an integral within the float range "
            f"(n={n}, m={m}, x={x})"
        )
    if not abserr <= 1e-8 * abs(value):
        raise QuadratureError(
            f"error estimate {abserr:.3e} too large for value {value:.3e} "
            f"(n={n}, m={m}, x={x})"
        )
    signed = -value if m % 2 else value
    return QuadratureResult(
        value=signed, abs_error_estimate=abserr, evaluations=evaluations
    )


def _row_products(u: np.ndarray, out: np.ndarray) -> np.ndarray:
    """u.prod(axis=1) written into ``out``, bit for bit: the columns
    multiplied left to right, the first two into ``out`` by one
    ``np.multiply``, so each column is read once."""
    import numpy as np

    if u.shape[1] == 1:
        out[:] = u[:, 0]
        return out
    np.multiply(u[:, 0], u[:, 1], out=out)
    for j in range(2, u.shape[1]):
        out *= u[:, j]
    return out


def cube_monte_carlo(
    n: int, r: int, samples: int, seed: int
) -> MonteCarloResult:
    """Plain Monte Carlo for the r-cube integral of (1 - x_1*...*x_r)**n.

    Deterministic for a fixed (n, r, samples, seed): each batch of
    _MC_BATCH samples is its own SFC64 stream, seeded by
    SeedSequence(seed mod 2**128, spawn_key=(batch,)), so batches are
    independent and could be evaluated in any order without changing the
    result.  Each batch is drawn a block of _MC_BLOCK rows at a time into
    one reused buffer, which continues the batch's stream exactly as one
    draw of the whole batch would; the row products of a batch fill one
    reused array (by :func:`_row_products`, one pass per column after the
    first two), so its sums see the whole batch.  Each sample's value
    (1 - product)**n is taken in place, with the power skipped at n = 1.
    """
    if n < 0:
        raise DomainError(f"cube_monte_carlo requires n >= 0, got n={n}")
    if r < 1:
        raise DomainError(f"cube_monte_carlo requires r >= 1, got r={r}")
    if samples < 2:
        raise DomainError(f"cube_monte_carlo requires samples >= 2, got {samples}")

    import numpy as np

    entropy = seed & ((1 << 128) - 1)
    buffer = np.empty(min(_MC_BATCH, samples))
    block = np.empty((_MC_BLOCK, r))
    total = 0.0
    total_sq = 0.0
    done = 0
    batch = 0
    while done < samples:
        count = min(_MC_BATCH, samples - done)
        rng = np.random.Generator(
            np.random.SFC64(np.random.SeedSequence(entropy=entropy, spawn_key=(batch,)))
        )
        values = buffer[:count]
        for start in range(0, count, _MC_BLOCK):
            u = block[: min(_MC_BLOCK, count - start)]
            rng.random(out=u)
            _row_products(u, values[start : start + len(u)])
        np.subtract(1.0, values, out=values)
        if n != 1:  # x**1 is x
            values **= n
        total += float(values.sum())
        values *= values
        total_sq += float(values.sum())
        done += count
        batch += 1
    mean = total / samples
    variance = max(total_sq - samples * mean * mean, 0.0) / (samples - 1)
    stderr = math.sqrt(variance / samples)
    return MonteCarloResult(estimate=mean, stderr=stderr)
