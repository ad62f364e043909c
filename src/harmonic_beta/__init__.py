"""Exact harmonic/beta-family computations with verification tooling."""

from .beta_engine import (
    BellExpansion,
    alt_power_sum,
    bell_expansion,
    beta_F,
    derivative_F,
)
from .float_oracle import (
    MonteCarloResult,
    QuadratureError,
    QuadratureResult,
    cube_monte_carlo,
    log_moment_quadrature,
)
from .harmonic_core import (
    DomainError,
    bernoulli_table,
    format_rational,
    harmonic_function,
    harmonic_number,
    parse_rational,
    zeta_even_coefficient,
)
from .identity_suite import (
    CHECK_GROUPS,
    IdentityReport,
    binomial_inverse,
    check_inversion,
    generic_check,
    run_all,
)
from .series_lab import (
    EXACT_N_MAX,
    PiPower,
    SeriesEstimate,
    corollary_2_4_partial,
    eq31_series,
    eq32_series,
    hurwitz_partial,
    lemma_c_partial,
    multi_integral_exact,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BellExpansion",
    "CHECK_GROUPS",
    "DomainError",
    "EXACT_N_MAX",
    "IdentityReport",
    "MonteCarloResult",
    "PiPower",
    "QuadratureError",
    "QuadratureResult",
    "SeriesEstimate",
    "alt_power_sum",
    "bell_expansion",
    "bernoulli_table",
    "beta_F",
    "binomial_inverse",
    "check_inversion",
    "corollary_2_4_partial",
    "cube_monte_carlo",
    "derivative_F",
    "eq31_series",
    "eq32_series",
    "format_rational",
    "generic_check",
    "harmonic_function",
    "harmonic_number",
    "hurwitz_partial",
    "lemma_c_partial",
    "log_moment_quadrature",
    "multi_integral_exact",
    "parse_rational",
    "run_all",
    "zeta_even_coefficient",
]
