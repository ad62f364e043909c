"""Partial sums with rigorous tail brackets for the infinite-series claims.

Exact mode sums rationals; the reported bracket [partial + tail_low,
partial + tail_high] always contains the true limit.  For the shifted power
sums the bracket comes from the integral comparison test.  Every
log-weight target is c * T_k for one Bell order k and a constant c, where
T_k is the unit series sum(G_k(H_{n+1},...)/(n(n+1)), n >= 1): lemma-c
takes k = r-1 and c = 1/(r-1)!, Corollary 2.4 k = r-1 and c = 1, eq. (32)
k = r+1 and c = (-1)**r.  Only T_k is summed and bracketed; the target
scales the estimate.  Corollary 2.4's displays, the literal polynomials
``identity_suite._DISPLAYS`` that the finite identities check, and eq.
(32)'s product-rule route are crosschecks, each compared exactly with G_k
before any term is summed.  The tail is bounded by capping every
H^(alpha) with alpha >= 2 at a rational bound for its limit, bounding
H_{n+1} <= 1 + ln(n+1), and integrating the resulting log-power envelope
in closed form.  The published width is additionally run through a
running minimum over a fixed checkpoint lattice (powers of two and three
halves thereof), which makes bracket width provably non-increasing in N.

Exact mode sums each log-weight series in closed form.  The paper's
recurrence F_n(x) = n/(n+x+1) * F_{n-1}(x) telescopes sum(F_n(x)/n, n = 1..m)
to (1/(x+1) - F_m(x))/(x+1), and its k-th derivative at x = 0 gives
T_k(m) = sum(G_k(H_{n+1},...)/(n(n+1)), n = 1..m)
       = (k+1)! - k!/(m+1) * sum(G_j(H_{m+1},...)/j!, j = 0..k),
which needs the harmonic numbers at the checkpoints only; between
checkpoints they advance by an lcm tree over the next run of bases, and at
each checkpoint G_0..G_k come from one complete-Bell recurrence on integer
numerators.  The closed form must equal a direct term-by-term sum at every
checkpoint up to 512, so a verdict does not rest on it alone.

Above N = EXACT_N_MAX every series runs in float mode (the CLI's ``--float``),
which computes the same terms in binary64 with numpy, a chunk of n at a
time, and sums them exactly, rounding once at the end: each chunk's terms
are binned by binary exponent and their mantissas added per bin as integers
(an exponent-binned accumulator in the manner of Neal, *Fast exact
summation using small and large superaccumulators*, 2015), which gives the
correctly rounded value ``math.fsum`` gives.  A log-weight term takes G_k
from the same complete-Bell recurrence as exact mode, applied to the
chunk's rows of H^(alpha).  numpy is imported by the first float-mode sum,
so exact mode never loads it.  Only correctly rounded + - * / and
cumulative sums are used, and every term is positive, so an a-priori bound
on the roundings along any term's path gives a rational radius around the
float sum (Higham, *Accuracy and Stability of Numerical Algorithms*, ch.
3-4).  The reported bracket then encloses the rounding error as well as
the tail.

A :class:`SeriesEstimate` knows no output format:
``reporting.render_estimate`` prints it as JSON, CSV or text.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING, Iterator, Mapping, NamedTuple, Union

from .beta_engine import (
    Monomial,
    _bell_values,
    alt_power_sum,
    bell_expansion,
    derivative_rows,
    mixed_sum,
)
from .harmonic_core import (
    DomainError,
    HarmonicNumerators,
    RationalLike,
    _check_shift,
    _reduced_fraction,
    format_rational,
    harmonic_function,
    harmonic_number,
    zeta_even_coefficient,
)
from .identity_suite import _DISPLAYS, binomial_inverse

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "EXACT_BELL_MAX",
    "EXACT_N_MAX",
    "FLOAT_N_MAX",
    "PiPower",
    "SeriesEstimate",
    "hurwitz_partial",
    "lemma_c_partial",
    "corollary_2_4_partial",
    "eq31_series",
    "eq32_series",
    "multi_integral_exact",
]

#: Largest N every series sums exactly; above it they sum in float mode.
EXACT_N_MAX = 10_000

#: Largest N float-mode hurwitz_partial and eq31_series sum; the log-weight
#: targets stop below it, at N(N+1) < 2**53.  README times the worst runs.
FLOAT_N_MAX = 10**8

#: Highest Bell order G_k an exact-mode log-weight series sums: lemma-c needs
#: G_{r-1} and eq32 G_{r+1}.  The cost grows with the order; at N = 10**4
#: it took 0.09 s at G_3 and 0.45 s at G_9 (the minimum of five runs).
EXACT_BELL_MAX = 9

# Largest s exact-mode hurwitz_partial sums.  The cost grows with s and with the
# size of x = p/q: at N = 10**4 and x = -49/100, s = 18 took 15.0 s and s = 20
# 17.4 s, against 12.9 s for eq31 --r 8 (in-process CPU on a 2-vCPU host).
_EXACT_S_MAX = 18

# How many leading terms eq31_series and the exact log-weight series check.
_TERM_CHECK_CAP = 512

# Largest r eq31_series takes, the exact eq32 cap.  The checks grow slowly in r
# and fast in the size of x = p/q: r = 8, N = 10**4 took 2.5 s at x = 0 and
# 26.7 s at x = -49/100.
_EQ31_R_MAX = EXACT_BELL_MAX - 1

# Most n one float-mode chunk holds; bounds the memory of float mode.
_CHUNK = 1 << 14

# Most N * k(k+1)/2 (the products of G_k's recurrence) a float-mode log-weight
# sum takes; its time is about linear in both.  lemma-c --r 10 runs to the
# N(N+1) < 2**53 bound, N = 94906265, in 14.2 s; --r 11 at N = 78181818 took
# 13.0 s and --r 20 at N = 22631578 10.2 s (in-process CPU, 2 vCPUs).
_FLOAT_TERM_BUDGET = 43 * 10**8

# Integers below this are exact binary64 values.
_FLOAT_INT_LIMIT = 1 << 53

# _fsum_ball's split of a 53-bit mantissa: its low 27 bits, summed apart from
# the high 26 bits.  A term M * 2**(e - 53) has e - 53 >= -1126 (e is -1073
# at the least subnormal), so the sum times 2**_SUM_SHIFT is an integer.
_LOW_DIGITS = 27
_SUM_SHIFT = 1126

# Float mode admits only inputs whose intermediates stay within
# [2**-_FLOAT_LOW_BITS, 2**_FLOAT_HIGH_BITS], inside the normal binary64
# range, so that every rounding error is relative.
_FLOAT_LOW_BITS = 1000
_FLOAT_HIGH_BITS = 960

PolyTerms = Mapping[Monomial, int]


@lru_cache(maxsize=None)
def _pi_bounds(bits: int) -> tuple[Fraction, Fraction]:
    """Rationals low < pi < high with high - low < 2**-bits, by Machin's formula.

    pi = 16 atan(1/5) - 4 atan(1/239).  Each arctangent series alternates
    with terms of decreasing size, so a partial sum lies within its first
    omitted term of the limit; summing until that term is below 2**-(bits+8)
    leaves an error of at most 20 * 2**-(bits+8) on each side.
    """

    def atan_inverse(x: int) -> tuple[Fraction, Fraction]:
        total, k = Fraction(0), 0
        while True:
            term = Fraction(1, (2 * k + 1) * x ** (2 * k + 1))
            if term < Fraction(1, 1 << (bits + 8)):
                return total, term
            total += -term if k % 2 else term
            k += 1

    a, err_a = atan_inverse(5)
    b, err_b = atan_inverse(239)
    mid, err = 16 * a - 4 * b, 16 * err_a + 4 * err_b
    return mid - err, mid + err


class PiPower(NamedTuple):
    """A limit of the form coeff * pi**exponent, kept symbolic."""

    coeff: Fraction
    exponent: int

    def enclosure(self, bits: int) -> tuple[Fraction, Fraction]:
        """Rational bounds on coeff * pi**exponent (exponent >= 0) from _pi_bounds(bits)."""
        low, high = _pi_bounds(bits)
        ends = (self.coeff * low**self.exponent, self.coeff * high**self.exponent)
        return min(ends), max(ends)


ClaimedLimit = Union[Fraction, PiPower, None]


class SeriesEstimate:
    """Partial sum, rigorous tail bracket, and the claimed limit (if any).

    Immutable as the NamedTuple records are, but no tuple: the tracer in
    ``perfbench/tracing.py`` tells one estimate from a tuple of them by
    ``isinstance(result, tuple)``.  :meth:`_replace` makes a changed copy.
    """

    __slots__ = ("target_id", "N", "partial", "exact", "tail_low", "tail_high", "claimed_limit")

    def __init__(
        self,
        target_id: str,
        N: int,
        partial: Fraction | float,
        exact: bool,
        tail_low: Fraction,
        tail_high: Fraction,
        claimed_limit: ClaimedLimit = None,
    ) -> None:
        values = (target_id, N, partial, exact, tail_low, tail_high, claimed_limit)
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, *value: object) -> None:
        raise AttributeError(f"SeriesEstimate is immutable; cannot change {name}")

    __delattr__ = __setattr__

    def _asdict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}

    def _replace(self, **changes) -> SeriesEstimate:
        """A copy with ``changes`` applied, as a NamedTuple record's _replace makes."""
        return SeriesEstimate(**{**self._asdict(), **changes})

    def __eq__(self, other: object) -> bool:
        if type(other) is not SeriesEstimate:
            return NotImplemented
        return self._asdict() == other._asdict()

    def bounds(self) -> tuple[Fraction, Fraction]:
        """Bracket endpoints partial + tail_low and partial + tail_high, exactly."""
        partial = Fraction(self.partial)
        return partial + self.tail_low, partial + self.tail_high

    def bracket(self) -> tuple[float, float]:
        """Bracket endpoints rounded to floats."""
        low, high = self.bounds()
        return float(low), float(high)

    def width(self) -> Fraction:
        return self.tail_high - self.tail_low

    def contains_claim(self) -> bool | None:
        """Whether the bracket contains the claimed limit; None when no claim.

        Decided in rationals: a rational claim by tail_low <= claim - partial
        <= tail_high, which forms no big sum.  A pi-power claim is enclosed ever more tightly
        (:meth:`PiPower.enclosure`) until the enclosure lies wholly inside or
        wholly outside the bracket.  That ends: a nonzero rational times a
        positive power of pi is irrational, so it is no end of the bracket;
        with coeff 0 or exponent 0 the enclosure is a single rational.
        """
        if self.claimed_limit is None:
            return None
        claim = self.claimed_limit
        if not isinstance(claim, PiPower):
            # claim - partial has the partial's denominator, as the claim's is small
            return self.tail_low <= claim - Fraction(self.partial) <= self.tail_high
        low, high = self.bounds()
        bits = 200
        while True:
            claim_low, claim_high = claim.enclosure(bits)
            if low <= claim_low and claim_high <= high:
                return True
            if claim_high < low or high < claim_low:
                return False
            bits *= 2


# -- shifted power sums -------------------------------------------------------


def hurwitz_partial(x: RationalLike, s: int, N: int) -> SeriesEstimate:
    """Partial sum of sum(1/(n+x+1)**s, n >= 0) with an integral-test bracket.

    tail in [1/((s-1)(N+x+1)**(s-1)), 1/((s-1)(N+x)**(s-1))].  Above
    EXACT_N_MAX the bracket also encloses the rounding error (:func:`_hurwitz_ball`).
    Each mode refuses what it cannot sum before any work: float mode the
    inputs :func:`_check_float_hurwitz` refuses, exact mode s > _EXACT_S_MAX.
    """
    x = _check_shift(x, "hurwitz_partial")
    if s <= 1:
        raise DomainError(f"hurwitz_partial requires s >= 2 (divergent otherwise), got s={s}")
    if N < 1:
        raise DomainError(f"hurwitz_partial requires N >= 1, got N={N}")
    exact = N <= EXACT_N_MAX
    if not exact:
        _check_float_hurwitz(x, s, N)
    elif s > _EXACT_S_MAX:
        raise DomainError(f"exact mode sums zeta only up to s = {_EXACT_S_MAX}; got s={s}")
    target_id = f"zeta(x={format_rational(x)},s={s})"

    tail_low = 1 / (Fraction(s - 1) * (N + x + 1) ** (s - 1))
    tail_high = 1 / (Fraction(s - 1) * (N + x) ** (s - 1))
    claimed: ClaimedLimit = None
    if x == 0 and s % 2 == 0:
        claimed = PiPower(zeta_even_coefficient(s // 2), s)
    if exact:
        partial = harmonic_function(N - 1, x, s)
        return SeriesEstimate(target_id, N, partial, True, tail_low, tail_high, claimed)
    total, radius = _hurwitz_ball(x, s, N)
    return SeriesEstimate(
        target_id, N, total, False, tail_low - radius, tail_high + radius, claimed
    )


# -- float mode: binary64 sums with a rigorous radius -------------------------


def _fsum_ball(chunks: Iterator[np.ndarray], K: int) -> tuple[float, Fraction]:
    """The correctly rounded sum of positive terms, and its rounding radius.

    Each chunk (of at most 2**26 terms; _CHUNK is 2**14) is split by
    ``np.frexp`` into integer mantissas M < 2**53 and exponents e, a term
    being M * 2**(e - 53).  The high 26 and low 27 bits of M are summed per
    exponent by ``np.bincount``; every bin total is an integer below 2**53,
    so exact in binary64.  The bins are joined as one Python int, and the
    total is rounded once, by ``float`` of a Fraction (round half to even):
    the value ``math.fsum`` returns.

    ``K`` bounds the roundings on any term's path; that final rounding is
    still one of them, as it was fsum's.  With u = 2**-53 and gamma_K =
    K*u/(1 - K*u), each computed term is its true value times some
    1 + theta, |theta| <= gamma_K; as every term is positive the float sum
    S~ is the true sum S times some factor in [1 - gamma_K, 1 + gamma_K],
    so |S - S~| <= gamma_K/(1 - gamma_K) * S~ = K * S~/(2**53 - 2K), which
    is the returned radius.
    """
    import numpy as np

    scaled = 0  # the exact sum times 2**_SUM_SHIFT
    for chunk in chunks:
        mantissa, exponent = np.frexp(chunk)
        lowest = int(exponent.min())
        bins = exponent - lowest
        digits = mantissa * float(_FLOAT_INT_LIMIT)
        high = np.floor(digits * 2.0**-_LOW_DIGITS)
        low = digits - high * 2.0**_LOW_DIGITS
        highs = np.bincount(bins, weights=high).tolist()
        lows = np.bincount(bins, weights=low).tolist()
        binned = 0  # the chunk's sum over 2**(lowest - 53)
        for h, l in zip(reversed(highs), reversed(lows)):
            binned = (binned << 1) + (int(h) << _LOW_DIGITS) + int(l)
        scaled += binned << (lowest - 53 + _SUM_SHIFT)
    total = float(Fraction(scaled, 1 << _SUM_SHIFT))
    return total, Fraction(total) * K / (_FLOAT_INT_LIMIT - 2 * K)


def _check_float_hurwitz(x: Fraction, s: int, N: int) -> None:
    """Refuse a float-mode sum of (1/(n+x+1))**s, n < N, that is too long,
    N > FLOAT_N_MAX, or that :func:`_hurwitz_ball` cannot bound: q(N+1) or a
    denominator d reaching 2**53, or a term that could leave [2**-1000, 2**960].
    Cheap, so callers run it before any other work."""
    if N > FLOAT_N_MAX:
        raise DomainError(f"float mode caps --N at {FLOAT_N_MAX}, got {N}")
    p, q = x.numerator, x.denominator
    top = q * (N + 1) + max(p, 0)
    if top >= _FLOAT_INT_LIMIT:
        raise DomainError(f"float mode requires q(N+1)+max(p,0) < 2**53, got {top}")
    # largest ratio d/q and q/d as powers of two, rounded up
    if s * (top.bit_length() - q.bit_length() + 1) > _FLOAT_LOW_BITS or (
        p < 0 and s * (q.bit_length() - (q + p).bit_length() + 1) > _FLOAT_HIGH_BITS
    ):
        raise DomainError(
            f"float mode: (1/(n+x+1))**{s} leaves the normal float range for x={x}, N={N}"
        )


def _hurwitz_ball(x: Fraction, s: int, N: int) -> tuple[float, Fraction]:
    """sum((q/(q(n+1)+p))**s, n = 0..N-1) for x = p/q, as (float sum, radius).

    The products q(n+1) and the denominators d = q(n+1)+p are exact binary64
    integers.  t = q/d is one rounding, t(1 + delta); its s-th power by
    s - 1 products is t**s * (1 + delta)**s times s - 1 further factors, so
    2s - 1 roundings, and with the sum's one rounding K = 2s.  Takes only
    inputs that :func:`_check_float_hurwitz` admits.
    """
    p, q = x.numerator, x.denominator
    import numpy as np

    def chunks() -> Iterator[np.ndarray]:
        chunk = _CHUNK
        for a in range(0, N, chunk):
            t = q / (q * np.arange(a + 1, min(a + chunk, N) + 1, dtype=np.float64) + p)
            term = t.copy()
            for _ in range(s - 1):
                term *= t
            yield term

    return _fsum_ball(chunks(), 2 * s)


# -- tail machinery for the log-weight series ---------------------------------

# Upper bound on ln 2; mantissa handled by ln m <= m - 1.
_LN2_UP = Fraction(6932, 10000)
# Upper bound on 1 + ln 3, covering 1 + ln(t+2) <= A + ln t for t >= 1.
_SHIFT_A = Fraction(21, 10)


def _log_upper(n: int) -> Fraction:
    """A rational upper bound on ln(n), monotone in n and tight to ~1%."""
    if n < 1:
        raise DomainError(f"_log_upper requires n >= 1, got {n}")
    bl = n.bit_length()
    return (bl - 1) * _LN2_UP + Fraction(n, 1 << (bl - 1)) - 1


@lru_cache(maxsize=None)
def _zeta_cap(alpha: int) -> Fraction:
    """Rational upper bound for the limit of H^(alpha): partial sum + integral tail."""
    if alpha < 2:
        raise DomainError(f"_zeta_cap requires alpha >= 2, got {alpha}")
    k0 = 40
    return harmonic_number(k0, alpha) + Fraction(1, (alpha - 1) * k0 ** (alpha - 1))


def _log_moment_coefficients(poly_terms: PolyTerms) -> dict[int, Fraction]:
    """Collapse a positive harmonic polynomial to coefficients d_j of (1+ln(n+1))**j.

    Each generator h_alpha with alpha >= 2 is capped by its limit bound;
    the h_1 exponent becomes the log power j.
    """
    out: dict[int, Fraction] = {}
    for exponents, coeff in poly_terms.items():
        j = exponents[0] if exponents else 0
        d = Fraction(coeff)
        for idx in range(1, len(exponents)):
            if exponents[idx]:
                d *= _zeta_cap(idx + 1) ** exponents[idx]
        out[j] = out.get(j, Fraction(0)) + d
    return out


def _raw_tail_bound(d_coeffs: Mapping[int, Fraction], M: int) -> Fraction:
    """Upper bound on sum(P_n/(n(n+1)), n > M) via the closed-form log integral.

    Uses sum_{n>M} (1+ln(n+1))**j/(n(n+1)) <= integral_M^inf (A+ln t)**j/t**2 dt
    = (1/M) * sum_i fall(j,i) * (A+ln M)**(j-i), with rational majorants for
    the logarithms.  Valid for M >= 1.
    """
    mu = _SHIFT_A + _log_upper(M)
    total = Fraction(0)
    for j, d in d_coeffs.items():
        poly = Fraction(0)
        falling = 1
        for i in range(j + 1):
            poly += falling * mu ** (j - i)
            falling *= j - i
        total += d * poly
    return total / M


def _checkpoint_lattice(n_max: int) -> set[int]:
    """{2**k} U {3 * 2**k} up to n_max; nested as n_max grows.

    Nesting is what makes the published bracket width non-increasing in N:
    the envelope minimum can only gain candidates.
    """
    points: set[int] = set()
    for start in (1, 3):
        v = start
        while v <= n_max:
            points.add(v)
            v *= 2
    return points


def _closed_form_sums(k: int, stops: list[int]) -> list[tuple[int, int]]:
    """(S, L) for each m in ``stops``, with T_k(m) = (k+1)! - S/((m+1) * L**k).

    T_k(m) = sum(G_k(H_{n+1},...)/(n(n+1)), n = 1..m) is the k-th x-derivative
    at x = 0 of the telescoped sum(F_n(x)/n, n = 1..m) = (1/(x+1) - F_m(x))/(x+1);
    with F_m^(j)(0) = (-1)**j * G_j(H_{m+1},...)/(m+1) it is

        T_k(m) = (k+1)! - k!/(m+1) * sum(G_j(H_{m+1},...)/j!, j = 0..k).

    ``stops`` is ascending.  Between stops one harmonic state advances by
    the next run of bases; at a stop, with H^(alpha)_{m+1} = N_alpha/L**alpha
    and L = lcm(1..m+1), the sum is S/L**k for the integer S =
    sum((k!/j!) * G_j(N_1..N_j) * L**(k-j)), with G_0(N)..G_k(N) from one
    Bell recurrence and S taken by Horner's rule in L.  For k = 0 the sum
    is G_0 = 1 and no harmonic state is built (L = 1).
    """
    scales = [math.factorial(k) // math.factorial(j) for j in range(k + 1)]
    state = HarmonicNumerators(0, k) if k else None
    L, numerators = 1, []
    taken = 0  # bases 1..taken are in the state
    out: list[tuple[int, int]] = []
    for m in stops:
        if state is not None:
            state.advance(m + 1 - taken)
            taken = m + 1
            L, numerators = state.L, state.numerators
        total = 0
        for c, value in zip(scales, _bell_values(numerators, k)):
            total = total * L + c * value
        out.append((total, L))
    return out


def _direct_partials(k: int, stops: list[int]) -> list[Fraction]:
    """T_k(m) for each m in ``stops`` by adding the terms one at a time.

    The route that the closed form is checked against.  The running sum is
    one integer over L**(k+1), L = lcm(1..n+1); n and n+1 divide L and are
    coprime, so term n adds G_k(N_1..N_k) * L/(n(n+1)).
    """
    state = HarmonicNumerators(0, max(k, 1))  # G_0 needs no numerators, but L
    state.advance()  # H_1
    acc = 0
    out: list[Fraction] = []
    for n in range(1, stops[-1] + 1):
        g = state.advance()  # H_{n+1}
        acc *= g ** (k + 1)
        acc += _bell_values(state.numerators, k)[k] * (state.L // (n * (n + 1)))
        if n in stops:
            out.append(Fraction(acc, state.L ** (k + 1)))
    return out


def _log_weight_series(
    target_id: str, k: int, N: int, claimed_limit: ClaimedLimit
) -> SeriesEstimate:
    """T_k(N) = sum(G_k(H_{n+1},...)/(n(n+1)), n = 1..N) with tail bracket.

    Every log-weight target is c * T_k for one Bell order k and a constant
    c that the target applies by :func:`_scaled`: lemma-c takes k = r-1 and
    c = 1/(r-1)!, Corollary 2.4 k = r-1 and c = 1, eq. (32) k = r+1 and
    c = (-1)**r.  A target's own term routes (the literal displays, the
    product rule) are crosschecks it runs against G_k before calling this,
    and a k past N's cap is refused by :func:`_bell_order` first
    (Corollary 2.4's k <= 4 is under both).  ``claimed_limit`` is the
    target's own claim, passed through as it is.

    Exact mode takes its partials from :func:`_closed_form_sums`, and
    every stop up to _TERM_CHECK_CAP must equal the direct sum of
    :func:`_direct_partials`; otherwise ArithmeticError is raised.  The
    published width is the least, over the lattice, of the partial there
    plus its tail bound, less the partial at N.
    """
    if N < 1:
        raise DomainError(f"series requires N >= 1, got N={N}")
    d_coeffs = _log_moment_coefficients(bell_expansion(k))

    if N > EXACT_N_MAX:
        total, radius = _log_weight_ball(k, N)
        width = _raw_tail_bound(d_coeffs, N)
        return SeriesEstimate(target_id, N, total, False, -radius, width + radius, claimed_limit)

    lattice = sorted(_checkpoint_lattice(N))  # ascending: the min compares small values first
    stops = sorted({*lattice, N})
    sums = dict(zip(stops, _closed_form_sums(k, stops)))
    # every prime of (m+1) * L**k divides (m+1) * L, the base of the reduction
    partials = {
        m: math.factorial(k + 1) - _reduced_fraction(S, (m + 1) * L**k, (m + 1) * L)
        for m, (S, L) in sums.items()
    }
    checked = [m for m in stops if m <= _TERM_CHECK_CAP]
    for m, direct in zip(checked, _direct_partials(k, checked)):
        if direct != partials[m]:
            raise ArithmeticError(f"{target_id}: closed form differs from the direct sum at N={m}")
    tails = {n: _raw_tail_bound(d_coeffs, n) for n in lattice}
    best = min(lattice, key=lambda n: partials[n] + tails[n])
    # width = envelope - partial = tail + T_k(best) - T_k(N), the difference
    # S_N/((N+1) L_N**k) - S_b/((b+1) L_b**k) taken over (b+1)(N+1) L_N**k,
    # as L_b divides L_N
    (S_b, L_b), (S_N, L_N) = sums[best], sums[N]
    difference = _reduced_fraction(
        S_N * (best + 1) - S_b * (N + 1) * (L_N // L_b) ** k,
        (best + 1) * (N + 1) * L_N**k,
        (best + 1) * (N + 1) * L_N,
    )
    width = tails[best] + difference
    return SeriesEstimate(target_id, N, partials[N], True, Fraction(0), width, claimed_limit)


def _scaled(estimate: SeriesEstimate, c: Fraction | int) -> SeriesEstimate:
    """c * ``estimate`` for a rational c != 0: its bounds are c times the old
    ones, exactly, and swap ends for c < 0.

    An exact partial and both tails are multiplied by c.  A float partial
    is c * partial rounded again, and the tails are measured from that
    float.  The claim is the target's own and is not scaled.
    """
    low, high = estimate.tail_low * c, estimate.tail_high * c
    if c < 0:
        low, high = high, low
    if estimate.exact:
        return estimate._replace(partial=estimate.partial * c, tail_low=low, tail_high=high)
    center = Fraction(estimate.partial) * c
    partial = float(center)
    shift = center - Fraction(partial)
    return estimate._replace(partial=partial, tail_low=low + shift, tail_high=high + shift)


def _log_weight_ball(k: int, N: int) -> tuple[float, Fraction]:
    """sum(G_k(H_{n+1},...)/(n(n+1)), n = 1..N) in binary64, as (float sum, radius).

    Each chunk evaluates G_k by :func:`_bell_values` on the k rows h_alpha,
    the recurrence exact mode uses.  Its coefficients j!/(j-i)! <= 18! are
    exact binary64 values while k <= 19.

    The roundings on a term's path, with m = n+1 <= N+1: 1/m is one
    rounding and 1/m**alpha is its alpha-th power by alpha - 1 products, so
    (1 + delta)**alpha times alpha - 1 factors: 2*alpha - 1 roundings.
    H^(alpha)_m = 1 + sum of those over 2..m is a running sum continued
    across chunks, at most m additions on any summand's path (in-chunk
    cumsum, then one addition of the carry per chunk boundary), so a factor
    h_alpha has at most 2*alpha - 1 + m <= 2*alpha + N roundings.  Let a_j
    bound the roundings of G_j; a_0 = 0, as G_0 = 1 is exact.  G_{j+1} sums
    its terms from i = j down to 0, so term i sees at most i + 1 additions.
    Term i >= 1 is (c * h_{i+1}) * G_{j-i}: a_{j-i} + 2(i+1) + N + 2 + i + 1
    roundings; term 0 is h_1 * G_j with no coefficient: a_j + N + 2 + 1 + 1.
    By induction a_j <= j * (N + 4): term 0 meets (j+1)(N+4) exactly, and
    term i >= 1 stays below it by i*N + i - 1 >= 0.  The division by the
    exact n(n+1) is one more rounding and the sum's one: K = k * (N + 4) + 2.

    Every intermediate stays a normal float, so every rounding error is
    relative: h_alpha, G_j and the coefficients are at least 1, and the
    smallest factor 1/m**alpha is at least 2**(-27k) >= 2**-513, as
    m < 2**27.  Every product and partial sum is at most the G_j it builds,
    and with H_m <= 1 + ln(N+1) < 20 every G_j is below 19! * 20**19 <
    2**141 (the coefficients of G_j sum to j!), so the sum of N < 2**27
    terms stays below 2**168.

    Takes only k <= 19, which :func:`_bell_order` admits for float mode.
    Rejects n(n+1) reaching 2**53, a precondition of the bound, and N times
    the recurrence's k(k+1)/2 products above _FLOAT_TERM_BUDGET.
    """
    if N * (N + 1) >= _FLOAT_INT_LIMIT:
        raise DomainError(f"float mode requires N(N+1) < 2**53, got N={N}")
    products = k * (k + 1) // 2
    if N * products > _FLOAT_TERM_BUDGET:
        raise DomainError(
            f"float mode requires N * {products} products of G_{k} <= {_FLOAT_TERM_BUDGET}, "
            f"got N={N}"
        )
    import numpy as np

    def chunks() -> Iterator[np.ndarray]:
        chunk = _CHUNK
        carry = [1.0] * k  # H_1^(alpha)
        for a in range(1, N + 1, chunk):
            n = np.arange(a, min(a + chunk - 1, N) + 1, dtype=np.float64)
            m = n + 1.0
            inverse = 1.0 / m
            power = inverse
            h = []
            for alpha in range(k):
                if alpha:
                    power = power * inverse
                row = np.cumsum(power)
                row += carry[alpha]
                carry[alpha] = row[-1]
                h.append(row)
            yield _bell_values(h, k)[k] / (n * m)

    return _fsum_ball(chunks(), k * (N + 4) + 2)


# -- the concrete series targets ----------------------------------------------


def _bell_order(k: int, N: int) -> int:
    """The Bell order k of a sum to N, refused before anything is built past
    the cap of N's mode.  Float mode stops at k = 19: the rounding bound of
    :func:`_log_weight_ball` takes the recurrence's coefficients, up to
    (k-1)!, to be integers below 2**53, hence exact binary64 values, and
    19! >= 2**53.  Exact mode stops at k = EXACT_BELL_MAX, which bounds the
    time and memory of the closed form's big-integer sums: G_0..G_k at every
    checkpoint, and harmonic numerators of k orders."""
    if N > EXACT_N_MAX and k >= 20:
        raise DomainError(
            f"float mode sums G_k only up to k = 19 (lemma-c --r <= 20, eq32 --r <= 18); "
            f"got G_{k}"
        )
    if N <= EXACT_N_MAX and k > EXACT_BELL_MAX:
        raise DomainError(
            f"exact mode sums G_k only up to k = {EXACT_BELL_MAX} "
            f"(lemma-c --r <= {EXACT_BELL_MAX + 1}, eq32 --r <= {EXACT_BELL_MAX - 1}); "
            f"got G_{k}"
        )
    return k


def _crosscheck(target_id: str, route: PolyTerms, k: int) -> None:
    """Raise ArithmeticError unless ``route`` has exactly G_k's terms.

    Equal polynomials agree at every n, so this is at least as strict as
    comparing the two routes term by term; a route with an extra zero
    exponent or a zero coefficient fails it."""
    if route != bell_expansion(k):
        raise ArithmeticError(f"{target_id}: term routes disagree")


def lemma_c_partial(r: int, N: int) -> SeriesEstimate:
    """Partial sum of sum((1/n) * alt_power_sum(n, 0, r), n >= 1); limit r.

    Terms are evaluated through the closed form
    G_{r-1}(H_{n+1},...)/((r-1)! n(n+1)), which makes exact accumulation to
    N = 10**4 tractable.  For r = 1 the series telescopes to 1 - 1/(N+1).
    """
    if r < 1:
        raise DomainError(f"lemma_c_partial requires r >= 1, got r={r}")
    unit = _log_weight_series(f"lemma-c(r={r})", _bell_order(r - 1, N), N, Fraction(r))
    return _scaled(unit, Fraction(1, math.factorial(r - 1)))


def corollary_2_4_partial(variant: str, N: int) -> SeriesEstimate:
    """Partial sum of a displayed harmonic-polynomial series over n(n+1).

    Variant ``r<r>``, for r = 3, 4, 5, claims the limit r!.  The series sums
    G_{r-1} ((r-1)! times the lemma_c_partial terms); the display numerator,
    the finite identities' literal ``identity_suite._DISPLAYS[r]``, must be
    the same polynomial, which is checked exactly, once, before any term is
    summed.
    """
    variants = ["r3", "r4", "r5"]
    if variant not in variants:
        raise DomainError(f"unknown variant {variant!r}; expected one of {variants}")
    target_id, r = f"cor2.4-{variant}", int(variant[1:])
    _crosscheck(target_id, _DISPLAYS[r], r - 1)
    return _log_weight_series(target_id, r - 1, N, Fraction(math.factorial(r)))


def _leibniz_route_terms(r: int) -> PolyTerms:
    """sum_l C(r,l) l! h_{l+1} G_{r-l}, the product-rule route to G_{r+1}."""
    out: dict[Monomial, int] = {}
    for l in range(r + 1):
        c = math.comb(r, l) * math.factorial(l)
        for exponents, coeff in bell_expansion(r - l).items():
            padded = list(exponents) + [0] * (r + 1 - len(exponents))
            padded[l] += 1
            key = tuple(padded)
            out[key] = out.get(key, 0) + c * coeff
    return out


def eq31_series(r: int, x: RationalLike, N: int) -> SeriesEstimate:
    """The double-sum form of the general-order identity, eq. (31).

    By the finite identity its inner binomial sum collapses term by term to
    1/(n+x+1)**(r+2).  The collapse is verified for the first _TERM_CHECK_CAP
    indices: the binomial transform of the inner terms (the mixed
    harmonic/derivative form over :func:`derivative_rows`) must give back
    1/(k+x+1)**(r+2) at every k.  The transform is an involution with a
    triangular matrix and a +-1 diagonal, so this is the same statement as
    inner term k == alt_power_sum(k, x, r+2) for every k, and the first
    failing k is the same.  The checks do not grow with N, so they run in
    both modes.  The partial sum then equals the shifted power sum and is
    bracketed like it; for x = 0 and even r the claim is zeta(r+2) as a
    power of pi.
    """
    if not 0 <= r <= _EQ31_R_MAX:
        raise DomainError(f"eq31_series requires 0 <= r <= {_EQ31_R_MAX}, got r={r}")
    x = _check_shift(x, "eq31_series")
    if N < 1:
        raise DomainError(f"eq31_series requires N >= 1, got N={N}")
    if N > EXACT_N_MAX:
        _check_float_hurwitz(x, r + 2, N)
    target_id = f"eq31(r={r},x={format_rational(x)})"
    rows = derivative_rows(min(N, _TERM_CHECK_CAP) - 1, x, r)
    inner = [mixed_sum(*row, r) for row in rows]
    for k, value in enumerate(binomial_inverse(inner)):
        if value != 1 / (x + k + 1) ** (r + 2):
            raise ArithmeticError(f"{target_id}: inner term does not collapse at k={k}")
    return hurwitz_partial(x, r + 2, N)._replace(target_id=target_id)


def eq32_series(r: int, N: int) -> SeriesEstimate:
    """The x = 0 log-weight form of the general-order identity, eq. (32).

    sum((-1)**r * G_{r+1}(H_{n+1},...)/(n(n+1)), n >= 1) with claimed limit
    (-1)**r (r+2)!.  The series sums the recursion route G_{r+1}; the
    product-rule route must be the same polynomial, which is checked
    exactly, once, before any term is summed.
    """
    if r < 0:
        raise DomainError(f"eq32_series requires r >= 0, got r={r}")
    k = _bell_order(r + 1, N)  # refuses a capped r before any work
    target_id = f"eq32(r={r})"
    _crosscheck(target_id, _leibniz_route_terms(r), k)
    sign = (-1) ** r
    unit = _log_weight_series(target_id, k, N, Fraction(sign * math.factorial(r + 2)))
    return _scaled(unit, sign)


def multi_integral_exact(n: int, r: int) -> Fraction:
    """The r-cube integral of (1 - x_1*...*x_r)**n, exactly.

    Expanding the power reduces it to alt_power_sum(n, 0, r); this is the
    exact reference for the Monte Carlo estimator.
    """
    if n < 0:
        raise DomainError(f"multi_integral_exact requires n >= 0, got n={n}")
    if r < 1:
        raise DomainError(f"multi_integral_exact requires r >= 1, got r={r}")
    return alt_power_sum(n, 0, r)
