"""The beta-integral family F_n(x) = B(x+1, n+1) and its derivatives.

For integer n >= 0 the value is the rational product
``n! / ((x+1)(x+2)...(x+n+1))``, so everything stays exact.  The r-th
x-derivative satisfies

    F_n^(r)(x) = (-1)**r * G_r(H_n(x,1), ..., H_n(x,r)) * F_n(x)

where G_r is an integer polynomial in formal generators h_1..h_r produced by
the recursion

    G_0 = 1,    G_{r+1} = h_1*G_r + sum(alpha * h_{alpha+1} * dG_r/dh_alpha).

The recursion mirrors repeated differentiation: each derivative multiplies by
-h_1 (logarithmic derivative of F_n) and bumps each h_alpha to
-alpha*h_{alpha+1}.  Equivalently G_r is the complete Bell polynomial
evaluated at (0!*h_1, 1!*h_2, ..., (r-1)!*h_r); the recursion above is the
normative definition here.

Every monomial of G_r has weight sum(alpha*e_alpha) = r.  With x = p/q,
:class:`~harmonic_beta.harmonic_core.HarmonicNumerators` keeps
H_n(x, alpha) = q**alpha * N_alpha / L**alpha on integer numerators N_alpha,
so the weight cancels out of every monomial:

    G_r(H_n(x,1), ..., H_n(x,r)) = (q/L)**r * G_r(N_1, ..., N_r).

:func:`derivative_F` and :func:`derivative_rows` take G_0(N)..G_r(N) from
the complete-Bell recurrence (Comtet, *Advanced Combinatorics*, 1974, ch. 3)

    G_{j+1} = sum(j!/(j-i)! * h_{i+1} * G_{j-i}, i = 0..j)

on the integer numerators, and build one reduced Fraction per derivative.
The recurrence is again weight-homogeneous, so it is exact on N.  Float-mode
log-weight series (:mod:`~harmonic_beta.series_lab`) run the same
recurrence, :func:`_bell_values`, on binary64 arrays.
:meth:`BellExpansion.evaluate` substitutes Fraction values into the
polynomial directly; it is the reference route the tests compare them with.

:func:`alt_power_row` gives sum(C(n,k) * (-1)**k / (x+k+1)**r) for every
n <= n_max at once; :func:`alt_power_sum` is its one-point call.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import accumulate
from typing import Mapping, NamedTuple, Sequence

from .harmonic_core import (
    DomainError,
    HarmonicNumerators,
    RationalLike,
    _check_shift,
    _reduced_fraction,
)

__all__ = [
    "BellExpansion",
    "beta_F",
    "alt_power_sum",
    "alt_power_row",
    "bell_expansion",
    "derivative_F",
    "derivative_rows",
    "mixed_sum",
]

Monomial = tuple[int, ...]


def _graded_lex_key(exponents: Monomial) -> tuple[int, tuple[int, ...]]:
    # ascending total degree, then h1 > h2 > ... within a degree
    return (sum(exponents), tuple(-e for e in exponents))


class BellExpansion(NamedTuple):
    """Integer-coefficient polynomial in formal generators h_1..h_r.

    ``terms`` maps exponent vectors (e_1, ..., e_r) to positive integer
    coefficients, stored in graded-lex order, which keeps iteration and
    every form :func:`~harmonic_beta.reporting.render_bell` gives byte-stable.
    Every monomial has weight sum(alpha*e_alpha) = r and the coefficients
    sum to r!.
    """

    order: int
    terms: Mapping[Monomial, int]

    def evaluate(self, values: Sequence[RationalLike]) -> Fraction:
        """Substitute h_alpha = values[alpha-1] and evaluate exactly."""
        if len(values) < self.order:
            raise DomainError(
                f"expansion of order {self.order} needs {self.order} generator "
                f"values, got {len(values)}"
            )
        total = Fraction(0)
        for exponents, coeff in self.terms.items():
            term = Fraction(coeff)
            for alpha_idx, e in enumerate(exponents):
                if e:
                    term *= Fraction(values[alpha_idx]) ** e
            total += term
        return total


_expansion_cache: dict[int, BellExpansion] = {0: BellExpansion(0, {(): 1})}


def _step(terms: Mapping[Monomial, int], r: int) -> dict[Monomial, int]:
    """One application of G -> h1*G + sum(alpha * h_{alpha+1} * dG/dh_alpha)."""
    out: dict[Monomial, int] = {}

    def add(exponents: Monomial, coeff: int) -> None:
        out[exponents] = out.get(exponents, 0) + coeff

    for exponents, coeff in terms.items():
        padded = exponents + (0,) * (r + 1 - len(exponents))
        bumped = list(padded)
        bumped[0] += 1
        add(tuple(bumped), coeff)
        for alpha_idx in range(r):
            e = padded[alpha_idx]
            if not e:
                continue
            shifted = list(padded)
            shifted[alpha_idx] -= 1
            shifted[alpha_idx + 1] += 1
            add(tuple(shifted), coeff * e * (alpha_idx + 1))
    return out


def bell_expansion(r: int) -> BellExpansion:
    """The order-r expansion G_r, cached per r."""
    if r < 0:
        raise DomainError(f"bell_expansion requires r >= 0, got r={r}")
    if r not in _expansion_cache:
        top = max(_expansion_cache)
        terms = _expansion_cache[top].terms
        for k in range(top, r):
            terms = dict(sorted(_step(terms, k).items(), key=lambda kv: _graded_lex_key(kv[0])))
            _expansion_cache[k + 1] = BellExpansion(k + 1, terms)
    return _expansion_cache[r]


def beta_F(n: int, x: RationalLike) -> Fraction:
    """F_n(x) as the exact product n! / ((x+1)(x+2)...(x+n+1)).

    With x = p/q this is n! * q**(n+1) / prod(q(k+1) + p, k = 0..n): an
    integer product, reduced once.
    """
    if n < 0:
        raise DomainError(f"beta_F requires n >= 0, got n={n}")
    x = _check_shift(x, "beta_F")
    p, q = x.numerator, x.denominator
    denom = math.prod(q * (k + 1) + p for k in range(n + 1))
    return Fraction(math.factorial(n) * q ** (n + 1), denom)


def alt_power_sum(n: int, x: RationalLike, r: int) -> Fraction:
    """sum(C(n,k) * (-1)**k / (x+k+1)**r, k = 0..n), exact: one point of :func:`alt_power_row`."""
    return alt_power_row(n, x, r, first=n)[0]


def alt_power_row(n_max: int, x: RationalLike, r: int, first: int = 0) -> list[Fraction]:
    """[alt_power_sum(n, x, r) for n = first..n_max], exact.

    With x = p/q term k is C(n,k) * (-1)**k * q**r / d_k**r for the positive
    integer d_k = q(k+1) + p.  One D = lcm(d_0..d_{n_max}) and one table of
    (D/d_k)**r serve every n: each entry sums its integer numerators over
    D**r by the direct C(n,k) sum and is reduced once.  No difference table
    is used, so the row stays independent of the binomial transform.
    """
    if not 0 <= first <= n_max:
        raise DomainError(f"alt_power_sum requires 0 <= n <= n_max, got n={first}, n_max={n_max}")
    if r < 1:
        raise DomainError(f"alt_power_sum requires r >= 1, got r={r}")
    x = _check_shift(x, "alt_power_sum")
    p, q = x.numerator, x.denominator
    bases = [q * (k + 1) + p for k in range(n_max + 1)]
    D = math.lcm(*bases)
    powers = [(D // d) ** r * (-1 if k % 2 else 1) for k, d in enumerate(bases)]
    scale, denominator = q**r, D**r
    # C(first, k) by C(n, k+1) = C(n, k) * (n-k)/(k+1), then Pascal's rule per n
    comb = list(accumulate(range(first), lambda c, k: c * (first - k) // (k + 1), initial=1))
    row = []
    for n in range(first, n_max + 1):
        if n > first:
            comb = [1, *map(operator.add, comb, comb[1:]), 1]
        row.append(Fraction(scale * sum(map(operator.mul, comb, powers)), denominator))
    return row


def _bell_values(h: Sequence, k: int) -> list:
    """[G_0(h), ..., G_k(h)] by G_{j+1} = sum(j!/(j-i)! * h_{i+1} * G_{j-i}, i = j..0).

    ``h`` holds at least h_1..h_k, either integers or equal-shape binary64
    arrays (float mode evaluates a chunk of n at once).  O(k**2) products;
    the products by 1 (the coefficient at i = 0, and G_0) are skipped, and
    each sum runs from i = j down to 0, so h_1 * G_j, the term with the
    longest rounding path, is added last.
    """
    values = [1]
    for j in range(k):
        falling = math.factorial(j)  # j!/(j-i)!, from i = j down
        total = h[j] if falling == 1 else falling * h[j]  # times G_0 = 1
        for i in range(j - 1, -1, -1):
            falling //= j - i
            if falling == 1:
                term = h[i] * values[j - i]
            else:
                term = falling * h[i]
                term *= values[j - i]  # in place: term is a new array or int
            term += total
            total = term
        values.append(total)
    return values


def _derivatives(
    state: HarmonicNumerators, base: Fraction, orders: Sequence[int]
) -> list[Fraction]:
    """F^(j) for each j in ``orders``, given ``state`` at n and base = F_n(x).

    F^(j) = (-1)**j * (q/L)**j * G_j(N_1..N_j) * F_n: one reduced Fraction
    per order.  F_n's denominator divides d_0 * ... * d_n, so every prime of
    L**j times it divides L, which :func:`_reduced_fraction` reduces by.
    """
    values = _bell_values(state.numerators, max(orders))
    out: list[Fraction] = []
    for j in orders:
        numerator = state.q**j * values[j]
        numerator *= -base.numerator if j % 2 else base.numerator
        out.append(_reduced_fraction(numerator, state.L**j * base.denominator, state.L))
    return out


def derivative_rows(
    n_max: int, x: RationalLike, r_max: int, harmonic_order: int | None = None
) -> list[tuple[tuple[Fraction, ...], list[Fraction]]]:
    """Row n = ((H_n(x,1), ..., H_n(x,h)), [F_n^(0)(x), ..., F_n^(r_max)(x)]).

    h is ``harmonic_order``, r_max + 1 by default; it must be at least
    r_max.  One harmonic pass serves every n <= n_max, beside the one F_n
    recurrence F_n = F_{n-1} * n/(x+n+1); the derivatives come from the
    integer evaluation :func:`derivative_F` uses.
    """
    state = HarmonicNumerators(x, r_max + 1 if harmonic_order is None else harmonic_order)
    f_val = Fraction(1)
    rows = []
    for n in range(n_max + 1):
        state.advance()
        inv = 1 / (state.x + n + 1)
        f_val *= n * inv if n else inv
        rows.append((state.values(), _derivatives(state, f_val, range(r_max + 1))))
    return rows


def mixed_sum(
    harmonics: Sequence[Fraction], derivatives: Sequence[Fraction], r: int
) -> Fraction:
    """(-1)^r/(r+1)! * sum_l C(r,l) l! (-1)^l harmonics[l] derivatives[r-l].

    With the entries of a :func:`derivative_rows` row this is the mixed
    harmonic/derivative side of the general-order finite identity (Theorem
    2.6), which states that it equals alt_power_sum(n, x, r+2).  The terms
    are summed as integer numerators over a running lcm of their
    denominators and reduced once.
    """
    numerator, denominator = 0, 1
    falling = 1  # C(r, l) * l! = r!/(r-l)!
    for l in range(r + 1):
        h, d = harmonics[l], derivatives[r - l]
        term_denominator = h.denominator * d.denominator
        common = math.lcm(denominator, term_denominator)
        term = falling * h.numerator * d.numerator * (common // term_denominator)
        numerator = numerator * (common // denominator) + (-term if l % 2 else term)
        denominator = common
        falling *= r - l
    numerator = -numerator if r % 2 else numerator
    return Fraction(numerator, denominator * math.factorial(r + 1))


def derivative_F(n: int, x: RationalLike, r: int) -> Fraction:
    """Exact r-th derivative of F_n at x.

    Computed as (-1)**r * G_r(H_n(x,1),...,H_n(x,r)) * F_n(x), with G_r
    evaluated on the integer numerators of the harmonic sums by
    :func:`_bell_values`; agrees with r! * (-1)**r * alt_power_sum(n, x, r+1)
    for every n, x, r.
    """
    if r < 0:
        raise DomainError(f"derivative_F requires r >= 0, got r={r}")
    base = beta_F(n, x)
    if r == 0:
        return base
    state = HarmonicNumerators(x, r)
    state.advance(n + 1)
    return _derivatives(state, base, [r])[0]
