"""Exact rational arithmetic and the fundamental number families.

Everything here is built on :class:`fractions.Fraction`, which already
guarantees the two invariants we need from a rational scalar: the stored
value is always reduced (gcd of numerator and denominator is 1) and the
denominator is always positive.  The canonical text form is ``"p/q"`` with
the denominator omitted when it equals 1 (``"11/6"``, ``"-1/30"``, ``"5"``),
which is exactly what ``str(Fraction)`` produces; :func:`parse_rational`
accepts only that form.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

RationalLike = Union[Fraction, int]

__all__ = [
    "DomainError",
    "HarmonicNumerators",
    "BernoulliTable",
    "parse_rational",
    "format_rational",
    "binomial",
    "harmonic_number",
    "harmonic_function",
    "bernoulli_table",
    "zeta_even_coefficient",
]


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def parse_rational(text: str) -> Fraction:
    """Parse the canonical ``"p/q"`` form (sign on p only, no decimals)."""
    if not isinstance(text, str) or not _RATIONAL_RE.match(text):
        raise DomainError(f"not a p/q rational: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise DomainError(f"zero denominator: {text!r}") from None


def format_rational(value: RationalLike) -> str:
    """Canonical ``"p/q"`` text, denominator omitted when it is 1."""
    return str(Fraction(value))


def binomial(n: int, k: int) -> int:
    """C(n, k) with the convention that out-of-range k gives 0."""
    if n < 0:
        raise DomainError(f"binomial requires n >= 0, got n={n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def harmonic_number(n: int, alpha: int) -> Fraction:
    """Generalized harmonic number: sum of 1/k**alpha for k = 1..n (0 for n = 0)."""
    if n < 0:
        raise DomainError(f"harmonic_number requires n >= 0, got n={n}")
    if alpha < 1:
        raise DomainError(f"harmonic_number requires alpha >= 1, got alpha={alpha}")
    return sum((Fraction(1, k**alpha) for k in range(1, n + 1)), Fraction(0))


def _check_shift(x: Fraction) -> Fraction:
    x = Fraction(x)
    if x <= -1:
        raise DomainError(f"requires x > -1, got x={x}")
    return x


def harmonic_function(n: int, x: RationalLike, alpha: int) -> Fraction:
    """Shifted power sum: sum of 1/(k+x+1)**alpha for k = 0..n, exact.

    At x = 0 this equals ``harmonic_number(n + 1, alpha)``.
    """
    if n < 0:
        raise DomainError(f"harmonic_function requires n >= 0, got n={n}")
    if alpha < 1:
        raise DomainError(f"harmonic_function requires alpha >= 1, got alpha={alpha}")
    x = _check_shift(x)
    return sum(
        (Fraction(1, 1) / (k + x + 1) ** alpha for k in range(n + 1)), Fraction(0)
    )


class HarmonicNumerators:
    """Running H_k(x, 1..order) as integer numerators over one denominator.

    With x = p/q in lowest terms every base k + x + 1 equals d_k/q for the
    positive integer d_k = q(k+1) + p.  For L = lcm(d_0..d_k),

        H_k(x, alpha) = q**alpha * numerators[alpha-1] / L**alpha,

    so each base is taken in by integer operations only.  The state starts
    empty (every sum 0); :meth:`advance` takes in the next bases, the first
    of them d_0.
    """

    def __init__(self, x: RationalLike, order: int) -> None:
        if order < 1:
            raise DomainError(f"harmonic rows require order >= 1, got order={order}")
        self.x = _check_shift(x)
        self.order = order
        self.q = self.x.denominator
        self._d = self.x.numerator + self.q  # the next base, d_0 at first
        self.L = 1
        self.numerators = [0] * order

    def advance(self, count: int = 1) -> int:
        """Take in the next ``count`` bases; returns the factor g by which L grew.

        The run of bases is halved down to leaves of at most _LEAF_BASES
        bases, each summed directly, and the halves are joined by
        :func:`_join_runs`; then the run is joined to the state.
        The large lcms and numerators thus form only in the top levels of a
        balanced tree, not once per base: binary splitting (Haible and
        Papanikolaou, *Fast multiprecision evaluation of series of rational
        numbers*, 1998).
        """
        if count < 0:
            raise DomainError(f"a run of bases requires count >= 0, got count={count}")
        if not count:
            return 1
        L, self.numerators = _join_runs(
            self.L, self.numerators, *_run(self._d, self.q, self.order, count)
        )
        g = L // self.L
        self.L = L
        self._d += count * self.q
        return g

    def values(self) -> tuple[Fraction, ...]:
        """(H_k(x,1), ..., H_k(x,order)) as reduced Fractions."""
        out: list[Fraction] = []
        q_pow = 1
        L_pow = 1
        for numerator in self.numerators:
            q_pow *= self.q
            L_pow *= self.L
            out.append(Fraction(q_pow * numerator, L_pow))
        return tuple(out)


def _join_runs(
    L1: int, numerators1: list[int], L2: int, numerators2: list[int]
) -> tuple[int, list[int]]:
    """The numerators over two consecutive runs of bases, put over lcm(L1, L2)."""
    L = math.lcm(L1, L2)
    g = L // L1
    h = L // L2
    g_pow = 1
    h_pow = 1
    out: list[int] = []
    for a, b in zip(numerators1, numerators2):
        g_pow *= g
        h_pow *= h
        out.append(a * g_pow + b * h_pow)
    return L, out


#: Runs of at most this many bases are summed directly, not split further.
_LEAF_BASES = 16


def _run(d: int, q: int, order: int, n: int) -> tuple[int, list[int]]:
    """(L, numerators) over the n >= 1 bases d, d + q, ..., d + (n-1)q.

    A run of at most _LEAF_BASES bases is a leaf: with L = lcm of its bases
    and t = L // base, numerator alpha is the sum of t**alpha, each power
    one product from the last.  Longer runs are halved and joined.
    """
    if n == 1:
        return d, [1] * order
    if n <= _LEAF_BASES:
        bases = range(d, d + n * q, q)
        L = math.lcm(*bases)
        cofactors = [L // base for base in bases]
        powers = cofactors
        numerators = [sum(powers)]
        for _ in range(order - 1):
            powers = list(map(operator.mul, powers, cofactors))
            numerators.append(sum(powers))
        return L, numerators
    half = n // 2
    return _join_runs(*_run(d, q, order, half), *_run(d + half * q, q, order, n - half))


@dataclass(frozen=True)
class BernoulliTable:
    """Bernoulli numbers B_0..B_N (convention B_1 = -1/2)."""

    values: tuple[Fraction, ...]

    def __getitem__(self, index: int) -> Fraction:
        return self.values[index]

    def __len__(self) -> int:
        return len(self.values)


def bernoulli_table(n_max: int) -> BernoulliTable:
    """B_0..B_N from the recurrence sum(C(n+1,k)*B_k, k=0..n) = 0, B_0 = 1."""
    if n_max < 0:
        raise DomainError(f"bernoulli_table requires N >= 0, got N={n_max}")
    values: list[Fraction] = [Fraction(1)]
    for n in range(1, n_max + 1):
        acc = Fraction(0)
        for k in range(n):
            acc += math.comb(n + 1, k) * values[k]
        values.append(-acc / (n + 1))
    return BernoulliTable(values=tuple(values))


def zeta_even_coefficient(n: int) -> Fraction:
    """The rational c with zeta(2n) = c * pi**(2n).

    c = (-1)**(n+1) * B_{2n} * 2**(2n) / (2 * (2n)!); always positive.
    """
    if n < 1:
        raise DomainError(f"zeta_even_coefficient requires n >= 1, got n={n}")
    b = bernoulli_table(2 * n)[2 * n]
    sign = 1 if n % 2 == 1 else -1
    return sign * b * Fraction(2 ** (2 * n), 2 * math.factorial(2 * n))
