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
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

RationalLike = Union[Fraction, int]

__all__ = [
    "DomainError",
    "HarmonicVector",
    "HarmonicNumerators",
    "BernoulliTable",
    "parse_rational",
    "format_rational",
    "binomial",
    "harmonic_number",
    "harmonic_function",
    "harmonic_vector",
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


@dataclass(frozen=True)
class HarmonicVector:
    """The tuple (H_n(x,1), ..., H_n(x,r)) for fixed n and shift x.

    All entries are strictly positive because every base k+x+1 is
    positive on the domain x > -1.
    """

    n: int
    x: Fraction
    values: tuple[Fraction, ...]

    @property
    def order(self) -> int:
        return len(self.values)

    def value(self, alpha: int) -> Fraction:
        """Entry for exponent alpha (1-based)."""
        return self.values[alpha - 1]


class HarmonicNumerators:
    """Running H_k(x, 1..order) as integer numerators over one denominator.

    With x = p/q in lowest terms every base k + x + 1 equals d_k/q for the
    positive integer d_k = q(k+1) + p.  For L = lcm(d_0..d_k),

        H_k(x, alpha) = q**alpha * numerators[alpha-1] / L**alpha,

    so each step is integer-only, with a single gcd against the small new
    base.  The state starts empty (every sum 0); the first :meth:`advance`
    takes in d_0, and each later one the next base.  :meth:`fold` takes in
    a run of following bases at once, kept as a second state, and
    :meth:`tree` builds the state over a run of bases by such joins.
    """

    def __init__(self, x: RationalLike, order: int) -> None:
        if order < 1:
            raise DomainError(f"harmonic rows require order >= 1, got order={order}")
        self.x = _check_shift(x)
        self.order = order
        self.q = self.x.denominator
        self._d = self.x.numerator + self.q  # d_0
        self.L = 1
        self.numerators = [0] * order

    @classmethod
    def tree(cls, x: RationalLike, order: int, count: int) -> HarmonicNumerators:
        """The state over the bases d_0..d_{count-1}, built by lcm splitting.

        It equals ``count`` advances of ``cls(x, order)``.  The run of bases
        is halved down to single bases, and the halves are joined as
        :meth:`fold` joins two states.  The large lcms and numerators then
        form only in the top levels of a balanced tree, not once per base:
        binary splitting (Haible and Papanikolaou, *Fast multiprecision
        evaluation of series of rational numbers*, 1998).
        """
        if count < 0:
            raise DomainError(f"a run of bases requires count >= 0, got count={count}")
        state = cls(x, order)
        d0, q = state._d, state.q

        def run(k: int, n: int) -> tuple[int, list[int]]:
            # (L, numerators) over the n bases d_k..d_{k+n-1}
            if n == 1:  # what one advance from the empty state leaves
                return d0 + k * q, [1] * order
            half = n // 2
            return _join_runs(*run(k, half), *run(k + half, n - half))

        if count:
            state.L, state.numerators = run(0, count)
            state._d = d0 + count * q
        return state

    def advance(self) -> int:
        """Move k -> k+1; returns the factor g by which L grew (1 if none)."""
        d = self._d
        g = d // math.gcd(self.L, d)
        self.L *= g
        c = self.L // d
        c_pow = 1
        g_pow = 1
        for i in range(self.order):
            c_pow *= c
            g_pow *= g
            self.numerators[i] = self.numerators[i] * g_pow + c_pow
        self._d = d + self.q
        return g

    def fold(self, block: HarmonicNumerators) -> int:
        """Add the rows of ``block``, which continues where this state stops.

        ``block`` must have the same order and start at the next base: its
        shift is x + k for this state's k advances, so its bases are
        d_k, d_{k+1}, ...  Afterwards this state is where advancing through
        every base ``block`` took in would have left it.  Returns the factor
        by which L grew (1 if none).
        """
        if block.order != self.order or block.x != Fraction(self._d, self.q) - 1:
            raise DomainError(
                "fold requires a block of the same order that starts at the next base"
            )
        L, self.numerators = _join_runs(self.L, self.numerators, block.L, block.numerators)
        g = L // self.L
        self.L = L
        self._d = block._d
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


def harmonic_vector(n: int, x: RationalLike, r: int) -> HarmonicVector:
    """All of H_n(x,1)..H_n(x,r) in one pass over the shared bases k+x+1."""
    if n < 0:
        raise DomainError(f"harmonic_vector requires n >= 0, got n={n}")
    if r < 1:
        raise DomainError(f"harmonic_vector requires r >= 1, got r={r}")
    rows = HarmonicNumerators(x, r)
    for _ in range(n + 1):
        rows.advance()
    return HarmonicVector(n=n, x=rows.x, values=rows.values())


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
