"""Exact rational arithmetic and the fundamental number families.

Everything here is built on :class:`fractions.Fraction`, which already
guarantees the two invariants we need from a rational scalar: the stored
value is always reduced (gcd of numerator and denominator is 1) and the
denominator is always positive.  The canonical text form is ``"p/q"`` with
the denominator omitted when it equals 1 (``"11/6"``, ``"-1/30"``, ``"5"``),
which is exactly what ``str(Fraction)`` produces; :func:`parse_rational`
accepts only that form.

Big rationals here carry denominators built from a known lcm L, so
:func:`_reduced_fraction` reduces them from gcd(numerator mod L, L) rather
than a full gcd, and :func:`format_rational` prints a large integer by
divide and conquer in :mod:`decimal`, not by the quadratic ``str(int)``.
"""

from __future__ import annotations

import decimal
import functools
import math
import numbers
import operator
import re
from fractions import Fraction
from typing import Union

RationalLike = Union[Fraction, int]

__all__ = [
    "DomainError",
    "HarmonicNumerators",
    "parse_rational",
    "format_rational",
    "harmonic_number",
    "harmonic_function",
    "bernoulli_table",
    "zeta_even_coefficient",
]


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def parse_rational(text: str) -> Fraction:
    """Parse the canonical ``"p/q"`` form (sign on p only, no decimals).

    A p or q longer than the interpreter's int digit limit (4,300 digits by
    default) is refused as well.
    """
    if not isinstance(text, str) or not _RATIONAL_RE.match(text):
        raise DomainError(f"not a p/q rational: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise DomainError(f"zero denominator: {text!r}") from None
    except ValueError:  # int() refuses more digits than the interpreter's limit
        raise DomainError(
            f"p/q rational of {len(text)} characters exceeds the int digit limit"
        ) from None


# Integers of at most this many bits print by str: below 30,000 bits it is
# faster than the decimal split, and 2**2048 has 617 digits, under 640, the
# least int->str digit limit Python accepts, so str never refuses them.
_STR_BITS = 2048


def _decimal_text(n: int) -> str:
    """Decimal digits of the integer n, by splitting at powers of 2 held in decimal.

    n = hi * 2**w + lo with w half its bits; both halves convert recursively
    and join by one libmpdec product and sum, which are sub-quadratic, so
    the whole costs O(M(n) log n) where ``str(n)`` is quadratic (Brent and
    Zimmermann, *Modern Computer Arithmetic*, 2010, sec. 1.7).  Every value
    is an exact integer: the context has the largest precision and traps
    Inexact.
    """
    powers: dict[int, decimal.Decimal] = {}

    def power(w: int) -> decimal.Decimal:  # 2**w, each w built once
        if w not in powers:
            powers[w] = (
                decimal.Decimal(1 << w) if w <= _STR_BITS else power(w // 2) * power(w - w // 2)
            )
        return powers[w]

    def convert(n: int, bits: int) -> decimal.Decimal:
        if bits <= _STR_BITS:
            return decimal.Decimal(n)
        w = bits // 2
        hi = n >> w
        return convert(hi, bits - w) * power(w) + convert(n - (hi << w), w)

    with decimal.localcontext() as context:
        context.prec = decimal.MAX_PREC
        context.Emax = decimal.MAX_EMAX
        context.traps[decimal.Inexact] = True
        text = str(convert(abs(n), abs(n).bit_length()))
    return "-" + text if n < 0 else text


def _int_text(n: int) -> str:
    return str(n) if n.bit_length() <= _STR_BITS else _decimal_text(n)


def format_rational(value: RationalLike) -> str:
    """Canonical ``"p/q"`` text, denominator omitted when it is 1.

    The one text route for a rational: equal to ``str(Fraction(value))``
    with no int->str digit limit, and sub-quadratic in the digit count.
    """
    if not isinstance(value, Fraction):
        value = Fraction(value)
    numerator, denominator = value.numerator, value.denominator
    if denominator == 1:
        return _int_text(numerator)
    return f"{_int_text(numerator)}/{_int_text(denominator)}"


# _coprime_fraction(n, d) is the Fraction n/d for coprime ints n and d > 0,
# built without a gcd
try:
    _coprime_fraction = Fraction._from_coprime_ints  # Python >= 3.12
except AttributeError:
    _coprime_fraction = functools.partial(Fraction, _normalize=False)


# Denominators of at most this many bits are reduced by Fraction's own gcd:
# up to about 2,000 bits it is as fast as the loop below.
_GCD_BITS = 2048


def _reduced_fraction(numerator: int, denominator: int, base: int) -> Fraction:
    """numerator/denominator in lowest terms, when every prime of the
    denominator divides ``base``.

    The denominators here are products of powers of a known lcm L, with
    base = L, so the gcd comes from the small c = gcd(numerator mod L, L)
    rather than from a full gcd of two big integers.  The loop

        c = gcd(numerator, denominator, base)
        while c > 1: divide both by c;  c = gcd(c, numerator, denominator)

    divides out exactly g = gcd(numerator, denominator), with multiplicity.
    Fix a prime p and let a, b be its exponents in the current numerator
    and denominator; p contributes min(a, b) to g at the start.  Every c
    divides both, so a pass lowers a and b by the same e = v_p(c) <=
    min(a, b): it never removes more of p than g holds.  The first c has
    e = min(a, b, v_p(base)), and every prime of the denominator divides
    base, so e > 0 whenever min(a, b) > 0.  After a pass the next c has
    e' = min(e, a, b), which is 0 only if e = 0 or min(a, b) = 0; so by
    induction e > 0 for as long as min(a, b) > 0.  The loop ends at c = 1,
    that is e = 0 for every p, so min(a, b) = 0 for every p: the two are
    coprime, and exactly min(a, b) of each p, which is g, was divided out.
    It ends because each pass divides the positive denominator by c > 1:
    p keeps e = e_0 while min(a, b) >= e_0, then takes one smaller pass,
    at most min(a, b)/e_0 + 1 passes in all.  One numerator mod base and
    O(size * size of c) per pass replace the full gcd; the denominators
    here share a factor of a few dozen bits at most, so one or two passes
    do.

    A numerator of 0 gives 0; small denominators take Fraction's own gcd.
    """
    if denominator.bit_length() <= _GCD_BITS or not numerator:
        return Fraction(numerator, denominator)
    c = math.gcd(numerator % base, base)
    c = math.gcd(c, denominator % c)
    while c > 1:
        numerator //= c
        denominator //= c
        c = math.gcd(c, numerator % c, denominator % c)
    return _coprime_fraction(numerator, denominator)


def _check_power_sum(name: str, n: int, alpha: int) -> None:
    """Refuse, for the power sum ``name``, n < 0 and then alpha < 1."""
    if n < 0:
        raise DomainError(f"{name} requires n >= 0, got n={n}")
    if alpha < 1:
        raise DomainError(f"{name} requires alpha >= 1, got alpha={alpha}")


def harmonic_number(n: int, alpha: int) -> Fraction:
    """Generalized harmonic number: sum of 1/k**alpha for k = 1..n, that is
    harmonic_function(n - 1, 0, alpha), and 0 for n = 0."""
    _check_power_sum("harmonic_number", n, alpha)
    return harmonic_function(n - 1, 0, alpha) if n else Fraction(0)


def _check_shift(x: RationalLike, name: str) -> Fraction:
    """x as a Fraction; refuse, for ``name``, an x that is not a numbers.Rational
    (a float, a Decimal, a str) and an x <= -1, where a base k + x + 1 is not positive."""
    if not isinstance(x, numbers.Rational):
        raise DomainError(f"{name} requires a rational x, got {type(x).__name__} {x!r}")
    x = Fraction(x)
    if x <= -1:
        raise DomainError(f"{name} requires x > -1, got x={x}")
    return x


def harmonic_function(n: int, x: RationalLike, alpha: int) -> Fraction:
    """Shifted power sum: sum of 1/(k+x+1)**alpha for k = 0..n, exact.

    Summed on :class:`HarmonicNumerators` at order alpha alone, over the n + 1
    bases k + x + 1.  At x = 0 this equals ``harmonic_number(n + 1, alpha)``.
    """
    _check_power_sum("harmonic_function", n, alpha)
    state = HarmonicNumerators(_check_shift(x, "harmonic_function"), alpha, lowest=alpha)
    state.advance(n + 1)
    return state.values()[0]


class HarmonicNumerators:
    """Running H_k(x, lowest..order) as integer numerators over one denominator.

    With x = p/q in lowest terms every base k + x + 1 equals d_k/q for the
    positive integer d_k = q(k+1) + p.  For L = lcm(d_0..d_k),

        H_k(x, alpha) = q**alpha * numerators[alpha-lowest] / L**alpha,

    so each base is taken in by integer operations only.  The orders are
    lowest..order, 1..order by default; a caller that sums one order alone
    sets lowest = order.  The state starts empty (every sum 0);
    :meth:`advance` takes in the next bases, the first of them d_0.
    """

    def __init__(self, x: RationalLike, order: int, lowest: int = 1) -> None:
        if not 1 <= lowest <= order:
            raise DomainError(
                f"harmonic rows require 1 <= lowest <= order, got lowest={lowest}, order={order}"
            )
        self.x = _check_shift(x, "HarmonicNumerators")
        self.lowest = lowest
        self.q = self.x.denominator
        self._d = self.x.numerator + self.q  # the next base, d_0 at first
        self.L = 1
        self.numerators = [0] * (order - lowest + 1)

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
            self.lowest,
            self.L,
            self.numerators,
            *_run(self._d, self.q, self.lowest, len(self.numerators), count),
        )
        g = L // self.L
        self.L = L
        self._d += count * self.q
        return g

    def values(self) -> tuple[Fraction, ...]:
        """(H_k(x,lowest), ..., H_k(x,order)) as reduced Fractions."""
        out: list[Fraction] = []
        q_pow = self.q ** (self.lowest - 1)
        L_pow = self.L ** (self.lowest - 1)
        for numerator in self.numerators:
            q_pow *= self.q
            L_pow *= self.L
            out.append(_reduced_fraction(q_pow * numerator, L_pow, self.L))
        return tuple(out)


def _join_runs(
    lowest: int, L1: int, numerators1: list[int], L2: int, numerators2: list[int]
) -> tuple[int, list[int]]:
    """The numerators of orders lowest.. over two consecutive runs of bases,
    put over lcm(L1, L2)."""
    L = math.lcm(L1, L2)
    g = L // L1
    h = L // L2
    g_pow = g ** (lowest - 1)
    h_pow = h ** (lowest - 1)
    out: list[int] = []
    for a, b in zip(numerators1, numerators2):
        g_pow *= g
        h_pow *= h
        out.append(a * g_pow + b * h_pow)
    return L, out


#: Runs of at most this many bases are summed directly, not split further.
_LEAF_BASES = 16


def _run(d: int, q: int, lowest: int, orders: int, n: int) -> tuple[int, list[int]]:
    """(L, numerators of orders lowest..lowest+orders-1) over the n >= 1 bases
    d, d + q, ..., d + (n-1)q.

    A run of at most _LEAF_BASES bases is a leaf: with L = lcm of its bases
    and t = L // base, the numerator of order alpha is the sum of
    t**alpha, each power after the first one product from the last.
    Longer runs are halved and joined.
    """
    if n == 1:
        return d, [1] * orders
    if n <= _LEAF_BASES:
        bases = range(d, d + n * q, q)
        L = math.lcm(*bases)
        cofactors = [L // base for base in bases]
        powers = cofactors if lowest == 1 else [t**lowest for t in cofactors]
        numerators = [sum(powers)]
        for _ in range(orders - 1):
            powers = list(map(operator.mul, powers, cofactors))
            numerators.append(sum(powers))
        return L, numerators
    half = n // 2
    return _join_runs(
        lowest,
        *_run(d, q, lowest, orders, half),
        *_run(d + half * q, q, lowest, orders, n - half),
    )


def bernoulli_table(n_max: int) -> tuple[Fraction, ...]:
    """The Bernoulli numbers B_0..B_N (convention B_1 = -1/2), from the
    recurrence sum(C(n+1,k)*B_k, k=0..n) = 0, B_0 = 1."""
    if n_max < 0:
        raise DomainError(f"bernoulli_table requires N >= 0, got N={n_max}")
    values: list[Fraction] = [Fraction(1)]
    for n in range(1, n_max + 1):
        acc = Fraction(0)
        for k in range(n):
            acc += math.comb(n + 1, k) * values[k]
        values.append(-acc / (n + 1))
    return tuple(values)


def zeta_even_coefficient(n: int) -> Fraction:
    """The rational c with zeta(2n) = c * pi**(2n).

    c = (-1)**(n+1) * B_{2n} * 2**(2n) / (2 * (2n)!); always positive.
    """
    if n < 1:
        raise DomainError(f"zeta_even_coefficient requires n >= 1, got n={n}")
    b = bernoulli_table(2 * n)[2 * n]
    sign = 1 if n % 2 == 1 else -1
    return sign * b * Fraction(2 ** (2 * n), 2 * math.factorial(2 * n))
