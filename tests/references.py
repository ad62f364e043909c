"""Reference routes shared by the tests, independent of the package's own.

``evaluate`` is the reference route for G_r; the direct Fraction sums
below are the reference routes for the harmonic kernel, which the package's
``harmonic_number`` and ``harmonic_function`` sum on.
"""

import math
from fractions import Fraction


def evaluate(poly, values):
    """sum(coeff * prod(values[i]**e_i)) over the monomials of ``poly``."""
    return sum(
        coeff * math.prod(v**e for v, e in zip(values, exponents))
        for exponents, coeff in poly.items()
    )


def direct_harmonic_number(n, alpha):
    """sum of 1/k**alpha for k = 1..n, one Fraction per term."""
    return direct_harmonic_numbers([n], alpha)[0]


def direct_harmonic_numbers(stops, alpha):
    """direct_harmonic_number(m, alpha) at each m of the ascending ``stops``.

    The terms between two stops are added in pairs, then pairs of pairs,
    so the large denominators meet only near the top of the tree.
    """
    out, total, start = [], Fraction(0), 1
    for m in stops:
        total += _pairwise_sum(start, m + 1, alpha)
        start = max(start, m + 1)
        out.append(total)
    return out


def _pairwise_sum(a, b, alpha):
    """sum of 1/k**alpha for a <= k < b, halving the range down to 16 terms."""
    if b - a <= 16:
        return sum((Fraction(1, k**alpha) for k in range(a, b)), Fraction(0))
    mid = (a + b) // 2
    return _pairwise_sum(a, mid, alpha) + _pairwise_sum(mid, b, alpha)


def direct_harmonic_function(n, x, alpha):
    """sum of 1/(k+x+1)**alpha for k = 0..n, one Fraction per term."""
    x = Fraction(x)
    return sum((1 / (k + x + 1) ** alpha for k in range(n + 1)), Fraction(0))
