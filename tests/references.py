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
    return sum((Fraction(1, k**alpha) for k in range(1, n + 1)), Fraction(0))


def direct_harmonic_function(n, x, alpha):
    """sum of 1/(k+x+1)**alpha for k = 0..n, one Fraction per term."""
    x = Fraction(x)
    return sum((1 / (k + x + 1) ** alpha for k in range(n + 1)), Fraction(0))
