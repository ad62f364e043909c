"""Polynomial evaluation shared by the tests: the reference route for G_r."""

import math


def evaluate(poly, values):
    """sum(coeff * prod(values[i]**e_i)) over the monomials of ``poly``."""
    return sum(
        coeff * math.prod(v**e for v, e in zip(values, exponents))
        for exponents, coeff in poly.items()
    )
