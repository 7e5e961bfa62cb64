"""Monomial integrals over the unit cosphere S^{n-1}, exact up to the volume.

Values are reported as integer pairs (num, den), the rational multiple
num/den of Vol(S^{n-1}); the volume itself (2 pi^m / Gamma(m)) stays
symbolic so every identity remains a statement about exact integers.
An odd monomial integrates to zero; an even one has the closed form

    integral(prod xi_a^{alpha_a}) / Vol(S^{n-1})
        = prod_a (alpha_a - 1)!! / (n (n+2) ... (n + |alpha| - 2))

(Folland, "How to integrate a polynomial over a sphere", Amer. Math.
Monthly 108, 2001), so a degree-2k weight has the denominator
n (n+2) ... (n+2k-2) whatever the monomial.
"""

from __future__ import annotations

import math
from functools import lru_cache


@lru_cache(maxsize=None)
def vol_multiplier(n: int, exponents: tuple) -> tuple:
    """Integers (num, den) with integral(prod xi_a^{alpha_a}) = num/den *
    Vol(S^{n-1}): num = prod (alpha_a - 1)!! and den = n (n+2) ... (n +
    |alpha| - 2), not reduced; (0, 1) for an odd monomial."""
    if len(exponents) != n:
        raise ValueError("exponent tuple length must equal the dimension")
    if any(e < 0 for e in exponents):
        raise ValueError("exponents must be nonnegative")
    if any(e % 2 for e in exponents):
        return 0, 1
    num = math.prod(math.prod(range(e - 1, 0, -2)) for e in exponents)
    return num, math.prod(range(n, n + sum(exponents) - 1, 2))


def sphere_volume(n: int) -> float:
    """Numeric Vol(S^{n-1}) = 2 pi^m / Gamma(m) for n = 2m."""
    m = n // 2
    if 2 * m != n:
        raise ValueError("dimension must be even")
    return 2.0 * math.pi**m / math.gamma(m)
