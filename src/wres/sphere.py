"""Monomial integrals over the unit cosphere S^{n-1}, exact up to the volume.

Values are reported as rational multiples of Vol(S^{n-1}); the volume
itself (2 pi^m / Gamma(m)) stays symbolic so every identity remains a
statement about exact rationals.  The recursion pairs the first index
slot against each remaining slot:

    I^{g1...gd} = (d - 2 + n)^{-1} sum_{j>=2} delta^{g1 gj} I^{...without 1,j}
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache


@lru_cache(maxsize=None)
def _reduce(n: int, sig: tuple) -> Fraction:
    # sig: sorted tuple of positive even exponents (zeros stripped)
    if not sig:
        return Fraction(1)
    d = sum(sig)
    e = sig[0]
    # pairing the first slot of the leading variable with one of its
    # e-1 remaining slots; cross-variable pairings vanish since the
    # delta never matches
    rest = tuple(sorted(s for s in ((e - 2,) + sig[1:]) if s))
    return Fraction(e - 1, d - 2 + n) * _reduce(n, rest)


def vol_multiplier(n: int, exponents: tuple) -> Fraction:
    """Rational r with integral(prod xi_a^{alpha_a}) = r * Vol(S^{n-1})."""
    if len(exponents) != n:
        raise ValueError("exponent tuple length must equal the dimension")
    if any(e < 0 for e in exponents):
        raise ValueError("exponents must be nonnegative")
    if any(e % 2 for e in exponents):
        return Fraction(0)
    sig = tuple(sorted(e for e in exponents if e))
    return _reduce(n, sig)


def sphere_volume(n: int) -> float:
    """Numeric Vol(S^{n-1}) = 2 pi^m / Gamma(m) for n = 2m."""
    m = n // 2
    if 2 * m != n:
        raise ValueError("dimension must be even")
    return 2.0 * math.pi**m / math.gamma(m)
