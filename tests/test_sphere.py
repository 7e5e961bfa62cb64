"""Cosphere monomial integrals against an independent closed-form oracle."""

from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import comb

import pytest

from wres.sphere import sphere_volume, vol_multiplier


def double_factorial(k: int) -> int:
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def oracle(n: int, exponents: tuple) -> Fraction:
    """Gaussian-moment formula: prod (a_i - 1)!! / (n (n+2) ... (n+d-2))."""
    if any(e % 2 for e in exponents):
        return Fraction(0)
    d = sum(exponents)
    num = 1
    for e in exponents:
        num *= double_factorial(e - 1) if e else 1
    den = 1
    for k in range(0, d, 2):
        den *= n + k
    return Fraction(num, den)


def closed_pair(n: int, exponents: tuple) -> tuple:
    """(prod (a_i - 1)!!, prod_{j < d/2} (n + 2j)) of an even monomial of degree d."""
    num = 1
    for e in exponents:
        num *= double_factorial(e - 1)
    den = 1
    for j in range(sum(exponents) // 2):
        den *= n + 2 * j
    return num, den


def monomials(n: int, max_degree: int):
    """Every exponent tuple of n variables with total degree <= max_degree."""
    for d in range(max_degree + 1):
        for idx in combinations_with_replacement(range(n), d):
            exponents = [0] * n
            for a in idx:
                exponents[a] += 1
            yield tuple(exponents)


class TestSmallValues:
    def test_constant_integrates_to_volume(self):
        assert vol_multiplier(4, (0, 0, 0, 0)) == (1, 1)
        assert Fraction(*vol_multiplier(4, (0, 0, 0, 0))) == 1

    def test_squares_give_vol_over_n(self):
        for n in (2, 4, 6):
            for a in range(n):
                mono = tuple(2 * int(i == a) for i in range(n))
                assert Fraction(*vol_multiplier(n, mono)) == Fraction(1, n)

    def test_quartic_values_n4(self):
        assert Fraction(*vol_multiplier(4, (4, 0, 0, 0))) == Fraction(1, 8)
        assert Fraction(*vol_multiplier(4, (2, 2, 0, 0))) == Fraction(1, 24)

    def test_odd_exponents_vanish(self):
        for n, mono in ((4, (1, 0, 0, 0)), (4, (2, 1, 2, 0)), (6, (3, 3, 0, 0, 0, 0))):
            assert vol_multiplier(n, mono) == (0, 1)
            assert Fraction(*vol_multiplier(n, mono)) == 0

    def test_permutation_invariance(self):
        assert vol_multiplier(6, (4, 2, 0, 0, 0, 0)) == vol_multiplier(
            6, (0, 0, 2, 0, 4, 0)
        )

    def test_input_validation(self):
        # twice each: a memoised call still runs the checks
        for _ in range(2):
            with pytest.raises(ValueError):
                vol_multiplier(4, (2, 0, 0))
            with pytest.raises(ValueError):
                vol_multiplier(4, (-2, 0, 0, 0))


class TestIntegerWeights:
    @pytest.mark.parametrize("n", range(2, 13))
    def test_closed_integer_pair_through_degree_eight(self, n):
        # every weight is an integer over n (n+2) ... (n+d-2), equal as
        # a rational to the Gaussian-moment oracle
        checked = 0
        try:
            for exponents in monomials(n, 8):
                got = vol_multiplier(n, exponents)
                if any(e % 2 for e in exponents):
                    assert got == (0, 1), exponents
                else:
                    assert got == closed_pair(n, exponents), exponents
                assert Fraction(*got) == oracle(n, exponents), exponents
                checked += 1
        finally:
            # up to 125,970 monomials per n: do not keep them memoised
            vol_multiplier.cache_clear()
        assert checked == comb(n + 8, 8)

    @pytest.mark.parametrize("n", [2, 3, 6, 10])
    def test_sum_of_squares_identity_through_degree_eight(self, n):
        # |xi|^2 = 1 on the sphere: summing xi_a^2 against any monomial
        # of degree <= 6 reproduces it, so each degree fixes the next
        for base in monomials(n, 6):
            total = Fraction(0)
            for a in range(n):
                bumped = tuple(e + 2 * int(i == a) for i, e in enumerate(base))
                total += Fraction(*vol_multiplier(n, bumped))
            assert total == Fraction(*vol_multiplier(n, base)), base
        vol_multiplier.cache_clear()


class TestOracleAgreement:
    @pytest.mark.parametrize("n", [4, 6])
    def test_all_signatures_through_degree_six(self, n):
        checked = 0
        for exponents in product(range(0, 7), repeat=n):
            if sum(exponents) > 6:
                continue
            assert Fraction(*vol_multiplier(n, exponents)) == oracle(n, exponents), exponents
            checked += 1
        assert checked > 100

    def test_degree_normalization_identity(self):
        # summing xi_a^2 against any even monomial reproduces the monomial
        n = 4
        for base in ((2, 0, 0, 0), (2, 2, 0, 0), (4, 0, 0, 0)):
            total = Fraction(0)
            for a in range(n):
                bumped = tuple(e + 2 * int(i == a) for i, e in enumerate(base))
                total += Fraction(*vol_multiplier(n, bumped))
            assert total == Fraction(*vol_multiplier(n, base))


class TestNumericVolume:
    def test_known_values(self):
        # Vol(S^3) = 2 pi^2, Vol(S^1) = 2 pi
        assert sphere_volume(4) == pytest.approx(19.7392088021787)
        assert sphere_volume(2) == pytest.approx(6.283185307179586)

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValueError):
            sphere_volume(3)
