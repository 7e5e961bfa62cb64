"""Ring axioms and canonical renderings of the exact scalar layer."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wres.scalars import GaussianRational, ScalarPoly

fracs = st.fractions(min_value=-5, max_value=5, max_denominator=6)
coeffs = st.builds(GaussianRational, fracs, fracs)
polys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), coeffs, max_size=4
).map(ScalarPoly)


class TestGaussianRational:
    def test_field_operations(self):
        x = GaussianRational(Fraction(1, 2), Fraction(3))
        y = GaussianRational(Fraction(-2), Fraction(1, 3))
        assert x + y == GaussianRational(Fraction(-3, 2), Fraction(10, 3))
        assert x - y == GaussianRational(Fraction(5, 2), Fraction(8, 3))
        # (1/2 + 3i)(-2 + i/3) = -1 - i - 6i + i^2 = -2 - 35/6 i ... kept exact
        assert x * y == GaussianRational(
            Fraction(1, 2) * -2 - Fraction(3) * Fraction(1, 3),
            Fraction(1, 2) * Fraction(1, 3) + Fraction(3) * -2,
        )
        assert -x == GaussianRational(Fraction(-1, 2), Fraction(-3))

    def test_real_product_stays_real(self):
        x = GaussianRational(Fraction(2, 3))
        y = GaussianRational(Fraction(-9, 4))
        assert (x * y).is_real
        assert x * y == GaussianRational(Fraction(-3, 2))

    def test_str_forms(self):
        assert str(GaussianRational(3)) == "3"
        assert str(GaussianRational(0, 2)) == "2i"
        assert str(GaussianRational(Fraction(1, 2), 3)) == "1/2+3i"
        assert str(GaussianRational(1, -2)) == "1-2i"

    def test_truthiness_and_equality_with_rationals(self):
        assert not GaussianRational(0, 0)
        assert GaussianRational(0, 1)
        assert GaussianRational(Fraction(7, 2)) == Fraction(7, 2)
        assert GaussianRational(1, 1) != 1

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            GaussianRational(0.5)


class TestScalarPolyRing:
    @given(polys, polys, polys)
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms(self, p, q, r):
        assert p + q == q + p
        assert (p + q) + r == p + (q + r)
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p + ScalarPoly.zero() == p
        assert p * ScalarPoly.one() == p
        assert p - p == ScalarPoly.zero()

    @given(polys, polys)
    @settings(max_examples=40, deadline=None)
    def test_evaluate_is_a_homomorphism(self, p, q):
        for a0, b0 in ((1, 1), (Fraction(2, 3), Fraction(-5, 7))):
            assert (p * q).evaluate(a0, b0) == p.evaluate(a0, b0) * q.evaluate(a0, b0)
            assert (p + q).evaluate(a0, b0) == p.evaluate(a0, b0) + q.evaluate(a0, b0)

    def test_zero_coefficients_are_purged(self):
        p = ScalarPoly({(1, 1): GaussianRational(2), (2, 0): GaussianRational(0)})
        assert (2, 0) not in p.terms
        assert p == ScalarPoly.monomial(1, 1, 2)

    def test_imag_unit_squares_to_minus_one(self):
        i = ScalarPoly.imag_unit()
        assert i * i == ScalarPoly.const(-1)


class TestScalarPolyQueries:
    def test_min_ab_power_and_shift(self):
        p = ScalarPoly.monomial(2, 3) + ScalarPoly.monomial(3, 2)
        assert p.min_ab_power() == 2
        down = p.shift_ab(-2)
        assert down == ScalarPoly.monomial(0, 1) + ScalarPoly.monomial(1, 0)
        assert down.shift_ab(2) == p

    def test_shift_refuses_nondivisible_power(self):
        p = ScalarPoly.a0()
        with pytest.raises(ValueError):
            p.shift_ab(-1)

    def test_zero_poly_min_power(self):
        assert ScalarPoly.zero().min_ab_power() == 0

    def test_is_real(self):
        assert ScalarPoly.monomial(1, 1, Fraction(-1, 2)).is_real()
        assert not ScalarPoly.imag_unit().is_real()


class TestRenderings:
    def test_text_golden(self):
        p = ScalarPoly.monomial(2, 2, Fraction(-1, 6))
        assert p.text() == "a0^2*b0^2*(-1/6)"

    def test_text_sorts_descending_and_drops_unit_exponents(self):
        p = (
            ScalarPoly.monomial(1, 0, 2)
            + ScalarPoly.monomial(0, 0, Fraction(1, 3))
            + ScalarPoly.monomial(2, 1, -1)
        )
        assert p.text() == "a0^2*b0*(-1)" + " + " + "a0*(2)" + " + " + "(1/3)"

    def test_text_zero(self):
        assert ScalarPoly.zero().text() == "0"

    @given(polys)
    @settings(max_examples=40, deadline=None)
    def test_json_round_trip(self, p):
        terms = {
            (da, db): GaussianRational(Fraction(rn, rd), Fraction(inum, iden))
            for da, db, rn, rd, inum, iden in p.to_json()
        }
        assert ScalarPoly(terms) == p

    def test_json_term_layout(self):
        p = ScalarPoly.monomial(1, 2, GaussianRational(Fraction(3, 4), Fraction(-5, 6)))
        assert p.to_json() == [[1, 2, 3, 4, -5, 6]]
