"""Ring axioms, a schoolbook reference and canonical renderings of the
exact scalar layer."""

import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wres.scalars import GaussianRational, ScalarPoly, _imac_each, _kron_norm, _kron_pack, _kron_slots

from oracles import identity

fracs = st.fractions(min_value=-5, max_value=5, max_denominator=6)
coeffs = st.builds(GaussianRational, fracs, fracs)
coeff_maps = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), coeffs, max_size=4)
polys = coeff_maps.map(ScalarPoly)

BOUND = 1 << 14  # every stored a0/b0 degree lies in 0 .. BOUND - 1
_ZERO = (Fraction(0), Fraction(0))


# ---- schoolbook reference over {(deg_a0, deg_b0): (re, im)} Fraction pairs ----


def pairs(p: dict) -> dict:
    """{(deg_a0, deg_b0): GaussianRational} as nonzero (re, im) Fraction pairs."""
    return {k: (v.re, v.im) for k, v in p.items() if v}


def c_add(x: tuple, y: tuple) -> tuple:
    return x[0] + y[0], x[1] + y[1]


def c_mul(x: tuple, y: tuple) -> tuple:
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _purged(p: dict) -> dict:
    return {k: v for k, v in p.items() if any(v)}


def ref_add(p: dict, q: dict) -> dict:
    out = dict(p)
    for k, v in q.items():
        out[k] = c_add(out.get(k, _ZERO), v)
    return _purged(out)


def ref_mul(p: dict, q: dict) -> dict:
    out = {}
    for (a1, b1), c1 in p.items():
        for (a2, b2), c2 in q.items():
            k = (a1 + a2, b1 + b2)
            out[k] = c_add(out.get(k, _ZERO), c_mul(c1, c2))
    return _purged(out)


def ref_scale(p: dict, c: tuple) -> dict:
    return _purged({k: c_mul(v, c) for k, v in p.items()})


def ref_shift_ab(p: dict, k: int) -> dict:
    return {(da + k, db + k): v for (da, db), v in p.items()}


def ref_min_ab_power(p: dict) -> int:
    return min((min(k) for k in p), default=0)


def ref_is_real(p: dict) -> bool:
    return all(im == 0 for _, im in p.values())


class TestGaussianRational:
    def test_str_forms(self):
        assert str(GaussianRational(3)) == "3"
        assert str(GaussianRational(0, 2)) == "2i"
        assert str(GaussianRational(Fraction(1, 2), 3)) == "1/2+3i"
        assert str(GaussianRational(1, -2)) == "1-2i"

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str limit")
    def test_str_past_the_int_str_limit(self):
        # every digit is written at Python's default limit of 4300
        # digits, and the limit is left as it was
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            c = GaussianRational(Fraction(-(10**5000 + 1), 3), 10**4400)
            assert str(c) == f"-1{'0' * 4999}1/3+1{'0' * 4400}i"
            assert str(GaussianRational(0, Fraction(7, 10**4400))) == f"7/1{'0' * 4400}i"
            assert sys.get_int_max_str_digits() == 4300
        finally:
            sys.set_int_max_str_digits(limit)

    def test_truthiness_and_equality_with_rationals(self):
        assert not GaussianRational(0, 0)
        assert GaussianRational(0, 1)
        assert GaussianRational(Fraction(7, 2)) == Fraction(7, 2)
        assert GaussianRational(1, 1) != 1

    def test_hash_agrees_with_equality(self):
        # a real value hashes as its rational, so sets and dicts merge them
        for value in (3, 0, -7, Fraction(1, 2), Fraction(-9, 4)):
            assert GaussianRational(value) == value
            assert hash(GaussianRational(value)) == hash(value)
            assert len({GaussianRational(value), value}) == 1
        assert {GaussianRational(Fraction(1, 2)): "g"}[Fraction(1, 2)] == "g"
        assert len({GaussianRational(3, 1), 3}) == 2
        assert hash(GaussianRational(1, 2)) == hash(GaussianRational(Fraction(2, 2), Fraction(4, 2)))

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            GaussianRational(0.5)


class TestScalarPolyReference:
    """The integer kernel against the schoolbook reference above."""

    @given(coeff_maps, coeff_maps, coeffs, st.integers(-3, 3))
    @settings(max_examples=80, deadline=None)
    def test_kernel_matches_schoolbook(self, dp, dq, c, k):
        p, q = ScalarPoly(dp), ScalarPoly(dq)
        dp, dq = pairs(dp), pairs(dq)
        assert pairs(p.terms) == dp
        minus_one = (Fraction(-1), Fraction(0))
        want = {
            "add": (p + q, ref_add(dp, dq)),
            "sub": (p - q, ref_add(dp, ref_scale(dq, minus_one))),
            "mul": (p * q, ref_mul(dp, dq)),
            "scale": (p.scale(c), ref_scale(dp, (c.re, c.im))),
        }
        for name, (got, ref) in want.items():
            assert pairs(got.terms) == ref, name
            assert got == ScalarPoly({k: GaussianRational(*v) for k, v in ref.items()}), name
        assert p.min_ab_power() == ref_min_ab_power(dp)
        assert p.is_real() == ref_is_real(dp)
        if dp and k < -ref_min_ab_power(dp):
            with pytest.raises(ValueError):
                p.shift_ab(k)
        else:
            assert pairs(p.shift_ab(k).terms) == ref_shift_ab(dp, k)


class TestScalarPolyConstructor:
    def test_float_coefficient_is_refused(self):
        with pytest.raises(TypeError):
            ScalarPoly({(1, 0): 0.5})

    @pytest.mark.parametrize(
        "build",
        [
            lambda: ScalarPoly.const(0.5),
            lambda: ScalarPoly.one().scale(0.5),
            lambda: ScalarPoly.one() * 0.5,
            lambda: identity(2).scale(0.5),
        ],
        ids=["const", "scale", "mul", "clifford-scale"],
    )
    def test_float_constant_is_refused(self, build):
        with pytest.raises(TypeError):
            build()

    def test_int_coefficient_is_coerced(self):
        p = ScalarPoly({(0, 0): 3})
        assert p.is_real()
        assert p == ScalarPoly.const(GaussianRational(3))
        assert p.terms == {(0, 0): GaussianRational(3)}


class TestDegreeBound:
    """The ScalarPoly side of the one degree bound shared with the
    Clifford coefficients."""

    def test_degree_at_the_bound_is_refused(self):
        ScalarPoly.monomial(BOUND - 1, BOUND - 1)
        for da, db in ((BOUND, 0), (0, BOUND)):
            with pytest.raises(ValueError):
                ScalarPoly.monomial(da, db)

    def test_negative_degree_is_refused(self):
        for degree in ((-1, 0), (0, -1)):
            with pytest.raises(ValueError):
                ScalarPoly({degree: 1})

    def test_product_reaching_the_bound_is_refused(self):
        x = ScalarPoly.monomial(BOUND // 2, 1)
        with pytest.raises(ValueError):
            x * x
        y = ScalarPoly.monomial(1, BOUND // 2)
        with pytest.raises(ValueError):
            y * y

    def test_shift_reaching_the_bound_is_refused(self):
        p = ScalarPoly.monomial(BOUND - 2, 0)
        assert p.shift_ab(1) == ScalarPoly.monomial(BOUND - 1, 1)
        with pytest.raises(ValueError):
            p.shift_ab(2)
        for k in (BOUND, 1 << 16, 1 << 40):
            with pytest.raises(ValueError):
                ScalarPoly.one().shift_ab(k)

    def test_three_factors_at_the_largest_degree_do_not_carry(self):
        top = BOUND - 1
        p = ScalarPoly.monomial(top // 3, top // 3, GaussianRational(1, 1))
        assert p * p * p == ScalarPoly.monomial(top, top, GaussianRational(-2, 2))
        q = ScalarPoly.monomial(1, top)
        with pytest.raises(ValueError, match=rf"\(2, {2 * top}\)"):
            q * q


class TestKroneckerPacking:
    """Packed terms, a0 = 2^K and b0 = 1 within each total degree,
    multiply through _imac_each as the polynomials do and read back
    exactly at a digit width above the product's L1 bound."""

    @given(polys, polys)
    @settings(deadline=None)
    def test_packed_product_reads_back(self, p, q):
        norms = [sum(abs(re) + abs(im) for _, re, im in x.nums) for x in (p, q)]
        width = (norms[0] * norms[1]).bit_length() + 2
        packed_p, packed_q = (_kron_pack({0: x.nums} if x else {}, width).get(0, ()) for x in (p, q))
        assert [_kron_norm({0: x.nums}) for x in (p, q)] == norms
        acc = _imac_each({}, ((0, 1, packed_p, packed_q),)).get(0, {})
        assert ScalarPoly._from_slots(p.den * q.den, _kron_slots(acc, width, 1)) == p * q

    def test_monomials_pack_to_themselves(self):
        """A b0 power packs to itself, and blades of b0 powers only come
        back unchanged; any monomial packs to one term."""
        top = (BOUND - 1) // 3
        m = ScalarPoly.monomial(0, BOUND - 1, -7)
        p = ScalarPoly({(1, 1): 2, (0, 2): 3, (0, 0): 5})  # degrees 2, 2 and 0
        blades = {0: m.nums, 1: ScalarPoly({(0, 0): 4, (0, 3): -1}).nums}
        assert _kron_pack(blades, 8) is blades
        packed = _kron_pack({0: m.nums, 1: p.nums}, 8)
        assert _kron_norm({0: m.nums, 1: p.nums}) == 10 and packed[0] == m.nums
        assert sorted(packed[1]) == [(0, 5, 0), (2, 3 + (2 << 8), 0)]
        q = ScalarPoly.monomial(top, top, GaussianRational(-7, 1))
        assert _kron_pack({0: q.nums}, 8) == {0: ((2 * top, -7 << 8 * top, 1 << 8 * top),)}


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
        def value(p, a0, b0):
            x = p.evaluate(a0, b0)
            return x.re, x.im

        for a0, b0 in ((1, 1), (Fraction(2, 3), Fraction(-5, 7))):
            x, y = value(p, a0, b0), value(q, a0, b0)
            assert value(p * q, a0, b0) == c_mul(x, y)
            assert value(p + q, a0, b0) == c_add(x, y)

    def test_zero_coefficients_are_purged(self):
        p = ScalarPoly({(1, 1): GaussianRational(2), (2, 0): GaussianRational(0)})
        assert (2, 0) not in p.terms
        assert p == ScalarPoly.monomial(1, 1, 2)

    def test_imag_unit_squares_to_minus_one(self):
        i = ScalarPoly.const(GaussianRational(0, 1))
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
        assert not ScalarPoly.const(GaussianRational(0, 1)).is_real()


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
