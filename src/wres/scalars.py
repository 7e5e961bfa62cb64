"""Exact scalar arithmetic: polynomials in two parameters over the Gaussian rationals.

Every quantity the engine produces is a polynomial in the two real
parameters a0, b0 with complex rational coefficients; an exact constant
is such a polynomial whose only term has degree (0, 0).  No floats
enter any computation; numeric evaluation happens only at the very
end, on user request.

Such a polynomial has one stored form, shared by ScalarPoly and the
blade coefficients of clifford.CliffordOp: one positive denominator and
a sorted tuple of integer terms (packed degree, re, im).  The kernel
below (_imac_each, its one-hit form _imac, _canonical) is the only
complex-rational arithmetic.  Chain traces run the same kernel on
Kronecker-packed terms: _kron_pack substitutes a0 = 2^K, b0 = 1 within
each total degree, and _kron_slots reads the digits back (_kron_norm
bounds them).  GaussianRational has none: it is the value a coefficient
is read out as (terms, evaluate) and one of the exact inputs the
constructors accept.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from math import gcd, lcm


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


_F0 = Fraction(0)


def _text(q: Fraction) -> str:
    """str(q), also past Python's int-to-str digit limit (4300 digits by
    default): Decimal writes an exact integer's digits without it."""
    num = str(Decimal(q.numerator))
    return num if q.denominator == 1 else f"{num}/{Decimal(q.denominator)}"


class GaussianRational:
    """Complex number with exact rational real and imaginary parts: a
    read-out value and constructor input, without arithmetic."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = _frac(re)
        self.im = _frac(im)

    @classmethod
    def _make(cls, re: Fraction, im: Fraction) -> "GaussianRational":
        g = cls.__new__(cls)
        g.re = re
        g.im = im
        return g

    def __eq__(self, other) -> bool:
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im)) if self.im else hash(self.re)

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self) -> str:
        if not self.im:
            return _text(self.re)
        if not self.re:
            return f"{_text(self.im)}i"
        sign = "+" if self.im > 0 else "-"
        return f"{_text(self.re)}{sign}{_text(abs(self.im))}i"


def _ints(c) -> tuple:
    """(den, re, im) with c = (re + im*i) / den and den > 0 least; c is a
    GaussianRational or an exact rational (a float raises TypeError)."""
    if isinstance(c, int):
        return 1, c, 0
    if isinstance(c, GaussianRational):
        re, im = c.re, c.im
        den = lcm(re.denominator, im.denominator)
        return den, re.numerator * (den // re.denominator), im.numerator * (den // im.denominator)
    c = _frac(c)
    return c.denominator, c.numerator, 0


def _ratio(num: int, den: int) -> Fraction:
    return Fraction(num, den) if num else _F0


# ---------------------------------------------------------------------------
# integer polynomial form
# ---------------------------------------------------------------------------
#
# The monomial a0^da b0^db is packed as da << 16 | db, so the product of
# two monomials is the sum of their packed degrees.  Every stored degree
# lies in 0 .. 2^14 - 1: a product of three stored polynomials then stays
# below 2^16 in each field, never carries from b0's field into a0's, and
# is refused by _canonical if it reaches 2^14.

_DEG_BITS = 16
_DEG_BOUND = 1 << 14
_DEG_GUARD = 0xC000C000  # set in a packed degree iff da or db is 2^14 or more
_ONE_TERMS = ((0, 1, 0),)


def _pack(da: int, db: int) -> int:
    if not (0 <= da < _DEG_BOUND and 0 <= db < _DEG_BOUND):
        raise ValueError(f"a0/b0 degree ({da}, {db}) outside 0..{_DEG_BOUND - 1}")
    return da << _DEG_BITS | db


def _unpack(k: int) -> tuple:
    return k >> _DEG_BITS, k & 0xFFFF


def _imac_each(acc: dict, hits) -> dict:
    """acc[key][deg] += factor * p * q over [re, im] int slots, for each
    (key, factor, p, q) of hits; p and q are sequences of (packed degree,
    re, im).  One loop over all hits, without a call per hit.  Returns
    acc."""
    for key, factor, p, q in hits:
        slots = acc.get(key)
        if slots is None:
            slots = acc[key] = {}
        for k1, r1, i1 in p:
            if factor != 1:
                r1, i1 = factor * r1, factor * i1
            for k2, r2, i2 in q:
                deg = k1 + k2
                slot = slots.get(deg)
                if i1 or i2:
                    re, im = r1 * r2 - i1 * i2, r1 * i2 + i1 * r2
                else:
                    re, im = r1 * r2, 0
                if slot is None:
                    slots[deg] = [re, im]
                else:
                    slot[0] += re
                    slot[1] += im
    return acc


def _imac(acc: dict, factor: int, p, q) -> dict:
    """acc[deg] += factor * p * q: _imac_each with one hit.  Returns acc."""
    return _imac_each({0: acc}, ((0, factor, p, q),))[0]


# ---------------------------------------------------------------------------
# Kronecker-packed terms, for chain traces
# ---------------------------------------------------------------------------
#
# Kronecker substitution (Harvey, J. Symbolic Comput. 44, 2009) as a
# change of variables: the terms of total degree d = da + db of one
# polynomial become one packed term (d, re, im), their value at a0 =
# 2^K, b0 = 1, so re = sum of c * 2^(K da) over the real parts c, im
# likewise.  Total degrees add under products, so _imac_each multiplies
# packed terms as it multiplies stored ones, and a b0 power packs to
# itself.  Digits are balanced: the caller proves that every digit of
# its result lies inside +-2^(K-2), so _kron_slots reads each back
# exactly.  A packed integer is never a stored form: its gcd is not the
# gcd of its digits.

_NEXT_DIGIT = (1 << _DEG_BITS) - 1  # one more a0, one less b0


def _kron_norm(blades: dict) -> int:
    """The largest L1 norm, sum of |re| + |im|, of one key's terms in
    {key: terms}: what bounds the digits of a packed product."""
    return max((sum(abs(re) + abs(im) for _, re, im in terms) for terms in blades.values()), default=0)


def _kron_pack(blades: dict, width: int) -> dict:
    """{key: sorted terms} at a0 = 2^width, b0 = 1: each key maps to one
    packed term (d, re, im) per total degree d (blades itself if every
    term is a b0 power, which packs to itself)."""
    if all(terms[-1][0] <= 0xFFFF for terms in blades.values()):
        return blades
    packed = {}
    for key, terms in blades.items():
        slots = {}
        for k, re, im in terms:
            da = k >> _DEG_BITS
            shift, d = width * da, da + (k & 0xFFFF)
            r, i = slots.get(d, (0, 0))
            slots[d] = r + (re << shift), i + (im << shift)
        packed[key] = tuple((d, re, im) for d, (re, im) in slots.items())
    return packed


def _kron_slots(slots: dict, width: int, factor: int) -> dict:
    """{packed degree: [re, im]} slots of factor times the packed slots
    {d: (re, im)}: their balanced base-2^width digits, the digit of
    a0^da read back as the term of degree (da, d - da)."""
    half, mask = 1 << (width - 1), (1 << width) - 1
    out = {}
    for k, (re, im) in slots.items():  # k = d is the packed degree of b0^d
        while re or im:
            t = re + half
            r, re = (t & mask) - half, t >> width
            if im:
                t = im + half
                i, im = (t & mask) - half, t >> width
                out[k] = [factor * r, factor * i]
            elif r:
                out[k] = [factor * r, 0]
            k += _NEXT_DIGIT
    return out


def _canonical(den: int, acc: dict) -> tuple:
    """(den, {key: terms}) of {key: {packed degree: (re, im)}} / den in
    canonical form: zero terms and empty keys dropped, terms sorted, the
    denominator reduced against every numerator, degrees checked."""
    out = {}
    g = den
    for key, slots in acc.items():
        terms = sorted((k, re, im) for k, (re, im) in slots.items() if re or im)
        if terms:
            for k, re, im in terms:
                if k & _DEG_GUARD:
                    raise ValueError(f"a0/b0 degree {_unpack(k)} outside 0..{_DEG_BOUND - 1}")
                g = gcd(g, re, im)
            out[key] = tuple(terms)
    if g > 1:
        den //= g
        out = {
            key: tuple((k, re // g, im // g) for k, re, im in terms) for key, terms in out.items()
        }
    return den, out


class ScalarPoly:
    """Polynomial in a0, b0 over Gaussian rationals.

    Stored in the integer form: one positive denominator den and a
    sorted tuple nums of (packed degree, re, im) with no zero term and
    den coprime to the numerators, so equal polynomials are stored
    alike.  terms reads the coefficients out as GaussianRationals.
    Instances are treated as immutable.
    """

    __slots__ = ("den", "nums")

    def __init__(self, terms: dict | None = None):
        """terms maps (deg_a0, deg_b0) to a GaussianRational or an exact
        rational; a float raises TypeError and a degree outside
        0 .. 2^14 - 1 raises ValueError."""
        coeffs = {_pack(da, db): _ints(c) for (da, db), c in (terms or {}).items()}
        den = lcm(*(d for d, _, _ in coeffs.values()))
        slots = {k: (re * (den // d), im * (den // d)) for k, (d, re, im) in coeffs.items()}
        self.den, out = _canonical(den, {0: slots})
        self.nums = out.get(0, ())

    @classmethod
    def _from_slots(cls, den: int, slots: dict) -> "ScalarPoly":
        """The polynomial {packed degree: (re, im)} / den, made canonical."""
        p = cls.__new__(cls)
        p.den, out = _canonical(den, {0: slots})
        p.nums = out.get(0, ())
        return p

    # ---- constructors ----

    @classmethod
    def zero(cls) -> "ScalarPoly":
        return cls()

    @classmethod
    def const(cls, c) -> "ScalarPoly":
        """The constant c, a GaussianRational or an exact rational (a
        float raises TypeError)."""
        den, re, im = _ints(c)
        return cls._from_slots(den, {0: (re, im)})

    @classmethod
    def one(cls) -> "ScalarPoly":
        return cls.const(1)

    @classmethod
    def monomial(cls, deg_a0: int, deg_b0: int, coeff=1) -> "ScalarPoly":
        return cls({(deg_a0, deg_b0): coeff})

    @classmethod
    def a0(cls) -> "ScalarPoly":
        return cls.monomial(1, 0)

    @classmethod
    def b0(cls) -> "ScalarPoly":
        return cls.monomial(0, 1)

    # ---- ring operations ----

    def __add__(self, other: "ScalarPoly") -> "ScalarPoly":
        if not other.nums:
            return self
        if not self.nums:
            return other
        den = lcm(self.den, other.den)
        acc = _imac({}, den // self.den, self.nums, _ONE_TERMS)
        return ScalarPoly._from_slots(den, _imac(acc, den // other.den, other.nums, _ONE_TERMS))

    def __sub__(self, other: "ScalarPoly") -> "ScalarPoly":
        return self + (-other)

    def __neg__(self) -> "ScalarPoly":
        return ScalarPoly._from_slots(self.den, _imac({}, -1, self.nums, _ONE_TERMS))

    def __mul__(self, other):
        if not isinstance(other, ScalarPoly):
            return self.scale(other)
        return ScalarPoly._from_slots(self.den * other.den, _imac({}, 1, self.nums, other.nums))

    __rmul__ = __mul__

    def scale(self, c) -> "ScalarPoly":
        """c times the polynomial; c is a GaussianRational or an exact
        rational (a float raises TypeError)."""
        den, re, im = _ints(c)
        return ScalarPoly._from_slots(self.den * den, _imac({}, 1, self.nums, ((0, re, im),)))

    def __eq__(self, other) -> bool:
        if isinstance(other, ScalarPoly):
            return self.den == other.den and self.nums == other.nums
        return NotImplemented

    def __hash__(self):
        return hash((self.den, self.nums))

    def __bool__(self) -> bool:
        return bool(self.nums)

    # ---- queries ----

    @property
    def terms(self) -> dict:
        """{(deg_a0, deg_b0): GaussianRational} of the nonzero coefficients,
        a fresh dict read out of the integer form."""
        den = self.den
        return {
            _unpack(k): GaussianRational._make(_ratio(re, den), _ratio(im, den))
            for k, re, im in self.nums
        }

    def is_real(self) -> bool:
        return not any(im for _, _, im in self.nums)

    def evaluate(self, a0, b0) -> GaussianRational:
        a0 = _frac(a0)
        b0 = _frac(b0)
        re = im = _F0
        for k, r, i in self.nums:
            da, db = _unpack(k)
            m = a0**da * b0**db
            re += r * m
            im += i * m
        return GaussianRational._make(re / self.den, im / self.den)

    def min_ab_power(self) -> int:
        """Largest k with (a0*b0)^k dividing the polynomial; 0 for the zero polynomial."""
        return min((min(_unpack(k)) for k, _, _ in self.nums), default=0)

    def shift_ab(self, k: int) -> "ScalarPoly":
        """Multiply by (a0*b0)^k; k may be negative if the power divides."""
        if k == 0 or not self.nums:
            return self
        if k < -self.min_ab_power():
            raise ValueError("(a0*b0) power does not divide this polynomial")
        slots = {}
        for d, re, im in self.nums:
            da, db = _unpack(d)
            slots[_pack(da + k, db + k)] = (re, im)
        return ScalarPoly._from_slots(self.den, slots)

    # ---- canonical renderings ----

    def _sorted_items(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0], reverse=True)

    def text(self) -> str:
        """Canonical text form: terms sorted by (deg_a0, deg_b0) descending."""
        if not self.terms:
            return "0"
        parts = []
        for (da, db), c in self._sorted_items():
            factors = []
            if da:
                factors.append("a0" if da == 1 else f"a0^{da}")
            if db:
                factors.append("b0" if db == 1 else f"b0^{db}")
            factors.append(f"({c})")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def to_json(self) -> list:
        """JSON form: [deg_a0, deg_b0, re_num, re_den, im_num, im_den] per term."""
        return [
            [da, db, c.re.numerator, c.re.denominator, c.im.numerator, c.im.denominator]
            for (da, db), c in self._sorted_items()
        ]

    def __repr__(self) -> str:
        return f"ScalarPoly({self.text()})"
