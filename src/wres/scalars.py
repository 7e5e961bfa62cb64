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
complex-rational arithmetic.  _canonical reduces first, checking degrees
and folding the gcd in one pass, then builds every key's terms one way,
sorted and divided; a real constant (clifford's from_numerators) needs
no pass, only one gcd.  Chain traces run on Kronecker-packed real integers instead: _kron_parts
substitutes a0 = 2^K, b0 = 1 within each total degree, splitting an
operator into one homogeneous part per degree, one integer per blade;
a weighted sum of traces is summed packed, and _kron_slots reads its
digits back once as real terms (_kron_norm bounds them, refusing i).
GaussianRational has none: it is the value a coefficient is read out as
(terms, evaluate) and one of the exact inputs the constructors accept.
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
# Kronecker-packed integers, for chain traces
# ---------------------------------------------------------------------------
#
# Kronecker substitution (Harvey, J. Symbolic Comput. 44, 2009) as a
# change of variables: the terms of total degree d = da + db of one real
# polynomial become one packed integer, their value at a0 = 2^K, b0 = 1,
# the sum of c * 2^(K da) over their numerators c.  Total degrees add
# under products, so the product of packed parts of degrees d1 and d2 is
# the packed degree-(d1 + d2) part of the product, and a b0 power packs
# to itself.  Only real polynomials are packed: a traced operator is a
# real polynomial in a0, b0, and a symbol weight's i follows from its
# term's order (symbols.SymbolTerm).  Packing is linear, and digits are
# balanced: the caller proves every digit of its result (an integer sum
# of packed products) inside +-2^(K-2), so _kron_slots reads each back
# exactly.  A packed integer is never stored: its gcd is not its digits'.

_NEXT_DIGIT = (1 << _DEG_BITS) - 1  # one more a0, one less b0


def _kron_norm(blades: dict) -> int:
    """The largest L1 norm, sum of |re|, of one key's terms in {key:
    terms}: what bounds the digits of a packed product.  A nonzero
    imaginary numerator raises ValueError: only real terms are packed."""
    norm = 0
    for key, terms in blades.items():
        total = 0
        for _, re, im in terms:
            if im:
                raise ValueError(f"a traced operator must be real; blade {key} has an imaginary part")
            total += abs(re)
        if total > norm:
            norm = total
    return norm


def _kron_parts(blades: dict, width: int) -> dict:
    """{total degree d: {key: packed}} of the real {key: terms} at a0 =
    2^width, b0 = 1: each key's terms of total degree d summed into one
    packed integer, so an operator splits into one homogeneous part per
    total degree it has."""
    parts = {}
    for key, terms in blades.items():
        for k, re, _ in terms:
            da = k >> _DEG_BITS
            part = parts.setdefault(da + (k & 0xFFFF), {})
            part[key] = part.get(key, 0) + (re << width * da)
    return parts


def _kron_slots(slots: dict, width: int, factor: int) -> dict:
    """{packed degree: (re, 0)} slots of factor times the packed sums
    {d: packed}: their balanced base-2^width digits, the digit of a0^da
    read back as the real term of degree (da, d - da)."""
    half, mask = 1 << (width - 1), (1 << width) - 1
    out = {}
    for k, packed in slots.items():  # k = d is the packed degree of b0^d
        while packed:
            t = packed + half
            r, packed = (t & mask) - half, t >> width
            if r:
                out[k] = (factor * r, 0)
            k += _NEXT_DIGIT
    return out


def _canonical(den: int, acc: dict) -> tuple:
    """(den, {key: terms}) of {key: {packed degree: (re, im)}} / den in
    canonical form: zero terms and empty keys dropped, terms sorted, the
    denominator reduced against every numerator, degrees checked.  The
    first pass checks degrees and folds the gcd until it reaches 1; the
    second builds each key's terms once, already divided."""
    g = den
    for slots in acc.values():
        for k, (re, im) in slots.items():
            if re or im:
                if k & _DEG_GUARD:
                    raise ValueError(f"a0/b0 degree {_unpack(k)} outside 0..{_DEG_BOUND - 1}")
                if g != 1:
                    g = gcd(g, re, im)
    out = {}
    for key, slots in acc.items():
        if terms := sorted([(k, re // g, im // g) for k, (re, im) in slots.items() if re or im]):
            out[key] = tuple(terms)
    return den // g, out


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
        """The zero polynomial, one shared instance."""
        return _ZERO_POLY

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
        if not self.nums:
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


_ZERO_POLY = ScalarPoly()
