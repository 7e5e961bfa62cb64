"""Exact scalar arithmetic: Gaussian rationals and polynomials in two parameters.

Every quantity the engine produces is a polynomial in the two real
parameters a0, b0 with complex rational coefficients.  No floats enter
any computation; numeric evaluation happens only at the very end, on
user request.
"""

from __future__ import annotations

from fractions import Fraction


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


_F0 = Fraction(0)


class GaussianRational:
    """Complex number with exact rational real and imaginary parts."""

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

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational._make(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational._make(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "GaussianRational":
        return GaussianRational._make(-self.re, -self.im)

    def __mul__(self, other):
        if isinstance(other, GaussianRational):
            if self.im or other.im:
                return GaussianRational._make(
                    self.re * other.re - self.im * other.im,
                    self.re * other.im + self.im * other.re,
                )
            return GaussianRational._make(self.re * other.re, _F0)
        return GaussianRational(self.re * other, self.im * other)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    @property
    def is_real(self) -> bool:
        return self.im == 0

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self) -> str:
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


_GR_ZERO = GaussianRational(0)
_GR_ONE = GaussianRational(1)
_GR_I = GaussianRational(0, 1)


def _coerce_coeff(c) -> GaussianRational:
    if isinstance(c, GaussianRational):
        return c
    return GaussianRational(_frac(c))


class ScalarPoly:
    """Polynomial in a0, b0 over Gaussian rationals.

    Stored as a map (deg_a0, deg_b0) -> coefficient with zero
    coefficients purged, so equality of maps is equality of
    polynomials.  Instances are treated as immutable.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        if terms:
            self.terms = {k: v for k, v in terms.items() if v}
        else:
            self.terms = {}

    # ---- constructors ----

    @classmethod
    def zero(cls) -> "ScalarPoly":
        return cls()

    @classmethod
    def const(cls, c) -> "ScalarPoly":
        return cls({(0, 0): _coerce_coeff(c)})

    @classmethod
    def one(cls) -> "ScalarPoly":
        return cls.const(1)

    @classmethod
    def imag_unit(cls) -> "ScalarPoly":
        return cls({(0, 0): _GR_I})

    @classmethod
    def monomial(cls, deg_a0: int, deg_b0: int, coeff=1) -> "ScalarPoly":
        return cls({(deg_a0, deg_b0): _coerce_coeff(coeff)})

    @classmethod
    def a0(cls) -> "ScalarPoly":
        return cls.monomial(1, 0)

    @classmethod
    def b0(cls) -> "ScalarPoly":
        return cls.monomial(0, 1)

    # ---- ring operations ----

    def __add__(self, other: "ScalarPoly") -> "ScalarPoly":
        if not other.terms:
            return self
        if not self.terms:
            return other
        out = dict(self.terms)
        for k, v in other.terms.items():
            cur = out.get(k)
            s = v if cur is None else cur + v
            if s:
                out[k] = s
            elif cur is not None:
                del out[k]
        res = ScalarPoly.__new__(ScalarPoly)
        res.terms = out
        return res

    def __sub__(self, other: "ScalarPoly") -> "ScalarPoly":
        return self + (-other)

    def __neg__(self) -> "ScalarPoly":
        res = ScalarPoly.__new__(ScalarPoly)
        res.terms = {k: -v for k, v in self.terms.items()}
        return res

    def __mul__(self, other):
        if not isinstance(other, ScalarPoly):
            return self.scale(other)
        out: dict = {}
        for (da1, db1), c1 in self.terms.items():
            for (da2, db2), c2 in other.terms.items():
                k = (da1 + da2, db1 + db2)
                p = c1 * c2
                cur = out.get(k)
                s = p if cur is None else cur + p
                if s:
                    out[k] = s
                elif cur is not None:
                    del out[k]
        res = ScalarPoly.__new__(ScalarPoly)
        res.terms = out
        return res

    __rmul__ = __mul__

    def scale(self, c) -> "ScalarPoly":
        c = _coerce_coeff(c)
        if not c:
            return ScalarPoly.zero()
        res = ScalarPoly.__new__(ScalarPoly)
        res.terms = {k: v * c for k, v in self.terms.items()}
        return res

    def __eq__(self, other) -> bool:
        if isinstance(other, ScalarPoly):
            return self.terms == other.terms
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self) -> bool:
        return bool(self.terms)

    # ---- queries ----

    def is_real(self) -> bool:
        return all(v.is_real for v in self.terms.values())

    def evaluate(self, a0, b0) -> GaussianRational:
        a0 = _frac(a0)
        b0 = _frac(b0)
        acc = _GR_ZERO
        for (da, db), c in self.terms.items():
            acc = acc + c * (a0**da * b0**db)
        return acc

    def min_ab_power(self) -> int:
        """Largest k with (a0*b0)^k dividing the polynomial; 0 for the zero polynomial."""
        if not self.terms:
            return 0
        return min(min(da, db) for (da, db) in self.terms)

    def shift_ab(self, k: int) -> "ScalarPoly":
        """Multiply by (a0*b0)^k; k may be negative if the power divides."""
        if k == 0 or not self.terms:
            return self
        out = {}
        for (da, db), c in self.terms.items():
            if da + k < 0 or db + k < 0:
                raise ValueError("(a0*b0) power does not divide this polynomial")
            out[(da + k, db + k)] = c
        res = ScalarPoly.__new__(ScalarPoly)
        res.terms = out
        return res

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
