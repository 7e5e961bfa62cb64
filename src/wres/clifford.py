"""Clifford actions on the exterior algebra of R^n as sparse Cl(n,n) elements.

Basis of Lambda* R^n: subsets of {1..n} encoded as bitmasks (bit j-1 set
means e_j* is a factor, factors ordered by increasing index).  Wedge and
contraction pick up the sign (-1)^{#{k in S : k < j}}.

The operators c(e_j) = ext - int and chat(e_j) = ext + int satisfy
c_j^2 = -1, chat_j^2 = +1 and anticommute pairwise, so they generate
End(Lambda R^n) = Cl(n,n) (Lawson-Michelsohn, Spin Geometry, ch. I).  An
operator is stored as one denominator and, per blade, the integer
numerators of its coefficient, a polynomial in a0, b0.  A blade is a
bitmask over the 2n generators: bit j-1 for c_j, bit n+j-1 for chat_j,
factors in increasing bit order.  Blade products follow the bitmap sign
rules (Dorst-Fontijne-Mann, Geometric Algebra for Computer Science, ch. 19):
the blade of a product is the XOR of the masks, its sign the reordering
sign times the metric sign.  Every blade but the scalar one is
traceless, so tr X = 2^n * (scalar part of X), and a trace of a chain
builds no product: tr(a b c) is a signed sum of a b c over the blade
triples whose masks XOR to zero (ProductCache.chain_trace, the one
trace).  A trace substitutes a0 = 2^K, b0 = 1 within each total degree
of every blade's polynomial (Kronecker packing), so each factor is one
integer per blade and total degree; it sums integer triple products
and reads the digits back once.  Operators keep the integer terms,
since the gcd of a packed integer is not the gcd of its digits.  The
nonminimal operator enters only through ctilde (tildec).  The
numerators are in the one integer form that ScalarPoly also stores
(scalars.py): sums and products run on that module's batched kernel,
and a trace or an entry of the 2^n x 2^n matrix view (rows) for checks
is a ScalarPoly without any conversion.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm, prod

from .scalars import (
    ScalarPoly, _canonical, _frac, _imac_each, _ints, _kron_norm, _kron_parts, _kron_slots,
    _ONE_TERMS, _pack,
)

@dataclass(frozen=True)
class Dimension:
    """Even dimension n = 2m of the underlying space."""

    n: int

    def __post_init__(self):
        if self.n < 2 or self.n % 2:
            raise ValueError(f"dimension must be even and >= 2, got {self.n}")

    @property
    def m(self) -> int:
        return self.n // 2


_UNIT = (Fraction(0), Fraction(1))


@dataclass(frozen=True)
class FrameVector:
    """Vector with exact rational components in the orthonormal frame."""

    n: int
    components: tuple

    def __post_init__(self):
        if len(self.components) != self.n:
            raise ValueError("component count does not match dimension")
        object.__setattr__(
            self, "components", tuple(_frac(c) for c in self.components)
        )

    def __getitem__(self, a: int) -> Fraction:
        """Component for frame index a, 1-based."""
        return self.components[a - 1]

    @classmethod
    def basis(cls, n: int, j: int) -> "FrameVector":
        """e_j, built from shared Fractions: the symbol build makes none."""
        return cls(n, tuple(_UNIT[a == j] for a in range(1, n + 1)))


def inner(u: FrameVector, v: FrameVector) -> Fraction:
    """Euclidean pairing sum_a u_a v_a in the orthonormal frame."""
    return sum((x * y for x, y in zip(u.components, v.components)), Fraction(0))


# ---------------------------------------------------------------------------
# blade sign rules
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _blade_sign(n: int, a: int, b: int) -> int:
    """s with blade(a) * blade(b) = s * blade(a ^ b)."""
    swaps = 0
    x = a >> 1
    while x:
        swaps += (x & b).bit_count()
        x >>= 1
    # each shared c_j meets itself and squares to -1
    swaps += (a & b & ((1 << n) - 1)).bit_count()
    return -1 if swaps & 1 else 1


@lru_cache(maxsize=None)
def _trace_sign(n: int, a: int, b: int) -> int:
    """The scalar part of blade(a) blade(b) blade(a ^ b)."""
    return _blade_sign(n, a, b) * _blade_sign(n, a ^ b, a ^ b)


@lru_cache(maxsize=None)
def _blade_action(n: int, mask: int) -> tuple:
    """(x, signs): blade(mask) sends the basis form S to signs[S] * (S ^ x).

    The rightmost generator acts first.  Each flips one frame bit with
    the wedge sign; c_j = ext - int adds a minus on its contraction branch.
    """
    gens = [g for g in range(2 * n) if mask >> g & 1]
    signs = []
    for s in range(1 << n):
        sign, cur = 1, s
        for g in reversed(gens):
            bit = 1 << (g % n)
            if (cur & (bit - 1)).bit_count() & 1:
                sign = -sign
            if g < n and cur & bit:
                sign = -sign
            cur ^= bit
        signs.append(sign)
    x = (mask ^ (mask >> n)) & ((1 << n) - 1)
    return x, tuple(signs)


class CliffordOp:
    """Element of Cl(n,n) acting on Lambda R^n.

    Stored as one positive denominator den and {blade mask: ((packed
    degree, re, im), ...)} integer numerators, the terms of ScalarPoly's
    integer form.  The form is canonical: no zero term or empty blade,
    terms sorted by degree, den coprime to the numerators.  With the
    faithfulness of the action, equal operators compare equal however
    they were built.  Instances are built by from_numerators, tildec
    and the algebra, and are treated as immutable.
    """

    __slots__ = ("n", "den", "blades")

    @classmethod
    def _make(cls, n: int, den: int, blades: dict) -> "CliffordOp":
        op = cls.__new__(cls)
        op.n, op.den, op.blades = n, den, blades
        return op

    @classmethod
    def from_numerators(cls, n: int, den: int, numerators: dict) -> "CliffordOp":
        """Operator with the real constant coefficient numerators[mask] / den
        on each blade mask; den is a positive integer."""
        acc = {mask: {0: (num, 0)} for mask, num in numerators.items()}
        return cls._make(n, *_canonical(den, acc))

    # ---- algebra ----

    def __add__(self, other: "CliffordOp") -> "CliffordOp":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        den = lcm(self.den, other.den)
        hits = (
            (mask, den // op.den, terms, _ONE_TERMS)
            for op in (self, other)
            for mask, terms in op.blades.items()
        )
        return CliffordOp._make(self.n, *_canonical(den, _imac_each({}, hits)))

    def __sub__(self, other: "CliffordOp") -> "CliffordOp":
        return self + other.scale(-1)

    def __neg__(self) -> "CliffordOp":
        return self.scale(-1)

    def scale(self, c) -> "CliffordOp":
        """c times the operator; c is a ScalarPoly or an exact constant
        that ScalarPoly.const takes (a float raises TypeError)."""
        if isinstance(c, ScalarPoly):
            den, factor = c.den, c.nums
        else:
            den, re, im = _ints(c)
            factor = ((0, re, im),)
        acc = _imac_each({}, ((mask, 1, terms, factor) for mask, terms in self.blades.items()))
        return CliffordOp._make(self.n, *_canonical(self.den * den, acc))

    def __mul__(self, other: "CliffordOp") -> "CliffordOp":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        n = self.n
        hits = (
            (a ^ b, _blade_sign(n, a, b), x, y)
            for a, x in self.blades.items()
            for b, y in other.blades.items()
        )
        return CliffordOp._make(n, *_canonical(self.den * other.den, _imac_each({}, hits)))

    def __eq__(self, other) -> bool:
        if isinstance(other, CliffordOp):
            return self.n == other.n and self.den == other.den and self.blades == other.blades
        return NotImplemented

    def is_zero(self) -> bool:
        return not self.blades

    # ---- matrix view, for checks ----

    @property
    def rows(self) -> list:
        """2^n zero-purged row dicts {column: ScalarPoly} of the matrix."""
        n = self.n
        rows: list = [dict() for _ in range(1 << n)]
        for mask, terms in self.blades.items():
            v = ScalarPoly._from_slots(self.den, {k: (re, im) for k, re, im in terms})
            x, signs = _blade_action(n, mask)
            neg = -v
            for s, sign in enumerate(signs):
                row = rows[s ^ x]
                p = v if sign > 0 else neg
                cur = row.get(s)
                row[s] = p if cur is None else cur + p
        return [{j: v for j, v in row.items() if v} for row in rows]

    def __repr__(self) -> str:
        return f"CliffordOp(n={self.n}, blades={len(self.blades)})"


def tildec(w: FrameVector) -> CliffordOp:
    """ctilde(w) = a0 ext(w) - b0 int(w) = sum_j w_j ((a0+b0) c_j +
    (a0-b0) chat_j) / 2, the nonminimal deformation of c, built in one
    pass: w_j's numerator on c_j and chat_j over 2 lcm(w's denominators)."""
    n = w.n
    den = lcm(*(c.denominator for c in w.components))
    a0, b0 = _pack(1, 0), _pack(0, 1)
    acc = {}
    for j, c in enumerate(w.components):
        num = c.numerator * (den // c.denominator)
        acc[1 << j] = {a0: (num, 0), b0: (num, 0)}
        acc[1 << (n + j)] = {a0: (num, 0), b0: (-num, 0)}
    return CliffordOp._make(n, *_canonical(2 * den, acc))


class ProductCache:
    """Memos for chain traces, packed views and named builds.

    Chain keys are the ids of the operators; the cache holds the chain
    so the ids stay valid for its lifetime.  Traces run on Kronecker-
    packed integers (scalars._kron_parts) at one digit width K per
    cache.  Each operator gets one view, keyed by id and holding the
    operator: [op, L, parts, width, memo]; parts is the operator at
    the digit width `width`, {total degree: {blade: (re, im)}}, L the
    largest L1 norm (sum of |re| + |im|) of one blade's terms, and memo
    what chains read off the parts, emptied when the view is packed
    again.  Over its denominator and before the factor 2^n, a
    coefficient of tr(a b c) is at most |c.blades| |a.blades| L(a) L(b)
    L(c), of tr(a b) at most |a.blades| L(a) L(b) and of tr(a) at most
    |a.blades| L(a).  K exceeds that bound's bit length by 2, so every
    digit reads back exactly; a chain that needs more raises K to twice
    its need, and a view packed at an older width is packed again when
    a chain next reads it.  The bound is read from the L of the chain's
    views before any of them is packed, so a view is packed once per
    width.  Each computed trace is unpacked once into a canonical
    ScalarPoly.  Named keys hold their operands (RiemannTensor hashes by
    identity).  Meant to live for one verification run.
    """

    __slots__ = ("_traces", "_views", "_width", "_named")

    def __init__(self):
        self._traces: dict = {}
        self._views: dict = {}
        self._width = 0
        self._named: dict = {}

    def _view(self, op: CliffordOp) -> list:
        """[op, L, parts, width, memo], the memoised view of op, not yet
        packed (parts None, width 0) until its chain knows its width.
        memo maps degree d to (shift, half values) as a last factor and
        (d, shift) to its blades bucketed by half as a middle factor."""
        view = self._views.get(id(op))
        if view is None:
            view = self._views[id(op)] = [op, _kron_norm(op.blades), None, 0, None]
        return view

    def chain_trace(self, ops: tuple, n: int) -> ScalarPoly:
        """Trace of the product of a chain of at most three factors,
        memoized on the chain identity; the only trace the engine reads.

        No product is built: the trace is 2^n times the sum of sign *
        a b c over the blade triples with ma ^ mb ^ mc = 0, one integer
        sum per combination of homogeneous parts, a shorter chain padded
        in front with the identity.  The pairs (ma, mb) come from a join
        on the half of c's masks (c or chat bits) with fewer distinct
        values, not a walk of all a x b: b's blades are bucketed by it
        (memoised on b's view), and each blade of a reads one bucket per
        half value.  A chain recurs across blocks and tags, so its trace
        is read once.  The engine builds no longer chain (PQ's
        three-factor terms meet only B1's factor-free terms), and one
        is refused before the cache changes.
        """
        if len(ops) > 3:
            raise ValueError(f"chain_trace traces at most three factors, got {len(ops)}")
        if not ops:
            return ScalarPoly.const(1 << n)
        key = tuple(map(id, ops))
        hit = self._traces.get(key)
        if hit is not None:
            return hit[1]
        if any(op.n != n for op in ops):
            raise ValueError("dimension mismatch")
        views = [self._view(op) for op in ops]
        bound = len(ops[0].blades)  # on the trace's coefficients (class docstring)
        if len(ops) == 3:
            bound *= len(ops[2].blades)
        for view in views:
            bound *= view[1]
        if bound.bit_length() + 2 > self._width:
            self._width = 2 * (bound.bit_length() + 2)
        width = self._width
        for view in views:
            if view[3] != width:
                view[2:] = _kron_parts(view[0].blades, width), width, {}
        unit = [None, 1, {0: {0: (1, 0)}}, width, {}]
        a, b, c = ([unit, unit] + views)[-3:]
        low = (1 << n) - 1
        acc = {}
        for dc, cpart in c[2].items():
            if dc not in c[4]:
                lo, hi = {m & low for m in cpart}, {m >> n for m in cpart}
                c[4][dc] = (0, lo) if len(lo) <= len(hi) else (n, hi)
            shift, halves = c[4][dc]
            for db, bpart in b[2].items():
                buckets = b[4].get((db, shift))
                if buckets is None:
                    buckets = b[4][db, shift] = {}
                    for mb, (br, bi) in bpart.items():
                        buckets.setdefault(mb >> shift & low, []).append((mb, br, bi))
                for da, apart in a[2].items():
                    re = im = 0
                    for ma, (ar, ai) in apart.items():
                        ka = ma >> shift & low
                        for h in halves:
                            for mb, br, bi in buckets.get(ka ^ h, ()):
                                cv = cpart.get(ma ^ mb)
                                if cv is None:
                                    continue
                                cr, ci = cv
                                s = _trace_sign(n, ma, mb)
                                if ai or bi or ci:  # the engine's chains are all real
                                    xr, xi = ar * br - ai * bi, ar * bi + ai * br
                                    re += s * (xr * cr - xi * ci)
                                    im += s * (xr * ci + xi * cr)
                                else:
                                    re += s * ar * br * cr
                    r, i = acc.get(da + db + dc, (0, 0))
                    acc[da + db + dc] = r + re, i + im
        den = prod(op.den for op in ops)
        val = ScalarPoly._from_slots(den, _kron_slots(acc, width, 1 << n))
        self._traces[key] = (ops, val)
        return val

    def named(self, key: tuple, build):
        """Memo for a named build."""
        hit = self._named.get(key)
        if hit is None:
            hit = self._named[key] = build()
        return hit
