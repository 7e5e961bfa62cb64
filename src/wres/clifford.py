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
triples whose masks XOR to zero (trace_chains, the one trace, which
traces a whole batch of chains).  Traced operators are real: the
operator a0 d + b0 delta acts on real forms, and a symbol weight's i
follows from its term's order.  A batch substitutes a0 = 2^K,
b0 = 1 within each total degree of every blade's polynomial (Kronecker
packing) at one width K, so each operator is one real integer per
blade and total degree, packed once; it sums signed integer triple
products and reads the digits back once per chain.  Operators keep
the integer terms, since the gcd of a packed integer is not the gcd of
its digits.  The nonminimal operator enters only through pairs
ctilde(w) ctilde(x) (tildec_pair), each written from g(w, x) and w ^ x.
The numerators are in the one integer form that ScalarPoly also stores
(scalars.py): sums and products run on that module's batched kernel,
and a trace or an entry of the 2^n x 2^n matrix view (rows) for checks
is a ScalarPoly without any conversion.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

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

    def check(self, owner: str, **args) -> None:
        """Raise ValueError naming the first of args (tensors, vectors or
        operators, each with an n) whose dimension is not this one."""
        for name, arg in args.items():
            if arg.n != self.n:
                raise ValueError(f"{name} has dimension {arg.n}, but the {owner} has dimension {self.n}")


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
    they were built.  Instances are built by from_numerators,
    tildec_pair and the algebra, and are treated as immutable.
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
        on each blade mask; den is a positive integer.  Degree-0 real
        terms need no _canonical pass: one gcd reduces them."""
        g = gcd(den, *numerators.values())
        blades = {mask: ((0, num // g, 0),) for mask, num in numerators.items() if num}
        return cls._make(n, den // g, blades)

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


def tildec_pair(w: FrameVector, x: FrameVector) -> CliffordOp:
    """ctilde(w) ctilde(x), ctilde = a0 ext - b0 int = ((a0+b0) c + (a0-b0)
    chat) / 2, from g(w, x) and w ^ x (a product of vectors is their inner
    product plus their wedge): with om_jk = w_j x_k - w_k x_j, -a0 b0 g(w, x)
    + sum_{j<k} om_jk ((a0+b0)^2 c_j c_k + (a0-b0)^2 chat_j chat_k) / 4 +
    (a0^2 - b0^2) sum_{j != k} om_jk c_j chat_k / 4.  One pass: numerators over
    4 lcm(w's denominators) lcm(x's denominators), one gcd, terms built sorted."""
    n = w.n
    if x.n != n:
        raise ValueError("dimension mismatch")
    lw, lx = (lcm(*(c.denominator for c in v.components)) for v in (w, x))
    W = [c.numerator * (lw // c.denominator) for c in w.components]
    X = [c.numerator * (lx // c.denominator) for c in x.components]
    om = [(j, k, W[j] * X[k] - W[k] * X[j]) for j in range(n) for k in range(j + 1, n)]
    scalar, den = 4 * sum(a * b for a, b in zip(W, X)), 4 * lw * lx
    g = gcd(den, scalar, *(o for _, _, o in om))
    aa, ab, bb = _pack(2, 0), _pack(1, 1), _pack(0, 2)
    blades = {0: ((ab, -scalar // g, 0),)} if scalar else {}
    for j, k, o in om:
        if o:
            o //= g
            blades[1 << j | 1 << k] = ((bb, o, 0), (ab, 2 * o, 0), (aa, o, 0))
            blades[1 << n + j | 1 << n + k] = ((bb, o, 0), (ab, -2 * o, 0), (aa, o, 0))
            blades[1 << j | 1 << n + k] = ((bb, -o, 0), (aa, o, 0))
            blades[1 << k | 1 << n + j] = ((bb, o, 0), (aa, -o, 0))
    return CliffordOp._make(n, den // g, blades)


def trace_chains(chains: dict, n: int) -> dict:
    """{key: trace of the product of chains[key]}, each chain a tuple of
    at most three operators of dimension n; the engine's only trace.
    Every chain is checked before anything is packed; the engine builds
    no longer chain (PQ's three-factor terms meet only B1's factor-free
    terms).

    No product is built: a trace is 2^n times the sum of sign * a b c
    over the blade triples with ma ^ mb ^ mc = 0, one integer sum per
    combination of homogeneous parts, a shorter chain padded in front
    with the identity.  The pairs (ma, mb) come from a join on the half
    of c's masks (c or chat bits) with fewer distinct values, not a walk
    of all a x b: b's blades are bucketed by it, and each blade of a
    reads one bucket per half value.

    Each distinct operator is packed once (scalars._kron_parts), at one
    digit width K for the batch, one integer per blade and total degree.
    Traced operators are real (a symbol weight's i follows from its
    term's order), and an imaginary numerator anywhere in the batch
    raises ValueError before anything is packed.  Over its denominator
    and before the factor 2^n, a coefficient of tr(a b c) is at most
    |a.blades| |c.blades| L(a) L(b) L(c), L the largest L1 norm (sum of
    |re|) of one blade's terms, since ma and mc fix mb.  K exceeds the
    bit length of the batch's largest bound by 2, so every digit reads
    back exactly.
    """
    for ops in chains.values():
        if len(ops) > 3:
            raise ValueError(f"trace_chains traces at most three factors, got {len(ops)}")
        if any(op.n != n for op in ops):
            raise ValueError("dimension mismatch")
    one = CliffordOp._make(n, 1, {0: _ONE_TERMS})
    padded = {key: (one,) * (3 - len(ops)) + ops for key, ops in chains.items()}
    distinct = {id(op): op for ops in padded.values() for op in ops}
    norm = {k: _kron_norm(op.blades) for k, op in distinct.items()}
    bound = max((len(a.blades) * len(c.blades) * norm[id(a)] * norm[id(b)] * norm[id(c)]
                 for a, b, c in padded.values()), default=0)
    width = bound.bit_length() + 2
    parts = {k: _kron_parts(op.blades, width) for k, op in distinct.items()}
    low = (1 << n) - 1
    halves, buckets, out = {}, {}, {}
    for key, (a, b, c) in padded.items():
        acc = {}
        for dc, cpart in parts[id(c)].items():
            half = halves.get((id(c), dc))
            if half is None:
                lo, hi = {m & low for m in cpart}, {m >> n for m in cpart}
                half = halves[id(c), dc] = (0, lo) if len(lo) <= len(hi) else (n, hi)
            shift, values = half
            for db, bpart in parts[id(b)].items():
                bucket = buckets.get((id(b), db, shift))
                if bucket is None:
                    bucket = buckets[id(b), db, shift] = {}
                    for mb, br in bpart.items():
                        bucket.setdefault(mb >> shift & low, []).append((mb, br))
                for da, apart in parts[id(a)].items():
                    total = 0
                    for ma, ar in apart.items():
                        ka = ma >> shift & low
                        for h in values:
                            for mb, br in bucket.get(ka ^ h, ()):
                                cr = cpart.get(ma ^ mb)
                                if cr is not None:
                                    total += _trace_sign(n, ma, mb) * ar * br * cr
                    d = da + db + dc
                    acc[d] = acc.get(d, 0) + total
        out[key] = ScalarPoly._from_slots(a.den * b.den * c.den, _kron_slots(acc, width, 1 << n))
    return out


class ProductCache:
    """Memo for named builds over one verification run: the curvature
    record of each tensor (symbols.curvature_ops).  Named keys hold
    their operands (RiemannTensor hashes by identity)."""

    __slots__ = ("_named",)

    def __init__(self):
        self._named: dict = {}

    def named(self, key: tuple, build):
        """Memo for a named build."""
        hit = self._named.get(key)
        if hit is None:
            hit = self._named[key] = build()
        return hit
