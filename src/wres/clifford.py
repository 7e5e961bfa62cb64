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
sign times the metric sign, everywhere the parity of b & _sign_mask(n,
a).  Every blade but the scalar one is traceless, so tr X = 2^n *
(scalar part of X), and a trace of a chain builds no product: tr(a b c)
sums a b c over the blade triples whose masks XOR to zero, signed by
sq(ma) s(mb, mc).  Which triples meet depends on which blades the
factors may hold, not on their values: each traced operator has a
shape, a sorted tuple of masks containing its blades (its builder's, or
its own blades), and a plan, the signed index triples of a shape
triple, is found once and memoised.  A builder's shape depends on n and
on at most n + 1 support classes of a vector (one frame direction, or
all), so an Analysis at n reads a bounded set of plans.  trace_sums,
the one trace, takes a batch of weighted sums of chains.  Traced
operators are real (a0 d + b0 delta acts on real forms, and a symbol
weight's i follows from its term's order), so a batch substitutes a0 =
2^K, b0 = 1 within each total degree (Kronecker packing), packs each
operator once (a constant one, marked at construction, is its own
numerators at every K), traces each chain through its plan, weights
its integer trace and reads each sum's digits back once.  Operators
keep the integer terms, since the gcd of a packed integer is not the
gcd of its digits.  The
nonminimal operator enters only through pairs ctilde(w) ctilde(x)
(tildec_pair, or tildec_row for the frame partners e_f), each written
from g(w, x) and w ^ x.
The numerators are in the one integer form that ScalarPoly also stores
(scalars.py): sums and products run on that module's batched kernel,
and a trace or an entry of the 2^n x 2^n matrix view (rows) for checks
is a ScalarPoly without any conversion.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import combinations, islice, repeat
from math import gcd, lcm
from operator import mul, xor

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


def inner(u: FrameVector, v: FrameVector) -> Fraction:
    """Euclidean pairing sum_a u_a v_a in the orthonormal frame."""
    return sum((x * y for x, y in zip(u.components, v.components)), Fraction(0))


# ---------------------------------------------------------------------------
# blade sign rules
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _sign_mask(n: int, a: int) -> int:
    """mu with blade(a) * blade(b) = (-1)^popcount(b & mu) * blade(a ^ b): a
    shifted copy of a per swap distance, and a's c bits (c_j^2 = -1)."""
    return reduce(xor, (a >> k for k in range(1, 2 * n)), a & ((1 << n) - 1))


@lru_cache(maxsize=None)
def _blade_sign(n: int, a: int, b: int) -> int:
    """s with blade(a) * blade(b) = s * blade(a ^ b), by _sign_mask."""
    return -1 if (b & _sign_mask(n, a)).bit_count() & 1 else 1


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


# ---------------------------------------------------------------------------
# shapes and trace plans
# ---------------------------------------------------------------------------

_PLANS: dict = {}
_PLAN_CAP = 1 << 14
_UNIT = (0,)


@lru_cache(maxsize=None)
def _pair_shape(n: int, sw: int, sx: int) -> tuple:
    """The shape of ctilde(w) ctilde(x) for every w, x whose supports lie
    in sw, sx (bit j for component j+1, _support): blade 0 where sw and
    sx meet, and the four blades of each j < k where sw holds j and sx
    k, or sw k and sx j (_pair_op)."""
    masks = [0] if sw & sx else []
    for j, k in combinations(range(n), 2):
        if (sw >> j & sx >> k | sw >> k & sx >> j) & 1:
            masks += [1 << j | 1 << k, 1 << n + j | 1 << n + k, 1 << j | 1 << n + k, 1 << k | 1 << n + j]
    return tuple(sorted(masks))


def _plan(n: int, sa: tuple, sb: tuple, sc: tuple) -> tuple:
    """(p, ia, ib, ic): index tuples into the shapes sa, sb, sc, one entry
    per blade triple with ma ^ mb ^ mc = 0, the p triples of sign +1
    first and then those of sign -1.  The sign is sq(ma) s(mb, mc):
    blade(mb) blade(mc) = s(mb, mc) blade(ma) and blade(ma)^2 = sq(ma),
    both by _blade_sign.  A plain loop over sa and sb, looking mc up in
    sc."""
    where = {m: i for i, m in enumerate(sc)}
    signed = {1: [], -1: []}
    for ia, ma in enumerate(sa):
        sq = _blade_sign(n, ma, ma)
        for ib, mb in enumerate(sb):
            ic = where.get(ma ^ mb)
            if ic is not None:
                signed[sq * _blade_sign(n, mb, sc[ic])].append((ia, ib, ic))
    triples = signed[1] + signed[-1]
    return (len(signed[1]), *(zip(*triples) if triples else ((), (), ())))


class CliffordOp:
    """Element of Cl(n,n) acting on Lambda R^n.

    Stored as one positive denominator den and {blade mask: ((packed
    degree, re, im), ...)} integer numerators, the terms of ScalarPoly's
    integer form.  The form is canonical: no zero term or empty blade,
    terms sorted by degree, den coprime to the numerators.  With the
    faithfulness of the action, equal operators compare equal however
    they were built.  Instances are built by from_numerators,
    tildec_pair, tildec_row and the algebra, and are treated as immutable.

    constant marks a real constant, every blade one degree-0 real term
    (0, numerator, 0): set by from_numerators and on the record's hh
    (symbols.curvature_ops), False for every other build.  trace_sums
    reads such an operator's numerators as its packed values, at every
    width, instead of packing its terms.  shape is the sorted tuple of
    blade masks that the builder hands out, containing the blades:
    tildec_pair's and tildec_row's follow their vectors' support classes
    (_support), the curvature record's are dense; None for every other
    build, which trace_sums reads as the operator's own blades.  Neither
    takes part in ==.
    """

    __slots__ = ("n", "den", "blades", "constant", "shape")

    @classmethod
    def _make(cls, n: int, den: int, blades: dict, constant: bool = False, shape: tuple = None) -> "CliffordOp":
        op = cls.__new__(cls)
        op.n, op.den, op.blades, op.constant, op.shape = n, den, blades, constant, shape
        return op

    @classmethod
    def from_numerators(cls, n: int, den: int, numerators: dict, shape: tuple = None) -> "CliffordOp":
        """Operator with the real constant coefficient numerators[mask] / den
        on each blade mask; den is a positive integer, and shape, if
        given, a sorted tuple of masks containing every mask.  Degree-0 real
        terms need no _canonical pass: one gcd reduces them, and the
        operator is marked constant, so trace_sums reads these integers
        back without packing them."""
        g = gcd(den, *numerators.values())
        blades = {mask: ((0, num // g, 0),) for mask, num in numerators.items() if num}
        return cls._make(n, den // g, blades, True, shape)

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
    4 lcm(w's denominators) lcm(x's denominators), one gcd, terms built
    sorted; its shape follows the support classes of w and x
    (_pair_shape of _support)."""
    n = w.n
    if x.n != n:
        raise ValueError("dimension mismatch")
    lw, lx = (lcm(*(c.denominator for c in v.components)) for v in (w, x))
    W = [c.numerator * (lw // c.denominator) for c in w.components]
    X = [c.numerator * (lx // c.denominator) for c in x.components]
    om = [(j, k, W[j] * X[k] - W[k] * X[j]) for j in range(n) for k in range(j + 1, n)]
    shape = _pair_shape(n, _support(W), _support(X))
    return _pair_op(n, 4 * lw * lx, 4 * sum(a * b for a, b in zip(W, X)), om, shape)


def tildec_row(w: FrameVector) -> list:
    """[ctilde(w) ctilde(e_f) for f = 1..n], each equal to tildec_pair(w,
    e_f), reading w's numerators and lcm once: against e_f, g(w, e_f) =
    w_f, and the only nonzero om are om_jf = w_j (j < f) and om_fk = -w_k
    (k > f).  Row f's shape is tildec_pair's, of w's support class and
    e_f's."""
    n, lw = w.n, lcm(*(c.denominator for c in w.components))
    W = [c.numerator * (lw // c.denominator) for c in w.components]
    sw = _support(W)
    om = [[(j, f, W[j]) for j in range(f)] + [(f, k, -W[k]) for k in range(f + 1, n)] for f in range(n)]
    return [_pair_op(n, 4 * lw, 4 * W[f], om[f], _pair_shape(n, sw, 1 << f)) for f in range(n)]


def _support(W: list) -> int:
    """The support class a pair shape is built for: bit j alone when W[j]
    is W's one nonzero entry (a multiple of a frame vector, as the proof
    sweep's are), else all n bits.  So a vector takes one of n + 1
    classes, and a dimension's shapes, and its plans, are bounded."""
    nonzero = [j for j, x in enumerate(W) if x]
    return 1 << nonzero[0] if len(nonzero) == 1 else (1 << len(W)) - 1


def _pair_op(n: int, den: int, scalar: int, om: list, shape: tuple) -> CliffordOp:
    """The op of tildec_pair from its numerators over den: 4 g(w, x) and
    the (j, k, om_jk) of j < k, of the given shape."""
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
    return CliffordOp._make(n, den // g, blades, False, shape)


def trace_sums(sums: dict, n: int) -> dict:
    """{key: sum of w / den tr(ops)} of the weighted chain sums {key: (den,
    {chain key: (ops, w)})} (residue.composed_weights), chains of at most
    three operators of dimension n, integer w.  The chains of nonzero
    weight are checked before anything is packed, and each is traced
    once however many keys share it.

    tr(a b c) is 2^n times the sum of a b c over the blade triples with
    ma ^ mb ^ mc = 0, each signed by sq(ma) s(mb, mc), as blade(mb)
    blade(mc) = s(mb, mc) blade(ma).  Which triples meet is read from a
    plan (_plan): the signed index triples into the factors' shapes,
    memoised in _PLANS by (n, shape of a, of b, of c); no key is the
    id() of an object that can be freed.  A shape is handed out by the
    operator's builder, or is the operator's own blades.  A builder's
    shape is fixed by n and its vectors' support classes (_support), so
    the plans an Analysis reads are bounded per dimension (1,686 over
    every class pair at n = 6, 4,650 at n = 8) and fresh inputs reuse
    them; a vector with some zero components pays for the zeros its
    shape holds.  Operators built otherwise (by a direct caller) add
    plans by their blade sets, so the memo is emptied when it reaches
    _PLAN_CAP plans.  Each operator's packed part of each degree is read
    once into a list in its shape's order (0 where it has no blade), and
    a chain's trace is, per degree triple, the sum of A[ia] B[ib] C[ic]
    over the plan's positive triples minus that over its negative ones,
    in one pass.  A shorter chain is padded in front by the unit, of
    shape (0,) and value 1, and takes the same path.  Each chain's plan
    is looked up before any operator is packed, and a chain whose plan is
    empty traces to zero whatever its values: it is dropped before the
    width bound, and an operator that sits only in such chains is never
    packed.

    Each operator's den, blade count and largest blade L1 norm L are read
    once (_kron_norm, which refuses an imaginary numerator with
    ValueError, also on an operator of a dropped chain), and each
    operator of a chain with a non-empty plan is packed once
    (scalars._kron_parts) at one width K.  A constant operator
    (from_numerators, the record's hh) is its degree-0 numerators at
    every width: its part is {blade: numerator} and L their largest |.|,
    with no pack and no term walk.  A chain traces to
    {total degree: packed} over den_c, its dens' product.  A key sums w
    (L // den_c) packed_c, L the lcm of its den_c, and reads the digits
    back once, over den L.  Packing is linear, so each digit is a
    coefficient of that sum, at most the sum of |w| (L // den_c) B_c, where
    B_c = |a.blades| |c.blades| L(a) L(b) L(c) (a shorter chain padded in
    front by factors of den, count and norm 1) bounds a coefficient of
    tr(a b c) over den_c before 2^n, as ma and mc fix mb.  K exceeds the
    widest key's bound by 2 bits, so every digit reads back exactly.
    """
    live = {ck: ops for _, chains in sums.values() for ck, (ops, w) in chains.items() if w}
    distinct = {id(op): op for ops in live.values() for op in ops}
    if any(len(ops) > 3 for ops in live.values()):
        raise ValueError(f"trace_sums traces at most three factors, got {max(map(len, live.values()))}")
    if any(op.n != n for op in distinct.values()):
        raise ValueError("dimension mismatch")
    consts = {k: {m: t[0][1] for m, t in op.blades.items()} for k, op in distinct.items() if op.constant}
    facts = {
        k: (op.den, len(op.blades), max(map(abs, consts[k].values()), default=0) if k in consts
            else _kron_norm(op.blades))
        for k, op in distinct.items()
    }
    shapes, plans = {k: op.shape or tuple(sorted(op.blades)) for k, op in distinct.items()}, {}
    for ck, ops in live.items():
        sa, sb, sc = [_UNIT] * (3 - len(ops)) + [shapes[id(op)] for op in ops]
        plan = _PLANS.get((n, sa, sb, sc))
        if plan is None:
            if len(_PLANS) >= _PLAN_CAP:
                _PLANS.clear()
            plan = _PLANS[n, sa, sb, sc] = _plan(n, sa, sb, sc)
        if plan[1]:
            plans[ck] = plan
    cden, bound, keyed, width = {}, {}, {}, 2
    for ck in plans:
        ops = live[ck]
        (da, na, la), (db, _, lb), (dc, nc, lc) = [(1, 1, 1)] * (3 - len(ops)) + [facts[id(op)] for op in ops]
        cden[ck], bound[ck] = da * db * dc, na * nc * la * lb * lc
    for key, (_, chains) in sums.items():
        L = lcm(*(cden[ck] for ck, (_, w) in chains.items() if w and ck in plans))
        keyed[key] = L, [(ck, w * (L // cden[ck])) for ck, (_, w) in chains.items() if w and ck in plans]
        width = max(width, 2 + sum(abs(f) * bound[ck] for ck, f in keyed[key][1]).bit_length())
    views = {}
    for k, op in {id(op): op for ck in plans for op in live[ck]}.items():
        parts = {0: consts[k]} if k in consts else _kron_parts(op.blades, width)
        views[k] = [(d, list(map(part.get, shapes[k], repeat(0)))) for d, part in parts.items()]
    unit = [(0, [1])]

    def trace(ck) -> dict:
        ops = live[ck]
        va, vb, vc = [unit] * (3 - len(ops)) + [views[id(op)] for op in ops]
        count, ia, ib, ic = plans[ck]
        acc = {}
        for da, A in va:
            for db, B in vb:
                for dc, C in vc:
                    terms = map(mul, map(mul, map(A.__getitem__, ia), map(B.__getitem__, ib)), map(C.__getitem__, ic))
                    acc[da + db + dc] = acc.get(da + db + dc, 0) + sum(islice(terms, count)) - sum(terms)
        return acc

    out, traced = {}, {}
    for key, (den, _) in sums.items():
        L, weighted = keyed[key]
        acc = {}
        for ck, f in weighted:
            if ck not in traced:
                traced[ck] = trace(ck)
            for d, v in traced[ck].items():
                acc[d] = acc.get(d, 0) + f * v
        out[key] = ScalarPoly._from_slots(den * L, _kron_slots(acc, width, 1 << n))
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
