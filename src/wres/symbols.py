"""Operator-valued pseudodifferential symbols at a point in normal coordinates.

A symbol is a finite sum of terms

    scalar * x^alpha xi^beta ||xi||^p (x) op_1 op_2 ... op_k

where scalar is an exact constant (a ScalarPoly whose only term has
degree (0, 0)), the monomials live on R^n, and the ops chain multiplies
out to one Clifford-algebra coefficient.  The parameters a0, b0 enter
only through ctilde = a0*ext - b0*int, so they live in the Clifford
coefficients and never in a scalar.  The chain is kept unevaluated:
its trace is read off without building the product and memoized per
chain in a ProductCache.  Homogeneity order of a term is |beta| + p;
composition pairs xi-derivatives on the left factor with
x-derivatives on the right factor and evaluates everything at the base
point x = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from math import lcm
from operator import add
from typing import NamedTuple

from . import curvature
from .clifford import (
    CliffordOp,
    Dimension,
    FrameVector,
    ProductCache,
    tildec_op,
    vector_clifford,
)
from .curvature import RiemannTensor
from .scalars import ScalarPoly

_ONE = ScalarPoly.one()
_I = ScalarPoly.imag_unit()


class SymbolTerm:
    """One additive term of an operator-valued symbol; the scalar is a
    constant ScalarPoly, and an exact rational or Gaussian rational is
    coerced to one, so a float or a ScalarPoly in a0, b0 raises
    TypeError."""

    __slots__ = ("x_mono", "xi_mono", "norm_power", "scalar", "ops", "tag")

    def __init__(self, x_mono, xi_mono, norm_power, scalar, ops=(), tag=""):
        self.x_mono = x_mono
        self.xi_mono = xi_mono
        self.norm_power = norm_power
        if not isinstance(scalar, ScalarPoly):
            scalar = ScalarPoly.const(scalar)
        elif any(k for k, _, _ in scalar.nums):
            raise TypeError(f"symbol scalar {scalar.text()} depends on a0, b0")
        self.scalar = scalar
        self.ops = ops
        self.tag = tag

    def order(self) -> int:
        return sum(self.xi_mono) + self.norm_power

    def materialize(self) -> CliffordOp:
        """Coefficient scalar * op_1 ... op_k, identity chain included."""
        acc = CliffordOp.identity(len(self.x_mono)) if not self.ops else self.ops[0]
        for nxt in self.ops[1:]:
            acc = acc * nxt
        return acc.scale(self.scalar)

    def __repr__(self) -> str:
        return (
            f"SymbolTerm(x={self.x_mono}, xi={self.xi_mono}, "
            f"norm={self.norm_power}, scalar={self.scalar}, "
            f"ops={len(self.ops)}, tag={self.tag!r})"
        )


def _e(n: int, *idx: int) -> tuple:
    mono = [0] * n
    for j in idx:
        mono[j - 1] += 1
    return tuple(mono)


def _bump(mono: tuple, idx0: int, delta: int) -> tuple:
    return mono[:idx0] + (mono[idx0] + delta,) + mono[idx0 + 1 :]


def d_xi(term: SymbolTerm, j: int) -> list:
    """Derivative in xi_j; the norm factor contributes p xi_j ||xi||^{p-2}."""
    out = []
    e = term.xi_mono[j - 1]
    if e:
        out.append(
            SymbolTerm(
                term.x_mono,
                _bump(term.xi_mono, j - 1, -1),
                term.norm_power,
                term.scalar.scale(e),
                term.ops,
                term.tag,
            )
        )
    p = term.norm_power
    if p:
        out.append(
            SymbolTerm(
                term.x_mono,
                _bump(term.xi_mono, j - 1, +1),
                p - 2,
                term.scalar.scale(p),
                term.ops,
                term.tag,
            )
        )
    return out


class SymbolExpansion:
    """Finite collection of symbol terms, bucketed by homogeneity order."""

    def __init__(self, n: int):
        self.n = n
        self._orders: dict = {}

    def add(self, term: SymbolTerm) -> None:
        if not term.scalar:
            return
        self._orders.setdefault(term.order(), []).append(term)

    def terms_at(self, order: int) -> list:
        return self._orders.get(order, [])

    def orders(self) -> list:
        return sorted(o for o, terms in self._orders.items() if terms)

    def merged(self, cache: ProductCache) -> dict:
        """Canonical form: (order, x, xi, norm) -> materialized coefficient.

        Entries whose coefficient sums to zero are removed, so two
        expansions are the same symbol iff their merged maps are equal.
        cache is unused; the parameter stays because bench/ calls
        merged(cache).
        """
        out: dict = {}
        for order, terms in self._orders.items():
            for t in terms:
                key = (order, t.x_mono, t.xi_mono, t.norm_power)
                mat = t.materialize()
                cur = out.get(key)
                out[key] = mat if cur is None else cur + mat
        return {k: v for k, v in out.items() if not v.is_zero()}


# ---------------------------------------------------------------------------
# curvature coefficients
# ---------------------------------------------------------------------------


class CurvatureRecord(NamedTuple):
    """Every curvature datum the symbol families read (see curvature_ops)."""

    bivectors: dict
    f: CliffordOp
    rxx: dict
    den: int
    ricci: dict
    s: Fraction


def curvature_ops(R: RiemannTensor, cache: ProductCache) -> CurvatureRecord:
    """The curvature record of R, built once per tensor and cache: the
    one place where the symbol families read R.

    bivectors maps (a, b) to (cc, hh), with cc = sum_{s,t} R_{bats}
    c_s c_t and hh = sum_{s,t} R_{bats} chat_s chat_t; a pair whose sums
    vanish is absent (cc and hh carry the same weights on distinct
    blades, so they vanish together).  f = sum_{ijkl} R_{ijkl} chat_i
    chat_j c_k c_l.  Both sums collapse against the pair antisymmetries:
    entry (i, j, k, l) with l < k is the term s = l < t = k of the (j, i)
    pair, weight 2 R_{ijkl}, and with i < j, k < l it is one term of f,
    weight 4 R_{ijkl}.  Every product is already its blade with sign +1:
    the factors of c_s c_t and chat_s chat_t come in increasing bit
    order, and chat_i chat_j c_k c_l = c_k c_l chat_i chat_j since each
    c passes two chats.  rxx maps (x_j x_k, xi_a xi_b) to sum R_{ajbk}
    over the entries sharing that monomial (nonzero sums only).  The
    numerators of all three are written over den, the lcm of R's
    denominators, and built in one pass over the nonzero entries.
    ricci holds the nonzero Ricci entries {(a, b): Ric_ab} in row-major
    order and s the scalar curvature, both from curvature.contract.
    """

    def build() -> CurvatureRecord:
        n = R.n
        den = lcm(*(r.denominator for r in R.entries.values()))
        pairs: dict = {}
        f = {}
        rxx: dict = {}
        for (i, j, k, l), r in R.entries.items():
            num = r.numerator * (den // r.denominator)
            key = (_e(n, j, l), _e(n, i, k))
            rxx[key] = rxx.get(key, 0) + num
            if l < k:
                cc, hh = pairs.setdefault((j, i), ({}, {}))
                st = 1 << (l - 1) | 1 << (k - 1)
                cc[st] = hh[st << n] = 2 * num
            if i < j and k < l:
                kl = 1 << (k - 1) | 1 << (l - 1)
                ij = 1 << (i - 1) | 1 << (j - 1)
                f[kl | ij << n] = 4 * num
        op = CliffordOp.from_numerators
        bivectors = {ab: (op(n, den, cc), op(n, den, hh)) for ab, (cc, hh) in pairs.items()}
        contr = curvature.contract(R)
        ricci = {
            (a, b): ric
            for a, row in enumerate(contr.ricci, 1)
            for b, ric in enumerate(row, 1)
            if ric
        }
        return CurvatureRecord(
            bivectors, op(n, den, f), {k: v for k, v in rxx.items() if v}, den, ricci, contr.scalar
        )

    return cache.named(("curvature_ops", R), build)


# ---------------------------------------------------------------------------
# connection data for the Lichnerowicz-type square
# ---------------------------------------------------------------------------


@dataclass
class ConnectionData:
    """Endomorphism slots (T_ab, E) of a generalized Laplacian.

    The first-order slot T_a vanishes for the Hodge square at the base
    point (see standard_connection), so it is not stored and the generic
    expansion carries no T_a terms.  t_ab maps (a, b) to T_ab; a missing
    pair is T_ab = 0.  rec is the curvature record they were read from.
    """

    n: int
    t_ab: dict
    e: CliffordOp
    rec: CurvatureRecord


def standard_connection(dim: Dimension, R: RiemannTensor, cache: ProductCache) -> ConnectionData:
    """Connection data of the square of the flat-coefficient Hodge operator.

    T_a = 0, T_ab = -(1/8) sum R_{bats} c_s c_t + (1/8) sum R_{bats}
    chat_s chat_t, E = (1/8) sum R_{ijkl} chat_i chat_j c_k c_l + s/4.
    """
    n = dim.n
    rec = curvature_ops(R, cache)
    t_ab = {
        ab: cc.scale(Fraction(-1, 8)) + hh.scale(Fraction(1, 8))
        for ab, (cc, hh) in rec.bivectors.items()
    }
    e = rec.f.scale(Fraction(1, 8)) + CliffordOp.identity(n).scale(Fraction(rec.s, 4))
    return ConnectionData(n, t_ab, e, rec)


# ---------------------------------------------------------------------------
# symbol families
# ---------------------------------------------------------------------------


def _curvature_family(exp: SymbolExpansion, rec: CurvatureRecord, M: int) -> None:
    """Terms both inverse-power families share: the flat top symbol, its
    normal-coordinate correction (one rxx term per monomial), and the
    Ricci terms of the two lower orders; M scales the record."""
    n = exp.n
    zero_x = _e(n)
    top = -2 * M - 2
    for a in range(1, n + 1):
        exp.add(SymbolTerm(zero_x, _e(n, a, a), top, _ONE, (), "delta"))
    for (x, xi), num in rec.rxx.items():
        exp.add(SymbolTerm(x, xi, top, Fraction(-M * num, 3 * rec.den), (), "rxx"))
    slope = Fraction(-2 * M, 3)
    mm1_3 = Fraction(M * (M + 1), 3)
    for (a, b), ric in rec.ricci.items():
        exp.add(SymbolTerm(_e(n, b), _e(n, a), top, _I.scale(slope * ric), (), "ric"))
        exp.add(SymbolTerm(zero_x, _e(n, a, b), top - 2, mm1_3 * ric, (), "ric"))


def lemma1_symbols(
    dim: Dimension,
    R: RiemannTensor,
    conn: ConnectionData,
    m_family: int | None = None,
) -> SymbolExpansion:
    """Generic negative-order symbols of the -M power of a Laplacian with
    connection slots (T_ab, E), through three orders at the base point;
    the curvature terms read conn.rec, the record of R conn was built from.
    """
    n = dim.n
    M = dim.m if m_family is None else m_family
    zero_x = _e(n)
    exp = SymbolExpansion(n)
    _curvature_family(exp, conn.rec, M)

    # orders -2M-1 and -2M-2
    minus_2mi = _I.scale(-2 * M)
    two_mm1 = 2 * M * (M + 1)
    for (a, b), t in conn.t_ab.items():
        if not t.is_zero():
            exp.add(SymbolTerm(_e(n, b), _e(n, a), -2 * M - 2, minus_2mi, (t,), "tab"))
            exp.add(SymbolTerm(zero_x, _e(n, a, b), -2 * M - 4, two_mm1, (t,), "tab"))
            if a == b:
                exp.add(SymbolTerm(zero_x, zero_x, -2 * M - 2, -M, (t,), "tab"))
    if not conn.e.is_zero():
        exp.add(SymbolTerm(zero_x, zero_x, -2 * M - 2, -M, (conn.e,), "e"))
    return exp


def lemma2_symbols(
    dim: Dimension,
    R: RiemannTensor,
    m: int,
    exponent: int,
    cache: ProductCache,
) -> SymbolExpansion:
    """Concrete negative-order symbols of the Hodge Laplacian power.

    exponent selects the power: -2m for the full inverse used against the
    second-order product, -2m+2 for the reduced power multiplied by the
    zero-order factor.  The three stored orders are exponent, exponent-1,
    exponent-2.
    """
    n = dim.n
    if exponent == -2 * m:
        M = m
    elif exponent == -2 * m + 2:
        M = m - 1
    else:
        raise ValueError(f"unsupported symbol exponent {exponent} for m={m}")
    rec = curvature_ops(R, cache)
    zero_x = _e(n)
    exp = SymbolExpansion(n)
    _curvature_family(exp, rec, M)

    # orders -2M-1 and -2M-2: the curvature contractions coming from the
    # connection form, one c-family and one chat-family
    i_m4 = _I.scale(Fraction(M, 4))
    mm1_4 = Fraction(M * (M + 1), 4)
    for (a, b), (cc, hh) in rec.bivectors.items():
        exp.add(SymbolTerm(_e(n, b), _e(n, a), -2 * M - 2, i_m4, (cc,), "cc"))
        exp.add(SymbolTerm(zero_x, _e(n, a, b), -2 * M - 4, -mm1_4, (cc,), "cc"))
        exp.add(SymbolTerm(_e(n, b), _e(n, a), -2 * M - 2, -i_m4, (hh,), "hchc"))
        exp.add(SymbolTerm(zero_x, _e(n, a, b), -2 * M - 4, mm1_4, (hh,), "hchc"))
    if not rec.f.is_zero():
        exp.add(SymbolTerm(zero_x, zero_x, -2 * M - 2, Fraction(-M, 8), (rec.f,), "f"))
    if rec.s and M:
        s_coeff = Fraction(-M, 4) * rec.s
        exp.add(SymbolTerm(zero_x, zero_x, -2 * M - 2, s_coeff, (), "s"))
    return exp


def symbols_PQ(
    dim: Dimension, R: RiemannTensor, w: FrameVector, cache: ProductCache
) -> SymbolExpansion:
    """Symbols of one first-order factor ctilde(w) * (Hodge operator).

    Order 1 is i ctilde(w) ctilde(xi); order 0 carries the x-linear
    connection-form contributions.  The x_l slope of the connection form
    along e_p is half the (l, p) curvature bivectors cc and hh of
    curvature_ops, so the c-family has weight -1/8 and the chat-family
    +1/8.  The coefficient vector w is constant, so no other
    x-dependence appears.
    """
    n = dim.n
    cw = vector_clifford("tildec", w)
    w_p = [cw * tildec_op(n, p) for p in range(1, n + 1)]
    exp = SymbolExpansion(n)
    zero_x = _e(n)
    for f in range(1, n + 1):
        exp.add(SymbolTerm(zero_x, _e(n, f), 0, _I, (w_p[f - 1],), ""))
    eighth = Fraction(1, 8)
    for (l, p), (cc, hh) in curvature_ops(R, cache).bivectors.items():
        exp.add(SymbolTerm(_e(n, l), zero_x, 0, -eighth, (w_p[p - 1], cc), "cc"))
        exp.add(SymbolTerm(_e(n, l), zero_x, 0, eighth, (w_p[p - 1], hh), "hchc"))
    return exp


def uv_symbol(dim: Dimension, u: FrameVector, v: FrameVector) -> SymbolExpansion:
    """Order-zero symbol of the endomorphism ctilde(u) ctilde(v)."""
    n = dim.n
    prod = vector_clifford("tildec", u) * vector_clifford("tildec", v)
    exp = SymbolExpansion(n)
    exp.add(SymbolTerm(_e(n), _e(n), 0, _ONE, (prod,), ""))
    return exp


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------

_MINUS_I_POW = (_ONE, -_I, -_ONE)


def _factor_lists(A: SymbolExpansion, oa: int, B: SymbolExpansion, ob: int, k: int):
    """Yield (derived A terms, B terms) per multi-index alpha of weight k:
    the A terms of order oa, free of x, times (-i)^k and differentiated
    by d_xi^alpha, and the B terms of order ob whose x monomial is alpha.

    The base-point evaluation keeps exactly the B terms whose x monomial
    equals alpha, and their alpha! cancels the 1/alpha! of the
    composition formula, leaving the flat factor (-i)^k.  For k = 0 the
    one multi-index is empty.
    """
    if k < 0:
        return
    if k > 2:
        raise ValueError("stored symbol data only supports two derivatives")
    n = A.n
    aterms = [t for t in A.terms_at(oa) if not any(t.x_mono)]
    bgroup: dict = {}
    for tb in B.terms_at(ob):
        if sum(tb.x_mono) == k:
            bgroup.setdefault(tb.x_mono, []).append(tb)
    if not aterms or not bgroup:
        return
    if k:
        # xi-derivatives are linear, so (-i)^k goes on before them
        c = _MINUS_I_POW[k]
        aterms = [
            SymbolTerm(t.x_mono, t.xi_mono, t.norm_power, t.scalar * c, t.ops, t.tag)
            for t in aterms
        ]
    for combo in combinations_with_replacement(range(1, n + 1), k):
        blist = bgroup.get(_e(n, *combo))
        if not blist:
            continue
        derived = aterms
        for j in combo:
            derived = [d for t in derived for d in d_xi(t, j)]
        yield derived, blist


def _odd_mask(mono: tuple) -> int:
    """Bitmask of the variables with an odd exponent."""
    return sum(1 << j for j, e in enumerate(mono) if e & 1)


def even_pairs(A: SymbolExpansion, oa: int, B: SymbolExpansion, ob: int, k: int):
    """Yield the factor pairs (ta, tb) of the block whose summed xi
    monomial is even in every variable; no other pair is enumerated.
    Each product ta.scalar * tb.scalar xi^(ta.xi + tb.xi) (x) ta.ops +
    tb.ops is one term, and ta carries the flat factor (-i)^k.

    ta.xi + tb.xi is even exactly when both have the same odd-exponent
    mask, so each derived A term meets only the B terms of its mask.
    """
    for derived, blist in _factor_lists(A, oa, B, ob, k):
        by_mask: dict = {}
        for tb in blist:
            by_mask.setdefault(_odd_mask(tb.xi_mono), []).append(tb)
        for ta in derived:
            for tb in by_mask.get(_odd_mask(ta.xi_mono), ()):
                yield ta, tb


def blocks_at(A: SymbolExpansion, B: SymbolExpansion, order: int) -> list:
    """Every block (A, oa, B, ob, k) of A o B that lands on the given
    order, with k = oa + ob - order derivatives."""
    return [
        (A, oa, B, ob, oa + ob - order)
        for oa in A.orders()
        for ob in B.orders()
        if oa + ob >= order
    ]


def compose_block(A: SymbolExpansion, oa: int, B: SymbolExpansion, ob: int, k: int) -> list:
    """The terms of (-i)^k/k! sum_alpha d_xi^alpha[A_oa] d_x^alpha[B_ob]
    at x = 0, one per factor pair.

    Odd terms are kept: a product symbol is differentiated in xi again
    when it is composed further, which can make them even.
    """
    zero_x = _e(A.n)
    return [
        SymbolTerm(
            zero_x,
            tuple(map(add, ta.xi_mono, tb.xi_mono)),
            ta.norm_power + tb.norm_power,
            ta.scalar * tb.scalar,
            ta.ops + tb.ops,
            ta.tag or tb.tag,
        )
        for derived, blist in _factor_lists(A, oa, B, ob, k)
        for ta in derived
        for tb in blist
    ]


def symbol_product_PQ(
    dim: Dimension,
    R: RiemannTensor,
    u: FrameVector,
    v: FrameVector,
    cache: ProductCache,
) -> SymbolExpansion:
    """Symbols of the product of the two first-order factors at the base
    point, through orders 2, 1, 0.  The order-1 bucket comes out empty:
    every candidate term carries a positive x power."""
    P = symbols_PQ(dim, R, u, cache)
    Q = symbols_PQ(dim, R, v, cache)
    exp = SymbolExpansion(dim.n)
    for target in (2, 1, 0):
        for block in blocks_at(P, Q, target):
            for term in compose_block(*block):
                exp.add(term)
    return exp
