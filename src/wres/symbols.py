"""Operator-valued pseudodifferential symbols at a point in normal coordinates.

A symbol is a finite sum of terms

    (re + im*i) / den * x^alpha xi^beta ||xi||^p (x) op_1 op_2 ... op_k

where the weight is an exact constant held as integers (den > 0, not
necessarily reduced), the monomials live on R^n, and the ops chain
multiplies out to one Clifford-algebra coefficient.  The weights of the
curvature families are small-denominator multiples of the integer
numerators of the curvature record, written over its denominator.  The
parameters a0, b0 enter only through ctilde = a0*ext - b0*int, so they
live in the Clifford coefficients and never in a weight.  The chain is
kept unevaluated: its trace is read off without building the product
and memoized per chain in a ProductCache.  Homogeneity order of a term is |beta| + p;
composition pairs xi-derivatives on the left factor with
x-derivatives on the right factor and evaluates everything at the base
point x = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import combinations_with_replacement
from math import gcd, lcm
from operator import add, mul
from typing import NamedTuple

from .clifford import (
    CliffordOp,
    Dimension,
    FrameVector,
    ProductCache,
    tildec,
)
from .curvature import RiemannTensor
from .scalars import _canonical, _imac_each


class SymbolTerm(NamedTuple):
    """One additive term of an operator-valued symbol, weighted by the
    constant (re + im*i) / den with integer re, im and den > 0.

    Built only from integers, and never hashed or value-compared: the
    ops chain holds CliffordOps, which are unhashable.
    """

    x_mono: tuple
    xi_mono: tuple
    norm_power: int
    den: int
    re: int
    im: int
    ops: tuple = ()
    tag: str = ""

    def order(self) -> int:
        return sum(self.xi_mono) + self.norm_power


@lru_cache(maxsize=None)
def _e(n: int, *idx: int) -> tuple:
    """The monomial on R^n with one factor per index of idx (memoised)."""
    mono = [0] * n
    for j in idx:
        mono[j - 1] += 1
    return tuple(mono)


def d_xi(t: SymbolTerm, j: int) -> list:
    """Derivative in xi_j; the norm factor contributes p xi_j ||xi||^{p-2}."""
    x, xi, p, den, re, im, ops, tag = t
    c = xi[j - 1]
    out = []
    if c:
        out.append(SymbolTerm(x, xi[: j - 1] + (c - 1,) + xi[j:], p, den, c * re, c * im, ops, tag))
    if p:
        out.append(SymbolTerm(x, xi[: j - 1] + (c + 1,) + xi[j:], p - 2, den, p * re, p * im, ops, tag))
    return out


class SymbolExpansion:
    """Finite collection of symbol terms, bucketed by homogeneity order."""

    def __init__(self, n: int):
        self.n = n
        self._orders: dict = {}

    def add(self, term: SymbolTerm) -> None:
        if not (term.re or term.im):
            return
        self._orders.setdefault(term.order(), []).append(term)

    def terms_at(self, order: int) -> list:
        return self._orders.get(order, [])

    def orders(self) -> list:
        return sorted(o for o, terms in self._orders.items() if terms)

    def merged(self, cache: ProductCache) -> dict:
        """Canonical form: (order, x, xi, norm) -> summed coefficient.

        Each key is summed in one integer pass over the lcm of its terms'
        denominators (op-free terms on blade 0, each chain multiplied out
        once) and reduced to canonical form once; keys that sum to zero
        are removed, so two expansions are the same symbol iff their
        merged maps are equal.  cache is unused but bench/ passes it.
        """
        groups: dict = {}
        for order, terms in self._orders.items():
            for t in terms:
                groups.setdefault((order, t.x_mono, t.xi_mono, t.norm_power), []).append(t)
        out: dict = {}
        for key, terms in groups.items():
            chains = [(t, reduce(mul, t.ops)) for t in terms if t.ops]
            den = lcm(*(t.den for t in terms), *(t.den * op.den for t, op in chains))
            re = sum(den // t.den * t.re for t in terms if not t.ops)
            im = sum(den // t.den * t.im for t in terms if not t.ops)
            if chains:
                weights = [(den // (t.den * op.den), ((0, t.re, t.im),), op) for t, op in chains]
                hits = ((m, f, nums, w) for f, w, op in weights for m, nums in op.blades.items())
                den, blades = _canonical(den, _imac_each({0: {0: [re, im]}}, hits))
            elif re or im:
                g = gcd(den, re, im)
                den, blades = den // g, {0: ((0, re // g, im // g),)}
            else:
                continue
            if blades:
                out[key] = CliffordOp._make(self.n, den, blades)
        return out


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
    s: int


def curvature_ops(R: RiemannTensor, cache: ProductCache) -> CurvatureRecord:
    """The curvature record of R, built once per tensor and cache: the
    one place where the symbol families read R.

    bivectors maps (a, b), a < b, to (cc, hh), with cc = sum_{s,t}
    R_{bats} c_s c_t and hh = sum_{s,t} R_{bats} chat_s chat_t; a pair
    whose sums vanish is absent.  The pair (b, a) is (-cc, -hh) by the
    first-pair antisymmetry RiemannTensor.validate enforces, so it is
    not stored: its terms carry the sign in their weights (_ordered_pairs).
    hh is cc's canonical form, den and numerators, with every blade mask
    shifted left by n (c_j to chat_j).
    f = sum_{ijkl} R_{ijkl} chat_i chat_j c_k c_l.  Both sums collapse
    against the pair antisymmetries: entry (i, j, k, l) with j < i and
    l < k is the term s = l < t = k of the (j, i) pair, weight 2 R_{ijkl},
    and with i < j, k < l it is one term of f, weight 4 R_{ijkl}.  Every
    product is already its blade with sign +1:
    the factors of c_s c_t and chat_s chat_t come in increasing bit
    order, and chat_i chat_j c_k c_l = c_k c_l chat_i chat_j since each
    c passes two chats.  rxx maps (x_j x_k, xi_a xi_b) to sum R_{ajbk}
    over the entries sharing that monomial (nonzero sums only).  The
    numerators of all three are written over den, the lcm of R's
    denominators.  ricci maps (a, b) to the numerator of Ric_ab =
    sum_p R_{apbp} (entry (i, j, k, l) with j == l adds to (i, k)),
    nonzero entries only, in row-major order, and s is the numerator of
    the scalar curvature, both over den.  All of it is read in one pass
    over the nonzero entries.
    """

    def build() -> CurvatureRecord:
        n = R.n
        den = lcm(*(r.denominator for r in R.entries.values()))
        pairs: dict = {}
        f = {}
        rxx: dict = {}
        ricci: dict = {}
        for (i, j, k, l), r in R.entries.items():
            num = r.numerator * (den // r.denominator)
            key = (_e(n, j, l), _e(n, i, k))
            rxx[key] = rxx.get(key, 0) + num
            if j == l:
                ricci[i, k] = ricci.get((i, k), 0) + num
            if j < i and l < k:
                pairs.setdefault((j, i), {})[1 << (l - 1) | 1 << (k - 1)] = 2 * num
            if i < j and k < l:
                kl = 1 << (k - 1) | 1 << (l - 1)
                ij = 1 << (i - 1) | 1 << (j - 1)
                f[kl | ij << n] = 4 * num
        op = CliffordOp.from_numerators
        bivectors = {}
        for ab, nums in pairs.items():
            cc = op(n, den, nums)
            bivectors[ab] = cc, CliffordOp._make(n, cc.den, {m << n: t for m, t in cc.blades.items()})
        s = sum(ric for (a, b), ric in ricci.items() if a == b)
        ricci = {ab: ric for ab, ric in sorted(ricci.items()) if ric}
        rxx = {k: v for k, v in rxx.items() if v}
        return CurvatureRecord(bivectors, op(n, den, f), rxx, den, ricci, s)

    return cache.named(("curvature_ops", R), build)


def _ordered_pairs(rec: CurvatureRecord):
    """(a, b, sign, cc, hh) for every ordered pair (a, b) of rec.bivectors:
    its bivectors are sign * cc and sign * hh, sign = -1 when a > b."""
    for (a, b), (cc, hh) in rec.bivectors.items():
        yield a, b, 1, cc, hh
        yield b, a, -1, cc, hh


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

    T_a = 0, T_ab = (hh - cc)/8 and E = f/8 + s/4 for the record's cc, hh,
    f and s, each one operator of integer numerators, with T_ab for every
    ordered pair (a, b) of the record (T_ba = -T_ab): T_ab over 8 cc.den,
    E over 8 rec.den (f's numerators rescaled to rec.den, 2 s on blade 0).
    """
    n = dim.n
    rec = curvature_ops(R, cache)
    t_ab = {
        (a, b): CliffordOp.from_numerators(n, 8 * cc.den, {**_nums(cc, -sign), **_nums(hh, sign)})
        for a, b, sign, cc, hh in _ordered_pairs(rec)
    }
    e_nums = {**_nums(rec.f, rec.den // rec.f.den), 0: 2 * rec.s}
    return ConnectionData(n, t_ab, CliffordOp.from_numerators(n, 8 * rec.den, e_nums), rec)


def _nums(op: CliffordOp, factor: int) -> dict:
    """factor times the numerator of each blade of a real constant op."""
    return {mask: factor * re for mask, ((_, re, _),) in op.blades.items()}


# ---------------------------------------------------------------------------
# symbol families
# ---------------------------------------------------------------------------


def _curvature_family(exp: SymbolExpansion, rec: CurvatureRecord, M: int) -> None:
    """Terms both inverse-power families share: the flat top symbol, its
    normal-coordinate correction -M/3 rxx (one term per monomial), and
    the Ricci terms -2iM/3 Ric and M(M+1)/3 Ric of the two lower orders;
    the record's numerators go over 3 * rec.den.

    The top symbol is the one term |xi|^(-2M) rather than the n terms
    xi_a^2 |xi|^(-2M-2) of the metric contraction: the two agree on the
    cosphere, and an inverse power is only ever the right factor of a
    composition, where it is matched by its x monomial and never
    differentiated in xi, so it is only ever read on the cosphere.
    """
    n = exp.n
    zero_x = _e(n)
    top = -2 * M - 2
    den = 3 * rec.den
    exp.add(SymbolTerm(zero_x, zero_x, -2 * M, 1, 1, 0, (), "delta"))
    for (x, xi), num in rec.rxx.items():
        exp.add(SymbolTerm(x, xi, top, den, -M * num, 0, (), "rxx"))
    for (a, b), ric in rec.ricci.items():
        exp.add(SymbolTerm(_e(n, b), _e(n, a), top, den, 0, -2 * M * ric, (), "ric"))
        exp.add(SymbolTerm(zero_x, _e(n, a, b), top - 2, den, M * (M + 1) * ric, 0, (), "ric"))


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

    # order -2M-2; the order -2M-4 terms 2M(M+1) T_ab xi_a xi_b of (a, b)
    # and (b, a) cancel, since T_ba = -T_ab, so none is written
    for (a, b), t in conn.t_ab.items():
        if not t.is_zero():
            exp.add(SymbolTerm(_e(n, b), _e(n, a), -2 * M - 2, 1, 0, -2 * M, (t,), "tab"))
    if not conn.e.is_zero():
        exp.add(SymbolTerm(zero_x, zero_x, -2 * M - 2, 1, -M, 0, (conn.e,), "e"))
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

    # order -2M-2: the curvature contractions coming from the connection
    # form, iM/4 on the c-family and -iM/4 on the chat-family; their
    # order -2M-4 terms -+M(M+1)/4 xi_a xi_b of (a, b) and (b, a) share
    # one chain with opposite weights, so they cancel and none is written
    for a, b, sign, cc, hh in _ordered_pairs(rec):
        exp.add(SymbolTerm(_e(n, b), _e(n, a), -2 * M - 2, 4, 0, sign * M, (cc,), "cc"))
        exp.add(SymbolTerm(_e(n, b), _e(n, a), -2 * M - 2, 4, 0, -sign * M, (hh,), "hchc"))
    if not rec.f.is_zero():
        exp.add(SymbolTerm(zero_x, zero_x, -2 * M - 2, 8, -M, 0, (rec.f,), "f"))
    if rec.s and M:
        exp.add(SymbolTerm(zero_x, zero_x, -2 * M - 2, 4 * rec.den, -M * rec.s, 0, (), "s"))
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
    cw = tildec(w)
    w_p = [cw * tildec(FrameVector.basis(n, p)) for p in range(1, n + 1)]
    exp = SymbolExpansion(n)
    zero_x = _e(n)
    for f in range(1, n + 1):
        exp.add(SymbolTerm(zero_x, _e(n, f), 0, 1, 0, 1, (w_p[f - 1],), ""))
    for l, p, sign, cc, hh in _ordered_pairs(curvature_ops(R, cache)):
        exp.add(SymbolTerm(_e(n, l), zero_x, 0, 8, -sign, 0, (w_p[p - 1], cc), "cc"))
        exp.add(SymbolTerm(_e(n, l), zero_x, 0, 8, sign, 0, (w_p[p - 1], hh), "hchc"))
    return exp


def uv_symbol(dim: Dimension, u: FrameVector, v: FrameVector) -> SymbolExpansion:
    """Order-zero symbol of the endomorphism ctilde(u) ctilde(v)."""
    n = dim.n
    prod = tildec(u) * tildec(v)
    exp = SymbolExpansion(n)
    exp.add(SymbolTerm(_e(n), _e(n), 0, 1, 1, 0, (prod,), ""))
    return exp


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------

def _factor_lists(A: SymbolExpansion, oa: int, B: SymbolExpansion, ob: int, k: int):
    """Yield (derived A terms, B terms) per multi-index alpha of weight k:
    the A terms of order oa, free of x, times (-i)^k (re, im -> im, -re
    once per derivative) and differentiated by d_xi^alpha, and the B
    terms of order ob whose x monomial is alpha.  Only A is ever
    differentiated in xi; B, the inverse power whenever one is composed,
    is matched by its x monomial alone.

    The base-point evaluation keeps exactly the B terms whose x monomial
    equals alpha, and their alpha! cancels the 1/alpha! of the
    composition formula, leaving the flat factor (-i)^k.  For k = 0 the
    one multi-index is empty.  The derived A terms are memoised per
    multi-index prefix, so the multi-indices that start with one index
    share its first derivative.
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
    # xi-derivatives are linear, so (-i)^k goes on before them
    for _ in range(k):
        aterms = [t._replace(re=t.im, im=-t.re) for t in aterms]
    memo = {(): aterms}

    def derived(combo: tuple) -> list:
        terms = memo.get(combo)
        if terms is None:
            terms = memo[combo] = [d for t in derived(combo[:-1]) for d in d_xi(t, combo[-1])]
        return terms

    for combo in combinations_with_replacement(range(1, n + 1), k):
        blist = bgroup.get(_e(n, *combo))
        if blist:
            yield derived(combo), blist


@lru_cache(maxsize=None)
def _odd_mask(mono: tuple) -> int:
    """Bitmask of the variables with an odd exponent (memoised: the
    composed xi monomials have degree at most 4)."""
    return sum(1 << j for j, e in enumerate(mono) if e & 1)


def even_pairs(A: SymbolExpansion, oa: int, B: SymbolExpansion, ob: int, k: int):
    """Yield the factor pairs (ta, tb) of the block whose summed xi
    monomial is even in every variable; no other pair is enumerated.
    Each product of the two weights times xi^(ta.xi + tb.xi) (x) ta.ops +
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
            ta.den * tb.den,
            ta.re * tb.re - ta.im * tb.im,
            ta.re * tb.im + ta.im * tb.re,
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
