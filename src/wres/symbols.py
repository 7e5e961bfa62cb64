"""Operator-valued pseudodifferential symbols at a point in normal coordinates.

A symbol is a finite sum of terms

    i^(d mod 2) num / den * x^alpha xi^beta ||xi||^p (x) op_1 op_2 ... op_k

of order d = |beta| + p, p even, with the weight held as two integers
(den > 0, not necessarily reduced) and its i fixed by the order
(SymbolTerm).  The weights of the curvature families are
small-denominator multiples of the curvature record's integer
numerators, over its denominator.  The parameters a0, b0 enter only
through ctilde = a0*ext - b0*int, so they live in the Clifford
coefficients and never in a weight.  The ops chain is kept unevaluated:
its trace is read off once per chain without building the product
(clifford.trace_chains).  Composition pairs xi-derivatives on the left
factor with x-derivatives on the right factor and evaluates everything
at the base point x = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import combinations_with_replacement
from math import gcd, lcm
from operator import add, mul
from typing import NamedTuple

from .clifford import CliffordOp, Dimension, FrameVector, ProductCache, tildec_pair
from .curvature import RiemannTensor
from .scalars import _canonical, _imac_each


class SymbolTerm(NamedTuple):
    """One additive term of an operator-valued symbol, weighted by num /
    den at an even order and i num / den at an odd one (integer num, den
    > 0): a real operator's degree-d symbol lies in i^d times a real one.
    Built only from integers, and never hashed or value-compared: the
    ops chain holds CliffordOps, which are unhashable.
    """

    x_mono: tuple
    xi_mono: tuple
    norm_power: int
    den: int
    num: int
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
    """Derivative of the numerator in xi_j; the norm factor contributes p xi_j ||xi||^{p-2}."""
    x, xi, p, den, num, ops, tag = t
    c = xi[j - 1]
    out = []
    if c:
        out.append(SymbolTerm(x, xi[: j - 1] + (c - 1,) + xi[j:], p, den, c * num, ops, tag))
    if p:
        out.append(SymbolTerm(x, xi[: j - 1] + (c + 1,) + xi[j:], p - 2, den, p * num, ops, tag))
    return out


class SymbolExpansion:
    """Finite collection of symbol terms, bucketed by homogeneity order."""

    def __init__(self, n: int):
        self.n = n
        self._orders: dict = {}

    def add(self, term: SymbolTerm) -> None:
        if not term.num:
            return
        self._orders.setdefault(term.order(), []).append(term)

    def terms_at(self, order: int) -> list:
        return self._orders.get(order, [])

    def orders(self) -> list:
        return sorted(o for o, terms in self._orders.items() if terms)

    def merged(self, cache: ProductCache) -> dict:
        """Canonical form: (order, x, xi, norm) -> summed coefficient.

        Each key is summed in one loop over its terms, over the running
        lcm of their denominators (op-free terms on blade 0, each chain
        multiplied out once), and reduced to canonical form once; keys
        that sum to zero are removed, so two expansions are the same
        symbol iff their merged maps are equal.  cache is unused but
        bench/ passes it.
        """
        groups: dict = {}
        for order, terms in self._orders.items():
            for t in terms:
                groups.setdefault((order, t.x_mono, t.xi_mono, t.norm_power), []).append(t)
        out: dict = {}
        for key, terms in groups.items():
            den, num, chains = 1, 0, []
            for t in terms:
                op = reduce(mul, t.ops) if t.ops else None
                d = t.den * op.den if op else t.den
                if den % d:  # den becomes lcm(den, d), the sum so far rescaled
                    f = d // gcd(den, d)
                    den, num = den * f, num * f
                if op:
                    chains.append((d, t.num, op))
                else:
                    num += den // d * t.num
            odd = key[0] % 2  # the weights' i, back on at an odd order
            if chains:
                unit = ((0, 1 - odd, odd),)
                hits = ((m, den // d * w, p, unit) for d, w, op in chains for m, p in op.blades.items())
                den, blades = _canonical(den, _imac_each({0: {0: [(1 - odd) * num, odd * num]}}, hits))
            elif num:
                g = gcd(den, num)
                den, blades = den // g, {0: ((0, (1 - odd) * num // g, odd * num // g),)}
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
    return ConnectionData(t_ab, CliffordOp.from_numerators(n, 8 * rec.den, e_nums), rec)


def _nums(op: CliffordOp, factor: int) -> dict:
    """factor times the numerator of each blade of a real constant op."""
    return {mask: factor * re for mask, ((_, re, _),) in op.blades.items()}


# ---------------------------------------------------------------------------
# symbol families
# ---------------------------------------------------------------------------


def _curvature_family(exp: SymbolExpansion, rec: CurvatureRecord, M: int) -> None:
    """The curvature terms of the upper two orders that the full inverse
    power shares with the generic family: the flat top symbol, its
    normal-coordinate correction -M/3 rxx (one term per monomial), and
    the x-linear Ricci terms -2iM/3 Ric of order -2M-1; the record's
    numerators go over 3 * rec.den.  Each family writes its own x-free
    Ricci terms M(M+1)/3 Ric of order -2M-2, so criterion 4 compares two
    transcriptions of them.

    The top symbol is the one term |xi|^(-2M) rather than the n terms
    xi_a^2 |xi|^(-2M-2) of the metric contraction: the two agree on the
    cosphere, and an inverse power is only ever the right factor of a
    composition, where it is matched by its x monomial and never
    differentiated in xi, so it is only ever read on the cosphere.
    """
    n = exp.n
    top = -2 * M - 2
    den = 3 * rec.den
    exp.add(SymbolTerm(_e(n), _e(n), -2 * M, 1, 1, (), "delta"))
    for (x, xi), num in rec.rxx.items():
        exp.add(SymbolTerm(x, xi, top, den, -M * num, (), "rxx"))
    for (a, b), ric in rec.ricci.items():
        exp.add(SymbolTerm(_e(n, b), _e(n, a), top, den, -2 * M * ric, (), "ric"))


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
    rec, zero_x = conn.rec, _e(n)
    exp = SymbolExpansion(n)
    _curvature_family(exp, rec, M)
    for (a, b), ric in rec.ricci.items():
        exp.add(SymbolTerm(zero_x, _e(n, a, b), -2 * M - 4, 3 * rec.den, M * (M + 1) * ric, (), "ric"))

    # order -2M-1; the order -2M-2 terms 2M(M+1) T_ab xi_a xi_b of (a, b)
    # and (b, a) cancel, since T_ba = -T_ab, so none is written
    for (a, b), t in conn.t_ab.items():
        if not t.is_zero():
            exp.add(SymbolTerm(_e(n, b), _e(n, a), -2 * M - 2, 1, -2 * M, (t,), "tab"))
    if not conn.e.is_zero():
        exp.add(SymbolTerm(zero_x, zero_x, -2 * M - 2, 1, -M, (conn.e,), "e"))
    return exp


def lemma2_symbols(
    dim: Dimension, R: RiemannTensor, m: int, exponent: int, cache: ProductCache
) -> SymbolExpansion:
    """Concrete negative-order symbols of the Hodge Laplacian power.

    exponent selects the power: -2m for the full inverse used against the
    second-order product, stored at orders -2m, -2m-1 and -2m-2, and
    -2m+2 for the reduced power, stored at order -2m alone.  The reduced
    power is only ever the right factor of ctilde(u) ctilde(v), which is
    free of x and xi, so only its x-free terms of order -2m form pairs
    (k = 0); its upper orders and x-linear terms are not built.
    """
    n = dim.n
    if exponent not in (-2 * m, -2 * m + 2):
        raise ValueError(f"unsupported symbol exponent {exponent} for m={m}")
    M = -exponent // 2
    rec = curvature_ops(R, cache)
    zero_x = _e(n)
    exp = SymbolExpansion(n)
    if M == m:
        _curvature_family(exp, rec, M)
        # order -2M-1: the connection-form contractions, iM/4 on the
        # c-family and -iM/4 on the chat-family; their order -2M-2 terms
        # -+M(M+1)/4 xi_a xi_b of (a, b) and (b, a) share one chain with
        # opposite weights, so they cancel and none is written
        for a, b, sign, cc, hh in _ordered_pairs(rec):
            exp.add(SymbolTerm(_e(n, b), _e(n, a), -2 * M - 2, 4, sign * M, (cc,), "cc"))
            exp.add(SymbolTerm(_e(n, b), _e(n, a), -2 * M - 2, 4, -sign * M, (hh,), "hchc"))
    for (a, b), ric in rec.ricci.items():
        exp.add(SymbolTerm(zero_x, _e(n, a, b), -2 * M - 4, 3 * rec.den, M * (M + 1) * ric, (), "ric"))
    if not rec.f.is_zero():
        exp.add(SymbolTerm(zero_x, zero_x, -2 * M - 2, 8, -M, (rec.f,), "f"))
    if rec.s and M:
        exp.add(SymbolTerm(zero_x, zero_x, -2 * M - 2, 4 * rec.den, -M * rec.s, (), "s"))
    return exp


def principal_symbol(dim: Dimension, w: FrameVector) -> SymbolExpansion:
    """Order 1 of ctilde(w) * (Hodge operator): i ctilde(w) ctilde(xi), free of x."""
    n = dim.n
    exp = SymbolExpansion(n)
    for f in range(1, n + 1):
        exp.add(SymbolTerm(_e(n), _e(n, f), 0, 1, 1, (tildec_pair(w, FrameVector.basis(n, f)),), ""))
    return exp


def symbols_PQ(
    dim: Dimension, R: RiemannTensor, w: FrameVector, cache: ProductCache
) -> SymbolExpansion:
    """Symbols of one first-order factor ctilde(w) * (Hodge operator).

    Order 1 is principal_symbol; order 0 carries the x-linear
    connection-form contributions.  The x_l slope of the connection form
    along e_p is half the (l, p) curvature bivectors cc and hh of
    curvature_ops, so the c-family has weight -1/8 and the chat-family
    +1/8.  The coefficient vector w is constant, so no other
    x-dependence appears.
    """
    n = dim.n
    exp = principal_symbol(dim, w)
    w_p = [t.ops[0] for t in exp.terms_at(1)]  # ctilde(w) ctilde(e_p), p = 1..n
    for l, p, sign, cc, hh in _ordered_pairs(curvature_ops(R, cache)):
        exp.add(SymbolTerm(_e(n, l), _e(n), 0, 8, -sign, (w_p[p - 1], cc), "cc"))
        exp.add(SymbolTerm(_e(n, l), _e(n), 0, 8, sign, (w_p[p - 1], hh), "hchc"))
    return exp


def uv_symbol(dim: Dimension, u: FrameVector, v: FrameVector) -> SymbolExpansion:
    """Order-zero symbol of the endomorphism ctilde(u) ctilde(v)."""
    n = dim.n
    exp = SymbolExpansion(n)
    exp.add(SymbolTerm(_e(n), _e(n), 0, 1, 1, (tildec_pair(u, v),), ""))
    return exp


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------

def _factor_lists(A: SymbolExpansion, oa: int, B: SymbolExpansion, ob: int, k: int):
    """Yield (derived A terms, B terms) per multi-index alpha of weight k:
    the A terms of order oa, free of x, times the block's sign and
    differentiated by d_xi^alpha, and the B terms of order ob whose x
    monomial is alpha.  Only A is ever differentiated in xi; B, the
    inverse power whenever one is composed, is matched by its x monomial
    alone.

    The base-point evaluation keeps exactly the B terms whose x monomial
    equals alpha, and their alpha! cancels the 1/alpha! of the
    composition formula, leaving the flat factor (-i)^k.  The product's
    phase i^(oa mod 2) (-i)^k i^(ob mod 2) is i^e, e = oa mod 2 + 3k + ob
    mod 2: i^(order mod 2), times -1 when bit 1 of e is set.  For k = 0
    the one multi-index is empty.  The derived A terms are memoised per
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
    # xi-derivatives are linear, so the sign goes on before them
    if (oa % 2 + 3 * k + ob % 2) & 2:
        aterms = [t._replace(num=-t.num) for t in aterms]
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
    Each is one term, of numerator ta.num * tb.num (ta carries the
    block's sign, _factor_lists) on xi^(ta.xi + tb.xi) (x) ta.ops +
    tb.ops.  ta.xi + tb.xi is even exactly when both have the same
    odd-exponent mask, so each derived A term meets only the B terms of
    its mask.
    """
    for derived, blist in _factor_lists(A, oa, B, ob, k):
        by_mask: dict = {}
        for tb in blist:
            by_mask.setdefault(_odd_mask(tb.xi_mono), []).append(tb)
        for ta in derived:
            for tb in by_mask.get(_odd_mask(ta.xi_mono), ()):
                yield ta, tb


_CURVATURE_TAGS = frozenset(("rxx", "ric", "cc", "hchc", "f", "s"))


def pair_tag(ta: SymbolTerm, tb: SymbolTerm) -> str:
    """The tag of a factor pair's product: ta's, or else tb's.  Every
    density is linear in R, so a pair of two curvature-tagged factors
    is refused rather than filed under one of its tags."""
    if ta.tag in _CURVATURE_TAGS and tb.tag in _CURVATURE_TAGS:
        raise ValueError(f"a factor pair carries two curvature tags, {ta.tag} and {tb.tag}")
    return ta.tag or tb.tag


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
    at x = 0, one per factor pair, of numerator ta.num * tb.num.

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
            ta.num * tb.num,
            ta.ops + tb.ops,
            pair_tag(ta, tb),
        )
        for derived, blist in _factor_lists(A, oa, B, ob, k)
        for ta in derived
        for tb in blist
    ]


def symbol_product_PQ(
    dim: Dimension, R: RiemannTensor, u: FrameVector, v: FrameVector, cache: ProductCache
) -> SymbolExpansion:
    """Symbols of the product of the two first-order factors at the base
    point, through orders 2, 1, 0.  P, the left factor, is read only at
    the base point, so it is principal_symbol(u), without the x-linear
    terms of symbols_PQ.  The order-1 bucket comes out empty: its blocks
    read Q's order-1 terms of x degree 1 and order-0 terms of x degree 0,
    and v is constant, so Q has neither."""
    P = principal_symbol(dim, u)
    Q = symbols_PQ(dim, R, v, cache)
    exp = SymbolExpansion(dim.n)
    for target in (2, 1, 0):
        for block in blocks_at(P, Q, target):
            for term in compose_block(*block):
                exp.add(term)
    return exp
