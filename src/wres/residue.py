"""Cosphere integration and the residue-functional verification engine.

Every displayed quantity of the underlying computation is reproduced
here as an exact polynomial identity in a0, b0: the six composition
blocks of the second-order product against the inverse Laplacian power,
their tagged sub-parts, the two grouped sums, and the metric and
Einstein functionals assembled from them.  A report compares each
computed density against its closed form, a row of CLOSED_FORMS, the
one statement of the closed forms; densities are rational multiples of
Vol(S^{n-1}) times tr[id] and are never floated.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import accumulate, compress, repeat
from math import lcm
from operator import add, floordiv, mul

from .clifford import Dimension, FrameVector, ProductCache, inner, trace_sums
from .curvature import (
    RiemannTensor,
    contract,
    random_riemann,
    random_vector,
    ricci_bilinear,
)
from .scalars import ScalarPoly, _frac
from .sphere import vol_multiplier
from .symbols import (
    block_sign,
    blocks_at,
    even_pairs,
    lemma2_symbols,
    op_pattern,
    pair_tag,
    symbol_product_PQ,
    uv_symbol,
)


class FunctionalDensity:
    """Exact value of a residue density: poly * (a0 b0)^exp * Vol(S^{n-1}).

    The polynomial carries the cosphere integral of the traced symbol;
    the integer exponent keeps track of the inverse-power prefactor that
    multiplies the raw residue.  Equality compares normalized forms, in
    which the largest (a0 b0)^k is stripped from the polynomial into the
    exponent (the zero density normalizes to exponent 0).
    """

    __slots__ = ("poly", "prefactor_exp")

    def __init__(self, poly: ScalarPoly, prefactor_exp: int = 0):
        self.poly = poly
        self.prefactor_exp = prefactor_exp

    def normalized(self) -> "FunctionalDensity":
        if not self.poly:
            return FunctionalDensity(ScalarPoly.zero(), 0)
        k = self.poly.min_ab_power()
        if not k:
            return self
        return FunctionalDensity(self.poly.shift_ab(-k), self.prefactor_exp + k)

    def __add__(self, other: "FunctionalDensity") -> "FunctionalDensity":
        if not other.poly:
            return FunctionalDensity(self.poly, self.prefactor_exp)
        if not self.poly:
            return FunctionalDensity(other.poly, other.prefactor_exp)
        e = min(self.prefactor_exp, other.prefactor_exp)
        p = self.poly.shift_ab(self.prefactor_exp - e) + other.poly.shift_ab(
            other.prefactor_exp - e
        )
        return FunctionalDensity(p, e)

    def __neg__(self) -> "FunctionalDensity":
        return FunctionalDensity(-self.poly, self.prefactor_exp)

    def __sub__(self, other: "FunctionalDensity") -> "FunctionalDensity":
        return self + (-other)

    def __eq__(self, other) -> bool:
        if isinstance(other, FunctionalDensity):
            a, b = self.normalized(), other.normalized()
            return a.poly == b.poly and a.prefactor_exp == b.prefactor_exp
        return NotImplemented

    def is_real(self) -> bool:
        return self.poly.is_real()

    def text(self) -> str:
        if self.prefactor_exp and self.poly:
            return f"({self.poly.text()}) * (a0*b0)^{self.prefactor_exp}"
        return self.poly.text()

    def evaluate(self, a0, b0):
        a0, b0 = _frac(a0), _frac(b0)
        return self.poly.scale((a0 * b0) ** self.prefactor_exp).evaluate(a0, b0)

    def __repr__(self) -> str:
        return f"FunctionalDensity({self.text()})"


_PLANS: dict = {}
_PLAN_CAP = 1 << 14


def _plan(n: int, A, oa: int, B, ob: int, k: int) -> tuple:
    """The composition plan of a block: per tag, the columns (tag, ia,
    ib, coef, vden, starts, ends, ia0, ib0).  Pair p is slot ia[p] of A
    at oa against slot ib[p] of B at ob, an even pair of even_pairs over
    every slot (SymbolExpansion.probe), of weight coef[p] * A's num *
    B's num over vden[p] * A's den * B's den: coef is block_sign times
    the xi-derivative multiplier times the cosphere numerator, and vden
    the cosphere denominator (vol_multiplier).  The pairs of one chain
    (one tag, and the same operators of A and of B by op_pattern) are
    consecutive: chain c holds pairs starts[c] to ends[c], and its first
    pair's slots are ia0[c] and ib0[c].  Built from the slots'
    monomials, tags and operator identities alone, a plan holds no
    weight, den, id() or operator."""
    pa, pb = A.probe(oa), B.probe(ob)
    ops_a, ops_b = op_pattern(A.slots(oa)[0]), op_pattern(B.slots(ob)[0])
    sign, chains = block_sign(oa, ob, k), {}
    for alist, blist in even_pairs(pa, oa, pb, ob, k):
        for ta in alist:
            for tb in blist:
                (ia,), (ib,) = ta.ops, tb.ops
                vnum, vden = vol_multiplier(n, tuple(map(add, ta.xi_mono, tb.xi_mono)))
                chain = (pair_tag(ta, tb), ops_a[ia], ops_b[ib])
                chains.setdefault(chain, []).append((ia, ib, sign * ta.num * vnum, vden))
    tags: dict = {}
    for (tag, _, _), pairs in chains.items():
        tags.setdefault(tag, []).append(pairs)
    plan = []
    for tag, group in tags.items():
        ends = tuple(accumulate(map(len, group)))
        firsts = zip(*(pairs[0][:2] for pairs in group))
        plan.append((tag, *zip(*(p for pairs in group for p in pairs)), (0, *ends[:-1]), ends, *firsts))
    return tuple(plan)


def composition_plan(n: int, A, oa: int, B, ob: int, k: int) -> tuple:
    """The plan of the block (A, oa, B, ob, k) (_plan), memoised in _PLANS
    by (n, A's layout at oa, oa, B's layout at ob, ob, k), which is
    emptied when it reaches _PLAN_CAP plans."""
    layouts = (n, A.layout_at(oa), oa, B.layout_at(ob), ob, k)
    plan = _PLANS.get(layouts)
    if plan is None:
        if len(_PLANS) >= _PLAN_CAP:
            _PLANS.clear()
        plan = _PLANS[layouts] = _plan(n, A, oa, B, ob, k)
    return plan


def composed_weights(blocks, n: int) -> dict:
    """{tag: [den, {chain ids: (ops, num)}]} of the cosphere-integrated
    terms of the blocks (A, oa, B, ob, k), without building any product
    term: each chain weighs num / den, one integer per chain over one
    unreduced denominator per tag (a cancelled weight is 0).

    A factor pair (ta, tb) integrates to block_sign * ta.num * tb.num
    times vol_multiplier(n, ta.xi + tb.xi) on the chain ta.ops + tb.ops,
    an integer over ta.den * tb.den * vol_den.  Only even pairs
    integrate to nonzero (even_pairs), and an even pair has even order,
    so the weight is real.  A tag's denominator is the lcm of its
    pairs', each pair's numerator rescaled to it.

    Which slots pair, with which integer coefficient and on which chain,
    is read from the block's plan (composition_plan), memoised by the
    layouts of A and B: a builder's layout is fixed by what it was built
    from (SymbolExpansion), so a dimension's dense tensors share one set
    of plans, and a sparse tensor's follow its record's support.
    Expansions built otherwise add plans by their slots' signatures, so
    the memo is emptied when it reaches _PLAN_CAP plans.  Per call, each
    block reads its slots' nums and dens (SymbolExpansion.slots), forms
    every pair's numerator and den in one map pass per tag, and sums
    each chain's consecutive pairs.  A slot
    of zero weight, which a dense record writes where a sum cancels,
    forms pairs of zero weight: they take no part in the den, and a
    chain none of whose pairs has a nonzero weight is left out, so the
    map is the one that the nonzero terms alone give.  A chain is keyed
    by its operators' ids, so chains that several blocks share meet in
    one key and trace_sums traces them once.
    """
    parts: dict = {}
    for A, oa, B, ob, k in blocks:
        (at, an, ad), (bt, bn, bd) = A.slots(oa), B.slots(ob)
        for tag, ia, ib, coef, vden, *chains in composition_plan(n, A, oa, B, ob, k):
            ws = list(map(mul, map(mul, coef, map(an.__getitem__, ia)), map(bn.__getitem__, ib)))
            ds = list(map(mul, map(mul, vden, map(ad.__getitem__, ia)), map(bd.__getitem__, ib)))
            parts.setdefault(tag, []).append((ws, ds, chains, at, bt))
    weights: dict = {}
    for tag, group in parts.items():
        den = lcm(*(lcm(*compress(ds, ws)) for ws, ds, *_ in group))
        acc: dict = {}
        for ws, ds, (starts, ends, ia, ib), at, bt in group:
            run = [0, *accumulate(map(mul, ws, map(floordiv, repeat(den), ds)))]
            for s, e, i, j in zip(starts, ends, ia, ib):
                w = run[e] - run[s]
                if w or any(ws[s:e]):
                    ops = at[i].ops + bt[j].ops
                    key = tuple(map(id, ops))
                    hit = acc.get(key)
                    acc[key] = (ops, w) if hit is None else (hit[0], hit[1] + w)
        if acc:
            weights[tag] = [den, acc]
    return weights


def integrate_blocks(blocks: dict, n: int) -> dict:
    """{id: {tag: density}} of {id: [(A, oa, B, ob, k), ...]}: every
    block is composed into weights first (composed_weights), then every
    (block, tag) sum goes into one trace_sums batch, which traces once
    each chain whose weight does not cancel."""
    weights = {bid: composed_weights(spec, n) for bid, spec in blocks.items()}
    sums = trace_sums({(bid, tag): s for bid, tags in weights.items() for tag, s in tags.items()}, n)
    return {bid: {tag: FunctionalDensity(sums[bid, tag], 0) for tag in tags} for bid, tags in weights.items()}


# ---------------------------------------------------------------------------
# part table
# ---------------------------------------------------------------------------

PART_IDS = (
    "I-1-A", "I-1-B", "I-2",
    "I-3-A", "I-3-B", "I-3-C", "I-3-D", "I-3-E",
    "I-4-A", "I-4-B", "I-4-C", "I-5", "I-6",
    "II-1", "II-2", "II-3", "II-4", "II-5",
)

TOTAL_IDS = ("I-1", "I-2", "I-3", "I-4", "I-5", "I-6", "II")

ASSEMBLED_IDS = ("zabdt", "zpdt", "metric", "einstein")

# The closed forms, the one statement of what each density should be:
# id -> (shape, e, G, S, C) is tr[id] * shape * (a0 b0)^e * (G g(u,v) +
# S s g(u,v) + C Ric(u,v)) / 48, shape a key of _SHAPES and e, G, S, C
# polynomials in m, each an integer pair (constant, slope).  A zero row
# is a vanishing part.  Rows follow PART_IDS + TOTAL_IDS + ASSEMBLED_IDS;
# I-2, I-5 and I-6 are both parts and totals and are checked once.
_ZERO = ("1", (0, 0), (0, 0), (0, 0), (0, 0))
CLOSED_FORMS = {
    "I-1-A": ("ab(a+b)2", (0, 0), (0, 0), (3, 0), (-6, 0)),
    "I-1-B": ("ab(a-b)2", (0, 0), (0, 0), (3, 0), (-6, 0)),
    "I-2": _ZERO,
    "I-3-A": ("ab2", (0, 0), (0, 0), (0, 8), (-16, 0)),
    "I-3-B": _ZERO,
    "I-3-C": _ZERO,
    "I-3-D": _ZERO,
    "I-3-E": ("ab2", (0, 0), (0, 0), (12, -12), (0, 0)),
    "I-4-A": ("ab2", (0, 0), (0, 0), (-32, 0), (64, 0)),
    "I-4-B": _ZERO,
    "I-4-C": _ZERO,
    "I-5": _ZERO,
    "I-6": ("ab2", (0, 0), (0, 0), (16, 0), (-32, 0)),
    "II-1": ("ab", (0, 0), (0, 0), (8, -8), (0, 0)),
    "II-2": _ZERO,
    "II-3": _ZERO,
    "II-4": _ZERO,
    "II-5": ("ab", (0, 0), (0, 0), (-12, 12), (0, 0)),
    "I-1": ("ab2", (0, 0), (0, 0), (12, 0), (-24, 0)),
    "I-3": ("ab2", (0, 0), (0, 0), (12, -4), (-16, 0)),
    "I-4": ("ab2", (0, 0), (0, 0), (-32, 0), (64, 0)),
    "II": ("ab", (0, 0), (0, 0), (-4, 4), (0, 0)),
    "zabdt": ("ab2", (0, 0), (0, 0), (8, -4), (-8, 0)),
    "zpdt": ("ab", (0, 0), (0, 0), (-4, 4), (0, 0)),
    "metric": ("1", (1, -1), (-48, 0), (0, 0), (0, 0)),
    "einstein": ("1", (2, -1), (0, 0), (4, 0), (-8, 0)),
}

_A0, _B0 = ScalarPoly.a0(), ScalarPoly.b0()
_SHAPES = {
    "1": ScalarPoly.one(),
    "ab": _A0 * _B0,
    "ab2": _A0 * _B0 * _A0 * _B0,
    "ab(a+b)2": _A0 * _B0 * (_A0 + _B0) * (_A0 + _B0),
    "ab(a-b)2": _A0 * _B0 * (_A0 - _B0) * (_A0 - _B0),
}

CHECK_IDS = tuple(CLOSED_FORMS)

ZERO_PART_IDS = tuple(pid for pid in PART_IDS if not any(map(any, CLOSED_FORMS[pid][1:])))

# composition blocks of PQ against B1: id -> (order of PQ, order of B1
# above -2m).  Block (oa, ob) takes k = oa + ob derivatives and lands on
# order -2m; the six blocks are every order -2m pairing of PQ and B1.
_BLOCKS = {
    "I-1": (0, 0),
    "I-2": (1, -1),
    "I-3": (2, -2),
    "I-4": (2, -1),
    "I-5": (1, 0),
    "I-6": (2, 0),
}

# tagged sub-parts: block id -> ((part id, sign, tag), ...).  The
# chat-chat family of the first block is displayed without its minus
# sign, so I-1-B reports its negative and I-1 = A - B.
_SUBPARTS = {
    "I-1": (("I-1-A", 1, "cc"), ("I-1-B", -1, "hchc")),
    "I-3": (
        ("I-3-A", 1, "ric"),
        ("I-3-B", 1, "cc"),
        ("I-3-C", 1, "hchc"),
        ("I-3-D", 1, "f"),
        ("I-3-E", 1, "s"),
    ),
    "I-4": (("I-4-A", 1, "ric"), ("I-4-B", 1, "cc"), ("I-4-C", 1, "hchc")),
    "II": (
        ("II-1", 1, "ric"),
        ("II-2", 1, "cc"),
        ("II-3", 1, "hchc"),
        ("II-4", 1, "f"),
        ("II-5", 1, "s"),
    ),
}


class Analysis:
    """All densities and comparisons for one (R, u, v) input.

    The expected side is CLOSED_FORMS at this input's m, the one
    statement of the closed forms.  checks() is the one statement of
    what is compared; every verdict (all_match, the report flags, the
    CLI exit codes) reads it through match, which compares each pair
    once.
    """

    def __init__(self, dim: Dimension, R: RiemannTensor, u: FrameVector, v: FrameVector):
        dim.check("analysis", R=R, u=u, v=v)
        self.dim = dim
        self.R = R
        self.u = u
        self.v = v
        self.computed: dict = {}
        self.expected: dict = {}
        self._run()

    # -- pipeline --

    def _run(self) -> None:
        dim, R, u, v = self.dim, self.R, self.u, self.v
        m = dim.m
        cache = ProductCache()
        PQ = symbol_product_PQ(dim, R, u, v, cache)
        B1 = lemma2_symbols(dim, R, m, -2 * m, cache)
        UV = uv_symbol(dim, u, v)
        B2 = lemma2_symbols(dim, R, m, -2 * m + 2, cache)
        blocks = {bid: [(PQ, oa, B1, -2 * m + ob, oa + ob)] for bid, (oa, ob) in _BLOCKS.items()}
        blocks["II"] = blocks_at(UV, B2, -2 * m)
        blocks["metric"] = blocks_at(UV, B1, -2 * m)

        # each block is integrated once per tag; its total is the sum of
        # the tag densities and its sub-parts are read from the same map
        comp = self.computed
        zero = FunctionalDensity(ScalarPoly.zero(), 0)
        for bid, tagged in integrate_blocks(blocks, dim.n).items():
            comp[bid] = sum(tagged.values(), zero)
            for pid, sign, tag in _SUBPARTS.get(bid, ()):
                d = tagged.get(tag, zero)
                comp[pid] = d if sign > 0 else -d

        comp["zabdt"] = sum((comp[bid] for bid in _BLOCKS), zero)
        comp["zpdt"] = comp["II"]
        comp["metric"] = FunctionalDensity(comp["metric"].poly, -m)
        comp["einstein"] = FunctionalDensity(comp["zabdt"].poly, -m) + FunctionalDensity(
            comp["zpdt"].poly, -m + 1
        )

        self._fill_expected()

    def _fill_expected(self) -> None:
        """expected[id]: each CLOSED_FORMS row at this m, on contract's
        integer numerators.  g(u,v), s g(u,v) and Ric(u,v) go over one
        denominator, with tr[id] = 2^n and the 1/48 folded in, so a row is
        one integer combination of their numerators times its shape's
        integer numerators, made canonical once."""
        m, n = self.dim.m, self.dim.n
        contr = contract(self.R)
        g = inner(self.u, self.v)
        values = (g, Fraction(contr.scalar, contr.den) * g, ricci_bilinear(contr, self.u, self.v))
        den = lcm(*(x.denominator for x in values))
        basis = [x.numerator * (den // x.denominator) << n for x in values]
        done: dict = {}
        for cid, row in CLOSED_FORMS.items():
            density = done.get(row)
            if density is None:
                shape, (e0, e1), *coeffs = row
                value = sum((c0 + c1 * m) * b for (c0, c1), b in zip(coeffs, basis))
                p = _SHAPES[shape]
                slots = {k: (value * re, value * im) for k, re, im in p.nums}
                density = FunctionalDensity(ScalarPoly._from_slots(48 * den * p.den, slots), e0 + e1 * m)
                done[row] = density
            self.expected[cid] = density

    # -- checks --

    def checks(self) -> list:
        """(id, computed, expected) for every id of CHECK_IDS, in order."""
        return [(cid, self.computed[cid], self.expected[cid]) for cid in CHECK_IDS]

    @cached_property
    def match(self) -> dict:
        """{id: computed == expected} for every id of CHECK_IDS, in order,
        compared once, on first use: an edit to computed or expected must
        come before the first verdict (match, mismatches, all_match, report_dict)."""
        return {cid: c == e for cid, c, e in self.checks()}

    def mismatches(self) -> list:
        """Ids of the failing checks: each unequal pair, then real:<id>
        for each density with a nonzero imaginary part."""
        return [cid for cid, ok in self.match.items() if not ok] + [
            f"real:{cid}" for cid in CHECK_IDS if not self.computed[cid].is_real()
        ]

    def all_match(self) -> bool:
        return not self.mismatches()

    def report_dict(self, seed) -> dict:
        match = self.match
        report = {
            "dim": self.dim.n,
            "seed": seed,
            "parts": [
                {
                    "id": pid,
                    "computed": self.computed[pid].text(),
                    "expected": self.expected[pid].text(),
                    "match": match[pid],
                }
                for pid in PART_IDS
            ],
        }
        for key in ASSEMBLED_IDS:
            report[f"{key}_match"] = match[key]
        if misses := self.mismatches():
            report["mismatches"] = misses
        return report


# ---------------------------------------------------------------------------
# seeded verification
# ---------------------------------------------------------------------------


def derive_inputs(n: int, seed: int, R: RiemannTensor | None = None) -> tuple:
    """Deterministic (R, u, v) for one verification seed.

    R is drawn from the seed unless given; u and v always vary with it.
    """
    if R is None:
        R = random_riemann(n, seed)
    return R, random_vector(n, 1000003 * seed + 1), random_vector(n, 1000003 * seed + 2)


def verify_all(
    dim: Dimension,
    seeds,
    R: RiemannTensor | None = None,
    u: FrameVector | None = None,
    v: FrameVector | None = None,
):
    """Run the full check table for each seed, yielding (seed, Analysis)
    one seed at a time, so a caller that keeps only what it prints holds
    one Analysis at a time.

    R, when given, fixes the tensor for every seed (derive_inputs); u
    and v, when given, pin the vectors.
    """
    for seed in seeds:
        R_s, u_s, v_s = derive_inputs(dim.n, seed, R)
        yield seed, Analysis(dim, R_s, u or u_s, v or v_s)
