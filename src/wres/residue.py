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
from math import gcd, lcm
from operator import add

from .clifford import Dimension, FrameVector, ProductCache, inner
from .curvature import (
    RiemannTensor,
    contract,
    random_riemann,
    random_vector,
    ricci_bilinear,
)
from .scalars import ScalarPoly, _frac, _imac_each
from .sphere import vol_multiplier
from .symbols import (
    blocks_at,
    even_pairs,
    lemma2_symbols,
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
        if self.prefactor_exp:
            return f"({self.poly.text()}) * (a0*b0)^{self.prefactor_exp}"
        return self.poly.text()

    def evaluate(self, a0, b0):
        a0, b0 = _frac(a0), _frac(b0)
        return self.poly.scale((a0 * b0) ** self.prefactor_exp).evaluate(a0, b0)

    def __repr__(self) -> str:
        return f"FunctionalDensity({self.text()})"


def trace_weights(den: int, chains: dict, dim: Dimension, cache: ProductCache) -> FunctionalDensity:
    """Sum of (re + im*i) / den * trace over one tag's {chain ids: (ops,
    [re, im])} (composed_weights).  Each chain whose numerator does not
    cancel is traced once (cached); the traces, over the lcm of their
    denominators, are multiplied by the integer numerators into one slot
    dict, which is made canonical once."""
    traced = [(cache.chain_trace(ops, dim.n), w) for ops, w in chains.values() if w[0] or w[1]]
    tden = lcm(*(t.den for t, _ in traced))
    hits = ((0, tden // t.den, ((0, re, im),), t.nums) for t, (re, im) in traced)
    acc = _imac_each({}, hits).get(0, {})
    return FunctionalDensity(ScalarPoly._from_slots(den * tden, acc), 0)


def composed_weights(blocks, n: int) -> dict:
    """{tag: [den, {chain ids: (ops, [re, im])}]} of the cosphere-integrated
    terms of the blocks (A, oa, B, ob, k), without building any product
    term: each chain weighs (re + im*i) / den, integer numerators over
    one unreduced denominator per tag (a cancelled weight is [0, 0]).

    A factor pair (ta, tb) integrates to the product of the two term
    weights (re + im*i) / den and vol_multiplier(n, ta.xi + tb.xi) on
    the chain ta.ops + tb.ops: an integer over ta.den * tb.den *
    vol_den, read straight from the terms' integer numerators.  A tag's
    denominator is the lcm of its pairs', and its numerators are
    rescaled when a pair's denominator does not divide it.  Odd
    monomials integrate to zero, so only the even pairs are enumerated
    (even_pairs).
    """
    weights: dict = {}
    for A, oa, B, ob, k in blocks:
        for ta, tb in even_pairs(A, oa, B, ob, k):
            ra, ia, rb, ib = ta.re, ta.im, tb.re, tb.im
            vnum, vden = vol_multiplier(n, tuple(map(add, ta.xi_mono, tb.xi_mono)))
            den = ta.den * tb.den * vden
            acc = weights.setdefault(ta.tag or tb.tag, [den, {}])
            if acc[0] % den:
                f = den // gcd(acc[0], den)
                acc[0] *= f
                for _, w in acc[1].values():
                    w[0], w[1] = w[0] * f, w[1] * f
            f = acc[0] // den * vnum
            ops = ta.ops + tb.ops
            w = acc[1].setdefault(tuple(map(id, ops)), (ops, [0, 0]))[1]
            w[0] += (ra * rb - ia * ib) * f
            w[1] += (ra * ib + ia * rb) * f
    return weights


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
        for bid, spec in blocks.items():
            tagged = {
                tag: trace_weights(den, chains, dim, cache)
                for tag, (den, chains) in composed_weights(spec, dim.n).items()
            }
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
        """expected[id]: each CLOSED_FORMS row at this m, on contract's values."""
        m = self.dim.m
        contr = contract(self.R)
        g = inner(self.u, self.v)
        unit = Fraction(1 << self.dim.n, 48)
        basis = (g, contr.scalar * g, ricci_bilinear(contr, self.u, self.v))
        done: dict = {}
        for cid, row in CLOSED_FORMS.items():
            density = done.get(row)
            if density is None:
                shape, (e0, e1), *coeffs = row
                value = sum((c0 + c1 * m) * b for (c0, c1), b in zip(coeffs, basis) if c0 or c1)
                density = FunctionalDensity(_SHAPES[shape].scale(value * unit), e0 + e1 * m)
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
) -> list:
    """Run the full check table for each seed; returns [(seed, Analysis)].

    R, when given, fixes the tensor for every seed (derive_inputs); u
    and v, when given, pin the vectors.
    """
    results = []
    for seed in seeds:
        R_s, u_s, v_s = derive_inputs(dim.n, seed, R)
        results.append((seed, Analysis(dim, R_s, u or u_s, v or v_s)))
    return results
