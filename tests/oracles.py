"""Readings and builders of engine values that only the tests need.

projected_riemann is the benchmark's curvature construction
(bench/workloads.make_riemann) with the draw of each raw entry left to
the caller, for curvature files with wide coefficients, and
symmetry_violation is the Fraction scan against which
RiemannTensor.validate's integer scan is checked, as contract is for
curvature.contract's integer numerators.  brute_compose composes a block
term by term, each pair differentiated on its own with its phase
multiplied out in complex arithmetic, and brute_weights integrates its
even terms: the references for symbols.compose_block and
residue.composed_weights.  The Clifford
builders here are the generator-by-generator reference:
each operator is a sum of single generators c_j (blade bit j-1) and
chat_j (bit n+j-1) built with from_numerators and the algebra, and each
ctilde is folded one generator at a time, independently of the engine's
one-pass pairs clifford.tildec_pair, and blade_sign counts a blade
product's sign swap by swap, independently of clifford._sign_mask.
trace materialises nothing but the scalar part, against which
clifford.trace_sums is checked; trace_each
runs that engine trace on a batch of one-chain sums, each with weight 1
over den 1, and trace_one on a batch of one.  expected_densities
evaluates the closed forms one Fraction row at a time, against which
residue.Analysis's integer rows are checked.  basis and planar are the
frame vector e_j and the unit 2-plane tensor that the tests share.
"""

import itertools
import random
from fractions import Fraction
from functools import lru_cache
from math import lcm

from wres.clifford import CliffordOp, FrameVector, inner, trace_sums
from wres.curvature import RiemannTensor
from wres.residue import _SHAPES, CLOSED_FORMS, FunctionalDensity
from wres.scalars import ScalarPoly, _pack
from wres.sphere import vol_multiplier
from wres.symbols import SymbolTerm


def projected_riemann(n: int, seed: int, draw) -> dict:
    """{(i, j, k, l): Fraction} with every algebraic symmetry: raw entries
    draw(rng) in index order from random.Random(seed), antisymmetrised in
    both pairs, symmetrised under pair exchange, the cyclic part
    projected out."""
    rng = random.Random(seed)
    idx = list(itertools.product(range(1, n + 1), repeat=4))
    t = {q: draw(rng) for q in idx}
    t = {(i, j, k, l): (t[i, j, k, l] - t[j, i, k, l]) / 2 for i, j, k, l in idx}
    t = {(i, j, k, l): (t[i, j, k, l] - t[i, j, l, k]) / 2 for i, j, k, l in idx}
    t = {(i, j, k, l): (t[i, j, k, l] + t[k, l, i, j]) / 2 for i, j, k, l in idx}
    return {
        (i, j, k, l): t[i, j, k, l] - (t[i, j, k, l] + t[i, k, l, j] + t[i, l, j, k]) / 3
        for i, j, k, l in idx
    }


def wide_draw(rng: random.Random) -> Fraction:
    """A raw entry for projected_riemann with a numerator of up to 2^90
    and a denominator 1 to 9: the curvature files with wide coefficients."""
    return Fraction(rng.randint(-2**90, 2**90), rng.randint(1, 9))


def planar(n: int) -> RiemannTensor:
    """Unit 2-plane curvature: R_1212 = 1 and its symmetric entries."""
    return RiemannTensor(n, {(1, 2, 1, 2): 1, (2, 1, 2, 1): 1, (1, 2, 2, 1): -1, (2, 1, 1, 2): -1})


def entry(R, i: int, j: int, k: int, l: int) -> Fraction:
    """R_ijkl of a RiemannTensor, read from its integer numerators over
    R.den (no Fraction view is built), Fraction(0) where it has no entry."""
    return Fraction(R.nums.get((i, j, k, l), 0), R.den)


def symmetry_violation(n: int, entries: dict):
    """The message RiemannTensor.validate raises on {(i, j, k, l): Fraction},
    or None, found by a Fraction scan: each property on its own pass, over
    the sorted quads that are an entry or a partner of one, with every
    lookup a Fraction (a missed one Fraction(0))."""
    for idx in entries:
        if len(idx) != 4 or any(not 1 <= a <= n for a in idx):
            return f"index tuple {idx} out of range 1..{n}"
    quads = sorted(
        {
            q
            for i, j, k, l in entries
            for q in ((i, j, k, l), (j, i, k, l), (i, j, l, k))
            + ((k, l, i, j), (i, k, l, j), (i, l, j, k))
        }
    )

    def g(i, j, k, l):
        return entries.get((i, j, k, l), Fraction(0))

    defects = (
        ("first-pair antisymmetry", lambda i, j, k, l: g(i, j, k, l) + g(j, i, k, l)),
        ("second-pair antisymmetry", lambda i, j, k, l: g(i, j, k, l) + g(i, j, l, k)),
        ("pair-exchange symmetry", lambda i, j, k, l: g(i, j, k, l) - g(k, l, i, j)),
        (
            "first Bianchi identity",
            lambda i, j, k, l: g(i, j, k, l) + g(i, k, l, j) + g(i, l, j, k),
        ),
    )
    for name, defect in defects:
        for q in quads:
            if defect(*q):
                return f"{name} violated at {q}"
    return None


def contract(t) -> tuple:
    """curvature.contract in Fraction arithmetic: (ricci, scalar), where
    ricci[a][b] sums the entries (a, p, b, q) of t with p == q one
    Fraction at a time (0-based a, b) and scalar is its trace."""
    n = t.n
    ricci = [[Fraction(0)] * n for _ in range(n)]
    for (a, p, b, q), r in t.entries.items():
        if p == q:
            ricci[a - 1][b - 1] += r
    return tuple(map(tuple, ricci)), sum((ricci[a][a] for a in range(n)), Fraction(0))


def basis(n: int, j: int) -> FrameVector:
    """The frame vector e_j of R^n."""
    return FrameVector(n, tuple(int(a == j) for a in range(1, n + 1)))


def expected_densities(dim, R, u: FrameVector, v: FrameVector) -> dict:
    """{check id: FunctionalDensity} of every CLOSED_FORMS row at dim.m in
    Fraction arithmetic, one row at a time: tr[id] / 48 = 2^n / 48 times
    the row's combination of g(u,v), s g(u,v) and Ric(u,v), each from
    contract and a direct double sum, scales the row's shape polynomial."""
    n, m = dim.n, dim.m
    ricci, scalar = contract(R)
    g = inner(u, v)
    idx = range(1, n + 1)
    ric = sum((u[a] * v[b] * ricci[a - 1][b - 1] for a in idx for b in idx), Fraction(0))
    values = (g, scalar * g, ric)
    out = {}
    for cid, (shape, (e0, e1), *coeffs) in CLOSED_FORMS.items():
        value = sum(((c0 + c1 * m) * x for (c0, c1), x in zip(coeffs, values)), Fraction(0))
        out[cid] = FunctionalDensity(_SHAPES[shape].scale(value * Fraction(1 << n, 48)), e0 + e1 * m)
    return out


def order(t) -> int:
    """A SymbolTerm's order: its xi degree plus its norm power."""
    return sum(t.xi_mono) + t.norm_power


def weight(t) -> ScalarPoly:
    """A SymbolTerm's weight as a constant ScalarPoly: num / den, times i
    when the term's order is odd."""
    return ScalarPoly._from_slots(t.den, {0: (0, t.num) if order(t) % 2 else (t.num, 0)})


def _xi_derivative(xi: tuple, p: int, num: int, j: int) -> list:
    """d/dxi_j of num xi^xi |xi|^p as [(xi, p, num)]: the monomial's
    exponent comes down, and |xi|^p gives p xi_j |xi|^(p-2)."""
    out = []
    if xi[j - 1]:
        out.append((xi[: j - 1] + (xi[j - 1] - 1,) + xi[j:], p, xi[j - 1] * num))
    if p:
        out.append((xi[: j - 1] + (xi[j - 1] + 1,) + xi[j:], p - 2, p * num))
    return out


def brute_compose(A, oa: int, B, ob: int, k: int) -> list:
    """Every term of the block (-i)^k/alpha! d_xi^alpha[A_oa] d_x^alpha[B_ob]
    at x = 0, built pair by pair: for each x-free term ta of A of order
    oa and each term tb of B of order ob and x degree k, alpha is tb's x
    monomial, ta is differentiated once per index of alpha, and
    d_x^alpha x^alpha = alpha! cancels the 1/alpha!.  The phase i^(oa mod
    2) (-i)^k i^(ob mod 2) over the product's own i^(order mod 2) is a
    sign, found with Python's complex numbers."""
    n = A.n
    phase = 1j ** (oa % 2) * (-1j) ** k * 1j ** (ob % 2) / 1j ** ((oa + ob - k) % 2)
    assert phase.imag == 0 and abs(phase.real) == 1
    sign = int(phase.real)
    out = []
    for ta in A.terms_at(oa):
        if any(ta.x_mono):
            continue
        for tb in B.terms_at(ob):
            if sum(tb.x_mono) != k:
                continue
            derived = [(ta.xi_mono, ta.norm_power, ta.num)]
            for j, e in enumerate(tb.x_mono, 1):
                for _ in range(e):
                    derived = [d for xi, p, num in derived for d in _xi_derivative(xi, p, num, j)]
            for xi, p, num in derived:
                out.append(SymbolTerm(
                    (0,) * n,
                    tuple(a + b for a, b in zip(xi, tb.xi_mono)),
                    p + tb.norm_power,
                    ta.den * tb.den,
                    sign * num * tb.num,
                    ta.ops + tb.ops,
                    ta.tag or tb.tag,
                ))
    return out


def brute_weights(blocks, n: int) -> dict:
    """{tag: (den, {chain ids: num})} of the cosphere integrals of the
    even terms of brute_compose over the blocks: each term weighs num /
    den * vol_multiplier on its chain, and a tag's den is the lcm of its
    terms' den * vol_den; a weight that cancels stays, as 0."""
    even = [
        (t, *vol_multiplier(n, t.xi_mono))
        for block in blocks
        for t in brute_compose(*block)
        if not any(e % 2 for e in t.xi_mono)
    ]
    dens: dict = {}
    for t, _, vden in even:
        dens[t.tag] = lcm(dens.get(t.tag, 1), t.den * vden)
    out: dict = {}
    for t, vnum, vden in even:
        chains = out.setdefault(t.tag, {})
        key = tuple(map(id, t.ops))
        chains[key] = chains.get(key, 0) + t.num * vnum * (dens[t.tag] // (t.den * vden))
    return {tag: (dens[tag], chains) for tag, chains in out.items()}


def blade_sign(n: int, a: int, b: int) -> int:
    """s with blade(a) * blade(b) = s * blade(a ^ b), counted swap by swap:
    moving each generator of b left past the generators of a above it,
    then each shared c_j squaring to -1.  The reference for
    clifford._sign_mask and clifford._blade_sign."""
    swaps = 0
    x = a >> 1
    while x:
        swaps += (x & b).bit_count()
        x >>= 1
    swaps += (a & b & ((1 << n) - 1)).bit_count()
    return -1 if swaps & 1 else 1


def identity(n: int) -> CliffordOp:
    return CliffordOp.from_numerators(n, 1, {0: 1})


def zero(n: int) -> CliffordOp:
    return CliffordOp.from_numerators(n, 1, {})


def trace(op: CliffordOp) -> ScalarPoly:
    """tr op = 2^n times the scalar part, read off the materialised op."""
    unit = 1 << op.n
    scalar = op.blades.get(0, ())
    return ScalarPoly._from_slots(op.den, {k: (unit * re, unit * im) for k, re, im in scalar})


def trace_each(chains: dict, n: int) -> dict:
    """{key: the engine's trace of chains[key]}, one trace_sums batch
    whose every sum is its one chain with weight 1 over den 1."""
    return trace_sums({key: (1, {tuple(map(id, ops)): (ops, 1)}) for key, ops in chains.items()}, n)


def trace_one(ops: tuple, n: int) -> ScalarPoly:
    """The engine's trace of one chain, traced as a batch of one."""
    return trace_each({0: ops}, n)[0]


def anticommutator(a: CliffordOp, b: CliffordOp) -> CliffordOp:
    return a * b + b * a


def _generator(n: int, j: int, offset: int) -> CliffordOp:
    if not 1 <= j <= n:
        raise ValueError(f"frame index {j} out of range for n={n}")
    return CliffordOp.from_numerators(n, 1, {1 << (offset + j - 1): 1})


@lru_cache(maxsize=None)
def c_op(n: int, j: int) -> CliffordOp:
    """c(e_j) = ext - int, the blade of generator j; squares to -1."""
    return _generator(n, j, 0)


@lru_cache(maxsize=None)
def hatc_op(n: int, j: int) -> CliffordOp:
    """chat(e_j) = ext + int, the blade of generator n + j; squares to +1."""
    return _generator(n, j, n)


@lru_cache(maxsize=None)
def ext_op(n: int, j: int) -> CliffordOp:
    """Wedge by e_j* (indices 1-based): (c + chat) / 2."""
    return (c_op(n, j) + hatc_op(n, j)).scale(Fraction(1, 2))


@lru_cache(maxsize=None)
def int_op(n: int, j: int) -> CliffordOp:
    """Contraction by e_j, the adjoint of ext_op: (chat - c) / 2."""
    return (hatc_op(n, j) - c_op(n, j)).scale(Fraction(1, 2))


@lru_cache(maxsize=None)
def tildec_op(n: int, j: int) -> CliffordOp:
    """ctilde(e_j) = a0*ext - b0*int = ((a0+b0) c + (a0-b0) chat) / 2."""
    a0, b0 = _pack(1, 0), _pack(0, 1)
    half_sum = ScalarPoly._from_slots(2, {a0: (1, 0), b0: (1, 0)})
    half_diff = ScalarPoly._from_slots(2, {a0: (1, 0), b0: (-1, 0)})
    return c_op(n, j).scale(half_sum) + hatc_op(n, j).scale(half_diff)


_KINDS = {"ext": ext_op, "int": int_op, "c": c_op, "hatc": hatc_op, "tildec": tildec_op}


def vector_clifford(kind: str, u: FrameVector) -> CliffordOp:
    """Linear extension sum_j u_j * kind(e_j), folded one generator at a
    time; kind is one of "ext", "int", "c", "hatc", "tildec"."""
    gen = _KINDS[kind]
    out = zero(u.n)
    for j in range(1, u.n + 1):
        out = out + gen(u.n, j).scale(u[j])
    return out
