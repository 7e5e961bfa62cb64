"""Readings and builders of engine values that only the tests need.

projected_riemann is the benchmark's curvature construction
(bench/workloads.make_riemann) with the draw of each raw entry left to
the caller, for curvature files with wide coefficients.  The Clifford
builders here are the generator-by-generator reference:
each operator is a sum of single generators c_j (blade bit j-1) and
chat_j (bit n+j-1) built with from_numerators and the algebra, and each
ctilde is folded one generator at a time, independently of the engine's
one-pass pairs clifford.tildec_pair.  trace materialises nothing but the
scalar part, against which clifford.trace_chains is checked; trace_one
runs that engine trace on a batch of one chain.
"""

import itertools
import random
from fractions import Fraction
from functools import lru_cache

from wres.clifford import CliffordOp, FrameVector, trace_chains
from wres.scalars import ScalarPoly, _pack


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


def weight(t) -> ScalarPoly:
    """A SymbolTerm's weight as a constant ScalarPoly: num / den, times i
    when the term's order is odd."""
    return ScalarPoly._from_slots(t.den, {0: (0, t.num) if t.order() % 2 else (t.num, 0)})


def identity(n: int) -> CliffordOp:
    return CliffordOp.from_numerators(n, 1, {0: 1})


def zero(n: int) -> CliffordOp:
    return CliffordOp.from_numerators(n, 1, {})


def trace(op: CliffordOp) -> ScalarPoly:
    """tr op = 2^n times the scalar part, read off the materialised op."""
    unit = 1 << op.n
    scalar = op.blades.get(0, ())
    return ScalarPoly._from_slots(op.den, {k: (unit * re, unit * im) for k, re, im in scalar})


def trace_one(ops: tuple, n: int) -> ScalarPoly:
    """The engine's trace of one chain, traced as a batch of one."""
    return trace_chains({0: ops}, n)[0]


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
