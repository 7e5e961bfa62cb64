"""Every density is linear in R and bilinear in (u, v), read off the
structure of the pairs.

A checked density is a sum over the factor pairs that its blocks
integrate (even_pairs).  A factor carries a curvature tag when its
weight or operator is built from R.  So a density is linear in R when
each of its pairs carries exactly one curvature-tagged factor: the I
and II blocks.  The metric block must not see R at all, so each of its
pairs carries none.  u and v enter only through the ops
symbols.tildec_pair and symbols.tildec_row build, ctilde(w) ctilde(x)
with x = e_f in a row, so a density is
bilinear in (u, v) when every pair's chain holds u once and v once
among the vectors of those ops.  The walk covers the blocks of one
Analysis on derive_inputs(n, 1), whose random_riemann tensor draws
every entry, and pins the pair count of each block, so an empty walk
cannot pass.
"""

from collections import Counter
from itertools import product

import pytest

import wres.residue
import wres.symbols
from wres.clifford import Dimension
from wres.residue import Analysis, derive_inputs
from wres.symbols import _CURVATURE_TAGS, SymbolExpansion, even_pairs

# block id -> number of even pairs, at dims 2, 4 and 6; I-2 and I-5
# form none while u and v are constant, nor II at dim 2 (M = 0)
PAIRS = {
    2: {"I-1": 4, "I-3": 8, "I-4": 10, "I-6": 2, "metric": 1},
    4: {"I-1": 24, "I-3": 48, "I-4": 76, "I-6": 36, "II": 6, "metric": 1},
    6: {"I-1": 60, "I-3": 108, "I-4": 186, "I-6": 150, "II": 8, "metric": 1},
}


class _Captured(Exception):
    """Raised once the blocks are captured: nothing is integrated."""


def analysis_blocks(monkeypatch, n: int, inputs: tuple = ()) -> dict:
    """{block id: [(A, oa, B, ob, k), ...]} as one Analysis on inputs,
    derive_inputs(n, 1) by default, hands them to integrate_blocks."""
    captured = {}

    def integrate_blocks(blocks, dim_n):
        captured.update(blocks)
        raise _Captured

    monkeypatch.setattr(wres.residue, "integrate_blocks", integrate_blocks)
    with pytest.raises(_Captured):
        Analysis(Dimension(n), *(inputs or derive_inputs(n, 1)))
    return captured


def pairs(A, oa, B, ob, k):
    """The even pairs (ta, tb) of a block, one at a time, out of the
    groups even_pairs hands out."""
    for alist, blist in even_pairs(A, oa, B, ob, k):
        yield from product(alist, blist)


def curvature_counts(blocks: dict) -> dict:
    """{block id: Counter {curvature-tagged factors of a pair: pairs}}
    over the even pairs of every non-empty block."""
    counts = {}
    for bid, spec in blocks.items():
        tally = Counter(
            sum(t.tag in _CURVATURE_TAGS for t in pair)
            for A, oa, B, ob, k in spec
            for pair in pairs(A, oa, B, ob, k)
        )
        if tally:
            counts[bid] = tally
    return counts


def certified(n: int) -> dict:
    """The counts the certificate requires at dim n: every pair of an I
    or II block with one curvature-tagged factor, the metric pair none."""
    return {bid: Counter({0 if bid == "metric" else 1: pairs}) for bid, pairs in PAIRS[n].items()}


@pytest.mark.parametrize("n", [2, 4, 6])
def test_each_pair_carries_one_curvature_factor(monkeypatch, n):
    assert curvature_counts(analysis_blocks(monkeypatch, n)) == certified(n)


@pytest.mark.parametrize("n", [2, 4, 6])
def test_a_curvature_tag_on_the_top_term_fails(monkeypatch, n):
    # the inverse powers' top term |xi|^(-2M) re-tagged as a Ricci term:
    # I-1 pairs it with PQ's cc and hchc factors, the metric block with
    # the uv symbol
    real_add = SymbolExpansion.add

    def add(exp, term):
        real_add(exp, term._replace(tag="ric") if term.tag == "delta" else term)

    monkeypatch.setattr(SymbolExpansion, "add", add)
    counts = curvature_counts(analysis_blocks(monkeypatch, n))
    assert counts != certified(n)
    assert counts["I-1"] == Counter({2: PAIRS[n]["I-1"]})
    assert counts["metric"] == Counter({1: 1})


def vector_counts(monkeypatch, n: int, plant=None) -> dict:
    """{block id: Counter {(u count, v count) of a pair: pairs}} over the
    even pairs of every non-empty block: each pair's ops are looked up
    among the ops tildec_pair and tildec_row built, and their vectors (w,
    x, x = None for a row's e_f) are
    counted by identity against u and v.  plant, if given, patches the
    pipeline after the spy is in place."""
    _, u, v = inputs = derive_inputs(n, 1)
    built = {}  # id(op) -> (op, w, x); the op is held so its id stays unique
    real_pair, real_row = wres.symbols.tildec_pair, wres.symbols.tildec_row

    def tildec_pair(w, x):
        op = real_pair(w, x)
        built[id(op)] = (op, w, x)
        return op

    def tildec_row(w):
        row = real_row(w)
        built.update((id(op), (op, w, None)) for op in row)  # x is a frame vector e_f
        return row

    monkeypatch.setattr(wres.symbols, "tildec_pair", tildec_pair)
    monkeypatch.setattr(wres.symbols, "tildec_row", tildec_row)
    if plant:
        plant(monkeypatch)
    blocks = analysis_blocks(monkeypatch, n, inputs)

    def count(pair):
        vectors = [vec for t in pair for op in t.ops if id(op) in built for vec in built[id(op)][1:]]
        return sum(vec is u for vec in vectors), sum(vec is v for vec in vectors)

    counts = {}
    for bid, spec in blocks.items():
        tally = Counter(count(pair) for A, oa, B, ob, k in spec for pair in pairs(A, oa, B, ob, k))
        if tally:
            counts[bid] = tally
    return counts


@pytest.mark.parametrize("n", [2, 4, 6])
def test_each_pair_holds_u_once_and_v_once(monkeypatch, n):
    # the uv symbol's op ctilde(u) ctilde(v) counts once for each
    assert vector_counts(monkeypatch, n) == {
        bid: Counter({(1, 1): pairs}) for bid, pairs in PAIRS[n].items()
    }


@pytest.mark.parametrize("n", [2, 4, 6])
def test_uv_symbol_of_u_twice_fails(monkeypatch, n):
    def plant(monkeypatch):
        real = wres.residue.uv_symbol
        monkeypatch.setattr(wres.residue, "uv_symbol", lambda dim, u, v: real(dim, u, u))

    counts = vector_counts(monkeypatch, n, plant)
    for bid, pairs in PAIRS[n].items():
        want = (2, 0) if bid in ("II", "metric") else (1, 1)
        assert counts[bid] == Counter({want: pairs}), bid


@pytest.mark.parametrize("n", [2, 4, 6])
def test_second_factor_built_from_u_fails(monkeypatch, n):
    def plant(monkeypatch):
        real = wres.residue.symbol_product_PQ
        monkeypatch.setattr(
            wres.residue, "symbol_product_PQ", lambda dim, R, u, v, cache: real(dim, R, u, u, cache)
        )

    counts = vector_counts(monkeypatch, n, plant)
    for bid, pairs in PAIRS[n].items():
        want = (1, 1) if bid in ("II", "metric") else (2, 0)
        assert counts[bid] == Counter({want: pairs}), bid
