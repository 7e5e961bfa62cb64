"""Every identity for every (R, u, v) at dims 2 and 4 (ROADMAP item 1(b)).

At a fixed n every checked density is linear in R and bilinear in
(u, v) on both sides: the engine's by the structure of its pairs
(tests/test_multilinear.py), the closed forms' because Analysis
evaluates each row on contract, inner and ricci_bilinear.  Two linear
maps that agree on a spanning set agree everywhere.  The Bianchi
projections of the symmetric products w_P (.) w_Q of the basis
bivectors w_P = e_i ^ e_j (i < j) span the algebraic curvature tensors,
of dimension n^2 (n^2 - 1) / 12 (Besse, Einstein Manifolds, 1987, 1.G),
and the basis vectors span R^n.  So one Analysis per tensor and ordered
pair (e_a, e_b) proves the paper's identities at that n, with no
sampling.  Each tensor is validated as it is built, and the rank of the
set is checked exactly in Fraction arithmetic.  The sweep must fail on
two planted errors that the sampled checks alone need not see: an
R-quadratic operator in the first-order factor, and u read for v.
"""

import time
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, product

import pytest

import wres.residue
import wres.symbols
from wres.clifford import Dimension
from wres.curvature import RiemannTensor
from wres.residue import Analysis
from wres.symbols import SymbolExpansion

from oracles import basis, entry


def _omega(P, a, b) -> int:
    """w_P(e_a, e_b) for the basis bivector w_P = e_i ^ e_j, P = (i, j)."""
    i, j = P
    return (a == i and b == j) - (a == j and b == i)


def bianchi_tensor(n: int, P: tuple, Q: tuple) -> RiemannTensor:
    """The Bianchi projection T - (T_ijkl + T_iklj + T_iljk) / 3 of T =
    w_P (x) w_Q + w_Q (x) w_P, validated."""
    idx = list(product(range(1, n + 1), repeat=4))
    t = {(i, j, k, l): _omega(P, i, j) * _omega(Q, k, l) + _omega(Q, i, j) * _omega(P, k, l) for i, j, k, l in idx}
    entries = {
        (i, j, k, l): t[i, j, k, l] - Fraction(t[i, j, k, l] + t[i, k, l, j] + t[i, l, j, k], 3)
        for i, j, k, l in idx
    }
    return RiemannTensor(n, entries, validate=True)


@lru_cache(maxsize=None)
def spanning_set(n: int) -> tuple:
    """The Bianchi projections (bianchi_tensor) over the bivector pairs
    P <= Q: N (N + 1) / 2 tensors, N = n (n - 1) / 2."""
    pairs = combinations_with_replacement(list(combinations(range(1, n + 1), 2)), 2)
    return tuple(bianchi_tensor(n, P, Q) for P, Q in pairs)


def rank(rows: list) -> int:
    """The rank of a list of Fraction rows, by exact Gaussian elimination."""
    rows = [list(r) for r in rows]
    found = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(found, len(rows)) if rows[r][c]), None)
        if pivot is None:
            continue
        rows[found], rows[pivot] = rows[pivot], rows[found]
        top = rows[found]
        for r in range(found + 1, len(rows)):
            if rows[r][c]:
                f = rows[r][c] / top[c]
                rows[r] = [x - f * y for x, y in zip(rows[r], top)]
        found += 1
    return found


def sweep(n: int):
    """(tensor index, a, b, mismatches) of the first Analysis over the
    spanning set and every ordered basis pair (e_a, e_b) that does not
    match its closed forms, or None when every one matches."""
    dim = Dimension(n)
    frame = [basis(n, a) for a in range(1, n + 1)]
    for t, R in enumerate(spanning_set(n)):
        for a, b in product(range(n), repeat=2):
            run = Analysis(dim, R, frame[a], frame[b])
            if not run.all_match():
                return t, a + 1, b + 1, run.mismatches()
    return None


def sweep_seconds(n: int, step: int, repeats: int) -> float:
    """The best of repeats process times, per analysis, of the sweep over
    every step-th spanning tensor and every ordered basis pair: a fixed
    slice timed in-process, steadier than one whole sweep's time."""
    dim = Dimension(n)
    frame = [basis(n, a) for a in range(1, n + 1)]
    tensors = spanning_set(n)[::step]
    best = None
    for _ in range(repeats):
        start = time.process_time()
        for R in tensors:
            for u, v in product(frame, repeat=2):
                Analysis(dim, R, u, v).all_match()
        took = time.process_time() - start
        best = took if best is None else min(best, took)
    return best / (len(tensors) * n * n)


@pytest.mark.parametrize("n", [2, 4])
def test_spanning_set_has_full_rank(n):
    tensors = spanning_set(n)
    N = n * (n - 1) // 2
    assert len(tensors) == N * (N + 1) // 2
    idx = list(product(range(1, n + 1), repeat=4))
    assert rank([[entry(R, *q) for q in idx] for R in tensors]) == n * n * (n * n - 1) // 12


@pytest.mark.parametrize("n", [2, 4])
def test_every_identity_holds_on_the_spanning_set(n):
    assert sweep(n) is None


def test_sweep_seconds_times_a_slice():
    assert 0 < sweep_seconds(2, 1, 2) < 1


def test_rank_counts_independent_rows():
    assert rank([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)], [Fraction(0), Fraction(1, 3)]]) == 2
    assert rank([[Fraction(0)] * 3]) == 0


class TestPlantedErrors:
    """The sweep must fail on errors that the structural certificate of
    item 1(a) passes: each carries the tags and vectors it should."""

    def test_an_R_quadratic_factor_fails(self, monkeypatch):
        # each cc operator of the first-order factor multiplied by the
        # curvature record's f: one cc tag, but quadratic in R.  At dim 2
        # the plant is invisible: dropping every cc and hchc term of
        # symbols_PQ there leaves every computed density unchanged
        original = wres.symbols.symbols_PQ

        def quadratic(dim, R, w, cache):
            exp = original(dim, R, w, cache)
            f = wres.symbols.curvature_ops(R, cache).f
            out = SymbolExpansion(dim.n)
            for order in exp.orders():
                for t in exp.terms_at(order):
                    out.add(t._replace(ops=t.ops[:-1] + (t.ops[-1] * f,)) if t.tag == "cc" else t)
            return out

        monkeypatch.setattr(wres.symbols, "symbols_PQ", quadratic)
        assert sweep(4) is not None

    @pytest.mark.parametrize("n", [2, 4])
    def test_u_read_for_v_fails(self, n, monkeypatch):
        original = wres.residue.uv_symbol
        monkeypatch.setattr(wres.residue, "uv_symbol", lambda dim, u, v: original(dim, u, u))
        assert sweep(n) is not None
