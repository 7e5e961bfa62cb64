"""Every symbol term the engine builds is read by a formed pair.

A cell is one expansion's terms at one order and one x degree.  A block
(A, oa, B, ob, k) reads A's cell (oa, 0) and B's cell (ob, k), and only
when it forms a pair: a pair of two stored terms in the block's
composition plan on the traced path (residue.composition_plan, whose
pairs are the even pairs of even_pairs over every slot), a non-empty
compose_block inside symbol_product_PQ.  A term written to a cell that
no pair reads enters no density, so no check can see an error in it.

The read map of one Analysis on derive_inputs(n, 1) records the cell of
every term SymbolExpansion.add stores, so a term built and dropped later
still counts as written, and the cells of every formed pair.  The
expansions are named by the builder that returns them: PQ, its factors
P and Q, UV, and the full (B1) and reduced (B2) inverse powers.

The inverse powers are read term by term too: each is only ever the
right factor of a block, read by the plan slot by slot, so every term
of B1 and B2 must sit in some pair it forms.  A term in none is odd in
xi against every left factor that reads its cell, and weighs nothing in
any density.
"""

import pytest

import wres.residue
import wres.symbols
from wres.clifford import Dimension
from wres.curvature import RiemannTensor, constant_curvature, flat, random_riemann
from wres.residue import _BLOCKS, _SUBPARTS, CHECK_IDS, Analysis, derive_inputs
from wres.symbols import SymbolExpansion, SymbolTerm, _e, curvature_ops

from oracles import order, planar, projected_riemann, wide_draw

DIMS = (2, 4, 6, 8, 10, 12)

# check id -> (the blocks it sums, the tag it reads or None for all)
SOURCES = {pid: ((bid,), tag) for bid, parts in _SUBPARTS.items() for pid, _, tag in parts}
SOURCES.update({bid: ((bid,), None) for bid in (*_BLOCKS, "II", "metric")})
SOURCES.update(zabdt=(tuple(_BLOCKS), None), zpdt=(("II",), None), einstein=((*_BLOCKS, "II"), None))

# the vanishing parts that are empty sums while u and v are constant:
# PQ's order 1 is empty (I-2, I-5) and no cc/hchc term is x-free at the
# orders I-3 and II read; at dim 2 the reduced power has M = 0 and no
# term, so all of II is empty, its total and zpdt included
EMPTY = {"I-2", "I-5", "I-3-B", "I-3-C", "II-2", "II-3"}
EMPTY_D2 = EMPTY | {"II-1", "II-4", "II-5", "II", "zpdt"}


class ReadMap:
    """The cells written and read by one Analysis at dim n, and the
    right-factor terms of every formed pair."""

    def __init__(self, monkeypatch, n: int, R: RiemannTensor | None = None):
        self.names: dict = {}  # id(expansion) -> family name
        self.kept: dict = {}  # id(expansion) -> expansion, so no id is reused
        self.written: dict = {}  # (id, order, x degree) -> tags
        self.terms: dict = {}  # id(expansion) -> its stored terms, held so their ids stay unique
        self.read: set = set()  # (id, order, x degree)
        self.paired: set = set()  # ids of the B terms of every formed pair
        self.specs: dict = {}  # block id -> [(id(A), oa, id(B), ob, k)]
        self.tags: dict = {}  # (id(A), oa, id(B), ob, k) -> tags of its pairs
        self._patch(monkeypatch)
        self.analysis = Analysis(Dimension(n), *derive_inputs(n, 1, R))

    def _patch(self, monkeypatch) -> None:
        real_add = SymbolExpansion.add

        def add(exp, term):
            real_add(exp, term)
            if term.num:
                self.kept[id(exp)] = exp
                cell = (id(exp), order(term), sum(term.x_mono))
                self.written.setdefault(cell, set()).add(term.tag)
                self.terms.setdefault(id(exp), []).append(term)

        monkeypatch.setattr(SymbolExpansion, "add", add)

        def named(module, attr, name):
            real = getattr(module, attr)

            def build(*args):
                exp = real(*args)
                self.names[id(exp)] = name(*args) if callable(name) else name
                return exp

            monkeypatch.setattr(module, attr, build)

        named(wres.symbols, "principal_symbol", "P")
        named(wres.symbols, "symbols_PQ", "Q")
        named(wres.residue, "symbol_product_PQ", "PQ")
        named(wres.residue, "uv_symbol", "UV")
        named(wres.residue, "lemma2_symbols", lambda dim, R, m, e, cache: "B1" if e == -2 * m else "B2")

        real_plan = wres.residue.composition_plan

        def composition_plan(n, A, oa, B, ob, k):
            # the pairs the block forms: its plan's pairs of two stored
            # (nonzero) terms
            plan = real_plan(n, A, oa, B, ob, k)
            an, (bt, bn, _) = A.slots(oa)[1], B.slots(ob)
            for tag, ia, ib, *_ in plan:
                formed = [(i, j) for i, j in zip(ia, ib) if an[i] and bn[j]]
                if formed:
                    self.read |= {(id(A), oa, 0), (id(B), ob, k)}
                    self.tags.setdefault((id(A), oa, id(B), ob, k), set()).add(tag)
                    self.paired.update(id(bt[j]) for _, j in formed)
            return plan

        monkeypatch.setattr(wres.residue, "composition_plan", composition_plan)

        real_compose = wres.symbols.compose_block

        def compose_block(A, oa, B, ob, k):
            out = real_compose(A, oa, B, ob, k)
            if out:
                self.read |= {(id(A), oa, 0), (id(B), ob, k)}
            return out

        monkeypatch.setattr(wres.symbols, "compose_block", compose_block)

        real_integrate = wres.residue.integrate_blocks

        def integrate_blocks(blocks, n):
            for bid, spec in blocks.items():
                self.specs[bid] = [(id(A), oa, id(B), ob, k) for A, oa, B, ob, k in spec]
            return real_integrate(blocks, n)

        monkeypatch.setattr(wres.residue, "integrate_blocks", integrate_blocks)

    def unread(self) -> dict:
        """{(family, order, x degree): sorted tags} of every written cell
        that no formed pair reads."""
        return {
            (self.names.get(eid, "unnamed"), order, x): sorted(tags)
            for (eid, order, x), tags in self.written.items()
            if (eid, order, x) not in self.read
        }

    def unpaired(self) -> dict:
        """{(family, order, tag): terms} of the B1 and B2 terms that sit in
        no formed pair."""
        out: dict = {}
        for eid, terms in self.terms.items():
            family = self.names.get(eid)
            if family in ("B1", "B2"):
                for t in terms:
                    if id(t) not in self.paired:
                        key = (family, order(t), t.tag)
                        out[key] = out.get(key, 0) + 1
        return out

    def empty_checks(self) -> set:
        """The check ids that no formed pair feeds."""
        out = set()
        for cid in CHECK_IDS:
            bids, tag = SOURCES[cid]
            formed = set().union(*(self.tags.get(s, ()) for bid in bids for s in self.specs[bid]))
            if not formed if tag is None else tag not in formed:
                out.add(cid)
        return out


@pytest.mark.parametrize("n", DIMS)
def test_every_written_cell_is_read(monkeypatch, n):
    rm = ReadMap(monkeypatch, n)
    assert rm.analysis.all_match()
    assert set(rm.names.values()) == {"P", "Q", "PQ", "UV", "B1", "B2"}
    unread = rm.unread()
    assert rm.written
    assert not unread, "written, never read: " + "; ".join(
        f"{fam} order {order} x degree {x}: {', '.join(tags)}" for (fam, order, x), tags in sorted(unread.items())
    )


TENSORS = {
    "random": lambda n: random_riemann(n, 1),
    "flat": flat,
    "constant": constant_curvature,
    "planar": planar,
    "wide": lambda n: RiemannTensor(n, projected_riemann(n, 19, wide_draw)),
}


@pytest.mark.parametrize("n", (2, 4, 6, 8))
@pytest.mark.parametrize("kind", sorted(TENSORS))
def test_every_inverse_power_term_is_paired(monkeypatch, kind, n):
    # every term of both inverse powers, at every order and x degree
    rm = ReadMap(monkeypatch, n, TENSORS[kind](n))
    assert rm.analysis.all_match()
    assert any(rm.names.get(eid) == "B1" for eid in rm.terms)  # the top symbol at least
    assert rm.unpaired() == {}


@pytest.mark.parametrize("n", DIMS)
def test_empty_sum_checks(monkeypatch, n):
    # a change that makes one of these sums non-empty (a jet of v, say)
    # shows up here as a diff
    assert ReadMap(monkeypatch, n).empty_checks() == (EMPTY_D2 if n == 2 else EMPTY)


@pytest.mark.parametrize("n", (2, 4, 6))
def test_planted_ricci_term_is_reported(monkeypatch, n):
    # a wrong x-free Ricci term of order -2m-1 on the full inverse power:
    # every check passes on it, since no block reads that cell of B1
    real = wres.residue.lemma2_symbols

    def planted(dim, R, m, exponent, cache):
        exp = real(dim, R, m, exponent, cache)
        if exponent == -2 * m:
            rec = curvature_ops(R, cache)
            for (a, b), ric in rec.ricci.items():
                exp.add(SymbolTerm(_e(n), _e(n, a), -2 * m - 2, 3 * rec.den, 5 * m * ric, (), "ric"))
        return exp

    monkeypatch.setattr(wres.residue, "lemma2_symbols", planted)
    m = n // 2
    assert ReadMap(monkeypatch, n).unread() == {("B1", -2 * m - 1, 0): ["ric"]}
