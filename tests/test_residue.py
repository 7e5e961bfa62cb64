"""Densities, part table, and the assembled functionals."""

import random
import sys
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from click.testing import CliRunner
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from wres.clifford import Dimension, FrameVector, ProductCache, inner, trace_sums
from wres.curvature import (
    RiemannTensor,
    constant_curvature,
    contract,
    flat,
    random_riemann,
    random_vector,
    ricci_bilinear,
)
import wres.clifford
import wres.residue
import wres.sphere
import wres.symbols
from wres.cli import main
from wres.residue import (
    _BLOCKS,
    ASSEMBLED_IDS,
    CHECK_IDS,
    PART_IDS,
    TOTAL_IDS,
    ZERO_PART_IDS,
    Analysis,
    FunctionalDensity,
    composed_weights,
    derive_inputs,
    integrate_blocks,
    verify_all,
)
from wres.scalars import GaussianRational, ScalarPoly
from wres.sphere import vol_multiplier
from wres.symbols import (
    SymbolExpansion,
    SymbolTerm,
    block_sign,
    blocks_at,
    compose_block,
    even_pairs,
    lemma2_symbols,
    principal_symbol,
    symbol_product_PQ,
    symbols_PQ,
    uv_symbol,
)

from oracles import (
    basis,
    brute_compose,
    brute_weights,
    c_op,
    entry,
    expected_densities,
    order,
    planar,
    projected_riemann,
    tildec_op,
    trace,
    weight,
    wide_draw,
)
from test_golden import CASES
from test_proof import bianchi_tensor


def mono(n, *idx):
    out = [0] * n
    for j in idx:
        out[j - 1] += 1
    return tuple(out)


def density_of(key, dim, R, u, v):
    return Analysis(dim, R, u, v).computed[key]


def integrate(terms, n):
    """Cosphere integral of untagged base-point terms of one order, on
    the engine's path: one k = 0 block against the identity symbol,
    through integrate_blocks."""
    ident, B = SymbolExpansion(n), SymbolExpansion(n)
    ident.add(SymbolTerm(mono(n), mono(n), 0, 1, 1))
    for t in terms:
        B.add(t)
    (order,) = B.orders()
    tagged = integrate_blocks({"": [(ident, 0, B, order, 0)]}, n)[""]
    return tagged.get("", FunctionalDensity(ScalarPoly.zero(), 0))


class TestFunctionalDensity:
    def test_normalization_strips_common_power(self):
        d = FunctionalDensity(ScalarPoly.monomial(2, 2, -8), -2)
        norm = d.normalized()
        assert norm.poly == ScalarPoly.const(-8)
        assert norm.prefactor_exp == 0

    def test_zero_normalizes_to_exponent_zero(self):
        assert FunctionalDensity(ScalarPoly.zero(), -3).normalized().prefactor_exp == 0
        assert FunctionalDensity(ScalarPoly.zero(), -3) == FunctionalDensity(
            ScalarPoly.zero(), 5
        )

    def test_equality_compares_normalized_forms(self):
        a = FunctionalDensity(ScalarPoly.monomial(1, 1, 4), -1)
        b = FunctionalDensity(ScalarPoly.const(4), 0)
        assert a == b

    def test_addition_aligns_exponents(self):
        a = FunctionalDensity(ScalarPoly.const(1), 0)
        b = FunctionalDensity(ScalarPoly.const(1), -1)
        total = a + b
        # 1 + (a0 b0)^-1 = (a0 b0 + 1) (a0 b0)^-1
        assert total.prefactor_exp == -1
        assert total.poly == ScalarPoly.monomial(1, 1) + ScalarPoly.const(1)

    def test_text_forms(self):
        assert FunctionalDensity(ScalarPoly.const(8), 0).text() == "(8)"
        assert (
            FunctionalDensity(ScalarPoly.monomial(1, 1, -16), -2).text()
            == "(a0*b0*(-16)) * (a0*b0)^-2"
        )

    def test_evaluate_applies_prefactor(self):
        d = FunctionalDensity(ScalarPoly.monomial(2, 2, 8), -2)
        assert d.evaluate(Fraction(1, 2), 3) == 8
        assert d.evaluate(1, 1) == 8

    def test_evaluate_rejects_floats(self):
        d = FunctionalDensity(ScalarPoly.a0(), 1)
        with pytest.raises(TypeError):
            d.evaluate(0.1, 1)
        with pytest.raises(TypeError):
            d.evaluate(1, 0.5)


def spy_batches(monkeypatch):
    """The list each trace_sums batch of wres.residue is appended to."""
    batches, real = [], wres.residue.trace_sums

    def spy(sums, n):
        batches.append(sums)
        return real(sums, n)

    monkeypatch.setattr(wres.residue, "trace_sums", spy)
    return batches


def spy_packs(monkeypatch):
    """The list of the blades of every operator clifford._kron_parts packs."""
    packs, real = [], wres.clifford._kron_parts

    def spy(blades, width):
        packs.append(blades)
        return real(blades, width)

    monkeypatch.setattr(wres.clifford, "_kron_parts", spy)
    return packs


def live_chains(batch) -> dict:
    """{chain key: ops} of the chains of a trace_sums batch that carry a
    nonzero weight in some sum: the chains the batch traces, once each."""
    return {key: ops for _, chains in batch.values() for key, (ops, w) in chains.items() if w}


class TestIntegration:
    def test_flat_top_symbol_gives_trace_unit(self):
        # ||xi||^{-2m} times the identity integrates to 2^{2m} Vol
        for n in (4, 6):
            got = integrate([SymbolTerm(mono(n), mono(n), -n, 1, 1)], n)
            assert got == FunctionalDensity(ScalarPoly.const(1 << n), 0)

    def test_odd_monomials_drop(self):
        n = 4
        term = SymbolTerm(mono(n), mono(n, 1, 2), -6, 1, 1)
        assert not integrate([term], n).poly

    def test_weighted_pair_trace(self):
        # xi_1^2 ||xi||^{-6} ctilde(e1)^2 integrates to (1/4)(-16 a0 b0)
        n = 4
        op = tildec_op(n, 1)
        got = integrate([SymbolTerm(mono(n), mono(n, 1, 1), -6, 1, 1, (op, op))], n)
        assert got == FunctionalDensity(ScalarPoly.monomial(1, 1, -4), 0)

    def test_one_trace_per_distinct_chain(self, monkeypatch):
        # one trace_sums batch per integration, whose uncancelled chains
        # are the distinct chains whose weight does not cancel: a chain
        # shared by several terms is traced once, and an odd or cancelled
        # one not at all; b is only in (a, b), whose shapes meet in no
        # blade triple (ctilde(e1) ctilde(e2) is traceless whatever its
        # values), so a alone is packed
        batches, packs = spy_batches(monkeypatch), spy_packs(monkeypatch)
        n = 4
        a, b = tildec_op(n, 1), tildec_op(n, 2)
        terms = [
            SymbolTerm(mono(n), mono(n, 1, 1), -6, 1, 1, (a, a)),
            SymbolTerm(mono(n), mono(n, 2, 2), -6, 1, 3, (a, a)),
            SymbolTerm(mono(n), mono(n), -4, 1, 1, (a, b)),
            SymbolTerm(mono(n), mono(n, 1, 2), -6, 1, 1, (b, a)),  # odd: never traced
            # one chain, opposite scalars: weight zero, never traced
            SymbolTerm(mono(n), mono(n, 3, 3), -6, 1, 3, (b, b)),
            SymbolTerm(mono(n), mono(n, 3, 3), -6, 1, -3, (b, b)),
        ]
        got = integrate(terms, n)
        (batch,) = batches
        assert set(live_chains(batch)) == {(id(a), id(a)), (id(a), id(b))}
        assert [id(blades) for blades in packs] == [id(a.blades)]
        # per term, as scalar * integral * trace
        want = ScalarPoly.zero()
        for t in terms:
            if not any(e % 2 for e in t.xi_mono):
                tr = trace(t.ops[0] * t.ops[1])
                want = want + tr * weight(t).scale(Fraction(*vol_multiplier(n, t.xi_mono)))
        assert got == FunctionalDensity(want, 0)
        assert not integrate(terms[-2:], n).poly

    def test_composed_blocks_trace_each_chain_once(self, monkeypatch):
        # an Analysis traces in one batch: as many chains as the
        # Fraction-arithmetic weights of the built product terms have,
        # once each over every block and tag
        batches = spy_batches(monkeypatch)
        n = 4
        assert Analysis(Dimension(n), *derive_inputs(n, 1)).all_match()
        (batch,) = batches
        specs = block_specs(n, 1).values()
        assert len(live_chains(batch)) == len({key for spec in specs for _, key in term_weights(spec, n)})

    def test_cancelled_weight_is_not_traced(self, monkeypatch):
        packs = spy_packs(monkeypatch)
        n = 4
        a, b = tildec_op(n, 1), tildec_op(n, 2)
        three = ScalarPoly.const(3)
        # b with i a0^2 added on its c_2 blade: packing it would raise
        gaussian = b + c_op(n, 2).scale(ScalarPoly.monomial(2, 0, GaussianRational(0, 1)))
        # weights 3, 3 - 3 and 3 + (-3), as numerators over den 2
        chains = {
            (id(a), id(a)): ((a, a), 6),
            (id(b), id(gaussian)): ((b, gaussian), 6 - 6),
            (id(a), id(b)): ((a, b), 6 + -6),
        }
        # trace_sums packs and traces no operator of a cancelled chain
        got = trace_sums({"tag": (2, chains)}, n)["tag"]
        assert got == trace(a * a) * three
        assert [id(blades) for blades in packs] == [id(a.blades)]


def symbol_set(n, seed, R=None):
    """PQ, B1, UV and B2 of the seeded input, built as Analysis builds
    them; R, when given, replaces the seed's tensor."""
    dim = Dimension(n)
    m = dim.m
    R, u, v = derive_inputs(n, seed, R)
    cache = ProductCache()
    return (
        symbol_product_PQ(dim, R, u, v, cache),
        lemma2_symbols(dim, R, m, -2 * m, cache),
        uv_symbol(dim, u, v),
        lemma2_symbols(dim, R, m, -2 * m + 2, cache),
    )


def block_specs(n, seed, R=None):
    """The blocks of every composed density: the six of PQ o B1, II and the metric."""
    PQ, B1, UV, B2 = symbol_set(n, seed, R)
    specs = {bid: [(PQ, oa, B1, -n + ob, oa + ob)] for bid, (oa, ob) in _BLOCKS.items()}
    specs["II"] = blocks_at(UV, B2, -n)
    specs["metric"] = blocks_at(UV, B1, -n)
    return specs


def term_weights(spec, n):
    """{(tag, chain ids): weight} summed over every built product term,
    odd ones included (their cosphere integral is zero), as constant
    ScalarPolys in Fraction arithmetic; cancelled weights are dropped."""
    out = {}
    for A, oa, B, ob, k in spec:
        for t in compose_block(A, oa, B, ob, k):
            assert order(t) == -n and not any(t.x_mono)
            key = (t.tag, tuple(map(id, t.ops)))
            w = weight(t).scale(Fraction(*vol_multiplier(n, t.xi_mono)))
            out[key] = out[key] + w if key in out else w
    return {key: w for key, w in out.items() if w}


def nonzero(weights):
    """{(tag, chain ids): weight} of the uncancelled weights of
    composed_weights, each num / den read out as a constant."""
    return {
        (tag, key): ScalarPoly.const(Fraction(num, den))
        for tag, (den, chains) in weights.items()
        for key, (_, num) in chains.items()
        if num
    }


class TestBlocks:
    @pytest.mark.parametrize("n", [4, 6])
    def test_blocks_partition_the_composition(self, n):
        PQ, B1, _, _ = symbol_set(n, 1)
        assert len(set(_BLOCKS.values())) == len(_BLOCKS) == 6
        summed = {}
        for oa, ob in _BLOCKS.values():
            for key, w in nonzero(composed_weights([(PQ, oa, B1, -n + ob, oa + ob)], n)).items():
                summed[key] = summed[key] + w if key in summed else w
        # every order -n pairing of PQ and B1, composed term by term
        want = term_weights(blocks_at(PQ, B1, -n), n)
        assert want and {k: w for k, w in summed.items() if w} == want

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_fused_weights_equal_term_by_term_weights(self, n):
        specs = block_specs(n, 1)
        assert set(specs) == set(_BLOCKS) | {"II", "metric"}
        for bid, spec in specs.items():
            assert nonzero(composed_weights(spec, n)) == term_weights(spec, n), bid

    def test_odd_pairs_build_nothing(self, monkeypatch):
        # The weight walker enumerates no odd pair, so none reaches the
        # weight arithmetic: every pair of every group it hands out is
        # even, and their products, signed by the block, are exactly the
        # even terms compose_block builds from every pair, so none is
        # lost.
        def even(ta, tb):
            return not any((a + b) % 2 for a, b in zip(ta.xi_mono, tb.xi_mono))

        def key(xi, norm, scalar, ops, tag):
            return xi, norm, scalar, tuple(map(id, ops)), tag

        odd = 0
        for n in (2, 4, 6):
            for spec in block_specs(n, 1).values():
                for block in spec:
                    terms = compose_block(*block)
                    odd += sum(any(e % 2 for e in t.xi_mono) for t in terms)
                    want = Counter(
                        key(t.xi_mono, t.norm_power, t.num, t.ops, t.tag)
                        for t in terms
                        if not any(e % 2 for e in t.xi_mono)
                    )
                    _, oa, _, ob, k = block
                    sign = block_sign(oa, ob, k)
                    got = Counter(
                        key(
                            tuple(a + b for a, b in zip(ta.xi_mono, tb.xi_mono)),
                            ta.norm_power + tb.norm_power,
                            sign * ta.num * tb.num,
                            ta.ops + tb.ops,
                            ta.tag or tb.tag,
                        )
                        for alist, blist in even_pairs(*block)
                        for ta, tb in product(alist, blist)
                    )
                    assert got == want
        assert odd

        real, handed = wres.residue.even_pairs, []

        def walker(*args):
            for alist, blist in real(*args):
                if not all(even(ta, tb) for ta, tb in product(alist, blist)):
                    raise AssertionError("an odd pair reached the weight arithmetic")
                handed.append(1)
                yield alist, blist

        # pairs are enumerated where a composition plan is built, once
        # per layout, so the Analyses start from an empty plan memo
        monkeypatch.setattr(wres.residue, "even_pairs", walker)
        monkeypatch.setattr(wres.residue, "_PLANS", {})
        for n in (2, 4):
            assert Analysis(Dimension(n), *derive_inputs(n, 1)).all_match()
        assert handed

    def test_each_chain_is_traced_once(self, monkeypatch):
        # an Analysis makes one trace_sums call, whose uncancelled chains
        # are the distinct chains whose weight does not cancel: a chain
        # shared by several blocks or tags is traced once, and a
        # cancelled one not at all, its operator never packed
        batches, packs, composed = spy_batches(monkeypatch), spy_packs(monkeypatch), []
        real_weights = wres.residue.composed_weights

        def weights_spy(blocks, n):
            tags = real_weights(blocks, n)
            # plant a chain whose weight cancelled in every block
            tags.setdefault("", [1, {}])[1][tuple(map(id, planted))] = (planted, 0)
            composed.append(tags)
            return tags

        monkeypatch.setattr(wres.residue, "composed_weights", weights_spy)
        n = 4
        planted = (tildec_op(n, 3),)
        assert Analysis(Dimension(n), *derive_inputs(n, 1)).all_match()
        (batch,) = batches
        weighted, cancelled = set(), set()
        for tags in composed:
            for _, chains in tags.values():
                for key, (_, num) in chains.items():
                    (weighted if num else cancelled).add(key)
        assert set(live_chains(batch)) == weighted and tuple(map(id, planted)) in cancelled - weighted
        assert id(planted[0].blades) not in map(id, packs)

    def test_analysis_builds_no_gaussian_rational(self, monkeypatch):
        # every exact constant is a ScalarPoly: a GaussianRational is only
        # read out of a finished density, never built by the pipeline
        built = []
        real_init, real_make = GaussianRational.__init__, GaussianRational._make.__func__

        def init_spy(self, *args):
            built.append(args)
            real_init(self, *args)

        def make_spy(cls, *args):
            built.append(args)
            return real_make(cls, *args)

        monkeypatch.setattr(GaussianRational, "__init__", init_spy)
        monkeypatch.setattr(GaussianRational, "_make", classmethod(make_spy))
        for n in (4, 6):
            assert Analysis(Dimension(n), *derive_inputs(n, 1)).all_match()
        assert built == []


    def test_weight_path_builds_no_fraction(self, monkeypatch):
        # symbol building, composition, cosphere weights and traces are
        # integer arithmetic: no Fraction is built under the symbol
        # families, composed_weights or trace_sums, nor
        # on criterion 4's path (standard_connection, lemma1_symbols,
        # merged).  The
        # sphere and Clifford memos start cold, so a weight or generator
        # cached by an earlier run cannot hide a Fraction built on its
        # first use.
        for module in (wres.sphere, wres.clifford):
            for fn in vars(module).values():
                getattr(fn, "cache_clear", lambda: None)()
        depth, built = [0], []

        def inside(fn):
            def run(*args):
                depth[0] += 1
                try:
                    return fn(*args)
                finally:
                    depth[0] -= 1

            return run

        real_new = Fraction.__new__

        def new_spy(cls, *args, **kwargs):
            if depth[0]:
                built.append(args)
            return real_new(cls, *args, **kwargs)

        for name in (
            "symbol_product_PQ",
            "lemma2_symbols",
            "uv_symbol",
            "composed_weights",
            "trace_sums",
        ):
            monkeypatch.setattr(wres.residue, name, inside(getattr(wres.residue, name)))
        for name in ("standard_connection", "lemma1_symbols", "lemma2_symbols"):
            monkeypatch.setattr(wres.symbols, name, inside(getattr(wres.symbols, name)))
        monkeypatch.setattr(SymbolExpansion, "merged", inside(SymbolExpansion.merged))
        monkeypatch.setattr(Fraction, "__new__", staticmethod(new_spy))
        for n in (4, 6):
            R, u, v = derive_inputs(n, 1)
            dim, cache = Dimension(n), ProductCache()
            assert Analysis(dim, R, u, v).all_match()
            conn = wres.symbols.standard_connection(dim, R, cache)
            direct = wres.symbols.lemma2_symbols(dim, R, dim.m, -n, cache)
            assert direct.merged(cache) == wres.symbols.lemma1_symbols(dim, R, conn).merged(cache)
        assert built == []


def term_keys(terms):
    """The multiset of product terms, each keyed by everything but its x monomial."""
    return Counter((t.xi_mono, t.norm_power, t.den, t.num, tuple(map(id, t.ops)), t.tag) for t in terms)


def chain_weights(weights):
    """composed_weights as {tag: (den, {chain ids: num})}, brute_weights' shape."""
    return {
        tag: (den, {key: num for key, (_, num) in chains.items()})
        for tag, (den, chains) in weights.items()
    }


TENSORS = {
    "random": lambda n: random_riemann(n, 1),
    "flat": flat,
    "constant": constant_curvature,
    "planar": lambda n: planar(n),
    "wide": lambda n: RiemannTensor(n, projected_riemann(n, 19, wide_draw)),
}


class TestBruteForce:
    """compose_block and composed_weights against a composer that builds
    and differentiates every pair on its own (oracles.brute_compose), on
    every block of an Analysis and of its product PQ."""

    @pytest.mark.parametrize("kind", sorted(TENSORS))
    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_blocks_equal_the_brute_force_composer(self, n, kind):
        R = TENSORS[kind](n)
        dim, cache = Dimension(n), ProductCache()
        _, u, v = derive_inputs(n, 1)
        P, Q = principal_symbol(dim, u), symbols_PQ(dim, R, v, cache)
        specs = block_specs(n, 1, R)
        specs["PQ"] = [block for target in (2, 1, 0) for block in blocks_at(P, Q, target)]
        formed = 0
        for bid, spec in specs.items():
            for block in spec:
                want = brute_compose(*block)
                assert term_keys(compose_block(*block)) == term_keys(want), (bid, block[1::2])
                formed += len(want)
            assert chain_weights(composed_weights(spec, n)) == brute_weights(spec, n), bid
        assert formed

    def test_a_term_added_after_a_composition_is_seen(self):
        # the derivative and x-monomial memos of an expansion are dropped
        # by its next add: terms filed into cells that a composition has
        # already read are composed by the next one
        n = 4
        PQ, B1, _, _ = symbol_set(n, 1)
        blocks = [(PQ, 2, B1, -n - 1, 1), (PQ, 2, B1, -n, 2), (PQ, 0, B1, -n, 0)]
        before = [(term_keys(compose_block(*b)), chain_weights(composed_weights([b], n))) for b in blocks]
        PQ.add(SymbolTerm(mono(n), mono(n, 1, 3), 0, 5, 7, (tildec_op(n, 2),)))
        PQ.add(SymbolTerm(mono(n), mono(n, 2, 2), -2, 1, 3, (tildec_op(n, 4),)))
        B1.add(SymbolTerm(mono(n, 2, 4), mono(n, 1, 3), -n - 2, 3, -2))
        B1.add(SymbolTerm(mono(n, 3), mono(n, 1), -n - 2, 3, 4))
        for block, old in zip(blocks, before):
            terms = term_keys(compose_block(*block))
            weights = chain_weights(composed_weights([block], n))
            assert (terms, weights) != old
            assert terms == term_keys(brute_compose(*block))
            assert weights == brute_weights([block], n)


def tensor_times(R, q):
    """R times the rational q: the same support, other values."""
    return RiemannTensor(R.n, {key: r * q for key, r in R.entries.items()})


def sweep_tensors(n):
    """Two tensors of one support: a spanning-set tensor (bianchi_tensor
    of the bivectors e1 ^ e2 and e1 ^ e3, or e1 ^ e2 twice at n = 2) and
    that tensor scaled."""
    R = bianchi_tensor(n, (1, 2), (1, 3) if n > 2 else (1, 2))
    return R, tensor_times(R, Fraction(5, 3))


# kind -> n -> two tensors whose records have one layout, values apart
LAYOUT_PAIRS = {
    "random": lambda n: (random_riemann(n, 1), random_riemann(n, 2)),
    "planar": lambda n: (planar(n), tensor_times(planar(n), Fraction(3, 7))),
    "constant": lambda n: (constant_curvature(n), tensor_times(constant_curvature(n), Fraction(-2, 3))),
    "flat": lambda n: (flat(n), flat(n)),
    "sweep": sweep_tensors,
}


class TestCompositionPlans:
    """composed_weights reads each block's pairs from a plan memoised by
    the layouts of its two expansions, and a builder's layout is fixed
    by what it was built from: a tensor holding every bivector pair
    takes the dense layout of its dimension, whatever sums cancel, and
    any other its record's support.  So a second input of a layout
    builds no plan and a plan gives every input of its layout the
    weights a cold build gives, the memo never holds more than
    _PLAN_CAP plans, and an add drops the builder's layout."""

    @staticmethod
    def spied(monkeypatch):
        """Count plan builds from an empty memo."""
        counts = {"plans": 0}
        build = wres.residue._plan

        def plan_spy(*args):
            counts["plans"] += 1
            return build(*args)

        monkeypatch.setattr(wres.residue, "_PLANS", {})
        monkeypatch.setattr(wres.residue, "_plan", plan_spy)
        return counts

    @pytest.mark.parametrize("n", [4, 6])
    def test_a_second_analysis_builds_no_plan(self, n, monkeypatch):
        counts = self.spied(monkeypatch)
        for R in (None, planar(n)):
            assert Analysis(Dimension(n), *derive_inputs(n, 1, R)).all_match()
            built = counts["plans"]
            assert built
            # the same inputs drawn again: new tensor, symbols and operators
            assert Analysis(Dimension(n), *derive_inputs(n, 1, R and planar(n))).all_match()
            assert counts["plans"] == built

    @pytest.mark.parametrize("n, seeds", [(4, range(1, 25)), (6, range(1, 12)), (8, range(1, 5))])
    def test_fresh_dense_seeds_build_no_plan(self, n, seeds, monkeypatch):
        # seeded tensors hold every bivector pair, so after the first
        # Analysis of the dense layout no seed builds a plan, those whose
        # rxx or Ricci sums cancel by chance included
        counts = self.spied(monkeypatch)
        assert Analysis(Dimension(n), *derive_inputs(n, 0)).all_match()
        built, cancelled = counts["plans"], 0
        for seed in seeds:
            R, u, v = derive_inputs(n, seed)
            rec = wres.symbols.curvature_ops(R, ProductCache())
            assert rec.layout == "dense"
            cancelled += not all(rec.slots[0].values()) or not all(rec.slots[1].values())
            assert Analysis(Dimension(n), R, u, v).all_match()
        assert cancelled and counts["plans"] == built == len(wres.residue._PLANS) > 0

    @pytest.mark.parametrize("kind", sorted(LAYOUT_PAIRS))
    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_a_plan_serves_every_input_of_its_layout(self, n, kind, monkeypatch):
        # plans built on one input, read by another of its layout, give
        # that input's weights as a cold build does, and as the brute
        # force composer does, zero-weight slots and all
        first, second = LAYOUT_PAIRS[kind](n)
        assert [e.layout for e in symbol_set(n, 1, first)] == [e.layout for e in symbol_set(n, 2, second)]
        counts = self.spied(monkeypatch)
        for spec in block_specs(n, 1, first).values():
            composed_weights(spec, n)
        built = counts["plans"]
        specs = block_specs(n, 2, second)
        warm = {bid: chain_weights(composed_weights(spec, n)) for bid, spec in specs.items()}
        assert counts["plans"] == built > 0
        monkeypatch.setattr(wres.residue, "_PLANS", {})
        cold = {bid: chain_weights(composed_weights(spec, n)) for bid, spec in specs.items()}
        assert counts["plans"] > built
        assert warm == cold == {bid: brute_weights(spec, n) for bid, spec in specs.items()}
        if kind == "constant":
            _, B1, _, _ = symbol_set(n, 2, second)
            assert any(not t.num for o in B1.orders() for t in B1.slots(o)[0])

    def test_the_memo_is_emptied_at_its_cap(self, monkeypatch):
        counts = self.spied(monkeypatch)
        monkeypatch.setattr(wres.residue, "_PLAN_CAP", 5)
        for seed, R in ((1, None), (2, None), (3, planar(4))):
            assert Analysis(Dimension(4), *derive_inputs(4, seed, R)).all_match()
            assert 0 < len(wres.residue._PLANS) <= 5
        assert counts["plans"] > 10

    def test_an_add_drops_the_builders_layout(self):
        n = 4
        PQ, B1, UV, B2 = symbol_set(n, 1)
        assert all(e.layout for e in (PQ, B1, UV, B2))
        assert B1.layout_at(-n) is B1.layout
        B1.add(SymbolTerm(mono(n), mono(n, 1, 1), -n - 2, 1, 0))
        terms = B1.slots(-n)[0]
        assert B1.layout is None and len(B1.layout_at(-n)) == len(terms) > len(B1.terms_at(-n))
        assert B1.layout_at(-n)[-1] == (mono(n), mono(n, 1, 1), -n - 2, "", ())

    def test_a_product_takes_no_layout_from_a_factor_without_one(self, monkeypatch):
        # a first-order factor rebuilt term by term (as test_proof's
        # R-quadratic plant does) has no layout, so neither has PQ: its
        # plans are keyed by its own slots
        n, real = 4, wres.symbols.symbols_PQ

        def rebuilt(dim, R, w, cache):
            exp, out = real(dim, R, w, cache), SymbolExpansion(dim.n)
            for o in exp.orders():
                for t in exp.terms_at(o):
                    out.add(t)
            return out

        assert symbol_set(n, 1)[0].layout
        monkeypatch.setattr(wres.symbols, "symbols_PQ", rebuilt)
        PQ = symbol_set(n, 1)[0]
        assert PQ.layout is None and all(PQ.layout_at(o) for o in PQ.orders())
        assert Analysis(Dimension(n), *derive_inputs(n, 1)).all_match()


class _PoisonOps(tuple):
    def _raise(self, *args):
        raise AssertionError("an odd pair reached chain building")

    __add__ = __radd__ = _raise


class TestPartTable:
    def test_part_id_inventory(self):
        assert len(PART_IDS) == 18
        assert len(ZERO_PART_IDS) == 10
        assert set(ZERO_PART_IDS) < set(PART_IDS)
        assert len(TOTAL_IDS) == 7
        # I-2, I-5 and I-6 are parts and totals at once
        assert len(CHECK_IDS) == 18 + 4 + len(ASSEMBLED_IDS)
        assert set(CHECK_IDS) == set(PART_IDS) | set(TOTAL_IDS) | set(ASSEMBLED_IDS)

    def test_constant_curvature_anchor_values(self):
        # closed forms specialized to Ric = 3 delta, s = 12, u = v = e1
        dim = Dimension(4)
        e1 = basis(4, 1)
        analysis = Analysis(dim, constant_curvature(4), e1, e1)
        assert analysis.all_match()
        quarter = ScalarPoly.monomial(1, 1, Fraction(3, 8) * 16)
        sum_sq = (ScalarPoly.a0() + ScalarPoly.b0()) * (ScalarPoly.a0() + ScalarPoly.b0())
        assert analysis.computed["I-1-A"] == FunctionalDensity(quarter * sum_sq, 0)
        assert analysis.computed["I-4"] == FunctionalDensity(
            ScalarPoly.monomial(2, 2, -64), 0
        )
        assert analysis.computed["II"] == FunctionalDensity(
            ScalarPoly.monomial(1, 1, 16), 0
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_random_seed_full_table(self, seed):
        R, u, v = derive_inputs(4, seed)
        analysis = Analysis(Dimension(4), R, u, v)
        assert analysis.all_match()
        for pid in ZERO_PART_IDS:
            assert not analysis.computed[pid].poly

    def test_all_densities_are_real(self):
        R, u, v = derive_inputs(4, 5)
        analysis = Analysis(Dimension(4), R, u, v)
        for key, val in analysis.computed.items():
            assert val.is_real(), key

    def test_compute_part_single(self):
        R, u, v = derive_inputs(4, 1)
        analysis = Analysis(Dimension(4), R, u, v)
        assert analysis.computed["I-6"] == analysis.expected["I-6"]
        assert "I-6" in CHECK_IDS and "I-6" not in analysis.mismatches()

    def test_compute_part_unknown_id(self):
        R, u, v = derive_inputs(4, 1)
        with pytest.raises(KeyError):
            Analysis(Dimension(4), R, u, v).computed["I-9"]

    def test_checks_follow_the_table(self):
        R, u, v = derive_inputs(4, 3)
        analysis = Analysis(Dimension(4), R, u, v)
        table = analysis.checks()
        assert [cid for cid, _, _ in table] == list(CHECK_IDS)
        for cid, computed, expected in table:
            assert computed is analysis.computed[cid]
            assert expected is analysis.expected[cid]
        assert analysis.mismatches() == []
        assert analysis.all_match()

    def test_each_check_is_compared_once(self, monkeypatch):
        # the exit code and the report read one match table
        R, u, v = derive_inputs(4, 3)
        analysis = Analysis(Dimension(4), R, u, v)
        real, calls = FunctionalDensity.__eq__, []
        monkeypatch.setattr(FunctionalDensity, "__eq__", lambda a, b: calls.append(a) or real(a, b))
        assert analysis.mismatches() == []
        assert all(p["match"] for p in analysis.report_dict(3)["parts"])
        assert analysis.mismatches() == []
        assert len(calls) == len(CHECK_IDS)

    def test_a_wrong_total_is_a_mismatch(self):
        # totals are not in the JSON report, but they still gate
        R, u, v = derive_inputs(4, 3)
        analysis = Analysis(Dimension(4), R, u, v)
        analysis.expected["I-3"] = -analysis.expected["I-3"]
        assert analysis.mismatches() == ["I-3"]
        assert not analysis.all_match()

    def test_non_real_density_is_a_failing_check(self, monkeypatch):
        real = wres.residue.trace_sums
        i_unit = ScalarPoly.const(GaussianRational(0, 1))
        monkeypatch.setattr(
            wres.residue,
            "trace_sums",
            lambda sums, n: {key: poly + i_unit for key, poly in real(sums, n).items()},
        )
        R, u, v = derive_inputs(2, 0)
        analysis = Analysis(Dimension(2), R, u, v)
        assert not analysis.all_match()
        assert "real:I-1-A" in analysis.mismatches()
        assert "real:einstein" in analysis.mismatches()

    def test_report_dict_schema(self):
        R, u, v = derive_inputs(4, 2)
        rep = Analysis(Dimension(4), R, u, v).report_dict(2)
        assert rep["dim"] == 4 and rep["seed"] == 2
        assert [p["id"] for p in rep["parts"]] == list(PART_IDS)
        for p in rep["parts"]:
            assert set(p) == {"id", "computed", "expected", "match"}
            assert p["match"] is True
        for key in ("zabdt_match", "zpdt_match", "metric_match", "einstein_match"):
            assert rep[key] is True


class TestPlanarProbes:
    # each density is a s g(u, v) + b Ric(u, v) with a, b depending
    # only on m; planar curvature has s = 2, and Ric(e_1, e_1) = 1,
    # Ric(e_3, e_3) = 0, so the two probes pin both coefficients of
    # every closed form at m = n / 2
    @pytest.mark.parametrize("n", range(4, 26, 2))
    def test_closed_forms_hold_to_m_12(self, n):
        R = planar(n)
        for j in (1, 3):
            e = basis(n, j)
            assert Analysis(Dimension(n), R, e, e).all_match(), (n, j)


class TestMetricFunctional:
    def test_raw_form_and_normalization(self):
        dim = Dimension(4)
        R = random_riemann(4, 3)
        u = FrameVector(4, (1, 0, Fraction(1, 2), 0))
        v = FrameVector(4, (2, 1, 0, 0))
        d = density_of("metric", dim, R, u, v)
        g = inner(u, v)
        assert d.poly == ScalarPoly.monomial(1, 1, -16 * g)
        assert d.prefactor_exp == -2
        norm = d.normalized()
        assert norm.poly == ScalarPoly.const(-16 * g)
        assert norm.prefactor_exp == -1

    def test_orthogonal_arguments_vanish(self):
        dim = Dimension(4)
        R = random_riemann(4, 4)
        d = density_of("metric", dim, R, basis(4, 1), basis(4, 2))
        assert not d.poly

    def test_bilinearity_in_first_slot(self):
        dim = Dimension(4)
        R = random_riemann(4, 5)
        u1 = basis(4, 1)
        u2 = basis(4, 3)
        v = random_vector(4, 31)
        u12 = FrameVector(4, tuple(a + b for a, b in zip(u1.components, u2.components)))
        assert density_of("metric", dim, R, u12, v) == density_of(
            "metric", dim, R, u1, v
        ) + density_of("metric", dim, R, u2, v)


class TestEinsteinFunctional:
    def test_flat_curvature_gives_zero(self):
        dim = Dimension(4)
        d = density_of("einstein", dim, flat(4), random_vector(4, 1), random_vector(4, 2))
        assert not d.poly

    def test_constant_curvature_closed_value(self):
        dim = Dimension(4)
        e1 = basis(4, 1)
        d = density_of("einstein", dim, constant_curvature(4), e1, e1).normalized()
        assert d.poly == ScalarPoly.const(8)
        assert d.prefactor_exp == 0

    def test_symmetric_in_u_v(self):
        dim = Dimension(4)
        R = random_riemann(4, 6)
        u = random_vector(4, 41)
        v = random_vector(4, 42)
        assert density_of("einstein", dim, R, u, v) == density_of("einstein", dim, R, v, u)

    def test_matches_einstein_bilinear_shape(self):
        # density = 2^{2m} (s g / 12 - Ric / 6) * (a0 b0)^{-m+2}
        dim = Dimension(4)
        R = random_riemann(4, 7)
        u = random_vector(4, 51)
        v = random_vector(4, 52)
        contr = contract(R)
        val = Fraction(contr.scalar, 12 * contr.den) * inner(u, v) - Fraction(
            1, 6
        ) * ricci_bilinear(contr, u, v)
        want = FunctionalDensity(ScalarPoly.const(16 * val), 0)
        assert density_of("einstein", dim, R, u, v) == want


def cayley_rotation(n, seed):
    """Rational orthogonal Q = (I - A)(I + A)^-1 from a random rational skew A."""
    rng = random.Random(seed)
    A = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            A[i][j] = Fraction(rng.randint(-2, 2), rng.randint(1, 2))
            A[j][i] = -A[i][j]
    eye = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    minus = [[eye[i][j] - A[i][j] for j in range(n)] for i in range(n)]
    # Gauss-Jordan on [I + A | I]; I + A is invertible for skew A
    aug = [[eye[i][j] + A[i][j] for j in range(n)] + eye[i][:] for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        lead = aug[col][col]
        aug[col] = [x / lead for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    inv = [row[n:] for row in aug]
    return [[sum(minus[i][k] * inv[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def rotate(Q, R, u, v):
    """(R, u, v) seen in the frame e'_a = sum_i Q_ai e_i."""
    n = R.n
    t = {
        (i, j, k, l): entry(R, i + 1, j + 1, k + 1, l + 1)
        for i in range(n)
        for j in range(n)
        for k in range(n)
        for l in range(n)
    }
    # contract one slot at a time: R'_abcd = Q_ai Q_bj Q_ck Q_dl R_ijkl
    for slot in range(4):
        t = {
            idx: sum(
                Q[idx[slot]][i] * t[idx[:slot] + (i,) + idx[slot + 1 :]] for i in range(n)
            )
            for idx in t
        }
    entries = {tuple(a + 1 for a in idx): x for idx, x in t.items()}

    def vec(w):
        return FrameVector(n, tuple(sum(Q[a][i] * w[i + 1] for i in range(n)) for a in range(n)))

    return RiemannTensor(n, entries, validate=True), vec(u), vec(v)


class TestFrameInvariance:
    # every density is a scalar of (R, u, v): a rotated frame must give
    # the same values, with no closed form involved
    @pytest.mark.parametrize("n,seed", [(4, 0), (4, 1), (4, 2), (6, 0)])
    def test_densities_do_not_see_the_frame(self, n, seed):
        Q = cayley_rotation(n, 50 + seed)
        eye = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        assert [[sum(Q[i][k] * Q[j][k] for k in range(n)) for j in range(n)] for i in range(n)] == eye
        assert Q != eye
        R, u, v = derive_inputs(n, seed)
        base = Analysis(Dimension(n), R, u, v).computed
        turned = Analysis(Dimension(n), *rotate(Q, R, u, v)).computed
        assert turned.keys() == base.keys()
        for key in base:
            assert turned[key] == base[key], key


def scaled(d, q):
    return FunctionalDensity(d.poly.scale(q), d.prefactor_exp)


def densities(R, u, v):
    return Analysis(Dimension(R.n), R, u, v).computed


def tensor_sum(R1, R2, q=1):
    keys = set(R1.entries) | set(R2.entries)
    return RiemannTensor(R1.n, {k: entry(R1, *k) + q * entry(R2, *k) for k in keys}, validate=False)


def vector_sum(u1, u2, q=1):
    return FrameVector(u1.n, tuple(a + q * b for a, b in zip(u1.components, u2.components)))


seeds = st.integers(0, 10**6)
ratios = st.fractions(min_value=-3, max_value=3, max_denominator=5)
vectors4 = st.tuples(*[ratios] * 4).map(lambda c: FrameVector(4, c))
# each example runs three or four whole Analysis; shrinking a failure
# would take minutes, so it is reported as first found
metamorphic = settings(
    max_examples=5, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate)
)


class TestMetamorphic:
    # every density is affine in R (metric is the one R-independent term)
    # and bilinear in (u, v); checked exactly, with no closed form
    @metamorphic
    @given(seeds, seeds)
    def test_affine_additivity_in_R(self, s1, s2):
        R1, u, v = derive_inputs(4, s1)
        R2 = random_riemann(4, s2)
        zero = densities(flat(4), u, v)
        one, two = densities(R1, u, v), densities(R2, u, v)
        both = densities(tensor_sum(R1, R2), u, v)
        for cid in CHECK_IDS:
            assert both[cid] + zero[cid] == one[cid] + two[cid], cid

    @metamorphic
    @given(seeds, ratios)
    def test_homogeneity_in_R(self, seed, q):
        R, u, v = derive_inputs(4, seed)
        zero = densities(flat(4), u, v)
        base = densities(R, u, v)
        big = densities(tensor_sum(flat(4), R, q), u, v)
        for cid in CHECK_IDS:
            assert big[cid] - zero[cid] == scaled(base[cid] - zero[cid], q), cid

    @metamorphic
    @given(seeds, vectors4)
    def test_additivity_in_u(self, seed, u2):
        R, u1, v = derive_inputs(4, seed)
        one, two = densities(R, u1, v), densities(R, u2, v)
        both = densities(R, vector_sum(u1, u2), v)
        for cid in CHECK_IDS:
            assert both[cid] == one[cid] + two[cid], cid

    @metamorphic
    @given(seeds, ratios)
    def test_homogeneity_in_v(self, seed, q):
        R, u, v = derive_inputs(4, seed)
        base = densities(R, u, v)
        big = densities(R, u, vector_sum(FrameVector(4, (0,) * 4), v, q))
        for cid in CHECK_IDS:
            assert big[cid] == scaled(base[cid], q), cid


def reports(*args, **kwargs):
    return [a.report_dict(seed) for seed, a in verify_all(*args, **kwargs)]


class TestExpectedSide:
    """Analysis.expected, each row one integer combination, against
    oracles.expected_densities, each row in Fraction arithmetic, in their
    stored form: a density's canonical denominator and numerators and its
    (a0 b0) exponent, so the reports render them alike."""

    @staticmethod
    def assert_expected(analysis):
        def stored(densities):
            return {cid: (d.poly.den, d.poly.nums, d.prefactor_exp) for cid, d in densities.items()}

        want = expected_densities(analysis.dim, analysis.R, analysis.u, analysis.v)
        assert stored(analysis.expected) == stored(want)

    def test_golden_inputs(self, monkeypatch):
        # every input a golden's CLI run hands to Analysis, with the
        # composition skipped: each run then reports its closed forms
        seen = []

        class ExpectedOnly(Analysis):
            def _run(self):
                self._fill_expected()
                self.computed = dict(self.expected)
                seen.append(self)

        monkeypatch.setattr(wres.residue, "Analysis", ExpectedOnly)
        for _, args in CASES:
            result = CliRunner().invoke(main, args, env={"WRES_SEED_BASE": "0"})
            assert result.exit_code == 0, result.output
        assert len(seen) > len(CASES)
        for analysis in seen:
            self.assert_expected(analysis)

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_random_inputs(self, n):
        for seed in (1, 2, 3):
            self.assert_expected(Analysis(Dimension(n), *derive_inputs(n, seed)))

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_wide_zero_and_flat_inputs(self, n):
        rng = random.Random(8300 + n)

        def wide_vector():
            comps = [Fraction(rng.randint(-2**60, 2**60), rng.randint(1, 10**12)) for _ in range(n)]
            return FrameVector(n, comps)

        R, u, v = derive_inputs(n, 4)
        wide = RiemannTensor(n, projected_riemann(n, 19, wide_draw))
        zero_u = FrameVector(n, (0,) * n)
        for inputs in ((wide, wide_vector(), wide_vector()), (R, zero_u, v), (flat(n), u, v)):
            self.assert_expected(Analysis(Dimension(n), *inputs))


class TestAnalysisInputs:
    @pytest.mark.parametrize("name", ["R", "u", "v"])
    def test_an_input_of_another_dimension_is_named(self, name):
        # one dim-6 input among dim-4 ones fails up front, naming it,
        # not deep in the symbol build
        inputs = dict(zip("Ruv", derive_inputs(4, 1)))
        inputs[name] = dict(zip("Ruv", derive_inputs(6, 1)))[name]
        with pytest.raises(ValueError, match=f"^{name} has dimension 6, but the analysis has dimension 4$"):
            Analysis(Dimension(4), inputs["R"], inputs["u"], inputs["v"])


class TestVerifyAll:
    def test_reports_match_and_are_deterministic(self):
        dim = Dimension(4)
        first = reports(dim, range(2))
        second = reports(dim, range(2))
        assert first == second
        assert [r["seed"] for r in first] == [0, 1]
        for rep in first:
            assert all(p["match"] for p in rep["parts"])
        assert all(a.all_match() for _, a in verify_all(dim, range(2)))

    def test_constant_curvature_source(self):
        assert reports(Dimension(4), [0], constant_curvature(4))[0]["zabdt_match"]

    def test_explicit_tensor_and_pinned_vectors(self):
        R = constant_curvature(4)
        e1 = basis(4, 1)
        first = reports(Dimension(4), [3], R, u=e1, v=e1)
        assert first[0]["einstein_match"]
        # pinned vectors make the report independent of the seed
        again = reports(Dimension(4), [9], R, u=e1, v=e1)
        assert first[0]["parts"] == again[0]["parts"]

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str limit")
    def test_report_renders_past_the_int_str_limit(self):
        """Entries over denominators up to 10^12 give dim-6 density
        coefficients of more than 4300 digits, Python's default
        int-to-str limit: report_dict writes them at that limit, leaves
        the limit as it was, and reads as it does with no limit."""
        draw = lambda rng: Fraction(rng.randint(-2**20, 2**20), rng.randint(1, 10**12))
        ((_, analysis),) = verify_all(Dimension(6), [1], RiemannTensor(6, projected_riemann(6, 19, draw)))
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)  # the default, as a fresh process has it
        try:
            report = analysis.report_dict(1)
            assert sys.get_int_max_str_digits() == 4300
            sys.set_int_max_str_digits(0)
            assert analysis.report_dict(1) == report
        finally:
            sys.set_int_max_str_digits(limit)
        assert analysis.all_match()
        assert max(len(part["computed"]) for part in report["parts"]) > 4300

    def test_two_dimensional_case_collapses(self):
        # in dimension 2 every Einstein-shaped combination vanishes
        for rep in reports(Dimension(2), range(2)):
            assert all(p["match"] for p in rep["parts"])
            assert rep["einstein_match"]
