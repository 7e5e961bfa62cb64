"""Matrix realizations of the three Clifford actions and their relations."""

import itertools
import random
from fractions import Fraction

import pytest

import oracles
import wres.residue
from wres import clifford, curvature
from wres.clifford import (
    CliffordOp, Dimension, FrameVector, ProductCache, _blade_sign, _sign_mask, inner, tildec_pair, tildec_row,
)
from wres.curvature import random_riemann
from wres.residue import Analysis, derive_inputs
from wres.scalars import GaussianRational, ScalarPoly
from wres.symbols import curvature_ops

from oracles import (
    anticommutator,
    basis,
    c_op,
    ext_op,
    hatc_op,
    identity,
    int_op,
    tildec_op,
    trace,
    trace_each,
    trace_one,
    vector_clifford,
    zero,
)


def scaled_identity(n, poly):
    return identity(n).scale(poly)


def op_of(n, blades):
    """The operator sum of poly * blade(mask) over {mask: ScalarPoly}."""
    out = zero(n)
    for mask, poly in blades.items():
        out = out + CliffordOp.from_numerators(n, 1, {mask: 1}).scale(poly)
    return out


def rational_vector(n, seq):
    return FrameVector(n, tuple(Fraction(s) for s in seq))


class TestBasics:
    def test_dimension_rejects_odd_and_small(self):
        with pytest.raises(ValueError):
            Dimension(3)
        with pytest.raises(ValueError):
            Dimension(0)
        assert Dimension(6).m == 3

    def test_frame_vector_validation(self):
        with pytest.raises(ValueError):
            FrameVector(4, (1, 0, 0))
        e2 = basis(4, 2)
        assert e2[2] == 1 and e2[1] == 0
        assert any(e2.components)
        assert not any(FrameVector(2, (0, 0)).components)

    def test_frame_vector_rejects_floats(self):
        with pytest.raises(TypeError):
            FrameVector(2, (0.1, 1))
        assert FrameVector(2, ("1/10", 1))[1] == Fraction(1, 10)

    def test_scale_rejects_floats(self):
        with pytest.raises(TypeError):
            c_op(4, 1).scale(0.1)
        assert c_op(4, 1).scale("1/10") == c_op(4, 1).scale(Fraction(1, 10))

    def test_scale_accepts_gaussian_rationals(self):
        g = GaussianRational(Fraction(1, 2), -3)
        x = tildec_op(4, 2)
        assert x.scale(g) == x.scale(ScalarPoly.const(g))
        assert x.scale(GaussianRational(0)).is_zero()

    def test_inner_product(self):
        u = rational_vector(4, ("1/2", 0, 3, 0))
        v = rational_vector(4, (2, 1, "1/3", 0))
        assert inner(u, v) == Fraction(2)

    def test_generator_index_range_enforced(self):
        with pytest.raises(ValueError):
            ext_op(4, 5)
        with pytest.raises(ValueError):
            int_op(4, 0)


class TestExteriorInterior:
    def test_ext_signs_n2(self):
        # basis masks: 0 = 1, 1 = e1*, 2 = e2*, 3 = e1*^e2*
        e1 = ext_op(2, 1).rows
        assert e1[1][0] == ScalarPoly.one()
        assert e1[3][2] == ScalarPoly.one()
        e2 = ext_op(2, 2).rows
        assert e2[2][0] == ScalarPoly.one()
        # inserting e2* past e1* crosses one factor
        assert e2[3][1] == ScalarPoly.const(-1)

    def test_int_is_adjoint_of_ext(self):
        for n in (2, 4):
            for j in range(1, n + 1):
                e, i = ext_op(n, j).rows, int_op(n, j).rows
                for r in range(1 << n):
                    for cdx, val in e[r].items():
                        assert i[cdx].get(r, ScalarPoly.zero()) == val

    def test_ext_squares_to_zero_int_squares_to_zero(self):
        for n in (2, 4):
            for j in range(1, n + 1):
                assert (ext_op(n, j) * ext_op(n, j)).is_zero()
                assert (int_op(n, j) * int_op(n, j)).is_zero()

    def test_ext_int_anticommutator_is_kronecker(self):
        for n in (2, 4):
            for j in range(1, n + 1):
                for k in range(1, n + 1):
                    got = anticommutator(ext_op(n, j), int_op(n, k))
                    want = (
                        identity(n) if j == k else zero(n)
                    )
                    assert got == want


class TestGeneratorRelations:
    """The three displayed generator relations, for every index pair."""

    @pytest.mark.parametrize("n", [2, 4])
    def test_hatc_pairs(self, n):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                got = anticommutator(hatc_op(n, i), hatc_op(n, j))
                want = scaled_identity(n, ScalarPoly.const(2 * int(i == j)))
                assert got == want

    @pytest.mark.parametrize("n", [2, 4])
    def test_c_pairs(self, n):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                got = anticommutator(c_op(n, i), c_op(n, j))
                want = scaled_identity(n, ScalarPoly.const(-2 * int(i == j)))
                assert got == want

    @pytest.mark.parametrize("n", [2, 4])
    def test_c_hatc_mixed_pairs_vanish(self, n):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                assert anticommutator(c_op(n, i), hatc_op(n, j)).is_zero()


class TestDeformedRelations:
    """Anticommutators of the two-parameter action, generator and vector form."""

    sum_poly = ScalarPoly.a0() + ScalarPoly.b0()
    diff_poly = ScalarPoly.a0() - ScalarPoly.b0()
    ab2 = ScalarPoly.monomial(1, 1, 2)

    @pytest.mark.parametrize("n", [2, 4])
    def test_tildec_generator_pairs(self, n):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                d = int(i == j)
                assert anticommutator(
                    tildec_op(n, i), c_op(n, j)
                ) == scaled_identity(n, -self.sum_poly.scale(d))
                assert anticommutator(
                    tildec_op(n, i), tildec_op(n, j)
                ) == scaled_identity(n, -self.ab2.scale(d))
                assert anticommutator(
                    tildec_op(n, i), hatc_op(n, j)
                ) == scaled_identity(n, self.diff_poly.scale(d))

    def test_tildec_vector_pairs(self):
        n = 4
        x = rational_vector(n, ("1/2", -1, 0, "2/3"))
        y = rational_vector(n, (3, "1/5", -2, 1))
        g = inner(x, y)
        tx = vector_clifford("tildec", x)
        cy = vector_clifford("c", y)
        hy = vector_clifford("hatc", y)
        ty = vector_clifford("tildec", y)
        assert anticommutator(tx, cy) == scaled_identity(n, -self.sum_poly.scale(g))
        assert anticommutator(tx, ty) == scaled_identity(n, -self.ab2.scale(g))
        assert anticommutator(tx, hy) == scaled_identity(n, self.diff_poly.scale(g))

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
    def test_tildec_matches_the_generator_fold(self, n):
        # the engine's one-pass pair against the product of two folds of
        # n scaled generators: every vector against the basis vectors (the
        # pairs of tildec_row), itself, its negative and three
        # random partners; zero components and the zero vector included
        rng = random.Random(7000 + n)
        vectors = [basis(n, j) for j in range(1, n + 1)]
        vectors += [
            rational_vector(n, [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)])
            for _ in range(20)
        ]
        vectors.append(rational_vector(n, [0] * n))
        fold = {}
        for w in vectors:
            partners = vectors[:n] + [w, rational_vector(n, [-c for c in w.components])]
            partners += rng.sample(vectors, 3)
            for x in partners:
                for v in (w, x):
                    if v not in fold:
                        fold[v] = vector_clifford("tildec", v)
                got, want = tildec_pair(w, x), fold[w] * fold[x]
                assert (got.den, got.blades) == (want.den, want.blades)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_tildec_row_is_the_pairs_with_the_frame(self, n):
        # principal_symbol's row against tildec_pair(w, e_f): random
        # vectors with zero components, the zero vector, a frame vector
        # and numerators up to 2^90 over denominators up to 10^12
        rng = random.Random(7200 + n)
        vectors = [
            rational_vector(n, [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)])
            for _ in range(6)
        ]
        vectors += [rational_vector(n, [0] * n), basis(n, n)]
        wide = [Fraction(rng.randint(-2**90, 2**90), rng.randint(1, 10**12)) for _ in range(n)]
        vectors.append(rational_vector(n, wide))
        for w in vectors:
            row = tildec_row(w)
            assert len(row) == n
            for f, op in enumerate(row, 1):
                assert op == tildec_pair(w, basis(n, f))

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_tildec_pair_anticommutator_is_the_metric(self, n):
        # ctilde(x) ctilde(y) + ctilde(y) ctilde(x) = -2 a0 b0 g(x, y)
        rng = random.Random(7100 + n)
        vectors = [basis(n, 1), rational_vector(n, [0] * n)]
        vectors += [
            rational_vector(n, [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)])
            for _ in range(6)
        ]
        for x in vectors:
            for y in vectors:
                want = scaled_identity(n, -self.ab2.scale(inner(x, y)))
                assert tildec_pair(x, y) + tildec_pair(y, x) == want

    def test_tildec_pair_rejects_mixed_dimensions(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            tildec_pair(basis(4, 1), basis(2, 1))

    def test_tildec_specializes_to_c_at_unit_parameters(self):
        n = 4

        def at_unit(op):
            return [
                [row.get(j, ScalarPoly.zero()).evaluate(1, 1) for j in range(1 << n)]
                for row in op.rows
            ]

        for j in range(1, n + 1):
            assert at_unit(tildec_op(n, j)) == at_unit(c_op(n, j))


class TestTraces:
    def test_identity_trace(self):
        for n in (2, 4, 6):
            assert trace(identity(n)) == ScalarPoly.const(1 << n)

    def test_single_generators_are_traceless(self):
        for n in (2, 4):
            for j in range(1, n + 1):
                for gen in (c_op, hatc_op, tildec_op):
                    assert trace(gen(n, j)) == ScalarPoly.zero()

    def test_distinct_index_products_are_traceless(self):
        n = 4
        for gens in (
            (c_op(n, 1), c_op(n, 2)),
            (hatc_op(n, 1), hatc_op(n, 3)),
            (tildec_op(n, 2), tildec_op(n, 4)),
            (hatc_op(n, 1), hatc_op(n, 2), c_op(n, 3), c_op(n, 4)),
            (tildec_op(n, 1), c_op(n, 2), hatc_op(n, 3)),
        ):
            acc = gens[0]
            for g in gens[1:]:
                acc = acc * g
            assert trace(acc) == ScalarPoly.zero()

    def test_pair_trace_value(self):
        # tr[ctilde(u) ctilde(v)] = -a0 b0 g(u,v) tr[id]
        n = 4
        u = rational_vector(n, (1, 0, "1/2", 0))
        v = rational_vector(n, (0, 2, 4, "1/3"))
        tu = vector_clifford("tildec", u)
        tv = vector_clifford("tildec", v)
        want = ScalarPoly.monomial(1, 1, -inner(u, v) * (1 << n))
        assert trace(tu * tv) == want
        e1 = basis(n, 1)
        t1 = vector_clifford("tildec", e1)
        assert trace(t1 * t1) == ScalarPoly.monomial(1, 1, -16)

    def test_trace_cyclicity(self):
        n = 4
        a = vector_clifford("tildec", rational_vector(n, (1, 2, 0, "1/2")))
        b = vector_clifford("hatc", rational_vector(n, (0, 1, -1, 3)))
        assert trace(a * b) == trace(b * a)

    def test_trace_product_matches_materialized_trace(self):
        n = 4
        a = vector_clifford("tildec", rational_vector(n, (1, -1, 2, 0)))
        b = vector_clifford("c", rational_vector(n, ("1/3", 0, 1, 5)))
        assert trace_one((a, b), n) == trace(a * b)


class TestMatrixAlgebra:
    def test_add_sub_scale_consistency(self):
        n = 2
        a = c_op(n, 1)
        b = hatc_op(n, 2)
        assert a + b - b == a
        assert (a + a) == a.scale(2)
        assert a.scale(ScalarPoly.a0()).scale(0).is_zero()

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            c_op(2, 1) * c_op(4, 1)
        with pytest.raises(ValueError):
            c_op(2, 1) + c_op(4, 1)
        with pytest.raises(ValueError):
            trace_one((c_op(2, 1), c_op(4, 1)), 2)


class TestTraceChains:
    def test_empty_short_and_padded_chains(self):
        n = 4
        a, b = tildec_op(n, 1), tildec_op(n, 1)
        got = trace_each({"": (), "ab": (a, b), "ab1": (a, b, identity(n))}, n)
        assert got[""] == ScalarPoly.const(16)
        assert got["ab"] == got["ab1"] == ScalarPoly.monomial(1, 1, -16)
        assert trace_each({}, n) == {}

    def test_a_bad_chain_is_refused_before_any_pack(self, monkeypatch):
        # a longer chain, an operator of another dimension or one with an
        # imaginary numerator, first or last in the batch, raises before
        # any operator is packed
        packs = []

        def spy(blades, width):
            packs.append(width)
            return kron_parts(blades, width)

        kron_parts = clifford._kron_parts
        monkeypatch.setattr(clifford, "_kron_parts", spy)
        n = 4
        a, b = tildec_op(n, 1), tildec_op(n, 2)
        wide = CliffordOp.from_numerators(n, 1, {0: 1 << 400, 3: -(1 << 400)})
        # b with i a0^2 added on its c_2 blade: an imaginary last term
        gaussian = b + c_op(n, 2).scale(ScalarPoly.monomial(2, 0, GaussianRational(0, 1)))
        assert gaussian.blades[2][-1][1:] == (0, 2)
        good = {"aba": (a, b, a), "b": (b,)}
        refused = (
            ((wide, a, b, wide), "at most three factors"),
            ((a, c_op(2, 1)), "dimension mismatch"),
            ((wide, gaussian), "must be real"),
        )
        for bad, match in refused:
            for batch in ({"bad": bad, **good}, {**good, "bad": bad}):
                with pytest.raises(ValueError, match=match):
                    trace_each(batch, n)
        assert packs == []
        # a good batch packs the operators of its chains whose shapes meet
        # in a blade triple, a in (a, a), once; b sits only in chains that
        # meet in none, (a, b, a) and (b,), which trace to zero unpacked
        got = trace_each({**good, "aa": (a, a)}, n)
        assert got["aa"] and not got["aba"] and not got["b"] and len(packs) == 1


def rational_op(n, rng, masks):
    """Real operator with a seeded rational polynomial on each mask, its
    coefficients never zero."""
    blades = {}
    for mask in masks:
        terms = {
            (rng.randint(0, 1), rng.randint(0, 1)): Fraction(
                rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 3)
            )
            for _ in range(rng.randint(1, 2))
        }
        blades[mask] = ScalarPoly(terms)
    return op_of(n, blades)


def both_signs(traces):
    """Whether the traces hold both positive and negative coefficients,
    so the balanced digits read back on both sides of zero."""
    return {re > 0 for t in traces for _, re, _ in t.nums} == {False, True}


class TestPrefixMemo:
    """Three-factor chains that share their first two factors, in both
    orders and against last factors of the same, disjoint and
    overlapping blade supports, each trace to the materialised product,
    whichever last factor comes first.  Every factor is drawn from one
    XOR-closed span, so each product's blade is in it and no last factor
    traces to zero against every prefix."""

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_shared_prefix_traces_match_products(self, n):
        rng = random.Random(5000 + n)
        span = xor_span(n, rng, 16)
        a, b, b2 = (rational_op(n, rng, rng.sample(span, 8)) for _ in range(3))
        lasts = [
            rational_op(n, rng, span[:8]),
            rational_op(n, rng, span[:8]),  # the same support again: nothing to fill
            rational_op(n, rng, span[8:]),  # disjoint from the first
            rational_op(n, rng, span[4:12] + [0]),  # overlapping
            rational_op(n, rng, span),
            identity(n),
        ]
        assert len(lasts[4].blades) == len(span) == 16
        # (a, b) and (a, b2) share a first factor, (b, a) is the prefix reversed
        prefixes = ((a, b), (a, b2), (b, a))
        for order in (lasts, lasts[::-1]):
            chains = {(i, j): (x, y, c) for i, c in enumerate(order) for j, (x, y) in enumerate(prefixes)}
            traces = list(trace_each(chains, n).values())
            for got, (x, y, c) in zip(traces, chains.values(), strict=True):
                assert got == trace(x * y * c) == trace_one((x, y, c), n)
            assert all(any(t for t in traces[i : i + 3]) for i in range(0, len(traces), 3))
            assert both_signs(traces)


def chain_oracle(ops, n):
    """tr of the materialised product of the chain, identity if empty."""
    out = identity(n)
    for op in ops:
        out = out * op
    return trace(out)


def meets_in_a_triple(ops):
    """Whether some blade triple of the chain's shapes (each operator's
    builder shape, or its own blades), padded in front by the unit's
    (0,), has masks that XOR to zero: else its trace is zero whatever
    its values."""
    sa, sb, sc = [(0,)] * (3 - len(ops)) + [op.shape or sorted(op.blades) for op in ops]
    return any(ma ^ mb in set(sc) for ma in sa for mb in sb)


def xor_span(n, rng, size):
    """At least `size` blade masks closed under XOR, spanned by random
    masks, so chains drawn from them have nonzero scalar parts."""
    span = {0}
    while len(span) < size:
        g = rng.randrange(1, 1 << (2 * n))
        span |= {m ^ g for m in span}
    return sorted(span)


def mixed_op(n, rng, masks, bits):
    """Real operator whose blades each carry a0*b0, b0^2 and a constant:
    numerators of about `bits` bits with mixed signs, over small
    denominators."""

    def coeff():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1 << bits, 1 << (bits + 1)), rng.randint(1, 7))

    return op_of(n, {m: ScalarPoly({(1, 1): coeff(), (0, 2): coeff(), (0, 0): coeff()}) for m in masks})


class TestPackedTraces:
    """trace_sums multiplies Kronecker-packed integers: every trace of a
    chain of 0 to 3 factors equals the scalar part of the materialised
    product, a weighted sum of traces reads back exactly at the one
    width its widest sum needs, and a batch packs each of its operators
    once, at that width."""

    @staticmethod
    def chains(ops):
        a, b, c, d = ops
        return [(), (a,), (c,), (a, b), (b, c), (a, b, c), (a, b, d), (b, a, d), (c, d, a)]

    @classmethod
    def mixed_chains(cls, n):
        rng = random.Random(1900 + n)
        span = xor_span(n, rng, 8)
        narrow = [mixed_op(n, rng, rng.sample(span, 5), 2) for _ in range(4)]
        wide = [mixed_op(n, rng, rng.sample(span, 5), 300 + 30 * i) for i in range(4)]
        # narrow chains, wide chains and chains that mix narrow and wide factors
        return cls.chains(narrow) + cls.chains(wide) + [
            (narrow[0], narrow[1], wide[2]), (narrow[1], narrow[0], wide[3]),
            (wide[0], narrow[1], wide[1]), (narrow[2], wide[3], narrow[3]),
        ]

    @staticmethod
    def spied(monkeypatch):
        """Spy on every pack, every norm and every trace_sums batch; return
        a function that runs a callable and checks that it made one
        batch, which normed every distinct non-constant operator of its
        uncancelled chains exactly once, packed exactly those of them
        that sit in a chain whose shapes meet in a blade triple
        (meets_in_a_triple), once each and all at one width, and no
        constant one (CliffordOp.constant), and holds at least
        min_constant constant operators."""
        packs, norms, batches = [], [], []

        def spy(blades, width):
            packs.append((blades, width))  # holds blades, so its id stays unique
            return kron_parts(blades, width)

        def norm_spy(blades):
            norms.append(blades)
            return kron_norm(blades)

        def batch_spy(sums, n):
            batches.append(sums)
            return real_trace(sums, n)

        def packings(run, min_constant=0):
            for seen in (packs, norms, batches):
                seen.clear()
            got = run()
            (batch,) = batches
            live = [ops for _, chains in batch.values() for ops, w in chains.values() if w]
            distinct = {id(op.blades): op for ops in live for op in ops}
            varying = {k for k, op in distinct.items() if not op.constant}
            traced = {id(op.blades) for ops in live if meets_in_a_triple(ops) for op in ops} & varying
            packed = [id(blades) for blades, _ in packs]
            assert len(packed) == len(traced) and set(packed) == traced
            assert sorted(map(id, norms)) == sorted(varying)
            assert len({width for _, width in packs}) == 1
            assert len(distinct) - len(varying) >= min_constant
            return got

        kron_parts, kron_norm, real_trace = clifford._kron_parts, clifford._kron_norm, clifford.trace_sums
        monkeypatch.setattr(clifford, "_kron_parts", spy)
        monkeypatch.setattr(clifford, "_kron_norm", norm_spy)
        for module in (clifford, oracles, wres.residue):
            monkeypatch.setattr(module, "trace_sums", batch_spy)
        return packings

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_wide_numerators_widen_one_cache(self, n, monkeypatch):
        # narrow chains, 300-bit chains and chains mixing both in one
        # batch: its one width covers the widest, and each trace is the
        # materialised product's
        packings = self.spied(monkeypatch)
        chains = self.mixed_chains(n)
        traces = packings(lambda: trace_each(dict(enumerate(chains)), n))
        for i, ops in enumerate(chains):
            assert traces[i] == chain_oracle(ops, n)
        assert sum(map(bool, traces.values())) > len(traces) // 2
        widest = max(max(abs(re), abs(im)).bit_length() for t in traces.values() for _, re, im in t.nums)
        assert widest > 3 * 300

    def test_each_view_is_packed_once_per_width(self, monkeypatch):
        # an Analysis traces in one batch, so each non-constant operator
        # (the ctilde pairs) is normed and packed exactly once, at the
        # batch's one width, and no identity pads a shorter chain; the
        # record's cc, hh and f are constants, read without a pack or a
        # norm walk
        packings = self.spied(monkeypatch)
        for n in (4, 6):
            assert packings(lambda: Analysis(Dimension(n), *derive_inputs(n, 1)), min_constant=3).all_match()
        for n in (2, 4, 6):
            chains = self.mixed_chains(n)
            assert len(packings(lambda: trace_each(dict(enumerate(chains)), n))) == len(chains)

    def test_signs_are_looked_up_for_first_and_middle_factors(self, monkeypatch):
        # every plan that dense and sparse Analyses at n = 2, 4, 6 and the
        # mixed chains at n = 8 build lists exactly the blade triples of
        # its shapes whose masks XOR to zero, each signed sq(ma) s(mb, mc)
        # by the swap-by-swap count, and its builder looks up only those
        # signs: the first factor's squares and the middle factor's
        # products with the last
        plans, lookups, calls = {}, {}, []
        build, blade_sign = clifford._plan, clifford._blade_sign

        def sign_spy(n, a, b):
            calls.append((a, b))
            return blade_sign(n, a, b)

        def plan_spy(n, sa, sb, sc):
            calls.clear()
            plan = plans[n, sa, sb, sc] = build(n, sa, sb, sc)
            lookups[n, sa, sb, sc] = set(calls)
            return plan

        monkeypatch.setattr(clifford, "_PLANS", {})
        monkeypatch.setattr(clifford, "_plan", plan_spy)
        monkeypatch.setattr(clifford, "_blade_sign", sign_spy)
        for n in (2, 4, 6):
            assert Analysis(Dimension(n), *derive_inputs(n, 1)).all_match()
            assert Analysis(Dimension(n), oracles.planar(n), basis(n, 1), basis(n, 2)).all_match()
        chains = self.mixed_chains(8)
        assert trace_each(dict(enumerate(chains)), 8) == {i: chain_oracle(ops, 8) for i, ops in enumerate(chains)}
        assert {n for n, *_ in plans} == {2, 4, 6, 8} and plans == clifford._PLANS
        negative = 0
        for (n, sa, sb, sc), (count, *indices) in plans.items():
            want = {1: set(), -1: set()}
            for (ia, ma), (ib, mb), (ic, mc) in itertools.product(enumerate(sa), enumerate(sb), enumerate(sc)):
                if not ma ^ mb ^ mc:
                    want[oracles.blade_sign(n, ma, ma) * oracles.blade_sign(n, mb, mc)].add((ia, ib, ic))
            assert len(indices) == 3 and len(set(map(len, indices))) == 1
            triples = list(zip(*indices))
            assert sorted(triples[:count]) == sorted(want[1]) and sorted(triples[count:]) == sorted(want[-1])
            negative += bool(want[-1])
            allowed = {(ma, ma) for ma in sa} | {(mb, mc) for mb in sb for mc in sc}
            assert lookups[n, sa, sb, sc] <= allowed
        assert negative > len(plans) // 4

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_non_homogeneous_chains(self, n):
        rng = random.Random(1950 + n)
        span = xor_span(n, rng, 8)
        ops = [mixed_op(n, rng, rng.sample(span, 6), 3) for _ in range(4)]
        ops[3] = ops[3] + random_element(n, rng, 4, real=True)  # a0 and b0 degrees up to 2
        chains = self.chains(ops)
        traces = list(trace_each(dict(enumerate(chains)), n).values())
        for got, chain in zip(traces, chains, strict=True):
            assert got == chain_oracle(chain, n)
        degrees = {sum(deg) for t in traces for deg in t.terms}
        assert len(degrees) >= 4
        assert both_signs(traces)

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_weighted_sums_read_back_exactly(self, n, monkeypatch):
        # two sums over different dens share chains, with weights of about
        # 2^300 and opposite signs that nearly cancel: a width from the
        # chains alone would wrap their digits.  A sum whose weights are
        # all 0 is the zero polynomial, and its own chains are not packed
        packings = self.spied(monkeypatch)
        rng = random.Random(2100 + n)
        span = xor_span(n, rng, 8)
        ops = [mixed_op(n, rng, rng.sample(span, 5), 3) for _ in range(4)]
        spare = [mixed_op(n, rng, rng.sample(span, 5), 3) for _ in range(2)]
        chains = self.chains(ops)
        big = 1 << 300
        first = [big + rng.randrange(1 << 20) for _ in chains]
        second = [-w + rng.choice((-1, 1)) * rng.randrange(1, 1 << 10) for w in first]
        keyed = lambda weights: {tuple(map(id, ops)): (ops, w) for ops, w in zip(chains, weights)}
        sums = {
            "first": (7, keyed(first)),
            "second": (3 * 5, keyed(second)),
            "both": (2, {**keyed(first), **{(0,): (chains[5], 0)}}),
            "zero": (11, {tuple(map(id, spare)): (tuple(spare), 0), (1,): (spare[:1], 0)}),
        }
        got = packings(lambda: clifford.trace_sums(sums, n))
        for key, (den, weighted) in sums.items():
            want = ScalarPoly.zero()
            for ops, w in weighted.values():
                if w:
                    want = want + chain_oracle(ops, n).scale(Fraction(w, den))
            assert got[key] == want, key
        assert got["zero"] == ScalarPoly.zero() and got["first"] and got["second"]
        # the two sums' weights nearly cancel: back over their dens, they
        # add to a sum of traces with weights below 2^20
        total = got["first"].scale(7) + got["second"].scale(15)
        assert total and max(abs(re) for _, re, _ in total.nums) < big


class TestConstantOperators:
    """An operator marked constant (from_numerators, the record's hh) is
    read from its numerators by trace_sums, with no pack: it traces
    exactly as the same operator rebuilt by the algebra, which is
    unmarked and packed."""

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_a_marked_operator_traces_as_its_rebuild(self, n):
        rng = random.Random(2700 + n)
        span = xor_span(n, rng, 16)

        def constant(bits):
            nums = {m: rng.choice((-1, 1)) * rng.randint(1, 1 << bits) for m in rng.sample(span, 10)}
            return CliffordOp.from_numerators(n, rng.randint(1, 9), nums)

        rec = curvature_ops(random_riemann(n, n), ProductCache())
        (cc, hh), *_ = rec.bivectors.values()
        marked = [constant(3), constant(3), constant(200), cc, hh, rec.f]
        rebuilt = [op.scale(1) for op in marked]
        assert all(op.constant and not again.constant and again == op for op, again in zip(marked, rebuilt))
        varying = mixed_op(n, rng, rng.sample(span, 5), 2)
        picks = [(), (0,), (2, 1), (1, 6), (6, 0), (0, 1, 2), (0, 6, 1), (6, 1, 0), (3, 4, 5), (4, 3, 5), (3, 6, 4)]
        chains = {i: [(marked + [varying])[k] for k in ks] for i, ks in enumerate(picks)}
        twins = {i: [(rebuilt + [varying])[k] for k in ks] for i, ks in enumerate(picks)}
        got, want = trace_each(chains, n), trace_each(twins, n)
        assert got == want
        # the materialised products, but for n = 8, where f has 784 blades
        assert n == 8 or all(got[i] == chain_oracle(ops, n) for i, ops in chains.items())
        assert sum(map(bool, got.values())) > len(got) // 2

    def test_an_imaginary_numerator_is_still_refused(self):
        n = 4
        a = CliffordOp.from_numerators(n, 3, {0: 1, 5: -2})
        ia = a.scale(GaussianRational(0, 1))
        assert a.constant and not ia.constant
        with pytest.raises(ValueError, match="must be real"):
            trace_each({0: (a,), 1: (a, ia)}, n)


class TestPlanMemo:
    """Plans are memoised by dimension and shapes, and a builder's shape
    is fixed by n and its vectors' support classes, so they are built
    once per class: a second Analysis or sweep over the same classes
    builds none and looks up no sign, fresh vectors with zero components
    build none once every class pair has run, the memo never holds more
    than _PLAN_CAP plans, every builder hands out shapes that contain its
    blades, and an operator traces the same whichever builder's shape it
    carries."""

    @staticmethod
    def spied(monkeypatch):
        """Count plan builds and sign lookups from an empty memo."""
        counts = {"plans": 0, "signs": 0}
        build, blade_sign = clifford._plan, clifford._blade_sign

        def plan_spy(*args):
            counts["plans"] += 1
            return build(*args)

        def sign_spy(*args):
            counts["signs"] += 1
            return blade_sign(*args)

        monkeypatch.setattr(clifford, "_PLANS", {})
        monkeypatch.setattr(clifford, "_plan", plan_spy)
        monkeypatch.setattr(clifford, "_blade_sign", sign_spy)
        return counts

    @pytest.mark.parametrize("n", [4, 6])
    def test_a_second_analysis_builds_no_plan(self, n, monkeypatch):
        counts = self.spied(monkeypatch)
        assert Analysis(Dimension(n), *derive_inputs(n, 1)).all_match()
        assert counts["plans"] and counts["signs"]
        counts.update(plans=0, signs=0)
        # the same inputs drawn again: new tensor, vectors and operators
        assert Analysis(Dimension(n), *derive_inputs(n, 1)).all_match()
        assert counts == {"plans": 0, "signs": 0}

    def test_a_second_sweep_builds_no_plan(self, monkeypatch):
        from test_proof import sweep

        counts = self.spied(monkeypatch)
        assert sweep(4) is None
        built = counts["plans"]
        assert built == len(clifford._PLANS) > 0
        assert sweep(4) is None
        assert counts["plans"] == built

    def test_fresh_supports_build_no_plan(self, monkeypatch):
        # one Analysis per pair of support classes (e_a, or a vector with
        # no zero) holds every plan of n = 4: seeded tensors and vectors
        # with zero components, sparse and flat tensors, build none
        n = 4
        classes = [basis(n, a) for a in range(1, n + 1)] + [rational_vector(n, (2, -1, Fraction(1, 3), 5))]
        counts = self.spied(monkeypatch)
        R = random_riemann(n, 4)
        for u, v in itertools.product(classes, repeat=2):
            assert Analysis(Dimension(n), R, u, v).all_match()
        built = counts["plans"]
        assert built == len(clifford._PLANS) > 0
        sparse = [rational_vector(n, s) for s in ((1, 0, 2, 0), (0, -3, 0, 1), (0, 0, 1, 1), (4, 1, 0, 7))]
        tensors = [random_riemann(n, 11), oracles.planar(n), curvature.flat(n)]
        for R, u, v in itertools.product(tensors, sparse, sparse + classes[:1]):
            assert Analysis(Dimension(n), R, u, v).all_match()
        for seed in range(1, 13):
            assert Analysis(Dimension(n), *derive_inputs(n, seed)).all_match()
        assert counts["plans"] == built == len(clifford._PLANS)

    def test_the_memo_is_emptied_at_its_cap(self, monkeypatch):
        counts = self.spied(monkeypatch)
        monkeypatch.setattr(clifford, "_PLAN_CAP", 5)
        for seed in (1, 2):
            assert Analysis(Dimension(4), *derive_inputs(4, seed)).all_match()
            assert 0 < len(clifford._PLANS) <= 5
        assert counts["plans"] > 10

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_builders_hand_out_shapes_that_contain_their_blades(self, n):
        rng = random.Random(3100 + n)
        vectors = [basis(n, 1), basis(n, n), rational_vector(n, range(1, n + 1))]
        vectors += [rational_vector(n, [rng.choice((0, 0, 1, -2, Fraction(1, 3))) for _ in range(n)]) for _ in range(4)]
        ops = [op for w in vectors for op in tildec_row(w)]
        ops += [tildec_pair(w, x) for w in vectors for x in vectors]
        for R in (random_riemann(n, n), oracles.planar(n), curvature.flat(n)):
            rec = curvature_ops(R, ProductCache())
            ops += [rec.f, *(op for pair in rec.bivectors.values() for op in pair)]
        for op in ops:
            assert list(op.shape) == sorted(set(op.shape)) and set(op.blades) <= set(op.shape)
        assert len(set(op.shape for op in ops)) > 4

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_equal_operators_trace_alike_whatever_their_shape(self, n):
        # the record's cc and f of a sparse tensor (dense shapes), a pair of
        # equal vectors (a scalar pair on a dense shape) and a row, each
        # against its rebuild from its own blades, in every chain position
        rec = curvature_ops(oracles.planar(n), ProductCache())
        (cc, _), = rec.bivectors.values()
        w = rational_vector(n, range(1, n + 1))
        built = [cc, rec.f, tildec_pair(w, w), tildec_row(w)[0]]
        rebuilt = [
            CliffordOp.from_numerators(n, cc.den, {m: t[0][1] for m, t in cc.blades.items()}),
            rec.f.scale(1), built[2].scale(1), built[3].scale(1),
        ]
        assert all(op == twin and twin.shape is None for op, twin in zip(built, rebuilt))
        assert n == 2 or all(len(op.shape) > len(op.blades) for op in built[:3])
        picks = [p for k in (1, 2, 3) for p in itertools.product(range(4), repeat=k)]
        chains = {p: [built[i] for i in p] for p in picks}
        twins = {p: [rebuilt[i] for i in p] for p in picks}
        got = trace_each(chains, n)
        assert got == trace_each(twins, n)
        assert all(got[p] == chain_oracle(ops, n) for p, ops in chains.items() if len(p) < 3)
        assert sum(map(bool, got.values())) > len(got) // 4


class TestSignRule:
    """_sign_mask(n, a) is the mask mu with blade(a) blade(b) =
    (-1)^popcount(b & mu) blade(a ^ b), and _blade_sign reads it; both
    against the swap-by-swap count oracles.blade_sign."""

    @staticmethod
    def agree(n, a, b):
        want = oracles.blade_sign(n, a, b)
        return _blade_sign(n, a, b) == want and (-1 if (b & _sign_mask(n, a)).bit_count() & 1 else 1) == want

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_pair_at_small_n(self, n):
        masks = range(1 << (2 * n))
        assert all(self.agree(n, a, b) for a in masks for b in masks)

    @pytest.mark.parametrize("n", [6, 8])
    def test_random_pairs(self, n):
        rng = random.Random(40 + n)
        pairs = [(rng.randrange(1 << (2 * n)), rng.randrange(1 << (2 * n))) for _ in range(10**4)]
        assert all(self.agree(n, a, b) for a, b in pairs)

    @pytest.mark.parametrize("n", [2, 4])
    def test_square_blade_traces(self, n):
        # tr(blade blade) = 2^n times the blade's square sign, for every blade
        ops = {m: CliffordOp.from_numerators(n, 1, {m: 1}) for m in range(1 << (2 * n))}
        got = trace_each({m: (op, op) for m, op in ops.items()}, n)
        assert all(got[m] == ScalarPoly.const((1 << n) * _blade_sign(n, m, m)) for m in ops)
        assert {_blade_sign(n, m, m) for m in ops} == {-1, 1}


def graded_op(n, rng, masks):
    """Real operator whose blades each carry one to three total degrees,
    each in one or two a0/b0 splits."""
    blades = {}
    for mask in masks:
        terms = {}
        for d in rng.sample(range(4), rng.randint(1, 3)):
            for da in rng.sample(range(d + 1), min(d + 1, rng.randint(1, 2))):
                terms[da, d - da] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))
        blades[mask] = ScalarPoly(terms)
    return op_of(n, blades)


class TestHalfMaskJoin:
    """Each rotation of a three-factor chain, and every shorter chain
    inside it, traces to the materialised product, on operators with
    several homogeneous parts, against last factors whose masks spread
    over both halves (c and chat bits) or hold one value in one half.
    The class keeps the name of the half-mask join it was written for;
    the same chains now exercise the trace plans."""

    @staticmethod
    def half_counts(n, op):
        low = (1 << n) - 1
        return len({m & low for m in op.blades}), len({m >> n for m in op.blades})

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_every_rotation_and_sub_chain_matches_the_oracle(self, n):
        rng = random.Random(2300 + n)
        spread = rng.sample(range(1 << n), min(6, 1 << n))  # distinct half values
        x, y = rng.randrange(1 << n), rng.randrange(1 << n)
        last_masks = [
            rng.sample(range(1 << (2 * n)), 6),
            [h | h << n for h in spread],  # as many c halves as chat halves
            [x | h << n for h in spread],  # one c half
            [h | y << n for h in spread],  # one chat half
        ]
        a_masks = rng.sample(range(1 << (2 * n)), 6)
        # every mask of every last factor closes at least one triple
        b_masks = set(rng.sample(range(1 << (2 * n)), 6))
        b_masks |= {rng.choice(a_masks) ^ mc for masks in last_masks for mc in masks}
        a, b = graded_op(n, rng, a_masks), graded_op(n, rng, sorted(b_masks))
        lasts = [graded_op(n, rng, masks) for masks in last_masks]
        counts = [self.half_counts(n, c) for c in lasts]
        assert counts[1][0] == counts[1][1] and counts[2][0] < counts[2][1] and counts[3][0] > counts[3][1]
        odd = [m for m in range(1 << (2 * n)) if m.bit_count() % 2]  # no three XOR to zero
        chains = [(a, b, c) for c in lasts] + [tuple(graded_op(n, rng, rng.sample(odd, 6)) for _ in range(3))]
        subs = {
            (i, r, j): sub
            for i, chain in enumerate(chains)
            for r, rot in enumerate((chain, chain[1:] + chain[:1], chain[2:] + chain[:2]))
            for j, sub in enumerate((rot, rot[:2], rot[1:], rot[:1]))
        }
        got = trace_each(subs, n)
        for key, sub in subs.items():
            assert got[key] == chain_oracle(sub, n), (n, len(sub))
        traces = list(got.values())
        assert all(got[i, 0, 0] for i in range(len(chains) - 1))
        assert not got[len(chains) - 1, 0, 0]
        assert both_signs(traces)
        assert len({sum(deg) for t in traces for deg in t.terms}) >= 4


# ---------------------------------------------------------------------------
# sign-rule oracle: the blade algebra against plain matrices
# ---------------------------------------------------------------------------


def wedge_sign(s, bit):
    return -1 if bin(s & (bit - 1)).count("1") % 2 else 1


def plain_ext(n, j):
    bit = 1 << (j - 1)
    rows = [dict() for _ in range(1 << n)]
    for s in range(1 << n):
        if not s & bit:
            rows[s | bit][s] = ScalarPoly.const(wedge_sign(s, bit))
    return rows


def plain_int(n, j):
    bit = 1 << (j - 1)
    rows = [dict() for _ in range(1 << n)]
    for s in range(1 << n):
        if s & bit:
            rows[s ^ bit][s] = ScalarPoly.const(wedge_sign(s, bit))
    return rows


def plain_combine(a, b, sign):
    out = []
    for ra, rb in zip(a, b):
        row = dict(ra)
        for j, v in rb.items():
            row[j] = row.get(j, ScalarPoly.zero()) + v.scale(sign)
        out.append({j: v for j, v in row.items() if v})
    return out


def plain_scale(a, p):
    return [{j: v * p for j, v in row.items() if v * p} for row in a]


def matmul(a, b):
    out = []
    for ra in a:
        acc = {}
        for k, x in ra.items():
            for j, y in b[k].items():
                acc[j] = acc.get(j, ScalarPoly.zero()) + x * y
        out.append({j: v for j, v in acc.items() if v})
    return out


def mtrace(a):
    acc = ScalarPoly.zero()
    for i, row in enumerate(a):
        acc = acc + row.get(i, ScalarPoly.zero())
    return acc


def random_blades(n, rng, blades, real=False):
    """{mask: ScalarPoly}: random c/chat blades, polynomial coefficients,
    some with imaginary parts unless real."""
    out = {}
    for _ in range(blades):
        mask = rng.randrange(1 << (2 * n))
        terms = {
            (rng.randint(0, 2), rng.randint(0, 2)): GaussianRational(
                Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
                Fraction(0 if real else rng.choice((0, 0, rng.randint(-3, 3))), rng.randint(1, 3)),
            )
            for _ in range(rng.randint(1, 3))
        }
        poly = ScalarPoly(terms)
        if poly:
            out[mask] = poly
    return out


def random_element(n, rng, blades, real=False):
    """Sparse Cl(n,n) element with random_blades' blades and coefficients."""
    return op_of(n, random_blades(n, rng, blades, real))


class TestSignRuleOracle:
    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_generators_are_ext_minus_and_plus_int(self, n):
        for j in range(1, n + 1):
            ext, cont = plain_ext(n, j), plain_int(n, j)
            assert c_op(n, j).rows == plain_combine(ext, cont, -1)
            assert hatc_op(n, j).rows == plain_combine(ext, cont, 1)

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_tildec_is_a0_ext_minus_b0_int(self, n):
        # the reference ctilde against a0 ext - b0 int as plain matrices,
        # and the engine's pair against the product of two of them
        rng = random.Random(6000 + n)
        w, x = (
            rational_vector(n, [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)])
            for _ in range(2)
        )

        def plain_tildec(v):
            out = [dict() for _ in range(1 << n)]
            for j in range(1, n + 1):
                a0, b0 = ScalarPoly.a0().scale(v[j]), ScalarPoly.b0().scale(v[j])
                out = plain_combine(out, plain_scale(plain_ext(n, j), a0), 1)
                out = plain_combine(out, plain_scale(plain_int(n, j), b0), -1)
            return out

        want = plain_tildec(w)
        assert vector_clifford("tildec", w).rows == want
        assert tildec_pair(w, x).rows == matmul(want, plain_tildec(x))

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_products_and_traces_match_matrices(self, n):
        rng = random.Random(1000 + n)
        batch, want = {}, {}
        for trial in range(3):
            # rotate the largest factor through each chain position
            sizes = [2, 3, 6]
            sizes = sizes[trial:] + sizes[:trial]
            x, y, z = (random_element(n, rng, k, real=True) for k in sizes)
            xy = matmul(x.rows, y.rows)
            assert (x * y).rows == xy
            assert trace_one((x, y), n) == mtrace(xy)
            xyz = matmul(xy, z.rows)
            assert trace_one((x, y, z), n) == mtrace(xyz)
            batch[trial, 2], batch[trial, 3] = (x, y), (x, y, z)
            want[trial, 2], want[trial, 3] = mtrace(xy), mtrace(xyz)
        # the three trials' chains, also traced as one batch
        assert trace_each(batch, n) == want

    def test_entry_reads_the_matrix_view(self):
        # every entry, zeros included, against the sum of coefficient
        # times the product of the blade's generator matrices
        n = 4
        blades = random_blades(n, random.Random(7), 6)
        rows = op_of(n, blades).rows
        want = [dict() for _ in range(1 << n)]
        for mask, poly in blades.items():
            prod = [{s: ScalarPoly.one()} for s in range(1 << n)]
            for g in range(2 * n):
                if mask >> g & 1:
                    j = g % n + 1
                    gen = plain_combine(plain_ext(n, j), plain_int(n, j), 1 if g >= n else -1)
                    prod = matmul(prod, gen)
            want = plain_combine(want, [{j: v * poly for j, v in row.items()} for row in prod], 1)
        for i in range(1 << n):
            assert all(rows[i].values())
            for j in range(1 << n):
                assert rows[i].get(j, ScalarPoly.zero()) == want[i].get(j, ScalarPoly.zero())

    def test_trace_is_scaled_scalar_part(self):
        n = 4
        x = random_element(n, random.Random(8), 8)
        assert trace(x) == mtrace(x.rows)


class TestIntegerStorage:
    """One denominator and integer numerators per operator, against the
    matrix oracle; random_element mixes denominators and imaginary parts."""

    @pytest.mark.parametrize("n", [2, 4])
    def test_sum_and_difference_match_matrices(self, n):
        rng = random.Random(2000 + n)
        for _ in range(4):
            x, y = random_element(n, rng, 5), random_element(n, rng, 5)
            assert (x + y).rows == plain_combine(x.rows, y.rows, 1)
            assert (x - y).rows == plain_combine(x.rows, y.rows, -1)

    @pytest.mark.parametrize("n", [2, 4])
    def test_scale_matches_matrices(self, n):
        x = random_element(n, random.Random(3000 + n), 6)
        poly = ScalarPoly(
            {(1, 0): GaussianRational(2, Fraction(1, 3)), (0, 2): GaussianRational(Fraction(-1, 5))}
        )
        for c in (Fraction(-3, 7), GaussianRational(Fraction(1, 2), Fraction(-2, 3)), poly):
            p = c if isinstance(c, ScalarPoly) else ScalarPoly.const(c)
            want = [{j: v * p for j, v in row.items() if v * p} for row in x.rows]
            assert x.scale(c).rows == want

    def test_equality_does_not_depend_on_the_build_path(self):
        rng = random.Random(4000)
        n = 4
        for _ in range(4):
            x, y = random_element(n, rng, 6), random_element(n, rng, 6)
            assert x.scale(3).scale(Fraction(1, 3)) == x
            assert x.scale(GaussianRational(0, 2)).scale(GaussianRational(0, Fraction(-1, 2))) == x
            assert (x + y) - y == x
            assert x + x == x.scale(2)
            assert (x - x).is_zero() and x - x == zero(n)
            assert x * identity(n) == x

    @pytest.mark.parametrize("n", [4, 6])
    def test_curvature_ops_equal_public_construction(self, n):
        R = random_riemann(n, 3)
        cc, hh, f = {}, {}, {}
        for (i, j, k, l), r in R.entries.items():
            if l < k:
                st = 1 << (l - 1) | 1 << (k - 1)
                cc.setdefault((j, i), {})[st] = ScalarPoly.const(2 * r)
                hh.setdefault((j, i), {})[st << n] = ScalarPoly.const(2 * r)
            if i < j and k < l:
                mask = 1 << (k - 1) | 1 << (l - 1) | (1 << (i - 1) | 1 << (j - 1)) << n
                f[mask] = ScalarPoly.const(4 * r)
        rec = curvature_ops(R, ProductCache())
        bivectors, f_op = rec.bivectors, rec.f
        # one operator per unordered pair; (b, a) is the negative of (a, b)
        assert set(bivectors) == {(min(ab), max(ab)) for ab in cc}
        for (a, b), nums in cc.items():
            cc_op, hh_op = bivectors[min(a, b), max(a, b)]
            sign = 1 if a < b else -1
            assert cc_op.scale(sign) == op_of(n, nums)
            assert hh_op.scale(sign) == op_of(n, hh[a, b])
        assert f_op == op_of(n, f)

    def test_degrees_stay_below_the_bound(self):
        """Every stored degree lies in 0 .. 2^14 - 1, and a product of
        three stored coefficients fits 16-bit degree fields."""
        n, bound = 2, 1 << 14
        with pytest.raises(ValueError):
            op_of(n, {0: ScalarPoly.monomial(bound, 0)})
        with pytest.raises(ValueError):
            op_of(n, {0: ScalarPoly.monomial(0, -1)})
        x = op_of(n, {0: ScalarPoly.monomial(bound // 2, 1)})
        with pytest.raises(ValueError):
            x * x
        # three factors at the largest stored degree trace without carrying
        # into a0: the trace is refused, and it names the exact degree
        y = op_of(n, {0: ScalarPoly.monomial(1, bound - 1)})
        with pytest.raises(ValueError, match=rf"\(3, {3 * (bound - 1)}\)"):
            trace_one((y, y, y), n)
        z = op_of(n, {0: ScalarPoly.monomial((bound - 1) // 3, (bound - 1) // 3)})
        assert trace_one((z, z, z), n) == ScalarPoly.monomial(bound - 1, bound - 1, 1 << n)
