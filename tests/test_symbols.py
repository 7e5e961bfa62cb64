"""Symbol families, derivatives, and composition against direct oracles."""

import hashlib
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

import wres.clifford
import wres.scalars
import wres.symbols
from wres.clifford import CliffordOp, Dimension, FrameVector, ProductCache
from wres.curvature import RiemannTensor, constant_curvature, contract, flat, random_riemann
from wres.residue import Analysis, composed_weights, derive_inputs, trace_weights
from wres.scalars import GaussianRational, ScalarPoly
from wres.symbols import (
    SymbolExpansion,
    SymbolTerm,
    blocks_at,
    compose_block,
    curvature_ops,
    d_xi,
    lemma1_symbols,
    lemma2_symbols,
    standard_connection,
    symbol_product_PQ,
    symbols_PQ,
    uv_symbol,
)

from oracles import c_op, hatc_op, identity, tildec_op, vector_clifford, weight, zero

ONE = ScalarPoly.one()


def mono(n, *idx):
    out = [0] * n
    for j in idx:
        out[j - 1] += 1
    return tuple(out)


def planar(n):
    """Unit 2-plane curvature: R_1212 = 1 and its symmetric entries."""
    return RiemannTensor(n, {(1, 2, 1, 2): 1, (2, 1, 2, 1): 1, (1, 2, 2, 1): -1, (2, 1, 1, 2): -1})


def materialize(t):
    """Reference coefficient of one term: its weight times op_1 ... op_k,
    identity chain included."""
    acc = identity(len(t.x_mono)) if not t.ops else t.ops[0]
    for nxt in t.ops[1:]:
        acc = acc * nxt
    return acc.scale(weight(t))


def merged_reference(exp):
    """merged() by its definition: per key, the sum of materialize over
    the key's terms, with the keys that sum to zero dropped."""
    out = {}
    for order in exp.orders():
        for t in exp.terms_at(order):
            key = (order, t.x_mono, t.xi_mono, t.norm_power)
            mat = materialize(t)
            out[key] = mat if key not in out else out[key] + mat
    return {k: v for k, v in out.items() if not v.is_zero()}


def compose(A, B, target_order):
    """Every composition term of A o B of the given order, at x = 0."""
    exp = SymbolExpansion(A.n)
    for block in blocks_at(A, B, target_order):
        for term in compose_block(*block):
            exp.add(term)
    return exp


def dump(exp):
    """Stable rendering of a symbol: its merged keys with content-hashed coefficients."""
    lines = []
    merged = exp.merged(None)
    for key in sorted(merged):
        order, x, xi, p = key
        rows = merged[key].rows
        digest = hashlib.sha256(
            repr([(i, j, row[j].text()) for i, row in enumerate(rows) for j in sorted(row)]).encode()
        ).hexdigest()[:12]
        lines.append(f"order={order} x^{x} xi^{xi} |xi|^{p} (x) [{digest}]")
    return "\n".join(lines)


class TestDerivatives:
    def test_xi_derivative_of_plain_monomial(self):
        n = 4
        t = SymbolTerm(mono(n), mono(n, 1, 1, 2), 0, 1, 1, 0)
        out = d_xi(t, 1)
        assert len(out) == 1
        assert out[0].xi_mono == mono(n, 1, 2)
        assert weight(out[0]) == ScalarPoly.const(2)

    def test_xi_derivative_hits_norm_factor(self):
        # d/dxi_1 (xi_1 |xi|^-2) = |xi|^-2 - 2 xi_1^2 |xi|^-4
        n = 4
        t = SymbolTerm(mono(n), mono(n, 1), -2, 1, 1, 0)
        out = d_xi(t, 1)
        assert len(out) == 2
        plain, normside = out
        assert plain.xi_mono == mono(n) and plain.norm_power == -2
        assert weight(plain) == ONE
        assert normside.xi_mono == mono(n, 1, 1) and normside.norm_power == -4
        assert weight(normside) == ScalarPoly.const(-2)

    def test_xi_derivative_in_absent_variable(self):
        n = 4
        t = SymbolTerm(mono(n), mono(n, 2), 0, 1, 1, 0)
        assert d_xi(t, 1) == []

    def test_order_is_xi_degree_plus_norm_power(self):
        t = SymbolTerm(mono(4), mono(4, 1, 2), -6, 1, 1, 0)
        assert t.order() == -4


class TestExpansionPlumbing:
    def test_zero_scalar_terms_are_dropped(self):
        exp = SymbolExpansion(4)
        exp.add(SymbolTerm(mono(4), mono(4), 0, 1, 0, 0))
        assert exp.orders() == []

    def test_every_family_writes_integer_weights(self):
        # SymbolTerm does not coerce its weight, so this is where the
        # integer form (re + im*i) / den, den > 0, is held
        dim = Dimension(4)
        R = random_riemann(4, 3)
        u, v = FrameVector(4, (1, 2, 0, -1)), FrameVector(4, (0, 1, 3, 1))
        cache = ProductCache()
        families = [
            lemma1_symbols(dim, R, standard_connection(dim, R, cache)),
            lemma2_symbols(dim, R, 2, -4, cache),
            lemma2_symbols(dim, R, 2, -2, cache),
            symbols_PQ(dim, R, u, cache),
            symbol_product_PQ(dim, R, u, v, cache),
            uv_symbol(dim, u, v),
        ]
        terms = [t for exp in families for o in exp.orders() for t in exp.terms_at(o)]
        assert terms
        for t in terms:
            assert type(t.den) is int and type(t.re) is int and type(t.im) is int
            assert t.den > 0

    def test_merged_cancels_opposite_terms(self):
        exp = SymbolExpansion(4)
        exp.add(SymbolTerm(mono(4), mono(4, 1), -2, 1, 1, 0))
        exp.add(SymbolTerm(mono(4), mono(4, 1), -2, 1, -1, 0))
        assert exp.merged(ProductCache()) == {}

    def test_materialize_folds_chain_through_cache(self):
        n = 4
        a, b = tildec_op(n, 1), tildec_op(n, 2)
        t = SymbolTerm(mono(n), mono(n), 0, 2, 1, 0, (a, b))
        assert materialize(t) == (a * b).scale(Fraction(1, 2))

    def test_dump_is_stable_across_reconstruction(self):
        dim = Dimension(4)
        R = random_riemann(4, 5)
        one = dump(lemma2_symbols(dim, R, 2, -4, ProductCache()))
        two = dump(lemma2_symbols(dim, R, 2, -4, ProductCache()))
        assert one == two
        other = dump(lemma2_symbols(dim, random_riemann(4, 6), 2, -4, ProductCache()))
        assert one != other


def half_planar(n):
    """R_1212 = 1/2: the record's f reduces below its denominator and s != 0."""
    return RiemannTensor(
        n, {(1, 2, 1, 2): "1/2", (2, 1, 2, 1): "1/2", (1, 2, 2, 1): "-1/2", (2, 1, 1, 2): "-1/2"}
    )


CURVATURES = [
    (f"{kind}-d{n}", make(n))
    for n in (2, 4, 6)
    for kind, make in (
        ("random", lambda n: random_riemann(n, 1)),
        ("constant", constant_curvature),
        ("flat", flat),
    )
]


class TestMerged:
    """merged() against its definition, merged_reference."""

    @pytest.mark.parametrize("R", [R for _, R in CURVATURES], ids=[i for i, _ in CURVATURES])
    def test_inverse_power_families_match_reference(self, R):
        dim, cache = Dimension(R.n), ProductCache()
        conn = standard_connection(dim, R, cache)
        families = [
            lemma1_symbols(dim, R, conn),
            lemma1_symbols(dim, R, conn, m_family=dim.m - 1),
            lemma2_symbols(dim, R, dim.m, -R.n, cache),
            lemma2_symbols(dim, R, dim.m, -R.n + 2, cache),
        ]
        for exp in families:
            assert exp.merged(cache) == merged_reference(exp)

    @pytest.mark.parametrize("n", [2, 4], ids=["d2", "d4"])
    def test_first_order_factors_match_reference(self, n):
        # a factor's order-1 weights are imaginary; the product of two
        # factors has three-op chains over 8 at order 0
        dim, cache = Dimension(n), ProductCache()
        R, u, v = derive_inputs(n, 1)
        P, PQ = symbols_PQ(dim, R, u, cache), symbol_product_PQ(dim, R, u, v, cache)
        assert all(t.im and not t.re for t in P.terms_at(1))
        assert any(len(t.ops) == 3 and t.den == 8 for t in PQ.terms_at(0))
        for exp in (P, PQ):
            assert exp.merged(cache) == merged_reference(exp)

    def test_mixed_keys_unequal_denominators_and_cancellation(self):
        n = 4
        c1, a, b = c_op(n, 1), tildec_op(n, 1), tildec_op(n, 2)
        key = (mono(n), mono(n, 1), -2)
        gone = (mono(n), mono(n, 2), -2)
        exp = SymbolExpansion(n)
        for t in (
            # one key: no-op and chain terms over 3, 4, 5 and 7
            SymbolTerm(*key, 3, 1, 2),
            SymbolTerm(*key, 4, 0, 1, (a, b)),
            SymbolTerm(*key, 5, -2, 0, (a,)),
            SymbolTerm(*key, 7, 1, 0, (a, b, c1)),
            # another: c1 c1 = -1 against the identity chain and a scalar
            SymbolTerm(*gone, 1, 1, 0, (c1, c1)),
            SymbolTerm(*gone, 2, 1, 0, ()),
            SymbolTerm(*gone, 2, 1, 0, (identity(n),)),
        ):
            exp.add(t)
        got, want = exp.merged(None), merged_reference(exp)
        assert got == want and set(got) == {(-1,) + key}

    def test_merged_builds_one_canonical_form_per_chain_key(self, monkeypatch):
        # the dim-6 concrete family sums each key in one integer pass:
        # no per-term coefficient, scale or sum, and no-op keys reduce
        # without _canonical
        dim, R, cache = Dimension(6), random_riemann(6, 1), ProductCache()
        exp = lemma2_symbols(dim, R, 3, -6, cache)
        calls = Counter()

        def counting(name, fn):
            def run(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return run

        for module in (wres.scalars, wres.clifford, wres.symbols):
            if hasattr(module, "_canonical"):
                monkeypatch.setattr(module, "_canonical", counting("_canonical", module._canonical))
        for name in ("scale", "__add__"):
            monkeypatch.setattr(CliffordOp, name, counting(name, getattr(CliffordOp, name)))
        real_slots = ScalarPoly._from_slots.__func__
        monkeypatch.setattr(
            ScalarPoly, "_from_slots", classmethod(counting("ScalarPoly", real_slots))
        )
        monkeypatch.setattr(
            SymbolTerm, "materialize", counting("materialize", lambda t: None), raising=False
        )
        merged = exp.merged(cache)
        chain_keys = {
            (o, t.x_mono, t.xi_mono, t.norm_power) for o in exp.orders() for t in exp.terms_at(o) if t.ops
        }
        assert merged and chain_keys
        assert calls["_canonical"] <= len(chain_keys)
        assert calls["materialize"] == calls["scale"] == calls["__add__"] == calls["ScalarPoly"] == 0


class TestInversePowerSymbols:
    def test_flat_curvature_leaves_only_the_top_delta_family(self):
        dim = Dimension(4)
        exp = lemma2_symbols(dim, flat(4), 2, -4, ProductCache())
        assert exp.orders() == [-4]
        (t,) = exp.terms_at(-4)
        assert t.tag == "delta" and t.x_mono == t.xi_mono == mono(4) and t.norm_power == -4
        assert weight(t) == ONE and not t.ops

    @pytest.mark.parametrize("n", [2, 4, 6], ids=["d2", "d4", "d6"])
    @pytest.mark.parametrize("reduced", [False, True], ids=["full", "reduced"])
    def test_one_term_top_symbol_traces_like_the_metric_contraction(self, n, reduced):
        # the n-term top symbol sum_a xi_a^2 |xi|^(-2M-2), built here as
        # the reference, gives every tag the engine's single-term density
        dim, m = Dimension(n), n // 2
        R, u, v = derive_inputs(n, 1)
        cache = ProductCache()
        exponent = -2 * m + 2 if reduced else -2 * m
        M = -exponent // 2
        B = lemma2_symbols(dim, R, m, exponent, cache)
        reference = SymbolExpansion(n)
        for o in B.orders():
            for t in B.terms_at(o):
                if t.tag != "delta":
                    reference.add(t)
        for a in range(1, n + 1):
            reference.add(SymbolTerm(mono(n), mono(n, a, a), -2 * M - 2, 1, 1, 0, (), "delta"))
        assert len(reference.terms_at(exponent)) == len(B.terms_at(exponent)) + n - 1

        def traced(blocks):
            return {
                tag: trace_weights(den, chains, dim, cache)
                for tag, (den, chains) in composed_weights(blocks, n).items()
            }

        # UV at every order of B (-2m included); PQ at the top order,
        # where its order-0 terms meet the top symbol itself
        UV, PQ = uv_symbol(dim, u, v), symbol_product_PQ(dim, R, u, v, cache)
        for A, targets in ((UV, (exponent, exponent - 1, exponent - 2)), (PQ, (exponent,))):
            for target in targets:
                got = traced(blocks_at(A, B, target))
                assert got == traced(blocks_at(A, reference, target))
        assert traced(blocks_at(UV, B, exponent))["delta"].poly

    def test_unsupported_exponent_rejected(self):
        with pytest.raises(ValueError):
            lemma2_symbols(Dimension(4), flat(4), 2, -3, ProductCache())

    @pytest.mark.parametrize("seed", range(3))
    def test_concrete_symbols_equal_generic_transcription(self, seed):
        # the generic three-order expansion specialized to the Hodge
        # square's connection slots must reproduce the concrete family
        dim = Dimension(4)
        R = random_riemann(4, seed)
        cache = ProductCache()
        conn = standard_connection(dim, R, cache)
        direct = lemma2_symbols(dim, R, dim.m, -2 * dim.m, cache)
        generic = lemma1_symbols(dim, R, conn)
        assert direct.merged(cache) == generic.merged(cache)

    @pytest.mark.parametrize("seed", range(3))
    def test_reduced_power_family_matches_generic(self, seed):
        dim = Dimension(4)
        R = random_riemann(4, seed)
        cache = ProductCache()
        conn = standard_connection(dim, R, cache)
        direct = lemma2_symbols(dim, R, dim.m, -2 * dim.m + 2, cache)
        generic = lemma1_symbols(dim, R, conn, m_family=dim.m - 1)
        assert direct.merged(cache) == generic.merged(cache)

    def test_orders_present_with_curvature(self):
        dim = Dimension(4)
        exp = lemma2_symbols(dim, constant_curvature(4), 2, -4, ProductCache())
        assert exp.orders() == [-6, -5, -4]


class TestFirstOrderFactorSymbols:
    def test_order_one_is_contracted_pair(self):
        dim = Dimension(4)
        R = flat(4)
        u = FrameVector(4, (1, 0, Fraction(1, 2), 0))
        exp = symbols_PQ(dim, R, u, ProductCache())
        terms = exp.terms_at(1)
        assert len(terms) == 4
        cu = vector_clifford("tildec", u)
        for t in terms:
            assert weight(t) == ScalarPoly.const(GaussianRational(0, 1))
            f = t.xi_mono.index(1) + 1
            assert len(t.ops) == 1
            assert t.ops[0] == cu * tildec_op(4, f)

    def test_flat_factor_has_no_order_zero(self):
        dim = Dimension(4)
        exp = symbols_PQ(dim, flat(4), FrameVector.basis(4, 1), ProductCache())
        assert exp.terms_at(0) == []

    def test_omega_slope_matches_unrestricted_double_sum(self):
        # the x_l slope of the connection form along e_p is half the
        # (l, p) curvature bivector cc of the table: the table's (l, p)
        # operator for l < p, its negative under (p, l) for l > p
        n = 4
        R = random_riemann(n, 2)
        bivectors = curvature_ops(R, ProductCache()).bivectors
        for l, p in ((1, 2), (3, 1)):
            direct = zero(n)
            for s in range(1, n + 1):
                for t in range(1, n + 1):
                    w = Fraction(1, 2) * R.get(l, p, s, t)
                    if w:
                        direct = direct + (c_op(n, s) * c_op(n, t)).scale(w)
            sign = 1 if l < p else -1
            assert bivectors[min(l, p), max(l, p)][0].scale(Fraction(sign, 2)) == direct

    @pytest.mark.parametrize("seed", [2, 9])
    def test_coefficient_blades_match_unrestricted_products(self, seed):
        assert_table_matches_products(random_riemann(4, seed))


def bivector_sums(R, a, b):
    """(cc_ab, hh_ab) as unrestricted index sums of generator products:
    sum_{s,t} R_{bats} c_s c_t and sum_{s,t} R_{bats} chat_s chat_t."""
    n = R.n
    cc, hh = zero(n), zero(n)
    for s in range(1, n + 1):
        for t in range(1, n + 1):
            w = R.get(b, a, t, s)
            cc = cc + (c_op(n, s) * c_op(n, t)).scale(w)
            hh = hh + (hatc_op(n, s) * hatc_op(n, t)).scale(w)
    return cc, hh


def assert_table_matches_products(R):
    """The table writes signed blades directly; rebuild each one as an
    unrestricted index sum of generator products, for every ordered pair
    (a, b): the table's (a, b) operators for a < b, their negatives under
    (b, a) for a > b.  A pair is absent exactly when its sums vanish, and
    only pairs a < b are stored."""
    n = R.n
    rec = curvature_ops(R, ProductCache())
    bivectors, f_op = rec.bivectors, rec.f
    idx = range(1, n + 1)
    for a in idx:
        for b in idx:
            cc, hh = bivector_sums(R, a, b)
            assert cc.is_zero() == hh.is_zero()
            if cc.is_zero():
                assert (a, b) not in bivectors and (b, a) not in bivectors
            elif a < b:
                assert bivectors[(a, b)] == (cc, hh)
            else:
                assert (a, b) not in bivectors
                assert bivectors[(b, a)] == (-cc, -hh)
    f = zero(n)
    for i in idx:
        for j in idx:
            for k in idx:
                for l in idx:
                    quad = hatc_op(n, i) * hatc_op(n, j) * c_op(n, k) * c_op(n, l)
                    f = f + quad.scale(R.get(i, j, k, l))
    assert not f.is_zero()
    assert f_op == f


class TestCurvatureTable:
    def test_sparse_table_holds_only_the_nonzero_pairs(self):
        R = planar(4)
        assert_table_matches_products(R)
        assert set(curvature_ops(R, ProductCache())[0]) == {(1, 2)}

    def test_table_is_built_once_per_tensor(self):
        R = random_riemann(4, 1)
        cache = ProductCache()
        assert curvature_ops(R, cache) is curvature_ops(R, cache)
        assert curvature_ops(random_riemann(4, 1), cache) is not curvature_ops(R, cache)

    @pytest.mark.parametrize(
        "R",
        [random_riemann(n, seed) for n in (2, 4, 6) for seed in (1, 2)]
        + [constant_curvature(4), constant_curvature(6), planar(4)],
        ids=[f"random-d{n}-s{seed}" for n in (2, 4, 6) for seed in (1, 2)]
        + ["constant-d4", "constant-d6", "planar-d4"],
    )
    def test_integer_contractions_equal_contract(self, R):
        # the record sums Ricci and s as integers over rec.den in its
        # own pass; curvature.contract is the closed forms' reference
        rec = curvature_ops(R, ProductCache())
        contr = contract(R)
        idx = range(1, R.n + 1)
        ricci = {(a, b): Fraction(rec.ricci.get((a, b), 0), rec.den) for a in idx for b in idx}
        assert ricci == {(a, b): contr.ric(a, b) for a in idx for b in idx}
        assert Fraction(rec.s, rec.den) == contr.scalar
        assert all(rec.ricci.values()) and list(rec.ricci) == sorted(rec.ricci)

    def test_one_record_per_analysis(self, monkeypatch):
        # B1, B2 and the first-order factors all read one record: R's
        # entries are walked by its pass and by the closed forms'
        # contract, and by nothing else
        class CountingEntries(dict):
            passes = 0

            def items(self):
                self.passes += 1
                return super().items()

        builds = []
        real = ProductCache.named

        def spy(self, key, build):
            def counted():
                builds.append(key[0])
                return build()

            return real(self, key, counted)

        monkeypatch.setattr(ProductCache, "named", spy)
        R, u, v = derive_inputs(6, 1)
        R.entries = CountingEntries(R.entries)
        assert Analysis(Dimension(6), R, u, v).all_match()
        assert builds == ["curvature_ops"]
        assert R.entries.passes == 2

    def test_one_record_for_the_symbol_families(self, monkeypatch):
        # criterion 4 builds the connection, the concrete family and the
        # generic family on one cache; the generic family reads the
        # record the connection was built from, so it is built once
        builds = []
        real = ProductCache.named

        def spy(self, key, build):
            def counted():
                builds.append(key[0])
                return build()

            return real(self, key, counted)

        monkeypatch.setattr(ProductCache, "named", spy)
        dim, R, cache = Dimension(6), random_riemann(6, 1), ProductCache()
        conn = standard_connection(dim, R, cache)
        direct = lemma2_symbols(dim, R, dim.m, -2 * dim.m, cache)
        generic = lemma1_symbols(dim, R, conn)
        assert builds == ["curvature_ops"]
        assert conn.rec is curvature_ops(R, cache)
        assert direct.merged(cache) == generic.merged(cache)

    @pytest.mark.parametrize("n", [4, 6])
    def test_no_trace_is_the_negative_of_another(self, monkeypatch, n):
        # cc_ba = -cc_ab: the record keeps one operator per unordered
        # pair and the (b, a) terms carry the sign in their weights, so no
        # two chains traced in one Analysis differ only in one factor,
        # there an operator and its negative
        computed: dict = {}
        real = ProductCache.chain_trace

        def spy(self, ops, dim):
            computed.setdefault(tuple(map(id, ops)), ops)  # the chain memo's key
            return real(self, ops, dim)

        monkeypatch.setattr(ProductCache, "chain_trace", spy)
        R, u, v = derive_inputs(n, 1)
        assert Analysis(Dimension(n), R, u, v).all_match()

        signed: dict = {}

        def up_to_sign(op):
            """(key, sign): op and -op share key and have opposite signs."""
            if id(op) not in signed:
                mine, theirs = (tuple(sorted(x.blades.items())) for x in (op, -op))
                signed[id(op)] = (op.den, min(mine, theirs)), 1 if mine <= theirs else -1
            return signed[id(op)]

        groups: dict = {}
        for ops in computed.values():
            pairs = [up_to_sign(op) for op in ops]
            groups.setdefault(tuple(key for key, _ in pairs), []).append([s for _, s in pairs])
        assert sum(len(ops) == 3 for ops in computed.values()) > 20
        for signs in groups.values():
            for s1, s2 in combinations(signs, 2):
                assert sum(x != y for x, y in zip(s1, s2)) != 1

    def test_no_consumer_reads_single_entries(self, monkeypatch):
        # every curvature coefficient comes from the table's pass over
        # R.entries, so R.get is never called once R is built
        inputs = [derive_inputs(4, 1), derive_inputs(6, 1)]

        def refuse(*args):
            raise AssertionError("RiemannTensor.get called")

        monkeypatch.setattr(RiemannTensor, "get", refuse)
        for R, u, v in inputs:
            dim = Dimension(R.n)
            assert Analysis(dim, R, u, v).all_match()
            lemma1_symbols(dim, R, standard_connection(dim, R, ProductCache()))


def connection_reference(rec, R):
    """(T_ab, E) built by scaling operators: T_ab = -cc_ab/8 + hh_ab/8 for
    every ordered pair (a, b), from the unrestricted sums of
    bivector_sums (a pair whose sums vanish is absent), and E = f/8 + s/4
    from the record."""
    n = R.n
    t_ab = {}
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            cc, hh = bivector_sums(R, a, b)
            if not cc.is_zero():
                t_ab[a, b] = cc.scale(Fraction(-1, 8)) + hh.scale(Fraction(1, 8))
    e = rec.f.scale(Fraction(1, 8)) + CliffordOp.from_numerators(n, 4 * rec.den, {0: rec.s})
    return t_ab, e


RECORD_TENSORS = [
    (f"random-d{n}-s{seed}", random_riemann(n, seed)) for n in (2, 4, 6) for seed in (1, 2)
] + [
    ("constant-d4", constant_curvature(4)),
    ("constant-d6", constant_curvature(6)),
    ("planar-d4", planar(4)),
    ("half-planar-d4", half_planar(4)),
    ("flat-d4", flat(4)),
]


class TestConnection:
    @pytest.mark.parametrize("R", [R for _, R in RECORD_TENSORS], ids=[i for i, _ in RECORD_TENSORS])
    def test_connection_equals_scaled_record(self, R):
        cache = ProductCache()
        conn = standard_connection(Dimension(R.n), R, cache)
        assert (conn.t_ab, conn.e) == connection_reference(curvature_ops(R, cache), R)

    def test_flat_connection_is_zero(self):
        conn = standard_connection(Dimension(4), flat(4), ProductCache())
        assert conn.t_ab == {} and conn.e.is_zero()

    def test_endomorphism_over_the_record_denominator(self):
        # f reduces to a smaller denominator than the record's, and s != 0
        R = half_planar(4)
        rec = curvature_ops(R, ProductCache())
        assert rec.f.den != rec.den and rec.s
        conn = standard_connection(Dimension(4), R, ProductCache())
        assert conn.e == connection_reference(rec, R)[1]
        assert conn.e.blades[0] == ((0, 1, 0),) and conn.e.den == 4

    @pytest.mark.parametrize("R", [R for _, R in RECORD_TENSORS], ids=[i for i, _ in RECORD_TENSORS])
    def test_hh_is_cc_on_the_chat_blades(self, R):
        n = R.n
        for cc, hh in curvature_ops(R, ProductCache()).bivectors.values():
            assert hh.den == cc.den
            assert hh.blades == {m << n: t for m, t in cc.blades.items()}


class TestRxxTerms:
    @pytest.mark.parametrize("n", [4, 6])
    def test_one_term_per_monomial(self, n):
        # the rxx terms sum the R entries that share x_j x_k xi_a xi_b
        dim = Dimension(n)
        R = random_riemann(n, 1)
        cache = ProductCache()
        expansions = (
            (dim.m, lemma2_symbols(dim, R, dim.m, -n, cache)),
            (dim.m - 1, lemma2_symbols(dim, R, dim.m, -n + 2, cache)),
            (dim.m, lemma1_symbols(dim, R, standard_connection(dim, R, cache))),
        )
        for M, exp in expansions:
            terms = [t for o in exp.orders() for t in exp.terms_at(o) if t.tag == "rxx"]
            keys = [(t.x_mono, t.xi_mono) for t in terms]
            assert len(keys) == len(set(keys))
            sums = {}
            for (a, j, b, k), r in R.entries.items():
                key = (mono(n, j, k), mono(n, a, b))
                sums[key] = sums.get(key, 0) + r
            want = {key: ScalarPoly.const(Fraction(-M, 3) * r) for key, r in sums.items() if r}
            assert want and {key: weight(t) for key, t in zip(keys, terms)} == want
            assert len(terms) < len(R.entries)


class TestComposition:
    def test_identity_symbol_is_right_neutral(self):
        dim = Dimension(2)
        R = random_riemann(2, 1)
        A = lemma2_symbols(dim, R, 1, -2, ProductCache())
        ident = SymbolExpansion(2)
        ident.add(SymbolTerm(mono(2), mono(2), 0, 1, 1, 0))
        for order in A.orders():
            got = compose(A, ident, order).merged(ProductCache())
            # x-carrying terms of A die at the base point
            want = {}
            for t in A.terms_at(order):
                if any(t.x_mono):
                    continue
                key = (order, t.x_mono, t.xi_mono, t.norm_power)
                mat = materialize(t)
                cur = want.get(key)
                want[key] = mat if cur is None else cur + mat
            want = {k: v for k, v in want.items() if not v.is_zero()}
            assert got == want

    def test_more_than_two_derivatives_rejected(self):
        dim = Dimension(2)
        A = lemma2_symbols(dim, flat(2), 1, -2, ProductCache())
        with pytest.raises(ValueError):
            compose_block(A, -2, A, -2, 3)

    def test_negative_derivative_count_is_empty(self):
        dim = Dimension(2)
        A = lemma2_symbols(dim, flat(2), 1, -2, ProductCache())
        assert compose_block(A, -2, A, -2, -1) == []


class TestProductOfFactors:
    def test_top_symbol_is_minus_the_four_factor_product(self):
        n = 4
        dim = Dimension(n)
        R = random_riemann(n, 3)
        u = FrameVector(n, (1, -2, 0, Fraction(1, 3)))
        v = FrameVector(n, (0, 1, Fraction(5, 2), 1))
        cache = ProductCache()
        exp = symbol_product_PQ(dim, R, u, v, cache)
        merged = exp.merged(cache)
        cu = vector_clifford("tildec", u)
        cv = vector_clifford("tildec", v)
        U = [cu * tildec_op(n, f) for f in range(1, n + 1)]
        V = [cv * tildec_op(n, g) for g in range(1, n + 1)]
        for f in range(1, n + 1):
            for g in range(f, n + 1):
                key = (2, mono(n), mono(n, f, g), 0)
                want = -(U[f - 1] * V[g - 1])
                if g != f:
                    want = want - U[g - 1] * V[f - 1]
                assert merged.get(key, zero(n)) == want

    def test_order_one_bucket_is_empty(self):
        dim = Dimension(4)
        R = random_riemann(4, 4)
        exp = symbol_product_PQ(
            dim, R, FrameVector.basis(4, 1), FrameVector.basis(4, 2), ProductCache()
        )
        assert exp.terms_at(1) == []

    def test_order_zero_matches_direct_curvature_contraction(self):
        # sigma_0 = sum_{j,p,s,t} R_{jpst} U_j V_p [ -(1/8) c_s c_t
        #           + (1/8) chat_s chat_t ] with U, V the contracted pairs
        n = 4
        dim = Dimension(n)
        R = random_riemann(n, 7)
        u = FrameVector(n, (2, 0, 1, 0))
        v = FrameVector(n, (0, Fraction(1, 2), 0, 1))
        cache = ProductCache()
        exp = symbol_product_PQ(dim, R, u, v, cache)
        merged = exp.merged(cache)
        cu = vector_clifford("tildec", u)
        cv = vector_clifford("tildec", v)
        direct = zero(n)
        for j in range(1, n + 1):
            for p in range(1, n + 1):
                UV = cu * tildec_op(n, j) * cv * tildec_op(n, p)
                for s in range(1, n + 1):
                    for t in range(1, n + 1):
                        r = R.get(j, p, s, t)
                        if not r:
                            continue
                        direct = direct + (UV * c_op(n, s) * c_op(n, t)).scale(
                            Fraction(-1, 8) * r
                        )
                        direct = direct + (UV * hatc_op(n, s) * hatc_op(n, t)).scale(
                            Fraction(1, 8) * r
                        )
        key = (0, mono(n), mono(n), 0)
        assert merged[key] == direct

    def test_order_zero_tags_split_cc_and_hchc(self):
        dim = Dimension(4)
        R = constant_curvature(4)
        exp = symbol_product_PQ(
            dim, R, FrameVector.basis(4, 1), FrameVector.basis(4, 1), ProductCache()
        )
        tags = {t.tag for t in exp.terms_at(0)}
        assert tags == {"cc", "hchc"}


class TestEndomorphismSymbol:
    def test_uv_symbol_single_term(self):
        dim = Dimension(4)
        u = FrameVector.basis(4, 1)
        v = FrameVector.basis(4, 2)
        exp = uv_symbol(dim, u, v)
        terms = exp.terms_at(0)
        assert len(terms) == 1
        assert terms[0].ops[0] == tildec_op(4, 1) * tildec_op(4, 2)
