"""Symbol families, derivatives, and composition against direct oracles."""

import hashlib
import itertools
from collections import Counter
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import combinations
from math import comb, lcm
from operator import mul

import pytest

import wres.clifford
import wres.residue
import wres.scalars
import wres.symbols
from wres.cli import _SUPPORTED_DIMS
from wres.clifford import CliffordOp, Dimension, FrameVector, ProductCache
from wres.curvature import RiemannTensor, constant_curvature, contract, flat, random_riemann
from wres.residue import Analysis, composed_weights, derive_inputs, integrate_blocks
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
    principal_symbol,
    standard_connection,
    symbol_product_PQ,
    symbols_PQ,
    uv_symbol,
)

from oracles import (
    basis, c_op, entry, hatc_op, identity, order, planar, projected_riemann, tildec_op, vector_clifford,
    weight, wide_draw, zero,
)

ONE = ScalarPoly.one()


def mono(n, *idx):
    out = [0] * n
    for j in idx:
        out[j - 1] += 1
    return tuple(out)


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
        t = SymbolTerm(mono(n), mono(n, 1, 1, 2), 0, 1, 1)
        out = d_xi(t, 1)
        assert len(out) == 1
        assert out[0].xi_mono == mono(n, 1, 2)
        assert weight(out[0]) == ScalarPoly.const(2)

    def test_xi_derivative_hits_norm_factor(self):
        # d/dxi_1 (xi_1 |xi|^-2) = |xi|^-2 - 2 xi_1^2 |xi|^-4
        n = 4
        t = SymbolTerm(mono(n), mono(n, 1), -2, 1, 1)
        out = d_xi(t, 1)
        assert len(out) == 2
        plain, normside = out
        assert plain.xi_mono == mono(n) and plain.norm_power == -2
        assert weight(plain) == ONE
        assert normside.xi_mono == mono(n, 1, 1) and normside.norm_power == -4
        assert weight(normside) == ScalarPoly.const(-2)

    def test_xi_derivative_in_absent_variable(self):
        n = 4
        t = SymbolTerm(mono(n), mono(n, 2), 0, 1, 1)
        assert d_xi(t, 1) == []

    def test_derived_differentiates_only_terms_that_vary(self, monkeypatch):
        # SymbolExpansion.derived skips a term free of xi_j with no norm
        # factor, whose d_xi_j is zero: no d_xi call of a dense dim-6
        # Analysis returns nothing
        calls = []

        def spy(t, j):
            calls.append(real(t, j))
            return calls[-1]

        real = wres.symbols.d_xi
        monkeypatch.setattr(wres.symbols, "d_xi", spy)
        assert Analysis(Dimension(6), *derive_inputs(6, 1)).all_match()
        assert calls and all(calls)

    def test_order_is_xi_degree_plus_norm_power(self):
        exp = SymbolExpansion(4)
        exp.add(SymbolTerm(mono(4), mono(4, 1, 2), -6, 1, 1))
        assert exp.orders() == [-4]


class TestExpansionPlumbing:
    def test_zero_scalar_terms_are_dropped(self):
        exp = SymbolExpansion(4)
        exp.add(SymbolTerm(mono(4), mono(4), 0, 1, 0))
        assert exp.orders() == []

    def test_every_family_writes_integer_weights(self):
        # SymbolTerm does not coerce its weight, so this is where the
        # integer form num / den, den > 0, is held
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
            assert type(t.den) is int and type(t.num) is int
            assert t.den > 0

    def test_merged_cancels_opposite_terms(self):
        exp = SymbolExpansion(4)
        exp.add(SymbolTerm(mono(4), mono(4, 1), -2, 1, 1))
        exp.add(SymbolTerm(mono(4), mono(4, 1), -2, 1, -1))
        assert exp.merged(ProductCache()) == {}

    def test_materialize_folds_chain_through_cache(self):
        n = 4
        a, b = tildec_op(n, 1), tildec_op(n, 2)
        t = SymbolTerm(mono(n), mono(n), 0, 2, 1, (a, b))
        assert materialize(t) == (a * b).scale(Fraction(1, 2))

    def test_dump_is_stable_across_reconstruction(self):
        dim = Dimension(4)
        R = random_riemann(4, 5)
        one = dump(lemma2_symbols(dim, R, 2, -4, ProductCache()))
        two = dump(lemma2_symbols(dim, R, 2, -4, ProductCache()))
        assert one == two
        other = dump(lemma2_symbols(dim, random_riemann(4, 6), 2, -4, ProductCache()))
        assert one != other


class TestDimensionChecks:
    """Each public builder names the argument whose dimension is not its
    own, in the message Analysis uses, before it reads any entry."""

    def test_lemma2_symbols(self):
        with pytest.raises(ValueError, match="^R has dimension 6, but the symbol has dimension 4$"):
            lemma2_symbols(Dimension(4), random_riemann(6, 1), 2, -4, ProductCache())

    def test_symbols_PQ(self):
        dim, cache = Dimension(4), ProductCache()
        with pytest.raises(ValueError, match="^R has dimension 6, but the symbol has dimension 4$"):
            symbols_PQ(dim, random_riemann(6, 1), basis(4, 1), cache)
        with pytest.raises(ValueError, match="^w has dimension 6, but the symbol has dimension 4$"):
            symbols_PQ(dim, random_riemann(4, 1), basis(6, 1), cache)

    def test_principal_symbol(self):
        with pytest.raises(ValueError, match="^w has dimension 2, but the symbol has dimension 4$"):
            principal_symbol(Dimension(4), basis(2, 1))

    def test_uv_symbol(self):
        dim, e4, e6 = Dimension(4), basis(4, 1), basis(6, 1)
        with pytest.raises(ValueError, match="^u has dimension 6, but the symbol has dimension 4$"):
            uv_symbol(dim, e6, e4)
        with pytest.raises(ValueError, match="^v has dimension 6, but the symbol has dimension 4$"):
            uv_symbol(dim, e4, e6)

    def test_standard_connection(self):
        with pytest.raises(ValueError, match="^R has dimension 6, but the connection has dimension 4$"):
            standard_connection(Dimension(4), random_riemann(6, 1), ProductCache())

    def test_lemma1_symbols(self):
        R4, R6, cache = random_riemann(4, 1), random_riemann(6, 1), ProductCache()
        conn6 = standard_connection(Dimension(6), R6, cache)
        with pytest.raises(ValueError, match="^R has dimension 6, but the symbol has dimension 4$"):
            lemma1_symbols(Dimension(4), R6, conn6)
        with pytest.raises(ValueError, match="^conn has dimension 6, but the symbol has dimension 4$"):
            lemma1_symbols(Dimension(4), R4, conn6)


def half_planar(n):
    """R_1212 = 1/2: the record's f reduces below its denominator and s != 0."""
    return RiemannTensor(
        n, {(1, 2, 1, 2): "1/2", (2, 1, 2, 1): "1/2", (1, 2, 2, 1): "-1/2", (2, 1, 1, 2): "-1/2"}
    )


CURVATURES = [
    (f"{kind}-d{n}", make(n))
    for n in (2, 4, 6, 8)
    for kind, make in (
        ("random", lambda n: random_riemann(n, 1)),
        ("constant", constant_curvature),
        ("flat", flat),
        ("planar", planar),
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
        assert all(t.num and not weight(t).is_real() for t in P.terms_at(1))
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
            SymbolTerm(*key, 3, 2),
            SymbolTerm(*key, 4, 1, (a, b)),
            SymbolTerm(*key, 5, -2, (a,)),
            SymbolTerm(*key, 7, 1, (a, b, c1)),
            # another: c1 c1 = -1 against the identity chain and a scalar
            SymbolTerm(*gone, 1, 1, (c1, c1)),
            SymbolTerm(*gone, 2, 1, ()),
            SymbolTerm(*gone, 2, 1, (identity(n),)),
        ):
            exp.add(t)
        got, want = exp.merged(None), merged_reference(exp)
        assert got == want and set(got) == {(-1,) + key}

    def test_merged_sums_without_a_canonical_pass(self, monkeypatch):
        # the dim-6 concrete family sums each key in one real-integer
        # pass: no per-term coefficient, scale or sum, and neither the
        # complex kernel nor a canonical-form pass, for chain keys and
        # no-op keys alike; the curvature record and the connection are
        # real constants, built without any _canonical pass either
        dim, R, cache = Dimension(6), random_riemann(6, 1), ProductCache()
        calls = Counter()

        def counting(name, fn):
            def run(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return run

        for module in (wres.scalars, wres.clifford, wres.symbols):
            for name in ("_canonical", "_imac_each"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        for name in ("scale", "__add__"):
            monkeypatch.setattr(CliffordOp, name, counting(name, getattr(CliffordOp, name)))
        real_slots = ScalarPoly._from_slots.__func__
        monkeypatch.setattr(
            ScalarPoly, "_from_slots", classmethod(counting("ScalarPoly", real_slots))
        )
        monkeypatch.setattr(
            SymbolTerm, "materialize", counting("materialize", lambda t: None), raising=False
        )
        conn = standard_connection(dim, R, cache)
        assert conn.rec is curvature_ops(R, cache) and conn.rec.bivectors and conn.t_ab
        assert calls["_canonical"] == 0
        exp = lemma2_symbols(dim, R, 3, -6, cache)
        calls.clear()
        merged = exp.merged(cache)
        chain_keys = {
            (o, t.x_mono, t.xi_mono, t.norm_power) for o in exp.orders() for t in exp.terms_at(o) if t.ops
        }
        assert merged and chain_keys and len(chain_keys) < len(merged)
        assert not calls

    def test_an_imaginary_op_is_refused(self):
        # a symbol weight's i follows from its term's order, so an op
        # with an imaginary numerator is refused, alone or in a chain,
        # and a real key beside it does not hide it
        n, i = 4, GaussianRational(0, 1)
        c1, c2 = c_op(n, 1), c_op(n, 2)
        for ops in ((c1.scale(i),), (c1.scale(i), c2), (c1, c2.scale(GaussianRational(1, 1)))):
            exp = SymbolExpansion(n)
            exp.add(SymbolTerm(mono(n), mono(n, 1), -2, 1, 1, (c2,)))
            exp.add(SymbolTerm(mono(n), mono(n), -2, 3, 1, ops))
            with pytest.raises(ValueError, match="must be real"):
                exp.merged(None)


class TestInversePowerSymbols:
    def test_flat_curvature_leaves_only_the_top_delta_family(self):
        dim = Dimension(4)
        exp = lemma2_symbols(dim, flat(4), 2, -4, ProductCache())
        assert exp.orders() == [-4]
        (t,) = exp.terms_at(-4)
        assert t.tag == "delta" and t.x_mono == t.xi_mono == mono(4) and t.norm_power == -4
        assert weight(t) == ONE and not t.ops

    @pytest.mark.parametrize("n", [2, 4, 6], ids=["d2", "d4", "d6"])
    def test_one_term_top_symbol_traces_like_the_metric_contraction(self, n):
        # the n-term top symbol sum_a xi_a^2 |xi|^(-2M-2), built here as
        # the reference, gives every tag the engine's single-term density;
        # only the full inverse power has a top symbol (the reduced power
        # is built at its lowest order alone)
        dim, m = Dimension(n), n // 2
        R, u, v = derive_inputs(n, 1)
        cache = ProductCache()
        exponent = -2 * m
        B = lemma2_symbols(dim, R, m, exponent, cache)
        reference = SymbolExpansion(n)
        for o in B.orders():
            for t in B.terms_at(o):
                if t.tag != "delta":
                    reference.add(t)
        for a in range(1, n + 1):
            reference.add(SymbolTerm(mono(n), mono(n, a, a), -2 * m - 2, 1, 1, (), "delta"))
        assert len(reference.terms_at(exponent)) == len(B.terms_at(exponent)) + n - 1

        def traced(blocks):
            return integrate_blocks({"": blocks}, n)[""]

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
        # the reduced power is built at order -2m alone, the one order
        # its x- and xi-free left factor reads, and there only its terms
        # even in xi, the ones that left factor pairs; they equal the
        # generic M = m - 1 family's x-free, even-xi terms of that order
        direct = lemma2_symbols(dim, R, dim.m, -2 * dim.m + 2, cache)
        generic = lemma1_symbols(dim, R, conn, m_family=dim.m - 1)
        assert direct.orders() == [-2 * dim.m]
        want = {
            key: c
            for key, c in generic.merged(cache).items()
            if key[0] == -2 * dim.m and not any(key[1]) and not any(e % 2 for e in key[2])
        }
        assert want and direct.merged(cache) == want

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
        exp = symbols_PQ(dim, flat(4), basis(4, 1), ProductCache())
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
                    w = Fraction(1, 2) * entry(R, l, p, s, t)
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
            w = entry(R, b, a, t, s)
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
                    f = f + quad.scale(entry(R, i, j, k, l))
    assert not f.is_zero()
    assert f_op == f


def fractions(op, sign=1):
    """{blade mask: sign * coefficient} of a real constant op."""
    assert all(len(terms) == 1 and terms[0][0] == terms[0][2] == 0 for terms in op.blades.values())
    return {mask: Fraction(sign * re, op.den) for mask, ((_, re, _),) in op.blades.items()}


@lru_cache(maxsize=None)
def generator_product(n, *gens):
    """{mask: sign} of a product of generators, each (kind, index) with
    kind c_op or hatc_op, multiplied out by the engine's algebra."""
    return fractions(reduce(mul, (kind(n, j) for kind, j in gens)))


def record_by_definition(R):
    """(cc, hh, f, rxx, ricci) from all n^4 entries of R, as Fractions,
    zero values dropped: cc[a, b] = sum_{s,t} R_{bats} c_s c_t and hh[a,
    b] likewise with chat, for every ordered pair; f = sum R_{ijkl} chat_i
    chat_j c_k c_l; rxx[x_j x_l, xi_i xi_k] = sum R_{ijkl}; ricci[a, b] =
    sum_p R_{apbp}."""
    n = R.n
    cc, hh, f, rxx, ricci = {}, {}, {}, {}, {}

    def add(acc, key, value):
        acc[key] = acc.get(key, 0) + value

    for (i, j, k, l), r in R.entries.items():
        # R_{ijkl} is R_{bats} with (a, b, s, t) = (j, i, l, k)
        for kind, out in ((c_op, cc), (hatc_op, hh)):
            for mask, w in generator_product(n, (kind, l), (kind, k)).items():
                add(out.setdefault((j, i), {}), mask, w * r)
        for mask, w in generator_product(n, (hatc_op, i), (hatc_op, j), (c_op, k), (c_op, l)).items():
            add(f, mask, w * r)
        add(rxx, (mono(n, j, l), mono(n, i, k)), r)
        if j == l:
            add(ricci, (i, k), r)
    nonzero = lambda acc: {key: v for key, v in acc.items() if v}
    cc = {ab: nonzero(m) for ab, m in cc.items() if nonzero(m)}
    hh = {ab: nonzero(m) for ab, m in hh.items() if nonzero(m)}
    return cc, hh, nonzero(f), nonzero(rxx), nonzero(ricci)


RECORD_DEFINITION_CASES = [
    pytest.param(lambda n=n, make=make: make(n), id=f"{kind}-d{n}")
    for n in (2, 4, 6, 8)
    for kind, make in (
        ("random", lambda n: random_riemann(n, 1)),
        ("constant", constant_curvature),
        ("planar", planar),
        ("wide", lambda n: RiemannTensor(n, projected_riemann(n, 19, wide_draw))),
    )
]


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
        assert ricci == {(a, b): Fraction(contr.ricci[(a - 1) * R.n + b - 1], contr.den) for a in idx for b in idx}
        assert Fraction(rec.s, rec.den) == Fraction(contr.scalar, contr.den)
        assert all(rec.ricci.values()) and list(rec.ricci) == sorted(rec.ricci)

    def test_one_record_per_analysis(self, monkeypatch):
        # B1, B2 and the first-order factors all read one record: R's
        # integer numerators are looked up once per independent quad by
        # its pass, walked once by the closed forms' contract, and read
        # by nothing else
        class CountingNums(dict):
            passes = 0
            lookups: list = []

            def items(self):
                self.passes += 1
                return super().items()

            def get(self, key, default=None):
                self.lookups.append(key)
                return super().get(key, default)

        builds = []
        real = ProductCache.named

        def spy(self, key, build):
            def counted():
                builds.append(key[0])
                return build()

            return real(self, key, counted)

        monkeypatch.setattr(ProductCache, "named", spy)
        R, u, v = derive_inputs(6, 1)
        R.nums = CountingNums(R.nums)
        assert Analysis(Dimension(6), R, u, v).all_match()
        assert builds == ["curvature_ops"]
        assert R.nums.passes == 1
        assert len(R.nums.lookups) == len(set(R.nums.lookups)) == comb(6, 2) ** 2
        assert all(i < j and k < l for i, j, k, l in R.nums.lookups)

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
        real = wres.residue.trace_sums

        def spy(sums, n):
            # the chains traced, keyed by their ids
            computed.update((key, ops) for _, chains in sums.values() for key, (ops, w) in chains.items() if w)
            return real(sums, n)

        monkeypatch.setattr(wres.residue, "trace_sums", spy)
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



    @pytest.mark.parametrize("make", RECORD_DEFINITION_CASES)
    def test_record_equals_its_definition_from_every_entry(self, make):
        # every field against record_by_definition, which reads all n^4
        # entries and builds each bivector and f from generator products
        R = make()
        rec = curvature_ops(R, ProductCache())
        cc, hh, f, rxx, ricci = record_by_definition(R)
        assert rec.den == lcm(*(r.denominator for r in R.entries.values()))
        idx = range(1, R.n + 1)
        for a in idx:
            for b in idx:
                if (a, b) not in cc:
                    assert (min(a, b), max(a, b)) not in rec.bivectors
                    continue
                stored = rec.bivectors[min(a, b), max(a, b)]
                sign = 1 if a < b else -1
                assert [fractions(op, sign) for op in stored] == [cc[a, b], hh[a, b]]
        assert fractions(rec.f) == f
        # rxx holds the even-xi keys (x_j x_l, xi_i^2) alone
        even = {key: v for key, v in rxx.items() if not any(e % 2 for e in key[1])}
        assert {key: Fraction(v, rec.den) for key, v in rec.rxx.items()} == even
        assert {ab: Fraction(v, rec.den) for ab, v in rec.ricci.items()} == ricci
        assert list(rec.ricci) == sorted(rec.ricci) and all(rec.ricci.values())
        assert Fraction(rec.s, rec.den) == sum(ricci.get((a, a), 0) for a in idx)
        assert all(type(v) is int for v in (*rec.rxx.values(), *rec.ricci.values(), rec.s))

    @pytest.mark.parametrize("make", RECORD_DEFINITION_CASES)
    def test_record_reads_only_the_independent_entries(self, make):
        # the entries with i < j and k < l fix the others up to sign, and
        # the record reads no other: without them it is the same record
        R = make()
        kept = {(i, j, k, l): r for (i, j, k, l), r in R.entries.items() if i < j and k < l}
        assert kept and len(kept) < len(R.entries)
        assert curvature_ops(RiemannTensor(R.n, kept, validate=False), ProductCache()) == curvature_ops(
            R, ProductCache()
        )

    @pytest.mark.parametrize("n", _SUPPORTED_DIMS)
    def test_generated_tensors_satisfy_every_symmetry(self, n):
        # the generators build with validate=False, and the record relies
        # on their pair antisymmetries
        for R in (flat(n), constant_curvature(n), random_riemann(n, 1)):
            R.validate()


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
        # the rxx terms sum the R entries that share x_j x_k xi_a^2; the
        # monomials x_j x_k xi_a xi_b with a != b, odd in xi, are not built
        dim = Dimension(n)
        R = random_riemann(n, 1)
        cache = ProductCache()
        expansions = (
            (dim.m, lemma2_symbols(dim, R, dim.m, -n, cache)),
            (dim.m, lemma1_symbols(dim, R, standard_connection(dim, R, cache))),
            (dim.m - 1, lemma1_symbols(dim, R, standard_connection(dim, R, cache), m_family=dim.m - 1)),
        )
        for M, exp in expansions:
            terms = [t for o in exp.orders() for t in exp.terms_at(o) if t.tag == "rxx"]
            keys = [(t.x_mono, t.xi_mono) for t in terms]
            assert len(keys) == len(set(keys))
            sums = {}
            for (a, j, b, k), r in R.entries.items():
                if a == b:
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
        ident.add(SymbolTerm(mono(2), mono(2), 0, 1, 1))
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

    def test_product_phase_matches_complex_arithmetic(self):
        # A = 2/3 i^(oa mod 2) xi_1^(oa+2) |xi|^-2 against B = -5/7 i^(ob
        # mod 2) x_1^k xi_1^b |xi|^(ob-b), b = ob mod 2: at x = 0 the
        # block is (-i)^k d_xi_1^k[A] B, its derivative taken here by the
        # product rule on t^a (t^2 + s)^-1, t = xi_1, s = xi_2^2, and its
        # phase multiplied out with Python's 1j.  The sum of the product
        # terms, each i^(order mod 2) num / den xi^beta |xi|^p, must equal
        # it at a rational point.
        n, (t, x2) = 2, (Fraction(1, 2), Fraction(2, 3))
        s, norm2 = x2 * x2, t * t + x2 * x2

        def dk(a, k):
            """d^k/dt^k of t^a (t^2 + s)^-1, for k <= 2 and a >= 2, by Leibniz."""
            g = [1 / norm2, -2 * t / norm2**2, (6 * t * t - 2 * s) / norm2**3]
            ta = [t**a, a * t ** (a - 1), a * (a - 1) * t ** (a - 2)]
            return sum(comb(k, j) * ta[j] * g[k - j] for j in range(k + 1))

        def exact(phase: complex, value: Fraction) -> tuple:
            return int(phase.real) * value, int(phase.imag) * value

        for oa, ob, k in itertools.product(range(4), range(-5, -1), range(3)):
            b = ob % 2
            A, B = SymbolExpansion(n), SymbolExpansion(n)
            A.add(SymbolTerm(mono(n), mono(n, *[1] * (oa + 2)), -2, 3, 2))
            B.add(SymbolTerm(mono(n, *[1] * k), mono(n, *[1] * b), ob - b, 7, -5))
            terms = compose_block(A, oa, B, ob, k)
            assert terms and all(order(u) == oa + ob - k and not u.ops for u in terms)
            got = [Fraction(0), Fraction(0)]
            for u in terms:
                value = Fraction(u.num, u.den) * t ** u.xi_mono[0] * x2 ** u.xi_mono[1]
                value *= norm2 ** (u.norm_power // 2)
                got = [g + e for g, e in zip(got, exact(1j ** (order(u) % 2), value))]
            phase = 1j ** (oa % 2) * (-1j) ** k * 1j ** (ob % 2)
            b_value = Fraction(-5, 7) * t**b * norm2 ** ((ob - b) // 2)
            want = exact(phase, Fraction(2, 3) * dk(oa + 2, k) * b_value)
            assert tuple(got) == want, (oa, ob, k)


    @pytest.mark.parametrize("tag", ["rxx", "ric", "cc", "hchc", "f", "s"])
    def test_a_pair_of_two_curvature_tags_is_refused(self, monkeypatch, tag):
        # every density is linear in R, so a factor pair whose factors
        # both carry a curvature tag is refused by both compositions;
        # "" and "delta" are not curvature tags
        n = 4
        B = lemma2_symbols(Dimension(n), random_riemann(n, 1), 2, -4, ProductCache())
        assert {t.tag for t in B.terms_at(-6) if not any(t.x_mono)} == {"ric", "f", "s"}
        for a_tag in ("", "delta", tag):
            A = SymbolExpansion(n)
            A.add(SymbolTerm(mono(n), mono(n), 0, 1, 1, (tildec_op(n, 1),), a_tag))
            for compose_pairs in (compose_block, lambda *block: composed_weights([block], n)):
                if a_tag == tag:
                    with pytest.raises(ValueError, match="two curvature tags"):
                        compose_pairs(A, 0, B, -6, 0)
                else:
                    assert compose_pairs(A, 0, B, -6, 0)
        # planted in the engine: the uv symbol meets B2's curvature terms
        real = wres.residue.uv_symbol

        def planted(dim, u, v):
            exp = real(dim, u, v)
            exp.add(SymbolTerm(mono(dim.n), mono(dim.n), 0, 1, 1, (), tag))
            return exp

        monkeypatch.setattr(wres.residue, "uv_symbol", planted)
        with pytest.raises(ValueError, match="two curvature tags"):
            Analysis(Dimension(n), *derive_inputs(n, 1))


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
            dim, R, basis(4, 1), basis(4, 2), ProductCache()
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
                        r = entry(R, j, p, s, t)
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
            dim, R, basis(4, 1), basis(4, 1), ProductCache()
        )
        tags = {t.tag for t in exp.terms_at(0)}
        assert tags == {"cc", "hchc"}


class TestEndomorphismSymbol:
    def test_uv_symbol_single_term(self):
        dim = Dimension(4)
        u = basis(4, 1)
        v = basis(4, 2)
        exp = uv_symbol(dim, u, v)
        terms = exp.terms_at(0)
        assert len(terms) == 1
        assert terms[0].ops[0] == tildec_op(4, 1) * tildec_op(4, 2)
