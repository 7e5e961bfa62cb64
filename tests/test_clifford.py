"""Matrix realizations of the three Clifford actions and their relations."""

import random
from fractions import Fraction

import pytest

from wres import clifford
from wres.clifford import CliffordOp, Dimension, FrameVector, ProductCache, inner, tildec
from wres.curvature import random_riemann
from wres.residue import Analysis, derive_inputs
from wres.scalars import GaussianRational, ScalarPoly
from wres.symbols import curvature_ops

from oracles import (
    anticommutator,
    c_op,
    ext_op,
    hatc_op,
    identity,
    int_op,
    tildec_op,
    trace,
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
        e2 = FrameVector.basis(4, 2)
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
        tx = tildec(x)
        cy = vector_clifford("c", y)
        hy = vector_clifford("hatc", y)
        ty = tildec(y)
        assert anticommutator(tx, cy) == scaled_identity(n, -self.sum_poly.scale(g))
        assert anticommutator(tx, ty) == scaled_identity(n, -self.ab2.scale(g))
        assert anticommutator(tx, hy) == scaled_identity(n, self.diff_poly.scale(g))

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_tildec_matches_the_generator_fold(self, n):
        # the engine's one-pass build against the fold of n scaled
        # generators, zero components and basis vectors included
        rng = random.Random(7000 + n)
        vectors = [FrameVector.basis(n, j) for j in range(1, n + 1)]
        vectors += [
            rational_vector(n, [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)])
            for _ in range(20)
        ]
        vectors.append(rational_vector(n, [0] * n))
        for w in vectors:
            got, want = tildec(w), vector_clifford("tildec", w)
            assert (got.den, got.blades) == (want.den, want.blades)

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
        e1 = FrameVector.basis(n, 1)
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
        assert ProductCache().chain_trace((a, b), n) == trace(a * b)


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
            ProductCache().chain_trace((c_op(2, 1), c_op(4, 1)), 2)


class TestProductCache:
    def test_chain_trace_values_and_memo(self):
        cache = ProductCache()
        n = 4
        assert cache.chain_trace((), n) == ScalarPoly.const(16)
        a, b = tildec_op(n, 1), tildec_op(n, 1)
        val = cache.chain_trace((a, b), n)
        assert val == ScalarPoly.monomial(1, 1, -16)
        assert cache.chain_trace((a, b), n) == val
        triple = cache.chain_trace((a, b, identity(n)), n)
        assert triple == val


def gaussian_op(n, rng, masks):
    """Operator with a seeded Gaussian-rational polynomial on each mask,
    its imaginary part never zero."""
    blades = {}
    for mask in masks:
        terms = {
            (rng.randint(0, 1), rng.randint(0, 1)): GaussianRational(
                Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
                Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 3)),
            )
            for _ in range(rng.randint(1, 2))
        }
        blades[mask] = ScalarPoly(terms)
    return op_of(n, blades)


def bivector_masks(n, offset):
    """The c-bivector blades (offset 0) or chat-bivector blades (offset n)."""
    return [(1 << i | 1 << j) << offset for i in range(n) for j in range(i + 1, n)]


class TestPrefixMemo:
    """Three-factor chains that share their first two factors, in both
    orders and against last factors of the same, disjoint and
    overlapping blade supports, each trace to the materialised product,
    whichever last factor comes first."""

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_shared_prefix_traces_match_products(self, n):
        rng = random.Random(5000 + n)
        low = [m for m in range(1 << (2 * n)) if m.bit_count() <= 2]
        a, b, b2 = (gaussian_op(n, rng, rng.sample(low, min(8, len(low)))) for _ in range(3))
        cbiv, hbiv = bivector_masks(n, 0), bivector_masks(n, n)
        lasts = [
            gaussian_op(n, rng, cbiv),
            gaussian_op(n, rng, cbiv),  # the same support again: nothing to fill
            gaussian_op(n, rng, hbiv),  # disjoint from the first
            gaussian_op(n, rng, cbiv[: len(cbiv) // 2 + 1] + hbiv[-1:] + [0]),  # overlapping
            gaussian_op(n, rng, [c | h for c in cbiv for h in hbiv]),  # 225 blades at n = 6
            identity(n),
        ]
        assert len(lasts[4].blades) == len(cbiv) ** 2
        # (a, b) and (a, b2) share a first factor, (b, a) is the prefix reversed
        prefixes = ((a, b), (a, b2), (b, a))
        for order in (lasts, lasts[::-1]):
            cache = ProductCache()
            traces = []
            for c in order:
                for x, y in prefixes:
                    got = cache.chain_trace((x, y, c), n)
                    assert got == trace(x * y * c) == ProductCache().chain_trace((x, y, c), n)
                    assert cache.chain_trace((x, y, c), n) is got
                    traces.append(got)
            assert all(any(t for t in traces[i : i + 3]) for i in range(0, len(traces), 3))
            assert not all(t.is_real() for t in traces)


def chain_oracle(ops, n):
    """tr of the materialised product of the chain, identity if empty."""
    out = identity(n)
    for op in ops:
        out = out * op
    return trace(out)


def xor_span(n, rng, size):
    """At least `size` blade masks closed under XOR, spanned by random
    masks, so chains drawn from them have nonzero scalar parts."""
    span = {0}
    while len(span) < size:
        g = rng.randrange(1, 1 << (2 * n))
        span |= {m ^ g for m in span}
    return sorted(span)


def mixed_op(n, rng, masks, bits):
    """Operator whose blades each carry a0*b0, b0^2 and a constant:
    complex numerators of about `bits` bits with mixed signs, over small
    denominators."""

    def num():
        return rng.choice((-1, 1)) * rng.randint(1 << bits, 1 << (bits + 1))

    def coeff():
        return GaussianRational(Fraction(num(), rng.randint(1, 7)), Fraction(num(), rng.randint(1, 7)))

    return op_of(n, {m: ScalarPoly({(1, 1): coeff(), (0, 2): coeff(), (0, 0): coeff()}) for m in masks})


class TestPackedTraces:
    """chain_trace multiplies Kronecker-packed integers: every trace of a
    chain of 0 to 3 factors equals the scalar part of the materialised
    product, and one cache widens its digits as wider chains arrive."""

    @staticmethod
    def chains(ops):
        a, b, c, d = ops
        return [(), (a,), (c,), (a, b), (b, c), (a, b, c), (a, b, d), (b, a, d), (c, d, a)]

    @classmethod
    def widening_chains(cls, n):
        rng = random.Random(1900 + n)
        span = xor_span(n, rng, 8)
        narrow = [mixed_op(n, rng, rng.sample(span, 5), 2) for _ in range(4)]
        wide = [mixed_op(n, rng, rng.sample(span, 5), 300 + 30 * i) for i in range(4)]
        # narrow chains first; then the narrow prefixes meet wide last factors,
        # so their narrow views are packed again at the wider width
        return cls.chains(narrow) + cls.chains(wide) + [
            (narrow[0], narrow[1], wide[2]), (narrow[1], narrow[0], wide[3]),
            (wide[0], narrow[1], wide[1]), (narrow[2], wide[3], narrow[3]),
        ]

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_wide_numerators_widen_one_cache(self, n):
        chains = self.widening_chains(n)
        cache = ProductCache()
        traces = []
        for ops in chains:
            got = cache.chain_trace(ops, n)
            assert got == chain_oracle(ops, n) == ProductCache().chain_trace(ops, n)
            traces.append(got)
        assert sum(map(bool, traces)) > len(traces) // 2
        widest = max(max(abs(re), abs(im)).bit_length() for t in traces for _, re, im in t.nums)
        assert widest > 3 * 300

    def test_each_view_is_packed_once_per_width(self, monkeypatch):
        packs = []

        def spy(blades, width):
            packs.append((blades, width))  # holds blades, so its id stays unique
            return kron_pack(blades, width)

        def packings(run):
            packs.clear()
            run()
            keys = [(id(blades), width) for blades, width in packs]
            assert keys and len(set(keys)) == len(keys)
            return keys

        kron_pack = clifford._kron_pack
        monkeypatch.setattr(clifford, "_kron_pack", spy)
        for n in (4, 6):
            packings(lambda: Analysis(Dimension(n), *derive_inputs(n, 1)))
        for n in (2, 4, 6):
            cache = ProductCache()
            keys = packings(lambda: [cache.chain_trace(ops, n) for ops in self.widening_chains(n)])
            # the cache widened, and views packed narrow were packed again
            assert len({width for _, width in keys}) > 1
            assert len({blades for blades, _ in keys}) < len(keys)

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_non_homogeneous_complex_chains(self, n):
        rng = random.Random(1950 + n)
        span = xor_span(n, rng, 8)
        ops = [mixed_op(n, rng, rng.sample(span, 6), 3) for _ in range(4)]
        ops[3] = ops[3] + random_element(n, rng, 4)  # a0 and b0 degrees up to 2, some real
        cache = ProductCache()
        traces = []
        for chain in self.chains(ops):
            got = cache.chain_trace(chain, n)
            assert got == chain_oracle(chain, n)
            traces.append(got)
        degrees = {sum(deg) for t in traces for deg in t.terms}
        assert len(degrees) >= 4
        assert not all(t.is_real() for t in traces)


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


def random_blades(n, rng, blades):
    """{mask: ScalarPoly}: random c/chat blades, polynomial coefficients."""
    out = {}
    for _ in range(blades):
        mask = rng.randrange(1 << (2 * n))
        terms = {
            (rng.randint(0, 2), rng.randint(0, 2)): GaussianRational(
                Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
                Fraction(rng.choice((0, 0, rng.randint(-3, 3))), rng.randint(1, 3)),
            )
            for _ in range(rng.randint(1, 3))
        }
        poly = ScalarPoly(terms)
        if poly:
            out[mask] = poly
    return out


def random_element(n, rng, blades):
    """Sparse Cl(n,n) element with random_blades' blades and coefficients."""
    return op_of(n, random_blades(n, rng, blades))


class TestSignRuleOracle:
    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_generators_are_ext_minus_and_plus_int(self, n):
        for j in range(1, n + 1):
            ext, cont = plain_ext(n, j), plain_int(n, j)
            assert c_op(n, j).rows == plain_combine(ext, cont, -1)
            assert hatc_op(n, j).rows == plain_combine(ext, cont, 1)

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_tildec_is_a0_ext_minus_b0_int(self, n):
        rng = random.Random(6000 + n)
        w = rational_vector(n, [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)])
        want = [dict() for _ in range(1 << n)]
        for j in range(1, n + 1):
            a0, b0 = ScalarPoly.a0().scale(w[j]), ScalarPoly.b0().scale(w[j])
            want = plain_combine(want, plain_scale(plain_ext(n, j), a0), 1)
            want = plain_combine(want, plain_scale(plain_int(n, j), b0), -1)
        assert tildec(w).rows == want

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_products_and_traces_match_matrices(self, n):
        rng = random.Random(1000 + n)
        cache = ProductCache()
        for trial in range(3):
            # rotate the largest factor through each chain position
            sizes = [2, 3, 6]
            sizes = sizes[trial:] + sizes[:trial]
            x, y, z = (random_element(n, rng, k) for k in sizes)
            xy = matmul(x.rows, y.rows)
            assert (x * y).rows == xy
            assert ProductCache().chain_trace((x, y), n) == mtrace(xy)
            xyz = matmul(xy, z.rows)
            assert ProductCache().chain_trace((x, y, z), n) == mtrace(xyz)
            assert cache.chain_trace((x, y, z), n) == mtrace(xyz)

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
            ProductCache().chain_trace((y, y, y), n)
        z = op_of(n, {0: ScalarPoly.monomial((bound - 1) // 3, (bound - 1) // 3)})
        assert ProductCache().chain_trace((z, z, z), n) == ScalarPoly.monomial(bound - 1, bound - 1, 1 << n)
