"""Acceptance gate: one test per shipping criterion, all exact.

Criteria 5 through 11 share one module-scoped sweep of twenty seeded
runs per dimension so the heavy computation happens exactly once; its
wall time doubles as the runtime criterion measurement.  The a0 <-> b0
exchange check reads the same sweep.
"""

import time
from fractions import Fraction
from itertools import product

import pytest

from wres.clifford import Dimension, ProductCache, inner, tildec_pair
from wres.curvature import contract, flat, random_riemann, random_vector, ricci_bilinear
from wres.residue import (
    CHECK_IDS,
    Analysis,
    FunctionalDensity,
    ZERO_PART_IDS,
    derive_inputs,
    integrate_blocks,
)
from wres.scalars import ScalarPoly
from wres.sphere import vol_multiplier
from wres.symbols import (
    SymbolExpansion,
    SymbolTerm,
    lemma1_symbols,
    lemma2_symbols,
    standard_connection,
)

from oracles import anticommutator, c_op, hatc_op, identity, tildec_op, vector_clifford

SEED_COUNT = 20
DIMS = (2, 4, 6, 8)


@pytest.fixture(scope="module")
def sweep():
    """Twenty seeded analyses per dimension, with wall time per dimension."""
    out = {}
    for n in DIMS:
        t0 = time.perf_counter()
        analyses = []
        for seed in range(SEED_COUNT):
            R, u, v = derive_inputs(n, seed)
            a = Analysis(Dimension(n), R, u, v)
            a.report_dict(seed)
            analyses.append(a)
        out[n] = (analyses, time.perf_counter() - t0)
    return out


def density(shape: ScalarPoly, value: Fraction, n: int) -> FunctionalDensity:
    return FunctionalDensity(shape.scale(value * (1 << n)), 0)


def test_criterion_1_clifford_relation_suite():
    """Nine anticommutator identities, every index pair, n in {2, 4, 6}."""
    t0 = time.perf_counter()
    two = ScalarPoly.const(2)
    sum_ab = ScalarPoly.a0() + ScalarPoly.b0()
    diff_ab = ScalarPoly.a0() - ScalarPoly.b0()
    ab2 = ScalarPoly.monomial(1, 1, 2)
    for n in (2, 4, 6):

        def ident(poly, size=n):
            return identity(size).scale(poly)

        for i in range(1, n + 1):
            for j in range(1, n + 1):
                d = int(i == j)
                assert anticommutator(hatc_op(n, i), hatc_op(n, j)) == ident(
                    two.scale(d)
                )
                assert anticommutator(c_op(n, i), c_op(n, j)) == ident(
                    two.scale(-d)
                )
                assert anticommutator(c_op(n, i), hatc_op(n, j)).is_zero()
                assert anticommutator(tildec_op(n, i), c_op(n, j)) == ident(
                    sum_ab.scale(-d)
                )
                assert anticommutator(tildec_op(n, i), tildec_op(n, j)) == ident(
                    ab2.scale(-d)
                )
                assert anticommutator(tildec_op(n, i), hatc_op(n, j)) == ident(
                    diff_ab.scale(d)
                )
        # vector-argument forms of the deformed relations
        x = random_vector(n, 101)
        y = random_vector(n, 102)
        g = inner(x, y)
        tx = vector_clifford("tildec", x)
        assert anticommutator(tx, vector_clifford("c", y)) == ident(sum_ab.scale(-g))
        assert anticommutator(tx, vector_clifford("tildec", y)) == ident(ab2.scale(-g))
        assert anticommutator(tx, vector_clifford("hatc", y)) == ident(diff_ab.scale(g))
        # and on the engine's one-pass pairs
        assert tildec_pair(x, y) + tildec_pair(y, x) == ident(ab2.scale(-g))
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"ACCEPTANCE criterion 1: PASS (nine relation families exact, {elapsed:.2f}s)")


def test_criterion_2_trace_and_volume_bookkeeping():
    """integrate(||xi||^{-2m} id) = 2^{2m} Vol, n = 4 and n = 6."""
    for n, want in ((4, 16), (6, 64)):
        # a k = 0 block of the identity against the unit symbol, as the
        # engine composes, integrates and traces every density
        ident, unit = SymbolExpansion(n), SymbolExpansion(n)
        ident.add(SymbolTerm((0,) * n, (0,) * n, 0, 1, 1))
        unit.add(SymbolTerm((0,) * n, (0,) * n, -n, 1, 1))
        got = integrate_blocks({"": [(ident, 0, unit, -n, 0)]}, n)[""][""]
        assert got == FunctionalDensity(ScalarPoly.const(want), 0)
    print("ACCEPTANCE criterion 2: PASS (trace unit 16 Vol and 64 Vol exact)")


def test_criterion_3_sphere_recursion_vs_oracle():
    """The integer weights equal the double-factorial formula, degree <= 6, n in {4, 6}."""

    def oracle(n, exponents):
        if any(e % 2 for e in exponents):
            return Fraction(0)
        num = 1
        for e in exponents:
            k = e - 1
            while k > 1:
                num *= k
                k -= 2
        den = 1
        for k in range(0, sum(exponents), 2):
            den *= n + k
        return Fraction(num, den)

    for n in (4, 6):
        for exponents in product(range(0, 7), repeat=n):
            if sum(exponents) <= 6:
                assert Fraction(*vol_multiplier(n, exponents)) == oracle(n, exponents)
    print("ACCEPTANCE criterion 3: PASS (sphere weights match oracle exactly)")


def test_criterion_4_symbol_family_consistency():
    """Concrete inverse-power symbols equal the generic transcription, 10 seeds."""
    for n in (2, 4, 6, 8):
        dim = Dimension(n)
        for seed in range(10):
            R = random_riemann(n, seed)
            cache = ProductCache()
            conn = standard_connection(dim, R, cache)
            direct = lemma2_symbols(dim, R, dim.m, -2 * dim.m, cache)
            generic = lemma1_symbols(dim, R, conn)
            assert direct.merged(cache) == generic.merged(cache)
    print("ACCEPTANCE criterion 4: PASS (symbol families agree, 10 seeds, n in {2,4,6,8})")


def test_criterion_5_zero_part_cancellations(sweep):
    """The ten vanishing parts are exactly 0 for 20 seeds at n = 4 and n = 6."""
    for n in DIMS:
        for a in sweep[n][0]:
            for pid in ZERO_PART_IDS:
                assert not a.computed[pid].poly, (n, pid)
    print("ACCEPTANCE criterion 5: PASS (ten zero parts exactly 0, 20 seeds per dim)")


def test_criterion_6_nonzero_part_closed_forms(sweep):
    """Six nonzero parts match their closed forms per seed, exactly."""
    for n in DIMS:
        m = n // 2
        for a in sweep[n][0]:
            contr = contract(a.R)
            g = inner(a.u, a.v)
            ric = ricci_bilinear(contr, a.u, a.v)
            sg = Fraction(contr.scalar, contr.den) * g
            absq = ScalarPoly.monomial(2, 2)
            ab = ScalarPoly.monomial(1, 1)
            expect = {
                "I-1": density(absq, Fraction(1, 4) * sg - Fraction(1, 2) * ric, n),
                "I-3": density(
                    absq, Fraction(3 - m, 12) * sg - Fraction(1, 3) * ric, n
                ),
                "I-4": density(absq, Fraction(4, 3) * ric - Fraction(2, 3) * sg, n),
                "I-6": density(absq, Fraction(1, 3) * sg - Fraction(2, 3) * ric, n),
                "II-1": density(ab, Fraction(-(m - 1), 6) * sg, n),
                "II-5": density(ab, Fraction(m - 1, 4) * sg, n),
            }
            for pid, want in expect.items():
                assert a.computed[pid] == want, (n, pid)
    print("ACCEPTANCE criterion 6: PASS (six nonzero closed forms exact per seed)")


def test_criterion_7_part_sums(sweep):
    """Grouped sums reproduce their displayed closed forms per seed."""
    for n in DIMS:
        m = n // 2
        for a in sweep[n][0]:
            contr = contract(a.R)
            g = inner(a.u, a.v)
            ric = ricci_bilinear(contr, a.u, a.v)
            sg = Fraction(contr.scalar, contr.den) * g
            want_ab = density(
                ScalarPoly.monomial(2, 2),
                Fraction(2 - m, 12) * sg - Fraction(1, 6) * ric,
                n,
            )
            want_p = density(
                ScalarPoly.monomial(1, 1), Fraction(m - 1, 12) * sg, n
            )
            assert a.computed["zabdt"] == want_ab, n
            assert a.computed["zpdt"] == want_p, n
    print("ACCEPTANCE criterion 7: PASS (both grouped sums exact per seed)")


def test_criterion_8_metric_functional(sweep):
    """Metric density = -2^{2m} Vol g(u,v) at prefactor exponent -m+1."""
    for n in DIMS:
        m = n // 2
        for a in sweep[n][0]:
            g = inner(a.u, a.v)
            want = FunctionalDensity(ScalarPoly.const(-(1 << n) * g), -m + 1)
            assert a.computed["metric"] == want, n
    print("ACCEPTANCE criterion 8: PASS (metric functional exact, 20 seeds per dim)")


def test_criterion_9_einstein_functional(sweep):
    """Einstein density matches the closed form at exponent -m+2, is
    symmetric in (u, v), and vanishes for flat curvature."""
    for n in DIMS:
        m = n // 2
        for a in sweep[n][0]:
            contr = contract(a.R)
            g = inner(a.u, a.v)
            ric = ricci_bilinear(contr, a.u, a.v)
            want = FunctionalDensity(
                ScalarPoly.const(
                    (1 << n)
                    * (Fraction(contr.scalar, 12 * contr.den) * g - Fraction(1, 6) * ric)
                ),
                -m + 2,
            )
            assert a.computed["einstein"] == want, n
    for n, count in ((4, SEED_COUNT), (6, 3)):
        for a in sweep[n][0][:count]:
            swapped = Analysis(Dimension(n), a.R, a.v, a.u)
            assert swapped.computed["einstein"] == a.computed["einstein"], n
    for n in DIMS:
        u, v = random_vector(n, 201), random_vector(n, 202)
        assert not Analysis(Dimension(n), flat(n), u, v).computed["einstein"].poly
    print("ACCEPTANCE criterion 9: PASS (Einstein closed form, symmetry, flat zero)")


def test_criterion_10_runtime(sweep):
    """Twenty-seed sweeps stay inside the stated wall-time budgets."""
    t4, t6, t8 = sweep[4][1], sweep[6][1], sweep[8][1]
    assert t4 < 30.0, f"dim 4 sweep took {t4:.1f}s"
    assert t6 < 300.0, f"dim 6 sweep took {t6:.1f}s"
    assert t8 < 120.0, f"dim 8 sweep took {t8:.1f}s"
    print(
        f"ACCEPTANCE criterion 10: PASS (dim 4: {t4:.1f}s < 30s, dim 6: {t6:.1f}s < 300s,"
        f" dim 8: {t8:.1f}s < 120s)"
    )


def test_criterion_11_reality(sweep):
    """Every reported density has exactly zero imaginary part."""
    for n in DIMS:
        for a in sweep[n][0]:
            for key, val in a.computed.items():
                assert val.is_real(), (n, key)
    print("ACCEPTANCE criterion 11: PASS (all densities real on every run)")


def test_a0_b0_exchange_symmetry(sweep):
    """Every checked density is unchanged when a0 and b0 are swapped.

    Conjugation by chat_1 ... chat_n fixes each c_j and flips each
    chat_j, so it maps ctilde(a0, b0) to ctilde(b0, a0) and leaves
    every trace alone; no closed form is needed.
    """
    for n in DIMS:
        for a in sweep[n][0]:
            for cid in CHECK_IDS:
                terms = a.computed[cid].poly.terms
                assert {(db, da): c for (da, db), c in terms.items()} == terms, (n, cid)
