"""Curvature tensors: symmetries, contractions, serialization, seeding."""

import itertools
import random
import re
from fractions import Fraction

import pytest

from wres.clifford import FrameVector, inner
from wres.curvature import (
    RiemannTensor,
    constant_curvature,
    contract,
    flat,
    random_riemann,
    random_vector,
    ricci_bilinear,
)


def einstein_bilinear(t, u, v):
    """G(u, v) = Ric(u, v) - (1/2) s g(u, v) with g the frame pairing."""
    contr = contract(t)
    return ricci_bilinear(contr, u, v) - Fraction(1, 2) * contr.scalar * inner(u, v)


class TestValidation:
    def test_float_entries_rejected(self):
        # a float fails where the tensor is built, not deep in an Analysis
        entries = {(1, 2, 1, 2): 0.5, (2, 1, 2, 1): 0.5, (1, 2, 2, 1): -0.5, (2, 1, 1, 2): -0.5}
        with pytest.raises(TypeError):
            RiemannTensor(4, entries)
        with pytest.raises(TypeError):
            RiemannTensor(4, {(1, 2, 1, 2): 0.0}, validate=False)
        exact = {k: Fraction(str(v)) for k, v in entries.items()}
        assert RiemannTensor(4, exact).get(1, 2, 1, 2) == Fraction(1, 2)

    def test_index_range(self):
        with pytest.raises(ValueError, match="out of range"):
            RiemannTensor(4, {(1, 2, 5, 1): Fraction(1)})

    def test_first_pair_antisymmetry(self):
        with pytest.raises(ValueError, match="first-pair antisymmetry"):
            RiemannTensor(2, {(1, 2, 1, 2): Fraction(1)})

    def test_second_pair_antisymmetry(self):
        with pytest.raises(ValueError, match="antisymmetry"):
            RiemannTensor(
                2,
                {
                    (1, 2, 1, 2): Fraction(1),
                    (2, 1, 1, 2): Fraction(-1),
                    (1, 2, 2, 1): Fraction(-1),
                    (2, 1, 2, 1): Fraction(1),
                    (1, 1, 1, 2): Fraction(3),
                },
            )

    def test_pair_exchange(self):
        # antisymmetries hold but (1,2,3,4) and (3,4,1,2) disagree
        entries = {}

        def put(i, j, k, l, v):
            entries[(i, j, k, l)] = v
            entries[(j, i, k, l)] = -v
            entries[(i, j, l, k)] = -v
            entries[(j, i, l, k)] = v

        put(1, 2, 3, 4, Fraction(1))
        put(3, 4, 1, 2, Fraction(2))
        with pytest.raises(ValueError, match="pair-exchange"):
            RiemannTensor(4, entries)

    def test_bianchi(self):
        entries = {}

        def put(i, j, k, l, v):
            for (a, b, c, d), w in (
                ((i, j, k, l), v),
                ((j, i, k, l), -v),
                ((i, j, l, k), -v),
                ((j, i, l, k), v),
            ):
                entries[(a, b, c, d)] = w
                entries[(c, d, a, b)] = w

        put(1, 2, 3, 4, Fraction(1))
        with pytest.raises(ValueError, match="Bianchi"):
            RiemannTensor(4, entries)

    def test_dimension_floor(self):
        with pytest.raises(ValueError):
            RiemannTensor(1, {})


class TestFixedTensors:
    def test_flat_is_zero(self):
        t = flat(4)
        assert not t.entries
        assert contract(t).scalar == 0

    def test_constant_curvature_contractions(self):
        # R_ijij = 1 for i != j gives Ric = (n-1) delta, s = n(n-1)
        t = constant_curvature(4)
        t.validate()
        contr = contract(t)
        for a in range(1, 5):
            for b in range(1, 5):
                assert contr.ric(a, b) == (3 if a == b else 0)
        assert contr.scalar == 12

    def test_constant_curvature_einstein_value(self):
        t = constant_curvature(4)
        e1 = FrameVector.basis(4, 1)
        # Ric(e1,e1) - s/2 = 3 - 6
        assert einstein_bilinear(t, e1, e1) == -3

    def test_einstein_bilinearity_and_symmetry(self):
        t = constant_curvature(6)
        u = random_vector(6, 11)
        v = random_vector(6, 12)
        w = random_vector(6, 13)
        assert einstein_bilinear(t, u, v) == einstein_bilinear(t, v, u)
        uv = FrameVector(6, tuple(a + b for a, b in zip(u.components, v.components)))
        assert einstein_bilinear(t, uv, w) == einstein_bilinear(
            t, u, w
        ) + einstein_bilinear(t, v, w)


def three_pass_riemann(n, seed):
    """Nonzero entries of the symmetrized draw, built pass by pass."""
    rng = random.Random(seed)
    raw = {
        q: Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        for q in itertools.product(range(1, n + 1), repeat=4)
    }
    t = {(i, j, k, l): (raw[i, j, k, l] - raw[j, i, k, l]) / 2 for i, j, k, l in raw}
    t = {(i, j, k, l): (t[i, j, k, l] - t[i, j, l, k]) / 2 for i, j, k, l in t}
    t = {(i, j, k, l): (t[i, j, k, l] + t[k, l, i, j]) / 2 for i, j, k, l in t}
    out = {}
    for (i, j, k, l), v in t.items():
        out[i, j, k, l] = v - (v + t[i, k, l, j] + t[i, l, j, k]) / 3
    return {q: v for q, v in out.items() if v}


class TestRandomTensors:
    @pytest.mark.parametrize("n", [4, 6])
    def test_symmetries_hold_for_random_seeds(self, n):
        for seed in range(4):
            t = random_riemann(n, seed)
            t.validate()
            assert t.entries

    def test_determinism(self):
        a = random_riemann(4, 7)
        b = random_riemann(4, 7)
        assert a.entries == b.entries
        c = random_riemann(4, 8)
        assert a.entries != c.entries

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 8])
    def test_projection_equals_three_pass_construction(self, n):
        # the reference draws the same rationals, antisymmetrizes both
        # pairs, symmetrizes pair exchange and subtracts a third of the
        # cyclic sum, one Fraction dict per pass
        for seed in range(5):
            assert random_riemann(n, seed).entries == three_pass_riemann(n, seed)

    def test_random_vector_determinism_and_nonzero(self):
        for seed in range(6):
            v = random_vector(4, seed)
            assert any(v.components)
            assert v.components == random_vector(4, seed).components

    def test_ricci_bilinear_agrees_with_direct_sum(self):
        t = random_riemann(4, 3)
        contr = contract(t)
        u = random_vector(4, 21)
        v = random_vector(4, 22)
        direct = sum(
            (
                u[a] * v[b] * contr.ric(a, b)
                for a in range(1, 5)
                for b in range(1, 5)
            ),
            Fraction(0),
        )
        assert ricci_bilinear(contr, u, v) == direct

    @pytest.mark.parametrize("n,seed", [(5, 4), (6, 1)])
    def test_ricci_matches_unrestricted_index_sum(self, n, seed):
        t = random_riemann(n, seed)
        contr = contract(t)
        idx = range(1, n + 1)
        for a in idx:
            for b in idx:
                assert contr.ric(a, b) == sum(t.get(a, p, b, p) for p in idx)
        assert contr.scalar == sum(contr.ric(a, a) for a in idx)

    def test_ricci_is_symmetric(self):
        contr = contract(random_riemann(6, 5))
        for a in range(1, 7):
            for b in range(1, 7):
                assert contr.ric(a, b) == contr.ric(b, a)


class TestSerialization:
    def test_round_trip(self):
        t = random_riemann(4, 9)
        again = RiemannTensor.from_json(t.to_json())
        assert again.n == t.n and again.entries == t.entries

    def test_json_shape(self):
        t = constant_curvature(2)
        data = t.to_json()
        assert data["n"] == 2
        assert sorted(data["entries"]) == [
            [1, 2, 1, 2, 1, 1],
            [1, 2, 2, 1, -1, 1],
            [2, 1, 1, 2, -1, 1],
            [2, 1, 2, 1, 1, 1],
        ]

    def test_from_json_revalidates(self):
        with pytest.raises(ValueError):
            RiemannTensor.from_json({"n": 2, "entries": [[1, 2, 1, 2, 1, 1]]})

    def test_from_json_rejects_zero_denominator(self):
        with pytest.raises(ValueError, match="zero denominator"):
            RiemannTensor.from_json({"n": 2, "entries": [[1, 2, 1, 2, 1, 0]]})

    def test_from_json_rejects_repeated_rows(self):
        data = constant_curvature(2).to_json()
        row = data["entries"][1][:4] + [3, 1]
        data["entries"].append(row)
        with pytest.raises(ValueError, match=re.escape(f"entry {row} repeats index")):
            RiemannTensor.from_json(data)
        # the same value twice is refused too: a repeated row is never read
        data["entries"][-1] = list(data["entries"][1])
        with pytest.raises(ValueError, match="repeats index"):
            RiemannTensor.from_json(data)

    @pytest.mark.parametrize(
        "field,value", [("num", 1.5), ("num", True), ("den", 2.0), ("index", 1.0), ("index", False)]
    )
    def test_from_json_rejects_non_integer_entries(self, field, value):
        data = constant_curvature(2).to_json()
        row = data["entries"][0]
        row[{"num": 4, "den": 5, "index": 0}[field]] = value
        with pytest.raises(ValueError, match=re.escape(repr(row))):
            RiemannTensor.from_json(data)

    @pytest.mark.parametrize("n", [4.9, 4.0, True, "4"])
    def test_from_json_rejects_non_integer_dimension(self, n):
        data = dict(constant_curvature(4).to_json(), n=n)
        with pytest.raises(ValueError, match="n must be an integer"):
            RiemannTensor.from_json(data)


def test_flat_einstein_vanishes():
    t = flat(6)
    u = random_vector(6, 1)
    v = random_vector(6, 2)
    assert inner(u, v) != 0  # the pairing is nondegenerate, only R is flat
    assert einstein_bilinear(t, u, v) == 0
