"""Curvature tensors: symmetries, contractions, serialization, seeding."""

import itertools
import json
import math
import random
import re
from fractions import Fraction
from pathlib import Path

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

import oracles
from oracles import basis, entry, projected_riemann, symmetry_violation, wide_draw

DATA = Path(__file__).parent / "data"


def ric(contr, a: int, b: int) -> Fraction:
    """Ric_ab of a CurvatureContractions, 1-based."""
    return Fraction(contr.ricci[(a - 1) * contr.n + b - 1], contr.den)


def scalar(contr) -> Fraction:
    """The scalar curvature s of a CurvatureContractions."""
    return Fraction(contr.scalar, contr.den)


def einstein_bilinear(t, u, v):
    """G(u, v) = Ric(u, v) - (1/2) s g(u, v) with g the frame pairing."""
    contr = contract(t)
    return ricci_bilinear(contr, u, v) - Fraction(1, 2) * scalar(contr) * inner(u, v)


class TestValidation:
    def test_float_entries_rejected(self):
        # a float fails where the tensor is built, not deep in an Analysis
        entries = {(1, 2, 1, 2): 0.5, (2, 1, 2, 1): 0.5, (1, 2, 2, 1): -0.5, (2, 1, 1, 2): -0.5}
        with pytest.raises(TypeError):
            RiemannTensor(4, entries)
        with pytest.raises(TypeError):
            RiemannTensor(4, {(1, 2, 1, 2): 0.0}, validate=False)
        exact = {k: Fraction(str(v)) for k, v in entries.items()}
        assert entry(RiemannTensor(4, exact), 1, 2, 1, 2) == Fraction(1, 2)

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


def engine_violation(n, entries):
    """The message RiemannTensor(n, entries) raises, or None."""
    try:
        RiemannTensor(n, entries)
    except ValueError as err:
        return str(err)
    return None


def golden_entries(path):
    data = json.loads(path.read_text())
    return data["n"], {(i, j, k, l): Fraction(num, den) for i, j, k, l, num, den in data["entries"]}


SYMMETRIC_INPUTS = (
    [(f"random-d{n}-seed{s}", lambda n=n, s=s: (n, random_riemann(n, s).entries)) for n in range(2, 9) for s in (0, 1)]
    + [(f"flat-d{n}", lambda n=n: (n, flat(n).entries)) for n in range(2, 13)]
    + [(f"constant-d{n}", lambda n=n: (n, constant_curvature(n).entries)) for n in range(2, 13)]
    + [(p.name, lambda p=p: golden_entries(p)) for p in sorted(DATA.glob("curvature-*.json"))]
    + [("wide-d6", lambda: (6, projected_riemann(6, 19, wide_draw)))]
)

PROPERTIES = (
    "first-pair antisymmetry",
    "second-pair antisymmetry",
    "pair-exchange symmetry",
    "first Bianchi identity",
)


def planted(n, prop, quad, d=Fraction(1, 7)):
    """A dense tensor with d added where it breaks prop and, at quad (four
    distinct indices), no property scanned before it: the entry alone,
    the entry and its first-pair image, its four pair-antisymmetry
    images, or those and their four pair exchanges."""
    entries = dict(random_riemann(n, 1).entries)
    i, j, k, l = quad
    signed = [((i, j, k, l), d), ((j, i, k, l), -d), ((i, j, l, k), -d), ((j, i, l, k), d)]
    images = {
        PROPERTIES[0]: signed[:1],
        PROPERTIES[1]: signed[:2],
        PROPERTIES[2]: signed,
        PROPERTIES[3]: signed + [((c, e, a, b), w) for (a, b, c, e), w in signed],
    }[prop]
    for q, w in images:
        entries[q] = entries.get(q, 0) + w
    return entries


class TestValidationParity:
    """The integer scan accepts what the Fraction reference accepts and
    raises its exact message on everything else."""

    @pytest.mark.parametrize("name,make", SYMMETRIC_INPUTS, ids=[name for name, _ in SYMMETRIC_INPUTS])
    def test_symmetric_tensors_agree(self, name, make):
        n, entries = make()
        exact = {q: v for q, v in entries.items() if v}
        assert symmetry_violation(n, exact) is None
        assert engine_violation(n, entries) is None

    @pytest.mark.parametrize("prop", PROPERTIES)
    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_planted_defects_raise_the_reference_message(self, n, prop):
        for quad in ((1, 2, 3, 4), (n, n - 2, n - 1, n - 3)):
            entries = planted(n, prop, quad)
            expected = symmetry_violation(n, {q: v for q, v in entries.items() if v})
            assert expected is not None and expected.startswith(prop)
            assert engine_violation(n, entries) == expected

    def test_tiny_tensors_raise_the_reference_message(self):
        entries = {(1, 2, 1, 2): Fraction(1), (2, 1, 2, 1): Fraction(1, 3), (1, 2, 5, 1): Fraction(2)}
        for n in (2, 4, 5):
            assert engine_violation(n, entries) == symmetry_violation(n, entries)


class TestFixedTensors:
    def test_flat_is_zero(self):
        t = flat(4)
        assert not t.entries
        assert scalar(contract(t)) == 0

    def test_constant_curvature_contractions(self):
        # R_ijij = 1 for i != j gives Ric = (n-1) delta, s = n(n-1)
        t = constant_curvature(4)
        t.validate()
        contr = contract(t)
        for a in range(1, 5):
            for b in range(1, 5):
                assert ric(contr, a, b) == (3 if a == b else 0)
        assert scalar(contr) == 12

    def test_constant_curvature_einstein_value(self):
        t = constant_curvature(4)
        e1 = basis(4, 1)
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

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 8, 10, 12])
    def test_projection_equals_three_pass_construction(self, n):
        # the reference draws the same rationals, antisymmetrizes both
        # pairs, symmetrizes pair exchange and subtracts a third of the
        # cyclic sum, one Fraction dict per pass; n = 10 and 12 at one seed
        for seed in range(5 if n <= 8 else 1):
            assert random_riemann(n, seed).entries == three_pass_riemann(n, seed)

    def test_the_draw_builds_no_fraction(self, monkeypatch):
        # random_riemann keeps the projected integers over 288, reduced by
        # one gcd: no Fraction is built from draw to tensor, and den is
        # the lcm of the Fraction view's denominators
        made = []
        real = Fraction.__new__

        def spy(cls, *args, **kwargs):
            made.append(args)
            return real(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", spy)
        assert Fraction(1, 2) and made  # the spy sees a construction
        for seed in range(3):
            made.clear()
            t = random_riemann(6, seed)
            assert t.nums and not made
        entries = t.entries
        assert len(made) == len(entries) == len(t.nums)
        # sparser draws reduce: dens 4, 16, 24 and 8 at n = 2, 96 at n = 4
        for t in [t] + [random_riemann(n, seed) for n in (2, 4) for seed in range(4)]:
            entries = t.entries
            assert t.den == math.lcm(*(r.denominator for r in entries.values()))
            assert all(type(v) is int and v and Fraction(v, t.den) == entries[q] for q, v in t.nums.items())

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
                u[a] * v[b] * ric(contr, a, b)
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
                assert ric(contr, a, b) == sum(entry(t, a, p, b, p) for p in idx)
        assert scalar(contr) == sum(ric(contr, a, a) for a in idx)

    def test_ricci_is_symmetric(self):
        contr = contract(random_riemann(6, 5))
        for a in range(1, 7):
            for b in range(1, 7):
                assert ric(contr, a, b) == ric(contr, b, a)


def wide_vector(n: int, rng: random.Random) -> FrameVector:
    """A vector with about a third of its components zero and the rest
    of numerators up to 2^70 over denominators up to 10^12."""
    return FrameVector(n, tuple(
        Fraction(rng.randint(-2**70, 2**70), rng.randint(1, 10**12)) if rng.random() < 0.7 else 0
        for _ in range(n)
    ))


class TestContractionParity:
    """contract keeps integer numerators over one denominator, and
    ricci_bilinear sums them; over that denominator they must equal
    their Fraction references (oracles.contract, and the direct sum of
    u_a v_b Ric_ab), on dense, sparse (constant, planar) and flat
    tensors at n = 2 to 8."""

    TENSORS = [
        *(("file-" + p.stem, lambda p=p: RiemannTensor.from_json(json.loads(p.read_text())))
          for p in sorted(DATA.glob("curvature-*.json"))),
        *((f"random-d{n}", lambda n=n: random_riemann(n, 3)) for n in (2, 4, 6, 8)),
        ("wide-d6", lambda: RiemannTensor(6, projected_riemann(6, 19, wide_draw))),
        *((f"{name}-d{n}", lambda build=build, n=n: build(n))
          for name, build in (("constant", constant_curvature), ("planar", oracles.planar), ("flat", flat))
          for n in (2, 4, 6, 8)),
    ]

    @pytest.mark.parametrize("build", [b for _, b in TENSORS], ids=[name for name, _ in TENSORS])
    def test_integer_sums_equal_fraction_sums(self, build):
        t = build()
        contr, (ref, ref_scalar) = contract(t), oracles.contract(t)
        n, den = t.n, contr.den
        assert [[Fraction(contr.ricci[a * n + b], den) for b in range(n)] for a in range(n)] == list(map(list, ref))
        assert Fraction(contr.scalar, den) == ref_scalar
        assert all(type(x) is int for x in (den, contr.scalar, *contr.ricci)) and len(contr.ricci) == n * n
        rng = random.Random(t.n)
        vectors = [wide_vector(t.n, rng) for _ in range(6)]
        vectors += [random_vector(t.n, 5), basis(t.n, 1), FrameVector(t.n, (0,) * t.n)]
        idx = range(1, t.n + 1)
        for u, v in itertools.product(vectors, repeat=2):
            direct = sum((u[a] * v[b] * ref[a - 1][b - 1] for a in idx for b in idx), Fraction(0))
            got = ricci_bilinear(contr, u, v)
            assert got == direct and type(got) is Fraction


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
