"""Exact Riemann curvature data at a point in an orthonormal frame.

A tensor is a sparse map (i,j,k,l) -> Fraction (1-based indices) that is
required to satisfy the two pair antisymmetries, the pair-exchange
symmetry, and the first Bianchi identity.  Contractions follow the
convention ricci[a][b] = sum_p R[a][p][b][p], scalar = sum_a ricci[a][a].
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .clifford import FrameVector
from .scalars import _frac


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


class RiemannTensor:
    """Curvature coefficients R_{ijkl} with the full algebraic symmetries."""

    __slots__ = ("n", "entries")

    def __init__(self, n: int, entries: dict, validate: bool = True):
        """Entries are coerced exactly; a float raises TypeError.
        validate=False skips the symmetry check, for tensors built with
        their symmetries; such a tensor must still satisfy both pair
        antisymmetries, since the curvature record reads only the
        entries with i < j and k < l (symbols.curvature_ops)."""
        if n < 2:
            raise ValueError("dimension must be >= 2")
        self.n = n
        exact = {k: _frac(v) for k, v in entries.items()}
        self.entries = {k: v for k, v in exact.items() if v}
        if validate:
            self.validate()

    def get(self, i: int, j: int, k: int, l: int) -> Fraction:
        return self.entries.get((i, j, k, l), Fraction(0))

    def validate(self) -> None:
        """Check index ranges and all four algebraic symmetries exactly.

        Raises ValueError naming the violated symmetry and the offending
        index tuple.
        """
        n = self.n
        for idx in self.entries:
            if len(idx) != 4 or any(not 1 <= a <= n for a in idx):
                raise ValueError(f"index tuple {idx} out of range 1..{n}")
        # each property is scanned on its own pass so the reported
        # violation names the most specific broken symmetry.  A quad can
        # break one only if it or a partner it is compared with is an
        # entry, so the passes scan those quads in index order.
        quads = sorted(
            {
                q
                for i, j, k, l in self.entries
                for q in ((i, j, k, l), (j, i, k, l), (i, j, l, k))
                + ((k, l, i, j), (i, k, l, j), (i, l, j, k))
            }
        )
        g = self.get
        defects = (
            ("first-pair antisymmetry", lambda i, j, k, l: g(i, j, k, l) + g(j, i, k, l)),
            ("second-pair antisymmetry", lambda i, j, k, l: g(i, j, k, l) + g(i, j, l, k)),
            ("pair-exchange symmetry", lambda i, j, k, l: g(i, j, k, l) - g(k, l, i, j)),
            (
                "first Bianchi identity",
                lambda i, j, k, l: g(i, j, k, l) + g(i, k, l, j) + g(i, l, j, k),
            ),
        )
        for name, defect in defects:
            for q in quads:
                if defect(*q):
                    raise ValueError(f"{name} violated at {q}")

    def to_json(self) -> dict:
        entries = [
            [i, j, k, l, v.numerator, v.denominator]
            for (i, j, k, l), v in sorted(self.entries.items())
        ]
        return {"n": self.n, "entries": entries}

    @classmethod
    def from_json(cls, data: dict) -> "RiemannTensor":
        """Accepts JSON integers only, so no value is truncated: a float
        or a boolean raises ValueError naming n or the offending row, as
        does a repeated (i, j, k, l), or data of another shape."""
        if not (isinstance(data, dict) and "n" in data and isinstance(data.get("entries"), list)):
            raise ValueError('expected {"n": int, "entries": [[i, j, k, l, num, den], ...]}')
        n = data["n"]
        if not _is_int(n):
            raise ValueError(f"n must be an integer, got {n!r}")
        entries = {}
        for row in data["entries"]:
            if not (isinstance(row, list) and len(row) == 6 and all(map(_is_int, row))):
                raise ValueError(f"entry {row!r} is not six integers")
            i, j, k, l, num, den = row
            if not den:
                raise ValueError(f"zero denominator in entry {row}")
            if (i, j, k, l) in entries:
                raise ValueError(f"entry {row} repeats index ({i}, {j}, {k}, {l})")
            entries[(i, j, k, l)] = Fraction(num, den)
        return cls(n, entries, validate=True)

    def __repr__(self) -> str:
        return f"RiemannTensor(n={self.n}, nnz={len(self.entries)})"


def flat(n: int) -> RiemannTensor:
    return RiemannTensor(n, {}, validate=False)


def constant_curvature(n: int) -> RiemannTensor:
    """Round sphere normalization R_{ijkl} = d_ik d_jl - d_il d_jk."""
    entries = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j:
                entries[(i, j, i, j)] = Fraction(1)
                entries[(i, j, j, i)] = Fraction(-1)
    return RiemannTensor(n, entries, validate=False)


def random_riemann(n: int, seed: int) -> RiemannTensor:
    """Deterministic random tensor with exact symmetries.

    Draws small rationals p/q (q in 1..4) in index order, each written
    as an integer over 12 = lcm(1..4), and projects them in one pass.
    t(ijkl) sums the eight signed D4 images of a draw (antisymmetric in
    each pair, symmetric under pair exchange), and
    (2 t(ijkl) - t(iklj) - t(iljk)) / 288 removes its cyclic part, which
    with those three symmetries is totally antisymmetric; so the entry
    also satisfies the first Bianchi identity.  288 = 12 * 8 * 3: the
    draw's denominator, the D4 average and the cyclic projection.
    """
    rng = random.Random(seed)
    idx = list(product(range(1, n + 1), repeat=4))
    raw = {q: rng.randint(-9, 9) * (12 // rng.randint(1, 4)) for q in idx}
    t = {
        (i, j, k, l): raw[i, j, k, l] - raw[j, i, k, l] - raw[i, j, l, k] + raw[j, i, l, k]
        + raw[k, l, i, j] - raw[l, k, i, j] - raw[k, l, j, i] + raw[l, k, j, i]
        for i, j, k, l in idx
    }
    out = {
        (i, j, k, l): Fraction(2 * t[i, j, k, l] - t[i, k, l, j] - t[i, l, j, k], 288)
        for i, j, k, l in idx
    }
    return RiemannTensor(n, out, validate=False)


@dataclass(frozen=True)
class CurvatureContractions:
    """Ricci matrix and scalar curvature derived from a Riemann tensor."""

    n: int
    ricci: tuple
    scalar: Fraction

    def ric(self, a: int, b: int) -> Fraction:
        return self.ricci[a - 1][b - 1]


def contract(t: RiemannTensor) -> CurvatureContractions:
    """ricci[a][b] sums the entries (a, p, b, q) of t with p == q."""
    n = t.n
    ricci = [[Fraction(0)] * n for _ in range(n)]
    for (a, p, b, q), r in t.entries.items():
        if p == q:
            ricci[a - 1][b - 1] += r
    scalar = sum((ricci[a][a] for a in range(n)), Fraction(0))
    return CurvatureContractions(n, tuple(map(tuple, ricci)), scalar)


def ricci_bilinear(contr: CurvatureContractions, u: FrameVector, v: FrameVector) -> Fraction:
    return sum(
        (
            u[a] * v[b] * contr.ric(a, b)
            for a in range(1, contr.n + 1)
            for b in range(1, contr.n + 1)
            if u[a] and v[b]
        ),
        Fraction(0),
    )


def random_vector(n: int, seed: int) -> FrameVector:
    """Deterministic random rational vector, redrawn while all components vanish."""
    rng = random.Random(seed)
    while True:
        comps = tuple(
            Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)
        )
        if any(comps):
            return FrameVector(n, comps)
