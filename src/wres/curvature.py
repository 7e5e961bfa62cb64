"""Exact Riemann curvature data at a point in an orthonormal frame.

A tensor is a sparse map (i,j,k,l) -> integer numerator over one
denominator (1-based indices) that is required to satisfy the two pair
antisymmetries, the pair-exchange symmetry, and the first Bianchi
identity.  Contractions follow the
convention ricci[a][b] = sum_p R[a][p][b][p], scalar = sum_a ricci[a][a].
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd, lcm

from .clifford import FrameVector
from .scalars import _frac


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


class RiemannTensor:
    """Curvature coefficients R_{ijkl} with the full algebraic symmetries.

    Stored as integer numerators nums {(i, j, k, l): nonzero int} over
    one positive denominator den coprime to them, so den is the lcm of
    the entries' reduced denominators.  nums and den are the tensor's
    only map: validate, contract and symbols.curvature_ops read them,
    and entries is the Fraction view, built when read."""

    __slots__ = ("n", "nums", "den")

    def __init__(self, n: int, entries: dict, validate: bool = True):
        """Entries are coerced exactly; a float raises TypeError.
        validate=False skips the symmetry check, for tensors built with
        their symmetries; such a tensor must still satisfy both pair
        antisymmetries, since the curvature record reads only the
        entries with i < j and k < l (symbols.curvature_ops)."""
        if n < 2:
            raise ValueError("dimension must be >= 2")
        exact = [(k, r) for k, v in entries.items() if (r := _frac(v))]
        den = lcm(*(r.denominator for _, r in exact))
        self.n, self.den, self.nums = n, den, {k: r.numerator * (den // r.denominator) for k, r in exact}
        if validate:
            self.validate()

    @classmethod
    def _from_nums(cls, n: int, den: int, nums: dict) -> "RiemannTensor":
        """The tensor nums / den, unvalidated: den positive and coprime to
        the nonzero integers nums."""
        t = cls.__new__(cls)
        t.n, t.den, t.nums = n, den, nums
        return t

    @property
    def entries(self) -> dict:
        """{(i, j, k, l): Fraction} of the nonzero entries."""
        return {q: Fraction(v, self.den) for q, v in self.nums.items()}

    def validate(self) -> None:
        """Check index ranges and all four algebraic symmetries exactly, on
        the integer numerators nums.

        One scan per property, in this order, so the reported violation
        names the most specific broken symmetry: first-pair and second-pair
        antisymmetry, pair exchange, first Bianchi identity.  Each scan runs
        over the sorted quads that are an entry or a partner one is compared
        with (no other quad can break a property), and raises ValueError
        naming the property and its first defective quad.
        """
        n = self.n
        for idx in self.nums:
            if len(idx) != 4 or any(not 1 <= a <= n for a in idx):
                raise ValueError(f"index tuple {idx} out of range 1..{n}")
        g = self.nums.get
        quads = sorted({
            q for i, j, k, l in self.nums
            for q in ((i, j, k, l), (j, i, k, l), (i, j, l, k), (k, l, i, j), (i, k, l, j), (i, l, j, k))
        })
        defects = (
            ("first-pair antisymmetry", (
                (i, j, k, l) for i, j, k, l in quads if g((i, j, k, l), 0) + g((j, i, k, l), 0))),
            ("second-pair antisymmetry", (
                (i, j, k, l) for i, j, k, l in quads if g((i, j, k, l), 0) + g((i, j, l, k), 0))),
            ("pair-exchange symmetry", (
                (i, j, k, l) for i, j, k, l in quads if g((i, j, k, l), 0) - g((k, l, i, j), 0))),
            ("first Bianchi identity", (
                (i, j, k, l) for i, j, k, l in quads
                if g((i, j, k, l), 0) + g((i, k, l, j), 0) + g((i, l, j, k), 0))),
        )
        for name, scan in defects:
            q = next(scan, None)
            if q:
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
        return f"RiemannTensor(n={self.n}, nnz={len(self.nums)})"


def flat(n: int) -> RiemannTensor:
    return RiemannTensor(n, {}, validate=False)


def constant_curvature(n: int) -> RiemannTensor:
    """Round sphere normalization R_{ijkl} = d_ik d_jl - d_il d_jk."""
    nums = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j:
                nums[(i, j, i, j)] = 1
                nums[(i, j, j, i)] = -1
    return RiemannTensor._from_nums(n, 1, nums)


@lru_cache(maxsize=None)
def _image_index(n: int) -> tuple:
    """The flat index ((i n + j) n + k) n + l, 0-based, of every quad's image
    (q[a], q[b], q[c], q[d]), quads in flat order, per slot order (a, b, c, d)
    that random_riemann reads: the other seven D4 images jikl, ijlk, jilk,
    klij, lkij, klji, lkji (signs - - + + - - + in t), then iklj and iljk."""
    quads = list(product(range(n), repeat=4))
    return tuple(
        [((q[a] * n + q[b]) * n + q[c]) * n + q[d] for q in quads]
        for a, b, c, d in ((1, 0, 2, 3), (0, 1, 3, 2), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 0, 1),
                           (2, 3, 1, 0), (3, 2, 1, 0), (0, 2, 3, 1), (0, 3, 1, 2))
    )


def random_riemann(n: int, seed: int) -> RiemannTensor:
    """Deterministic random tensor with exact symmetries.

    Draws small rationals p/q (q in 1..4) in index order, each written
    as an integer over 12 = lcm(1..4), and projects them in one pass.
    t(ijkl) sums the eight signed D4 images of a draw (antisymmetric in
    each pair, symmetric under pair exchange), and
    (2 t(ijkl) - t(iklj) - t(iljk)) / 288 removes its cyclic part, which
    with those three symmetries is totally antisymmetric; so the entry
    also satisfies the first Bianchi identity.  288 = 12 * 8 * 3: the
    draw's denominator, the D4 average and the cyclic projection.  Both
    passes run over flat integer lists (_image_index), and the tensor
    keeps the projected integers over 288, reduced by their one gcd: no
    Fraction is built.
    """
    rng = random.Random(seed)
    xs = range(n ** 4)
    raw = [rng.randint(-9, 9) * (12 // rng.randint(1, 4)) for _ in xs]
    *d4, iklj, iljk = _image_index(n)
    t = [raw[x] - raw[a] - raw[b] + raw[c] + raw[d] - raw[e] - raw[f] + raw[g]
         for x, a, b, c, d, e, f, g in zip(xs, *d4)]
    out = zip(product(range(1, n + 1), repeat=4), (2 * t[x] - t[a] - t[b] for x, a, b in zip(xs, iklj, iljk)))
    nums = {q: v for q, v in out if v}
    g = gcd(288, *nums.values())
    return RiemannTensor._from_nums(n, 288 // g, {q: v // g for q, v in nums.items()})


@dataclass(frozen=True)
class CurvatureContractions:
    """Ricci matrix and scalar curvature of a Riemann tensor over one
    denominator: Ric_ab = ricci[(a - 1) n + b - 1] / den, s = scalar / den."""

    n: int
    den: int
    ricci: tuple
    scalar: int


def contract(t: RiemannTensor) -> CurvatureContractions:
    """ricci sums the entries (a, p, b, q) of t with p == q, in one walk
    over t's integer numerators, kept over t.den; scalar is the trace of
    ricci."""
    n, nums = t.n, [0] * (t.n * t.n)
    for (a, p, b, q), r in t.nums.items():
        if p == q:
            nums[(a - 1) * n + b - 1] += r
    return CurvatureContractions(n, t.den, tuple(nums), sum(nums[:: n + 1]))


def ricci_bilinear(contr: CurvatureContractions, u: FrameVector, v: FrameVector) -> Fraction:
    """Ric(u, v) = sum_ab u_a v_b Ric_ab, one integer sum with u and v
    over the lcm of their denominators and Ric over contr.den."""
    n, rs = contr.n, contr.ricci
    den = lcm(*(x.denominator for x in (*u.components, *v.components)))
    us, vs = ([x.numerator * (den // x.denominator) for x in w.components] for w in (u, v))
    total = sum(x * y * rs[a * n + b] for a, x in enumerate(us) if x for b, y in enumerate(vs) if y)
    return Fraction(total, den * den * contr.den)


def random_vector(n: int, seed: int) -> FrameVector:
    """Deterministic random rational vector, redrawn while all components vanish."""
    rng = random.Random(seed)
    while True:
        comps = tuple(
            Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)
        )
        if any(comps):
            return FrameVector(n, comps)
