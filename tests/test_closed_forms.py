"""The closed-form table's own algebra, checked as polynomials in (m, a0, b0).

A row of CLOSED_FORMS is the density

    tr[id] * (a0 b0)^(e0 + e1 m) * sum_{basis, j} m^j * basis * poly_{basis, j}(a0, b0)

over the basis values g(u,v), s g(u,v) and Ric(u,v).  The relations below
are the paper's bookkeeping between its parts, block totals, grouped sums
and functionals, stated here rather than read from the engine's sub-part
map.  They are checked on that symbolic form, so each holds for every m at
once.  No Analysis runs here: the engine is compared with the table at each
run's own m by the other suites.
"""

from fractions import Fraction

import pytest

from wres.residue import ASSEMBLED_IDS, CHECK_IDS, CLOSED_FORMS, PART_IDS, TOTAL_IDS, ZERO_PART_IDS
from wres.scalars import ScalarPoly

A0, B0 = ScalarPoly.a0(), ScalarPoly.b0()
AB = A0 * B0
SHAPES = {
    "1": ScalarPoly.one(),
    "ab": AB,
    "ab2": AB * AB,
    "ab(a+b)2": AB * (A0 + B0) * (A0 + B0),
    "ab(a-b)2": AB * (A0 - B0) * (A0 - B0),
}
BASIS = ("g", "sg", "ric")


class Form:
    """sum of m^j * basis * terms[basis, j] times (a0 b0)^(e0 + e1 m)."""

    def __init__(self, terms: dict, e0: int, e1: int):
        self.terms = {key: p for key, p in terms.items() if p}
        self.e0, self.e1 = (e0, e1) if self.terms else (0, 0)

    @classmethod
    def row(cls, cid: str) -> "Form":
        shape, (e0, e1), *coeffs = CLOSED_FORMS[cid]
        terms = {
            (b, j): SHAPES[shape].scale(Fraction(c[j], 48))
            for b, c in zip(BASIS, coeffs)
            for j in (0, 1)
        }
        return cls(terms, e0, e1)

    def times_ab(self, k0: int, k1: int) -> "Form":
        """This form times (a0 b0)^(k0 + k1 m)."""
        return Form(self.terms, self.e0 + k0, self.e1 + k1)

    def __add__(self, other: "Form") -> "Form":
        if not other.terms:
            return self
        if not self.terms:
            return other
        # exponents that differ by a multiple of m do not combine into one row
        assert self.e1 == other.e1, "terms whose (a0 b0) exponents differ in m"
        e0 = min(self.e0, other.e0)
        terms = {key: p.shift_ab(self.e0 - e0) for key, p in self.terms.items()}
        for key, p in other.terms.items():
            terms[key] = terms.get(key, ScalarPoly.zero()) + p.shift_ab(other.e0 - e0)
        return Form(terms, e0, self.e1)

    def __neg__(self) -> "Form":
        return Form({key: -p for key, p in self.terms.items()}, self.e0, self.e1)

    def __sub__(self, other: "Form") -> "Form":
        return self + (-other)

    def normalized(self) -> tuple:
        """FunctionalDensity's normalisation: the largest (a0 b0)^k dividing
        every term moves into the exponent."""
        k = min((p.min_ab_power() for p in self.terms.values()), default=0)
        terms = {key: p.shift_ab(-k) for key, p in self.terms.items()}
        return terms, self.e0 + k, self.e1


def total(*ids: str) -> Form:
    out = Form({}, 0, 0)
    for cid in ids:
        out = out + Form.row(cid)
    return out


# the paper's bookkeeping: relation name -> (left side, right side)
def relations() -> dict:
    r = Form.row
    return {
        "I-1": (r("I-1"), r("I-1-A") - r("I-1-B")),
        "I-3": (r("I-3"), total("I-3-A", "I-3-B", "I-3-C", "I-3-D", "I-3-E")),
        "I-4": (r("I-4"), total("I-4-A", "I-4-B", "I-4-C")),
        "II": (r("II"), total("II-1", "II-2", "II-3", "II-4", "II-5")),
        "zabdt": (r("zabdt"), total("I-1", "I-2", "I-3", "I-4", "I-5", "I-6")),
        "zpdt": (r("zpdt"), r("II")),
        # einstein = zabdt (a0 b0)^(-m) + II (a0 b0)^(-m+1)
        "einstein": (r("einstein"), r("zabdt").times_ab(0, -1) + r("II").times_ab(1, -1)),
    }


def broken() -> list:
    return [
        name for name, (lhs, rhs) in relations().items() if lhs.normalized() != rhs.normalized()
    ]


class TestClosedFormTable:
    def test_rows_follow_the_check_order(self):
        assert CHECK_IDS == tuple(CLOSED_FORMS)
        assert CHECK_IDS == tuple(dict.fromkeys(PART_IDS + TOTAL_IDS + ASSEMBLED_IDS))

    def test_rows_are_shapes_and_linear_integer_polynomials_in_m(self):
        for cid, (shape, *pairs) in CLOSED_FORMS.items():
            assert shape in SHAPES, cid
            for pair in pairs:
                assert len(pair) == 2 and all(type(c) is int for c in pair), cid

    def test_vanishing_parts(self):
        # the ten parts the paper shows to vanish, and only those
        assert ZERO_PART_IDS == (
            "I-2", "I-3-B", "I-3-C", "I-3-D", "I-4-B", "I-4-C", "I-5", "II-2", "II-3", "II-4"
        )
        for pid in PART_IDS:
            assert (not Form.row(pid).terms) == (pid in ZERO_PART_IDS), pid

    @pytest.mark.parametrize("name", list(relations()))
    def test_bookkeeping_holds_for_every_m(self, name):
        lhs, rhs = relations()[name]
        assert lhs.normalized() == rhs.normalized()
        assert lhs.terms, name

    @pytest.mark.parametrize(
        "cid, row, fails",
        [
            # I-3's (3 - m)/12 s g written as (4 - m)/12
            ("I-3", ("ab2", (0, 0), (0, 0), (16, -4), (-16, 0)), ["I-3", "zabdt"]),
            # I-3-E's (1 - m)/4 s g written as (1 - m)/3
            ("I-3-E", ("ab2", (0, 0), (0, 0), (16, -16), (0, 0)), ["I-3"]),
            # a wrong sign on I-1-B
            ("I-1-B", ("ab(a-b)2", (0, 0), (0, 0), (-3, 0), (6, 0)), ["I-1"]),
            # the Einstein density one power of a0 b0 off
            ("einstein", ("1", (1, -1), (0, 0), (4, 0), (-8, 0)), ["einstein"]),
        ],
    )
    def test_a_planted_wrong_row_breaks_its_relation(self, monkeypatch, cid, row, fails):
        monkeypatch.setitem(CLOSED_FORMS, cid, row)
        assert broken() == fails
