"""Readings of engine values that only the tests need."""

from wres.scalars import ScalarPoly


def weight(t) -> ScalarPoly:
    """A SymbolTerm's weight (re + im*i) / den as a constant ScalarPoly."""
    return ScalarPoly._from_slots(t.den, {0: (t.re, t.im)})
