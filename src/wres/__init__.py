"""Exact verification engine for spectral metric and Einstein functionals.

The package computes, in exact rational arithmetic, the cosphere
integrals of traced operator-valued symbols built from a nonminimal
first-order operator on differential forms, and checks every
intermediate and assembled density against its closed form as a
polynomial identity in the two coupling parameters.
"""

from .clifford import Dimension, FrameVector, ProductCache
from .curvature import RiemannTensor
from .residue import (
    ASSEMBLED_IDS,
    CHECK_IDS,
    PART_IDS,
    TOTAL_IDS,
    ZERO_PART_IDS,
    Analysis,
    FunctionalDensity,
    derive_inputs,
)

__version__ = "0.1.0"

__all__ = [
    "ASSEMBLED_IDS",
    "Analysis",
    "CHECK_IDS",
    "Dimension",
    "FrameVector",
    "FunctionalDensity",
    "PART_IDS",
    "ProductCache",
    "RiemannTensor",
    "TOTAL_IDS",
    "ZERO_PART_IDS",
    "derive_inputs",
]
