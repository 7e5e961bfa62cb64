"""Golden outputs: the CLI's reports must not change by a byte.

The dim 2, 4 and 6 files under tests/data were written by the
matrix-based Clifford engine (2^n x 2^n matrices over ScalarPoly),
before operators became Cl(n,n) blade maps; verify-d8.json was written
by the blade engine while symbol scalars were still polynomials;
verify-d10.json and verify-d12.json were written by the engine that
still built every composed term before integrating it, with only the
CLI's dimension list widened, just before composition and cosphere
integration were fused.  The einstein-d4/d6 files (the --json report
and the text form, each with --eval) were written by the engine that
kept ScalarPoly coefficients as a dict of GaussianRationals, just
before ScalarPoly moved to the integer numerator form of the Clifford
coefficients.  The parts-d4/d6 text files (the only goldens that pin a
density's nonzero (a0*b0) exponent in text form) were written by the
engine whose top symbol was still n terms xi_a^2 |xi|^(-2M-2), just
before it became the one term |xi|^(-2M).  verify-d6-constant.json
(constant curvature, whose cc_ab are single blades) and
verify-d4-file.json (the curvature file curvature-d4.json: the Bianchi
projection of omega_12 (.) omega_34 plus R_1212) pin sparse curvature
and the curvature-file path; they were written by the engine that
still traced each three-factor chain on its own, just before chains
sharing a two-factor prefix began to share one memoised partial
product.  verify-d4-flat-uv.json (flat curvature with pinned --u and
--v over two seeds) and parts-d4-constant-uv.txt (constant curvature
with pinned vectors, in text form) pin the paths by which the CLI hands
a named curvature tensor and explicit vectors to the library; they were
written by the engine that still dispatched curvature names inside
derive_inputs and built ctilde generator by generator, just before
derive_inputs came to take a tensor and ctilde to be built in one
pass.  verify-d4-wide.json reads curvature-d4-wide.json, the projection
of tests/oracles.projected_riemann over numerators of up to 2^90 and
denominators 1 to 9 (seed 19), whose traces need digits far wider than
64 bits; it was written by the engine that still traced chains term by
term, just before traces moved to Kronecker-packed integers.
verify-d6-planes.json reads curvature-d6-planes.json, two orthogonal
planes (R_1212 = 3/2 and R_3434 = -5/7 with all their symmetries), so
only the index pairs (1, 2) and (3, 4) carry curvature bivectors; it was
written by the engine that still stored both orders of every index pair
as separate operators, just before the record kept one operator per
unordered pair.  Any change
in representation, caching or evaluation order must reproduce them
exactly.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner

from wres.cli import main
from wres.curvature import RiemannTensor

from oracles import projected_riemann

DATA = Path(__file__).parent / "data"

CASES = (
    ("verify-d2.json", ["verify", "--dim", "2", "--seeds", "5", "--json"]),
    ("verify-d4.json", ["verify", "--dim", "4", "--seeds", "5", "--json"]),
    ("verify-d6.json", ["verify", "--dim", "6", "--seeds", "2", "--json"]),
    ("verify-d8.json", ["verify", "--dim", "8", "--seeds", "1", "--json"]),
    ("verify-d10.json", ["verify", "--dim", "10", "--seeds", "1", "--json"]),
    ("verify-d12.json", ["verify", "--dim", "12", "--seeds", "1", "--json"]),
    ("parts-d4.json", ["parts", "--dim", "4", "--seed", "2", "--json"]),
    ("parts-d6.json", ["parts", "--dim", "6", "--seed", "1", "--json"]),
    ("parts-d4.txt", ["parts", "--dim", "4", "--seed", "2"]),
    ("parts-d6.txt", ["parts", "--dim", "6", "--seed", "1"]),
    ("verify-d6-constant.json",
     ["verify", "--dim", "6", "--seeds", "2", "--curvature", "constant", "--json"]),
    ("verify-d4-file.json",
     ["verify", "--dim", "4", "--seeds", "3", "--curvature", str(DATA / "curvature-d4.json"),
      "--json"]),
    ("verify-d4-wide.json",
     ["verify", "--dim", "4", "--seeds", "2", "--curvature", str(DATA / "curvature-d4-wide.json"),
      "--json"]),
    ("verify-d6-planes.json",
     ["verify", "--dim", "6", "--seeds", "2", "--curvature", str(DATA / "curvature-d6-planes.json"),
      "--json"]),
    ("verify-d4-flat-uv.json",
     ["verify", "--dim", "4", "--seeds", "2", "--curvature", "flat",
      "--u", "1,0,-1/2,3", "--v", "2/3,1,0,-1", "--json"]),
    ("parts-d4-constant-uv.txt",
     ["parts", "--dim", "4", "--seed", "1", "--curvature", "constant",
      "--u", "1,0,-1/2,3", "--v", "2/3,1,0,-1"]),
)


def _einstein(dim: int, u: str) -> list:
    return ["einstein", "--dim", str(dim), "--curvature", "random", "--seed", "3",
            "--u", u, "--v", u, "--eval", "2/3", "5"]


CASES += (
    ("einstein-d4.json", _einstein(4, "1/2,-3,2/7,1") + ["--json"]),
    ("einstein-d4.txt", _einstein(4, "1/2,-3,2/7,1")),
    ("einstein-d6.json", _einstein(6, "1/2,-3,2/7,1,1,1") + ["--json"]),
    ("einstein-d6.txt", _einstein(6, "1/2,-3,2/7,1,1,1")),
)


@pytest.mark.parametrize("name,args", CASES, ids=[c[0] for c in CASES])
def test_json_report_is_byte_identical(name, args):
    result = CliRunner().invoke(main, args, env={"WRES_SEED_BASE": "0"})
    assert result.exit_code == 0, result.output
    assert result.output == (DATA / name).read_text()


def test_the_wide_curvature_file_is_its_projection():
    draw = lambda rng: Fraction(rng.randint(-2**90, 2**90), rng.randint(1, 9))
    data = json.loads((DATA / "curvature-d4-wide.json").read_text())
    assert RiemannTensor.from_json(data).entries == RiemannTensor(4, projected_riemann(4, 19, draw)).entries
