"""The benchmark's workloads: seeded inputs, one request, its verdict check.

Every workload is one client in a closed loop: the next request starts
when the previous verdict is in.  A request's inputs come from the
workload seed alone.  The library workloads build their own curvature
tensors and vectors here, so their inputs do not change when the
engine's generators do; ``verify-d4`` hands the CLI a seed and lets the
program derive its inputs, as a user would.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from fractions import Fraction

import oracle


def request_seeds(workload: str, seed: int, count: int) -> list:
    rng = random.Random(f"wres-bench/{workload}/{seed}")
    return [rng.randrange(1, 2**31) for _ in range(count)]


def make_riemann(wres, n: int, seed: int):
    """Random curvature tensor with every algebraic symmetry, exactly.

    Small rationals are antisymmetrised in both pairs, symmetrised under
    pair exchange, and the cyclic part is projected out, which enforces
    the first Bianchi identity.  The engine validates the result.
    """
    rng = random.Random(seed)
    idx = [
        (i, j, k, l)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        for k in range(1, n + 1)
        for l in range(1, n + 1)
    ]
    t = {q: Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for q in idx}
    t = {(i, j, k, l): (t[(i, j, k, l)] - t[(j, i, k, l)]) / 2 for (i, j, k, l) in idx}
    t = {(i, j, k, l): (t[(i, j, k, l)] - t[(i, j, l, k)]) / 2 for (i, j, k, l) in idx}
    t = {(i, j, k, l): (t[(i, j, k, l)] + t[(k, l, i, j)]) / 2 for (i, j, k, l) in idx}
    out = {
        (i, j, k, l): t[(i, j, k, l)]
        - (t[(i, j, k, l)] + t[(i, k, l, j)] + t[(i, l, j, k)]) / 3
        for (i, j, k, l) in idx
    }
    return wres.RiemannTensor(n, out, validate=True)


def make_vector(n: int, rng: random.Random) -> tuple:
    while True:
        comps = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n))
        if any(comps):
            return comps


class LibraryInput:
    """Curvature tensor and two frame vectors, with the oracle's plain copies."""

    def __init__(self, wres, n: int, seed: int, flat: bool = False):
        rng = random.Random(seed ^ 0x5EED)
        self.seed = seed
        self.R = wres.RiemannTensor(n, {}) if flat else make_riemann(wres, n, seed)
        self.u_comps = make_vector(n, rng)
        self.v_comps = make_vector(n, rng)
        self.u = wres.FrameVector(n, self.u_comps)
        self.v = wres.FrameVector(n, self.v_comps)
        self.entries = oracle.riemann_entries(self.R)


class Workload:
    name = ""
    why = ""
    dim = 0
    pool = 1  # distinct inputs made at set-up; requests cycle through them
    root_span = "bench.request"

    def make_inputs(self, wres, seed: int) -> list:
        return [LibraryInput(wres, self.dim, s) for s in request_seeds(self.name, seed, self.pool)]

    def warmup_input(self, wres, seed: int):
        """Flat curvature: the same code path, filling the engine's lazy tables."""
        return LibraryInput(wres, self.dim, request_seeds(self.name, seed, 1)[0], flat=True)

    def request(self, mods: dict, inp):
        raise NotImplementedError

    def check(self, mods: dict, inp, result) -> list:
        raise NotImplementedError


class AnalysisD6(Workload):
    name = "analysis-d6"
    why = "full Analysis at dim 6 from the library: 64x64 chain traces and coefficient builds dominate"
    dim = 6
    pool = 8

    def request(self, mods, inp):
        wres = mods["wres"]
        return wres.Analysis(wres.Dimension(self.dim), inp.R, inp.u, inp.v)

    def check(self, mods, inp, result):
        return oracle.check_analysis(result, self.dim, inp.entries, inp.u_comps, inp.v_comps)


class FamiliesD6(Workload):
    name = "families-d6"
    why = "criterion 4 at dim 6: builds and sums whole 64x64 matrices, no traces"
    dim = 6
    pool = 6

    def request(self, mods, inp):
        wres, symbols = mods["wres"], mods["symbols"]
        dim = wres.Dimension(self.dim)
        cache = wres.ProductCache()
        conn = symbols.standard_connection(dim, inp.R, cache)
        direct = symbols.lemma2_symbols(dim, inp.R, dim.m, -2 * dim.m, cache)
        generic = symbols.lemma1_symbols(dim, inp.R, conn)
        a, b = direct.merged(cache), generic.merged(cache)
        return a == b, a, b

    def check(self, mods, inp, result):
        same, a, b = result
        problems = [] if same is True else ["merged(cache) == merged(cache) is not True"]
        return problems + oracle.check_families(a, b)


class VerifyInput:
    def __init__(self, seed: int, curvature: str = "random"):
        self.seed = seed
        self.curvature = curvature


class VerifyD4(Workload):
    name = "verify-d4"
    why = "wres verify --dim 4 --seeds 1 --json in-process: CLI, verify_all and report at 16x16"
    dim = 4
    pool = 256
    root_span = "cli.main"

    def make_inputs(self, wres, seed):
        return [VerifyInput(s) for s in request_seeds(self.name, seed, self.pool)]

    def warmup_input(self, wres, seed):
        return VerifyInput(request_seeds(self.name, seed, 1)[0], "flat")

    def request(self, mods, inp):
        args = ["verify", "--dim", str(self.dim), "--seeds", "1", "--json"]
        if inp.curvature != "random":
            args += ["--curvature", inp.curvature]
        out = io.StringIO()
        saved = os.environ.get("WRES_SEED_BASE")
        os.environ["WRES_SEED_BASE"] = str(inp.seed)
        try:
            with contextlib.redirect_stdout(out):
                mods["cli"].main.main(args=args, prog_name="wres", standalone_mode=True)
            code = 0
        except SystemExit as exc:
            code = exc.code
        finally:
            if saved is None:
                del os.environ["WRES_SEED_BASE"]
            else:
                os.environ["WRES_SEED_BASE"] = saved
        return code, out.getvalue()

    def check(self, mods, inp, result):
        code, text = result
        if code != 0:
            return [f"exit code {code!r}"]
        reports = json.loads(text)
        if len(reports) != 1 or reports[0].get("seed") != inp.seed or reports[0].get("dim") != self.dim:
            return ["report does not describe the requested seed and dimension"]
        R, u, v = mods["wres"].derive_inputs(self.dim, inp.seed)
        entries = {} if inp.curvature == "flat" else oracle.riemann_entries(R)
        return oracle.check_verify_report(reports[0], self.dim, entries, u.components, v.components)


WORKLOADS = {w.name: w for w in (AnalysisD6(), VerifyD4(), FamiliesD6())}
