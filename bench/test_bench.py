"""Self-tests of the benchmark: the oracle, the counts, the emitted metrics.

Run from the repository root:

    python3 -m pytest -q bench/test_bench.py

The end-to-end tests start ``run.py`` with a tiny ``--seconds``, so each
workload runs one request; the whole file takes one to two minutes.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import oracle
import run
import tracer
from workloads import WORKLOADS, LibraryInput

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def mods():
    return run.import_wres(with_cli=True)


def perturbed(density, mods, delta=1):
    """The density plus delta * a0*b0 inside its polynomial."""
    bump = mods["scalars"].ScalarPoly.monomial(1, 1, delta)
    return mods["residue"].FunctionalDensity(density.poly + bump, density.prefactor_exp)


def test_oracle_passes_and_rejects_perturbed_analysis(mods):
    inp = LibraryInput(mods["wres"], 4, 12345)
    analysis = mods["wres"].Analysis(mods["wres"].Dimension(4), inp.R, inp.u, inp.v)
    args = (4, inp.entries, inp.u_comps, inp.v_comps)
    assert oracle.check_analysis(analysis, *args) == []
    for key in ("einstein", "metric", "I-3-B", "II-4"):
        saved = analysis.computed[key]
        analysis.computed[key] = perturbed(saved, mods)
        assert oracle.check_analysis(analysis, *args), key
        analysis.computed[key] = saved
    # the engine's own expected values are not consulted
    analysis.expected["einstein"] = perturbed(analysis.expected["einstein"], mods)
    assert oracle.check_analysis(analysis, *args) == []


def test_oracle_rejects_perturbed_verify_report(mods):
    wl = WORKLOADS["verify-d4"]
    inp = wl.make_inputs(mods["wres"], 3)[0]
    code, text = wl.request(mods, inp)
    assert wl.check(mods, inp, (code, text)) == []
    report = json.loads(text)[0]
    bad = json.loads(json.dumps(report))
    part = next(p for p in bad["parts"] if p["id"] == "I-6")
    part["computed"] += " + a0*b0*(1)"  # "match" stays true: only the rebuilt Einstein density sees it
    assert wl.check(mods, inp, (0, json.dumps([bad])))
    bad = json.loads(json.dumps(report))
    next(p for p in bad["parts"] if p["id"] == "I-2")["computed"] = "a0*b0*(1/3)"
    assert wl.check(mods, inp, (0, json.dumps([bad])))
    bad = dict(report, einstein_match=False)
    assert wl.check(mods, inp, (0, json.dumps([bad])))
    assert wl.check(mods, inp, (1, text))


def test_parse_poly_text_reads_engine_rendering(mods):
    ScalarPoly = mods["scalars"].ScalarPoly
    GR = mods["scalars"].GaussianRational
    poly = ScalarPoly({(3, 1): GR("-5/7", 0), (1, 1): GR(0, "3/4"), (0, 2): GR(2, -1), (0, 0): GR(1)})
    want = {k: (v.re, v.im) for k, v in poly.terms.items()}
    assert oracle.parse_poly_text(poly.text()) == want
    assert oracle.parse_poly_text("0") == {}


def test_oracle_rejects_perturbed_families(mods):
    wres, symbols = mods["wres"], mods["symbols"]
    dim = wres.Dimension(4)
    R = LibraryInput(wres, 4, 7).R
    cache = wres.ProductCache()
    direct = symbols.lemma2_symbols(dim, R, dim.m, -2 * dim.m, cache).merged(cache)
    generic = symbols.lemma1_symbols(dim, R, symbols.standard_connection(dim, R, cache)).merged(cache)
    assert oracle.check_families(direct, generic) == []
    key = next(iter(generic))
    generic[key] = generic[key].scale(2)
    assert oracle.check_families(direct, generic)
    wl = WORKLOADS["families-d6"]
    assert wl.check(mods, None, (False, direct, direct))


def test_failed_and_raising_verdicts_count_as_failed(mods):
    class Flaky:
        """Right, then raising, then wrong."""

        calls = 0

        def request(self, mods, inp):
            self.calls += 1
            if self.calls == 2:
                raise RuntimeError("boom")
            return self.calls

        def check(self, mods, inp, result):
            return ["wrong"] if result == 3 else []

    loop, flaky = run.Loop(), Flaky()
    for _ in range(3):  # with no time left, each run makes one request
        loop.run(flaky, mods, [None], seconds=0.0)
    assert (len(loop.durations), loop.failed) == (3, 2)


def test_probe_runs_inside_requests_are_taken_out(mods):
    class Busy:
        """Spins for 0.3 s of wall time, so the probe fires inside it."""

        def request(self, mods, inp):
            end = time.perf_counter() + 0.3
            while time.perf_counter() < end:
                pass

        def check(self, mods, inp, result):
            return []

    loop = run.Loop()
    loop.run(Busy(), mods, [None], seconds=0.0)
    (elapsed,), (reference,) = loop.durations, loop.references
    assert 0.3 - 0.3 * 0.25 < elapsed < 0.3
    assert 0 < reference < 0.05
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def bench(workload: str, trace: int, seed: int = 5) -> tuple:
    """(result, printed metric names) of one short run."""
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.001", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    lines = out.stdout.strip().splitlines()
    printed = {line.split()[0] for line in lines[1:-2]}
    return json.loads(lines[-1]), printed


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_emitted_and_counts_repeat(workload):
    untraced, _ = bench(workload, 0)
    assert untraced["correct"] and untraced["failed"] == 0 and untraced["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in untraced["metrics"].items()} == want
    assert all(v["value"] > 0 for v in untraced["metrics"].values())

    (first, printed), (second, _) = bench(workload, 1), bench(workload, 1)
    assert {name for name, _, _ in tracer.METRICS} <= printed
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for traced in (first, second):
        assert traced["correct"]
        assert {k: v["unit"] for k, v in traced["metrics"].items()} == want
    counts = [k for k, unit in want.items() if unit in ("count", "ratio")]
    assert counts
    assert {k: first["metrics"][k]["value"] for k in counts} == {
        k: second["metrics"][k]["value"] for k in counts
    }


def test_without_engine_source_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run(
        SPEC["command"] + ["--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
