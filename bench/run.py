"""Verdict benchmark for wres: time to a checked verdict, per workload.

Usage, from the repository root:

    python3 bench/run.py --workload analysis-d6 --seed 1 --seconds 30 --trace 0

One process runs one workload: one thread, a closed loop, one request
at a time.  Set-up (importing ``wres`` from ``src/``, making the run's
inputs, one untimed warm-up request) is repeated at least
``SETUP_REPEATS`` times, more when it is quick, and its median
reported.  Then requests run for ``--seconds``.  Every verdict is
checked by ``oracle.py``; a wrong, raising or non-zero-exit verdict
counts as failed.

``--trace 0`` reports the end-to-end metrics.  The host's speed drifts
by a fifth or more within a minute, so a ``SpeedProbe`` times a fixed
stdlib-only reference kernel every 50 ms inside set-ups and requests.
The bounded metrics give request time in units of the kernel's time
during it (``ref``), and set-up time in seconds on a host where one
``ref`` takes ``NOMINAL_REF_S``; the wall-clock figures are printed
too.  ``--trace 1`` runs each input twice, untraced and then with spans
and counters around the engine's layers (``tracer.py``); it reports the
per-layer metrics and the tracing overhead (median over inputs of
traced minus untraced request time), and writes every span to
``bench/out/``.

Human-readable lines come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Without a ``src/wres`` beside this directory the run
exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 1
HELD_OUT_SEED = 7919  # not used while the benchmark was tuned; check claims on it
SETUP_REPEATS = 5  # at least; more, up to SETUP_MAX_REPEATS, until they take SETUP_MIN_S
SETUP_MAX_REPEATS = 25
SETUP_MIN_S = 2.0
P90_MIN_SAMPLES = 100
PER_LAYER = [name for name, _, in_result in tracing.METRICS if in_result] + ["trace.overhead_s"]
WRES_MODULES = ("scalars", "clifford", "curvature", "sphere", "symbols", "residue")
REFERENCE_STEPS = 80  # about 1 ms on a 2-vCPU Xeon VM, Python 3.11
PROBE_INTERVAL_S = 0.05
NOMINAL_REF_S = 0.001  # setup_s is reported in seconds on a host where one ref takes this long


def reference_kernel() -> dict:
    """Fixed pure-Python work like the engine's: Fractions summed in a dict keyed by tuples.

    It uses the standard library only, so no change to ``wres`` moves it;
    it only tracks how fast the host runs Python at the moment.
    """
    acc = {}
    for i in range(REFERENCE_STEPS):
        x = Fraction(i % 11 - 5, i % 7 + 1) * Fraction(i % 13 + 1, i % 5 + 2) + Fraction(1, i % 3 + 1)
        key = (i % 4, i % 6)
        acc[key] = acc.get(key, 0) + x
    return acc


class SpeedProbe:
    """Runs the reference kernel every ``PROBE_INTERVAL_S`` of wall time, inside requests.

    The host's speed changes within a single dim-6 request, so the kernel
    runs from a SIGALRM handler, between two bytecodes of whatever is
    running.  Each run's (start, end) is kept; runs inside a request are
    taken out of its time and give the host's speed during it.
    """

    def __init__(self):
        self.runs: list = []
        self.busy = False

    def _fire(self, signum, frame):
        if self.busy:  # the kernel was held up past the next tick; do not nest
            return
        self.busy = True
        t0 = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()  # a collection here would bill the engine's garbage to the kernel
        reference_kernel()
        if collecting:
            gc.enable()
        self.runs.append((t0, time.perf_counter()))
        self.busy = False

    def during(self, start: float, end: float) -> tuple:
        """(seconds the kernel ran inside [start, end], its mean seconds per run there).

        A request shorter than the interval may hold no run; it gets the
        latest run before it, or a run made now.
        """
        inside = [e - s for s, e in self.runs if start <= s and e <= end]
        speed = inside or [e - s for s, e in self.runs if e <= end][-1:]
        if not speed:
            t0 = time.perf_counter()
            reference_kernel()
            speed = [time.perf_counter() - t0]
        return sum(inside), statistics.fmean(speed)

    def __enter__(self):
        self.saved = signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.saved)


class SetupError(Exception):
    pass


def import_wres(with_cli: bool) -> dict:
    """Fresh import of the engine from this checkout's src/."""
    if not (SRC / "wres" / "__init__.py").is_file():
        raise SetupError(f"no engine source at {SRC / 'wres'}")
    for name in [m for m in sys.modules if m == "wres" or m.startswith("wres.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    mods = {"wres": importlib.import_module("wres")}
    if not Path(mods["wres"].__file__).resolve().is_relative_to(SRC.resolve()):
        raise SetupError(f"imported wres from {mods['wres'].__file__}, not from {SRC}")
    names = WRES_MODULES + (("cli",) if with_cli else ())
    for name in names:
        mods[name] = importlib.import_module(f"wres.{name}")
    return mods


def timed_verdict(workload, mods, inp, scope=None) -> tuple:
    """(start, end, problems) of one request and its check.

    Only the request is timed, inside scope (a tracer's request scope).
    """
    t0 = time.perf_counter()
    try:
        with scope or contextlib.nullcontext():
            result = workload.request(mods, inp)
    except Exception as exc:  # a raising request is a failed verdict
        return t0, time.perf_counter(), [f"request raised {exc!r}"]
    t1 = time.perf_counter()
    try:
        problems = workload.check(mods, inp, result)
    except Exception as exc:  # an unreadable result is a failed verdict
        problems = [f"check raised {exc!r}"]
    return t0, t1, problems


def setup(workload, seed: int, probe: SpeedProbe) -> tuple:
    """(seconds, ref time, modules, inputs) of one set-up; raises SetupError on a bad warm-up."""
    gc.collect()
    t0 = time.perf_counter()
    mods = import_wres(workload.name == "verify-d4")
    inputs = workload.make_inputs(mods["wres"], seed)
    *_, problems = timed_verdict(workload, mods, workload.warmup_input(mods["wres"], seed))
    t1 = time.perf_counter()
    if problems:
        raise SetupError(f"warm-up verdict failed: {problems[0]}")
    probed, reference = probe.during(t0, t1)
    return t1 - t0 - probed, (t1 - t0 - probed) / reference, mods, inputs


def enough_setups(setups: list, trace: int) -> bool:
    """One set-up for a traced run; else enough that their median is steady."""
    if trace:
        return len(setups) >= 1
    return len(setups) >= SETUP_REPEATS and (sum(setups) >= SETUP_MIN_S or len(setups) >= SETUP_MAX_REPEATS)


class Loop:
    """Closed-loop requests over the input pool until the time is up.

    Without a tracer, a ``SpeedProbe`` runs throughout: each request's
    time leaves out the probe's runs, and its reference is the mean kernel
    time during it.  With a tracer, each input runs twice, untraced and
    then traced, so the tracing overhead is measured on the same input
    close in time.
    """

    def __init__(self):
        self.durations: list = []
        self.references: list = []  # mean reference kernel seconds during each probed request
        self.failed = 0
        self.problems: list = []
        self.overheads: list = []  # traced minus untraced seconds, per pair

    def attempt(self, workload, mods, inp, scope=None, probe=None) -> float:
        start, end, problems = timed_verdict(workload, mods, inp, scope)
        elapsed = end - start
        if probe is not None:
            probed, reference = probe.during(start, end)
            elapsed -= probed
            self.references.append(reference)
        self.durations.append(elapsed)
        if problems:
            self.failed += 1
            self.problems.append((getattr(inp, "seed", None), problems[:3]))
        return elapsed

    def run(self, workload, mods, inputs, seconds: float, tracer=None) -> None:
        deadline = time.perf_counter() + seconds
        probe = SpeedProbe() if tracer is None else None
        with probe or contextlib.nullcontext():
            i = 0
            while True:
                inp = inputs[i % len(inputs)]
                untraced = self.attempt(workload, mods, inp, probe=probe)
                if tracer is not None:
                    gc.collect()
                    traced = self.attempt(workload, mods, inp, tracer.request_scope(mods, workload.root_span))
                    self.overheads.append(traced - untraced)
                i += 1
                gc.collect()
                if time.perf_counter() >= deadline:
                    return


def commit_of(root: Path) -> str:
    """HEAD of the checkout's git repository, read from files; "unknown" without one."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "wres").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def traced_run(args, workload, mods, inputs, loop, record) -> tuple:
    """(result metrics, printed metrics) of a traced run; writes the spans."""
    tracer = tracing.Tracer()
    loop.run(workload, mods, inputs, args.seconds, tracer)
    overhead = statistics.median(loop.overheads)
    record["trace_overhead_s"] = overhead
    record["trace_overhead_ratio"] = overhead / statistics.median(loop.durations[::2])
    record["traced_requests"] = tracer.request + 1
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload.name}-seed{args.seed}.json"
    tracer.dump(spans_path)
    record["spans_file"] = str(spans_path.relative_to(ROOT))
    values = tracer.run_metrics()
    shown = {name: {"value": values[name], "unit": unit} for name, unit, _ in tracing.METRICS}
    shown["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return {name: shown[name] for name in PER_LAYER}, shown


def run(args) -> int:
    workload = WORKLOADS[args.workload]
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit_of(ROOT),
        "python": platform.python_version(),
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "loadavg_before": list(os.getloadavg()),
    }
    setups, setup_refs = [], []
    with SpeedProbe() as probe:
        while not enough_setups(setups, args.trace):
            elapsed, ref_time, mods, inputs = setup(workload, args.seed, probe)
            setups.append(elapsed)
            setup_refs.append(ref_time)
    record["source_sha256"] = source_digest()

    loop = Loop()
    if args.trace:
        metrics, shown = traced_run(args, workload, mods, inputs, loop, record)
    else:
        loop.run(workload, mods, inputs, args.seconds)
        d = loop.durations
        ref = [t / r for t, r in zip(d, loop.references)]
        metrics = {
            "verdicts_per_kref": {"value": 1000 * len(ref) / sum(ref), "unit": "1/kref"},
            "verdict_ref.p50": {"value": statistics.median(ref), "unit": "ref"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
            "setup_s": {"value": statistics.median(setup_refs) * NOMINAL_REF_S, "unit": "s"},
        }
        shown = dict(metrics)
        shown["verdicts_per_s"] = {"value": len(d) / sum(d), "unit": "1/s"}
        shown["verdict_s.p50"] = {"value": statistics.median(d), "unit": "s"}
        shown["setup_wall_s"] = {"value": statistics.median(setups), "unit": "s"}
        if len(d) >= P90_MIN_SAMPLES:
            shown["verdict_ref.p90"] = {"value": statistics.quantiles(ref, n=10)[8], "unit": "ref"}
            shown["verdict_s.p90"] = {"value": statistics.quantiles(d, n=10)[8], "unit": "s"}
        shown["reference_s.p50"] = {"value": statistics.median(loop.references), "unit": "s"}
    attempted = len(loop.durations)
    record["loadavg_after"] = list(os.getloadavg())
    record["samples"] = {"verdict_s": attempted, "setup_s": len(setups)}
    record["verdict_s"] = loop.durations
    record["reference_s"] = loop.references
    record["setup_s"] = setups
    record["setup_ref"] = setup_refs
    record["failed_ratio"] = loop.failed / attempted

    print(f"workload {workload.name}: {workload.why}")
    for name, m in shown.items():
        print(f"  {name:<42} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_ratio':<42} {record['failed_ratio']:.6g} ({loop.failed}/{attempted})")
    for seed, problems in loop.problems[:5]:
        print(f"  FAILED input seed {seed}: {'; '.join(problems)}")
    print("record " + json.dumps(record, sort_keys=True))
    result = {
        "correct": loop.failed == 0,
        "attempted": attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        return run(args)
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
