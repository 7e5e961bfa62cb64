"""Spans and counters recorded around the engine's public boundaries.

The engine has no tracing of its own, so the tracer wraps functions
from outside: each name is patched where its caller looks it up.
``residue`` and ``symbols`` import names directly, so those module
attributes are patched as well as the defining ones; methods are
patched on their class.  A boundary missing from the engine is skipped
and its metrics read zero.

A span is (name, start, end, parent), kept in memory and written out
at the end.  ``ScalarPoly`` arithmetic runs hundreds of thousands of
times per request, so it gets call counters only.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from functools import wraps

# (module, attribute, span name); a class method is "Class.method".  The
# span name's prefix is its layer.  Some sites (op_trace, op_eq, compose,
# uv_symbol, verify_all) have no metric of their own: they are wrapped so
# that their time counts toward their own layer, not their caller's.
SPAN_SITES = (
    ("clifford", "trace_product", "clifford.trace_product"),
    ("residue", "trace_product", "clifford.trace_product"),
    ("clifford", "weighted_sum", "clifford.weighted_sum"),
    ("symbols", "weighted_sum", "clifford.weighted_sum"),
    ("clifford", "CliffordOp.__mul__", "clifford.op_mul"),
    ("clifford", "CliffordOp.__add__", "clifford.op_add"),
    ("clifford", "CliffordOp.scale", "clifford.op_scale"),
    ("clifford", "CliffordOp.trace", "clifford.op_trace"),
    ("clifford", "CliffordOp.__eq__", "clifford.op_eq"),
    ("clifford", "ProductCache.chain_trace", "clifford.chain_trace"),
    ("symbols", "curv_cc", "symbols.curv_cc"),
    ("symbols", "curv_hh", "symbols.curv_hh"),
    ("symbols", "omega_cc", "symbols.omega_cc"),
    ("symbols", "omega_hh", "symbols.omega_hh"),
    ("symbols", "f_matrix", "symbols.f_matrix"),
    ("symbols", "lemma2_symbols", "symbols.lemma2_symbols"),
    ("residue", "lemma2_symbols", "symbols.lemma2_symbols"),
    ("symbols", "lemma1_symbols", "symbols.lemma1_symbols"),
    ("symbols", "standard_connection", "symbols.standard_connection"),
    ("symbols", "symbols_PQ", "symbols.symbols_PQ"),
    ("symbols", "symbol_product_PQ", "symbols.symbol_product_PQ"),
    ("residue", "symbol_product_PQ", "symbols.symbol_product_PQ"),
    ("symbols", "uv_symbol", "symbols.uv_symbol"),
    ("residue", "uv_symbol", "symbols.uv_symbol"),
    ("symbols", "compose", "symbols.compose"),
    ("residue", "compose", "symbols.compose"),
    ("symbols", "compose_block", "symbols.compose_block"),
    ("residue", "compose_block", "symbols.compose_block"),
    ("symbols", "SymbolExpansion.merged", "symbols.merged"),
    ("residue", "Analysis.__init__", "residue.analysis"),
    ("residue", "integrate_density", "residue.integrate_density"),
    ("residue", "verify_all", "residue.verify_all"),
    ("cli", "verify_all", "residue.verify_all"),
    ("sphere", "vol_multiplier", "sphere.vol_multiplier"),
    ("residue", "vol_multiplier", "sphere.vol_multiplier"),
    ("curvature", "contract", "curvature.contract"),
    ("residue", "contract", "curvature.contract"),
    ("symbols", "contract", "curvature.contract"),
    ("curvature", "random_riemann", "curvature.random_riemann"),
    ("residue", "random_riemann", "curvature.random_riemann"),
    ("cli", "random_riemann", "curvature.random_riemann"),
)

# (method of scalars.ScalarPoly, counter); __rmul__ is an alias of __mul__
COUNT_SITES = (
    ("__mul__", "scalars.poly_mul"),
    ("__rmul__", "scalars.poly_mul"),
    ("__add__", "scalars.poly_add"),
    ("scale", "scalars.poly_scale"),
)

COEFF_BUILDS = frozenset(
    ("symbols.curv_cc", "symbols.curv_hh", "symbols.omega_cc", "symbols.omega_hh", "symbols.f_matrix")
)
COMPUTE_UNDER_CHAIN = frozenset(("clifford.trace_product", "clifford.op_mul", "clifford.op_trace"))
LAYERS = ("clifford", "symbols", "residue", "sphere", "curvature", "cli")

# Per-layer metrics: (name, unit, in_result).  "s" metrics are seconds
# per request (median over the traced requests); counts and ratios are
# those of the first traced request, so they repeat exactly for a seed.
# Every metric is printed; the result line carries the in_result ones,
# the times that are never zero on any workload plus every count.  A
# boundary a workload never reaches (cli on the library workloads,
# residue on families-d6) reads 0 s on every run, so its time is
# printed but left out of the result.
METRICS = (
    ("clifford.self_s", "s", True),
    ("clifford.trace_product.calls", "count", True),
    ("clifford.trace_product.self_s", "s", False),
    ("clifford.op_mul.calls", "count", True),
    ("clifford.op_mul.self_s", "s", False),
    ("clifford.chain_trace.calls", "count", True),
    ("clifford.chain_trace.hit_ratio", "ratio", True),
    ("clifford.weighted_sum.calls", "count", True),
    ("clifford.weighted_sum.self_s", "s", True),
    ("clifford.op_add_scale.self_s", "s", False),
    ("symbols.self_s", "s", True),
    ("symbols.coeff_build_s", "s", True),
    ("symbols.lemma2_symbols.self_s", "s", True),
    ("symbols.symbols_PQ.self_s", "s", False),
    ("symbols.compose_block.self_s", "s", False),
    ("symbols.compose_block.terms_out", "count", True),
    ("symbols.merged.self_s", "s", False),
    ("symbols.lemma1_symbols.self_s", "s", False),
    ("symbols.standard_connection.self_s", "s", False),
    ("residue.analysis.self_s", "s", False),
    ("residue.integrate_density.self_s", "s", False),
    ("residue.integrate_density.terms", "count", True),
    ("residue.integrate_density.traced_ratio", "ratio", True),
    ("sphere.vol_multiplier.calls", "count", True),
    ("sphere.vol_multiplier.self_s", "s", False),
    ("curvature.contract.calls", "count", True),
    ("curvature.contract.self_s", "s", True),
    ("curvature.random_riemann.self_s", "s", False),
    ("scalars.poly_mul.calls", "count", True),
    ("scalars.poly_add.calls", "count", True),
    ("scalars.poly_scale.calls", "count", True),
    ("cli.self_s", "s", False),
)


class Tracer:
    """Span and counter store for one traced run; one request at a time."""

    def __init__(self):
        self.names: list = []
        self.name_ids: dict = {}
        self.span_name: list = []
        self.span_start: list = []
        self.span_end: list = []
        self.span_parent: list = []
        self.span_attr: dict = {}  # span index -> terms passed in or returned
        self.span_request: list = []
        self.request = -1  # index of the request in progress or last run
        self.stack: list = []
        self.counts: dict = {}
        self.request_counts: list = []

    # -- recording --

    def _name_id(self, name: str) -> int:
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.span_request.append(self.request)
        self.span_end.append(0.0)
        self.stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(self._name_id(name))
        try:
            yield idx
        finally:
            self._close(idx)

    def wrap(self, fn, name: str):
        nid = self._name_id(name)
        tracer = self
        if name == "residue.integrate_density":

            @wraps(fn)
            def traced(terms, *args, **kwargs):
                terms = list(terms)
                idx = tracer._open(nid)
                try:
                    return fn(terms, *args, **kwargs)
                finally:
                    tracer._close(idx)
                    tracer.span_attr[idx] = len(terms)

            return traced
        if name == "symbols.compose_block":

            @wraps(fn)
            def traced(*args, **kwargs):
                idx = tracer._open(nid)
                out = []
                try:
                    out = fn(*args, **kwargs)
                    return out
                finally:
                    tracer._close(idx)
                    tracer.span_attr[idx] = len(out)

            return traced

        @wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)

        return traced

    def counter(self, fn, name: str):
        counts = self.counts

        @wraps(fn)
        def counted(*args):
            counts[name] += 1
            return fn(*args)

        return counted

    @contextmanager
    def installed(self, wres_modules: dict):
        """Patch every boundary found in {"clifford": module, ...}; undo on exit."""
        undo = []
        try:
            for mod_name, attr, span_name in SPAN_SITES:
                owner, leaf = _resolve(wres_modules.get(mod_name), attr)
                if owner is not None:
                    original = owner.__dict__[leaf]
                    undo.append((owner, leaf, original))
                    setattr(owner, leaf, self.wrap(original, span_name))
            poly = getattr(wres_modules.get("scalars"), "ScalarPoly", None)
            for method, counter_name in COUNT_SITES:
                self.counts.setdefault(counter_name, 0)
                if poly is not None and method in poly.__dict__:
                    original = poly.__dict__[method]
                    undo.append((poly, method, original))
                    setattr(poly, method, self.counter(original, counter_name))
            yield self
        finally:
            for owner, leaf, original in reversed(undo):
                setattr(owner, leaf, original)

    @contextmanager
    def request_scope(self, wres_modules: dict, label: str):
        """One traced request: patch, open its root span, unpatch on exit.

        Counters are snapshotted around it, so a request's counts hold
        only its own calls.
        """
        self.request += 1
        before = dict(self.counts)
        try:
            with self.installed(wres_modules), self.span(label):
                yield
        finally:
            self.request_counts.append(
                {k: v - before.get(k, 0) for k, v in self.counts.items()}
            )

    # -- analysis --

    def request_metrics(self, idxs: list, counts: dict) -> dict:
        """Per-layer metrics of one request from its spans and counter deltas."""
        names = self.names
        child_time: dict = {}
        children: dict = {}
        for i in idxs:
            p = self.span_parent[i]
            if p >= 0:
                child_time[p] = child_time.get(p, 0.0) + self.span_end[i] - self.span_start[i]
                children.setdefault(p, []).append(i)
        self_s: dict = {}
        calls: dict = {}
        layer_self = {layer: 0.0 for layer in LAYERS}
        coeff_build_s = 0.0
        chain_hits = 0
        density_terms = density_traced = terms_out = 0
        for i in idxs:
            name = names[self.span_name[i]]
            dur = self.span_end[i] - self.span_start[i]
            own = dur - child_time.get(i, 0.0)
            self_s[name] = self_s.get(name, 0.0) + own
            calls[name] = calls.get(name, 0) + 1
            layer = name.split(".", 1)[0]
            if layer in layer_self:
                layer_self[layer] += own
            parent = self.span_parent[i]
            if name in COEFF_BUILDS and (parent < 0 or names[self.span_name[parent]] not in COEFF_BUILDS):
                coeff_build_s += dur
            elif name == "clifford.chain_trace":
                if not any(names[self.span_name[c]] in COMPUTE_UNDER_CHAIN for c in children.get(i, ())):
                    chain_hits += 1
            elif name == "residue.integrate_density":
                density_terms += self.span_attr[i]
                density_traced += sum(
                    _count_under(c, children, names, self.span_name, "clifford.chain_trace")
                    for c in children.get(i, ())
                )
            elif name == "symbols.compose_block":
                terms_out += self.span_attr[i]
        chain_calls = calls.get("clifford.chain_trace", 0)

        def s(name):
            return self_s.get(name, 0.0)

        values = {
            "clifford.self_s": layer_self["clifford"],
            "clifford.trace_product.calls": calls.get("clifford.trace_product", 0),
            "clifford.trace_product.self_s": s("clifford.trace_product"),
            "clifford.op_mul.calls": calls.get("clifford.op_mul", 0),
            "clifford.op_mul.self_s": s("clifford.op_mul"),
            "clifford.chain_trace.calls": chain_calls,
            "clifford.chain_trace.hit_ratio": chain_hits / chain_calls if chain_calls else 0.0,
            "clifford.weighted_sum.calls": calls.get("clifford.weighted_sum", 0),
            "clifford.weighted_sum.self_s": s("clifford.weighted_sum"),
            "clifford.op_add_scale.self_s": s("clifford.op_add") + s("clifford.op_scale"),
            "symbols.self_s": layer_self["symbols"],
            "symbols.coeff_build_s": coeff_build_s,
            "symbols.lemma2_symbols.self_s": s("symbols.lemma2_symbols"),
            "symbols.symbols_PQ.self_s": s("symbols.symbols_PQ"),
            "symbols.compose_block.self_s": s("symbols.compose_block"),
            "symbols.compose_block.terms_out": terms_out,
            "symbols.merged.self_s": s("symbols.merged"),
            "symbols.lemma1_symbols.self_s": s("symbols.lemma1_symbols"),
            "symbols.standard_connection.self_s": s("symbols.standard_connection"),
            "residue.analysis.self_s": s("residue.analysis"),
            "residue.integrate_density.self_s": s("residue.integrate_density"),
            "residue.integrate_density.terms": density_terms,
            "residue.integrate_density.traced_ratio": density_traced / density_terms if density_terms else 0.0,
            "sphere.vol_multiplier.calls": calls.get("sphere.vol_multiplier", 0),
            "sphere.vol_multiplier.self_s": s("sphere.vol_multiplier"),
            "curvature.contract.calls": calls.get("curvature.contract", 0),
            "curvature.contract.self_s": s("curvature.contract"),
            "curvature.random_riemann.self_s": s("curvature.random_riemann"),
            "scalars.poly_mul.calls": counts.get("scalars.poly_mul", 0),
            "scalars.poly_add.calls": counts.get("scalars.poly_add", 0),
            "scalars.poly_scale.calls": counts.get("scalars.poly_scale", 0),
            "cli.self_s": layer_self["cli"],
        }
        return values

    def run_metrics(self) -> dict:
        """Counts and ratios of request 0; seconds as the median over requests."""
        by_request: list = [[] for _ in range(self.request + 1)]
        for i, r in enumerate(self.span_request):
            by_request[r].append(i)
        per_request = [
            self.request_metrics(idxs, counts)
            for idxs, counts in zip(by_request, self.request_counts)
        ]
        out = {}
        for name, unit, _ in METRICS:
            if unit == "s":
                out[name] = statistics.median(m[name] for m in per_request)
            else:
                out[name] = per_request[0][name]
        return out

    def dump(self, path) -> None:
        """Write every span as [name, start, end, parent, request]."""
        t0 = self.span_start[0] if self.span_start else 0.0
        spans = [
            [self.names[n], round(s - t0, 9), round(e - t0, 9), p, r]
            for n, s, e, p, r in zip(
                self.span_name, self.span_start, self.span_end, self.span_parent, self.span_request
            )
        ]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "request"], "spans": spans}, fh)


def _resolve(module, attr: str):
    """(owner, leaf) for "name" or "Class.method" if present in module, else (None, None)."""
    if module is None:
        return None, None
    owner = module
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None
    if leaf not in getattr(owner, "__dict__", {}):
        return None, None
    return owner, leaf


def _count_under(idx: int, children: dict, names: list, span_name: list, target: str) -> int:
    """Spans named target at or below span idx."""
    total = 0
    todo = [idx]
    while todo:
        i = todo.pop()
        if names[span_name[i]] == target:
            total += 1
        todo.extend(children.get(i, ()))
    return total
