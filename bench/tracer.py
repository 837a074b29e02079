"""Span recorder and call-boundary instrumentation for the benchmark.

The library is instrumented from the outside: ``instrument(tracer)`` swaps
each traced public function (and the few private hooks named below) for a
wrapper that records a span and the layer's work counters, in every
``dunkl_frft`` module that bound the original.  Nothing under ``src/``
changes.  Spans carry name, start, end, parent span and request id; a
layer's self time is its span minus the spans of its children.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# Bessel arguments at or below this modulus are summed by the power series
# in ``specfun`` at the commit the benchmark was defined; the class split is
# a property of the input, so it stays comparable if the code changes.
SERIES_RANGE = 8.0

# Full span records kept in memory; aggregates are exact past this cap.
MAX_SPANS = 200_000

KERNEL_ROUTES = {
    "fdt_integral": "integral",
    "fdt_integral_on_grid": "integral",
    "fdt_smoothed": "smoothed",
    "fdt_smoothed_on_grid": "smoothed",
}
TRANSFORM_FNS = (
    "fdt_integral",
    "fdt_integral_on_grid",
    "fdt_smoothed",
    "fdt_smoothed_on_grid",
    "fdt_spectral",
    "hermite_expand",
    "fractional_hankel",
    "kernel_alpha",
    "kernel_smoothed",
    "kernel_spectral",
    "kernel_smoothed_bound",
    "funk_hecke_radial",
)
SEMIGROUP_FNS = ("spectral_projection", "resolvent_apply", "generator_exact", "generator_integral")
SUITE_NAMES = (
    "basis",
    "eigenrelation",
    "unitary_group",
    "route_agreement",
    "mehler",
    "master_formula",
    "eigenbasis",
    "funk_hecke",
    "generator",
    "spectral_theory",
    "classical",
    "semigroup_calculus",
    "projection_algebra",
)


def digest(*parts):
    """Short stable key for a tuple of scalars and arrays."""
    h = hashlib.sha1()
    for p in parts:
        if isinstance(p, np.ndarray):
            h.update(np.ascontiguousarray(p).tobytes())
            h.update(str(p.shape).encode())
        else:
            h.update(repr(p).encode())
        h.update(b"|")
    return h.hexdigest()[:16]


class Tracer:
    """In-memory spans plus exact counters, keyed by layer name."""

    def __init__(self):
        self.spans = []
        self.dropped = 0
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.keys = defaultdict(set)
        self.counter_s = 0.0
        self.request = None
        self._stack = []
        self._next_id = 0

    def span(self, name, fn, before=None):
        """Wrap fn so each call records a span; ``before`` sees the bound
        arguments and the tracer, for work counters.  Counter time is
        measured and taken out of every enclosing span's self and total
        time, so layer times hold the library's work only."""
        sig = inspect.signature(fn) if before is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                t0 = time.perf_counter()
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                before(self, bound.arguments)
                cost = time.perf_counter() - t0
                self.counter_s += cost
                if self._stack:
                    self._stack[-1][3] += cost
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else None
            # [id, children's net time, name, counter time inside]
            frame = [span_id, 0.0, name, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                net = end - start - frame[3]
                self.self_s[name] += net - frame[1]
                self.total_s[name] += net
                self.calls[name] += 1
                if self._stack:
                    self._stack[-1][1] += net
                    self._stack[-1][3] += frame[3]
                if len(self.spans) < MAX_SPANS:
                    self.spans.append((span_id, parent, self.request, name, start, end))
                else:
                    self.dropped += 1

        return wrapper

    def inside(self, name):
        return any(frame[2] == name for frame in self._stack)

    def summary(self):
        """Plain-JSON aggregate, mergeable across processes."""
        return {
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "keys": {k: sorted(v) for k, v in self.keys.items()},
            "spans": len(self.spans) + self.dropped,
            "counter_s": self.counter_s,
        }


def merge(summaries):
    out = {"self_s": defaultdict(float), "total_s": defaultdict(float), "calls": Counter(),
           "counts": Counter(), "keys": defaultdict(set), "spans": 0, "counter_s": 0.0}
    for s in summaries:
        for field in ("self_s", "total_s"):
            for k, v in s[field].items():
                out[field][k] += v
        out["calls"].update(s["calls"])
        out["counts"].update(s["counts"])
        for k, v in s["keys"].items():
            out["keys"][k].update(v)
        out["spans"] += s["spans"]
        out["counter_s"] += s["counter_s"]
    return out


# ---------------------------------------------------------------------------
# work counters, computed from the arguments at each boundary


def _count_bessel(tr, args):
    u = np.asarray(args["u"], dtype=complex)
    big = np.abs(u) > SERIES_RANGE
    n_big = int(np.count_nonzero(big))
    n_imag = int(np.count_nonzero(big & (u.real == 0.0)))
    tr.counts["bessel.points_series"] += u.size - n_big
    tr.counts["bessel.points_imag"] += n_imag
    tr.counts["bessel.points_complex"] += n_big - n_imag


def _operator_counter(fn_name):
    route = KERNEL_ROUTES[fn_name]

    def before(tr, args):
        plan = args["plan"]
        grid = plan.grid
        outputs = "grid" if fn_name.endswith("_on_grid") else np.asarray(args["xs"], dtype=float)
        r = 1.0 if route == "integral" else (plan.r if args.get("r") is None else float(args["r"]))
        tr.counts["operators.requested"] += 1
        tr.keys["operators"].add(
            digest(route, plan.mult.mu, plan.alpha, r, grid.box, grid.points_per_axis, outputs)
        )

    return before


def _count_grid_contraction(tr, args):
    mats = args["mats"]
    shape = list(np.shape(args["tensor"]))
    macs = 0
    for j, mat in enumerate(mats):
        rows, cols = np.shape(mat)
        rest = int(np.prod(shape)) // cols
        macs += rows * cols * rest
        shape[j] = rows
    tr.counts["contract.flops_computed"] += 8 * macs


def _count_point_contraction(tr, args):
    mats = args["mats"]
    z = np.shape(mats[0])[0]
    cols = [np.shape(m)[1] for m in mats]
    macs = z * int(np.prod(cols))
    if len(cols) > 1:
        macs += z * int(np.prod(cols[1:]))
    tr.counts["contract.flops_computed"] += 8 * macs


def _count_basis(tr, args):
    tr.keys["basis"].add(digest(args["mult"].mu, int(args["max_degree"])))


def _count_grid(tr, args):
    tr.keys["grid"].add(digest(args["mult"].mu, float(args["L"]), args["n"]))


def _count_circle(tr, args):
    tr.counts["circle.points"] += int(args["n"])


def _count_eval_points(tr, args):
    tr.counts["expansion.eval_points"] += int(np.asarray(args["x"])[..., 0].size)


def _count_expand_miss(tr, args):
    if tr.inside("semigroup.GroupSampler.expand"):
        tr.counts["sampler.misses"] += 1


def _library_modules():
    return [m for name, m in sys.modules.items() if name == "dunkl_frft" or name.startswith("dunkl_frft.")]


def _rebind(original, wrapper):
    for mod in _library_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


def instrument(tracer):
    """Wrap every traced boundary of the already-imported library."""
    import dunkl_frft.checks as checks
    import dunkl_frft.cli as cli
    import dunkl_frft.polyengine as polyengine
    import dunkl_frft.quadrature as quadrature
    import dunkl_frft.semigroup as semigroup
    import dunkl_frft.specfun as specfun
    import dunkl_frft.transform as transform

    def fn(module, attr, name, before=None):
        original = getattr(module, attr)
        _rebind(original, tracer.span(name, original, before))

    def method(cls, attr, name, before=None):
        setattr(cls, attr, tracer.span(name, getattr(cls, attr), before))

    fn(specfun, "normalized_ibessel", "specfun.normalized_ibessel", _count_bessel)
    fn(specfun, "dunkl_kernel_1d", "specfun.dunkl_kernel_1d")
    for name in TRANSFORM_FNS:
        if name in KERNEL_ROUTES:
            before = _operator_counter(name)
        elif name == "hermite_expand":
            before = _count_expand_miss
        else:
            before = None
        fn(transform, name, f"transform.{name}", before)
    fn(transform, "_contract_grid", "transform.contract", _count_grid_contraction)
    fn(transform, "_contract_points", "transform.contract", _count_point_contraction)
    method(polyengine.HermiteBasis, "__init__", "polyengine.HermiteBasis", _count_basis)
    method(polyengine.HermiteExpansion, "__call__", "polyengine.HermiteExpansion", _count_eval_points)
    fn(polyengine, "heat_exp_poly", "polyengine.heat_exp_poly")
    fn(quadrature, "build_grid", "quadrature.build_grid", _count_grid)
    fn(quadrature, "circle_grid", "quadrature.circle_grid", _count_circle)
    fn(quadrature, "circle_identity_residual", "quadrature.circle_identity_residual")
    method(semigroup.GroupSampler, "expand", "semigroup.GroupSampler.expand")
    for name in SEMIGROUP_FNS:
        fn(semigroup, name, f"semigroup.{name}")
    for suite, check in list(checks.SUITES.items()):
        checks.SUITES[suite] = tracer.span(f"checks.{suite}", check)
    fn(cli, "parse_config", "cli.parse_config")
    fn(cli, "main", "cli.main")


# ---------------------------------------------------------------------------
# per-layer metric table


def layer_metrics(agg, extra):
    """Every per-layer metric named in BENCHMARK.json, from a merged
    summary plus the counts kept outside the library (``extra``)."""
    s, t, c, n, k = agg["self_s"], agg["total_s"], agg["calls"], agg["counts"], agg["keys"]
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    bessel = "specfun.normalized_ibessel"
    put(f"{bessel}.calls", c.get(bessel, 0), "count")
    put(f"{bessel}.self_s", s.get(bessel, 0.0), "s")
    for cls in ("series", "imag", "complex"):
        put(f"{bessel}.points_{cls}", n.get(f"bessel.points_{cls}", 0), "count")
    put("specfun.dunkl_kernel_1d.self_s", s.get("specfun.dunkl_kernel_1d", 0.0), "s")
    requested = n.get("operators.requested", 0)
    distinct = len(k.get("operators", ()))
    put("transform.operators.requested", requested, "count")
    put("transform.operators.distinct", distinct, "count")
    put("transform.operators.reuse_ratio", (1.0 - distinct / requested) if requested else 0.0, "ratio")
    for name in TRANSFORM_FNS:
        put(f"transform.{name}.calls", c.get(f"transform.{name}", 0), "count")
        put(f"transform.{name}.self_s", s.get(f"transform.{name}", 0.0), "s")
    put("transform.contract.flops_computed", n.get("contract.flops_computed", 0), "flop")
    basis = "polyengine.HermiteBasis"
    put(f"{basis}.builds", c.get(basis, 0), "count")
    put(f"{basis}.distinct", len(k.get("basis", ())), "count")
    put(f"{basis}.self_s", s.get(basis, 0.0), "s")
    put("polyengine.heat_exp_poly.calls", c.get("polyengine.heat_exp_poly", 0), "count")
    put("polyengine.heat_exp_poly.self_s", s.get("polyengine.heat_exp_poly", 0.0), "s")
    put("polyengine.HermiteExpansion.eval_points", n.get("expansion.eval_points", 0), "count")
    put("polyengine.HermiteExpansion.self_s", s.get("polyengine.HermiteExpansion", 0.0), "s")
    put("quadrature.build_grid.calls", c.get("quadrature.build_grid", 0), "count")
    put("quadrature.build_grid.distinct", len(k.get("grid", ())), "count")
    put("quadrature.build_grid.self_s", s.get("quadrature.build_grid", 0.0), "s")
    put("quadrature.circle_grid.points", n.get("circle.points", 0), "count")
    put("quadrature.circle_identity_residual.self_s",
        s.get("quadrature.circle_identity_residual", 0.0), "s")
    put("semigroup.GroupSampler.expand.calls", c.get("semigroup.GroupSampler.expand", 0), "count")
    put("semigroup.GroupSampler.expand.misses", n.get("sampler.misses", 0), "count")
    for name in SEMIGROUP_FNS:
        put(f"semigroup.{name}.self_s", s.get(f"semigroup.{name}", 0.0), "s")
    for suite in SUITE_NAMES:
        put(f"checks.{suite}.s", t.get(f"checks.{suite}", 0.0), "s")
    put("cli.main.self_s", s.get("cli.main", 0.0), "s")
    put("cli.parse_config.self_s", s.get("cli.parse_config", 0.0), "s")
    put("cli.bytes_written", extra.get("cli.bytes_written", 0), "B")
    for code in (0, 1, 2):
        put(f"cli.exit.{code}", extra.get(f"cli.exit.{code}", 0), "count")
    put("trace.spans", agg["spans"], "count")
    put("trace.counter_s", agg["counter_s"], "s")
    return out
