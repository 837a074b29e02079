"""Command-line front end: transforms, kernels, basis tables, projections,
resolvents, property-check suites and convergence studies, driven by JSON
job configs with CSV/JSON outputs.

Every run writes the fully-resolved config (defaults materialized) next to
its results, stamped with the library version; identical (config, seed)
pairs produce byte-identical files when the BLAS library runs on one
thread (OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS set to 1).
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .checks import SUITES, run_suite
from .errors import CalibrationError, DomainError, DunklError, UsageError
from .polyengine import GaussPoly, HermiteExpansion, MultiPoly
from .quadrature import build_grid
from .semigroup import GroupSampler, difference_quotient, resolvent_apply, spectral_projection
from .specfun import BesselOrder, Multiplicity, laguerre_eval
from .transform import (
    TransformPlan,
    fdt_integral,
    fdt_smoothed,
    fdt_spectral,
    fractional_hankel,
    kernel_alpha,
    kernel_smoothed,
    kernel_spectral,
    normalize_alpha,
)

COMMANDS = (
    "basis",
    "kernel",
    "transform",
    "hankel",
    "projection",
    "resolvent",
    "check",
    "convergence",
)


@dataclass
class JobConfig:
    """Fully-resolved job description; round-trips losslessly through JSON."""

    command: str
    mu: list
    alpha: float = -math.pi / 2.0
    r: float = 1.0
    M: int = None
    route: str = "integral"
    L: float = 8.0
    n: int = None
    s_min: float = 0.05
    function: dict = None
    outputs: dict = field(default_factory=dict)
    order: float = None
    suite: str = "all"
    vary: str = "r"
    values: list = None
    projections: list = field(default_factory=lambda: [0])
    resolvent_lambda: list = field(default_factory=lambda: [1.0, 0.5])
    q_nodes: int = 64
    seed: int = 12345
    tol_scale: float = None

    def to_json(self):
        out = asdict(self)
        out["version"] = __version__
        return out


def _field(obj, key, kind, default=None, required=False, choices=None):
    if key not in obj or obj[key] is None:
        if required:
            raise UsageError(f"config field '{key}' is required for this command")
        return default
    value = obj[key]
    try:
        if kind in (float, int, str):
            value = kind(value)
        elif not isinstance(value, kind):
            raise TypeError
    except (TypeError, ValueError, OverflowError):
        raise UsageError(f"config field '{key}': expected {kind.__name__}, got {value!r}")
    if choices is not None and value not in choices:
        raise UsageError(f"config field '{key}': must be one of {choices}, got {value!r}")
    return value


def _parse(value, key, convert):
    """convert(value) for a structured config value; a value of the wrong
    shape or type is a UsageError naming the field."""
    try:
        return convert(value)
    except (AttributeError, KeyError, TypeError, ValueError, ArithmeticError):
        raise UsageError(f"config field '{key}': malformed value {value!r}") from None


@contextmanager
def _refused(*keys):
    """A library refusal of a config value becomes a UsageError naming the
    config fields the value came from."""
    try:
        yield
    except (DomainError, CalibrationError) as exc:
        names = " and ".join(f"'{k}'" for k in keys)
        raise UsageError(f"config field{'s' * (len(keys) > 1)} {names}: {exc}") from None


def _float_list(values):
    return [float(v) for v in values]


def _float_array(values):
    return np.asarray(values, dtype=float)


def _coordinates(value, key):
    """Output coordinates of a config field: a float array, all finite."""
    arr = _parse(value, key, _float_array)
    if not np.all(np.isfinite(arr)):
        raise UsageError(f"config field '{key}': coordinates must be finite, got {value!r}")
    return arr


def parse_config(obj):
    if not isinstance(obj, dict):
        raise UsageError("config root: expected a JSON object")
    obj = dict(obj)
    # wire-format conveniences: bare point list for outputs, nested grid obj
    if isinstance(obj.get("outputs"), list):
        obj["outputs"] = {"points": obj["outputs"]}
    grid_spec = obj.pop("grid", None)
    if grid_spec is not None:
        if not isinstance(grid_spec, dict):
            raise UsageError("config field 'grid': expected an object")
        if "L" in grid_spec:
            obj.setdefault("L", grid_spec["L"])
        if "n" in grid_spec:
            obj.setdefault("n", grid_spec["n"])
    command = _field(obj, "command", str, required=True, choices=COMMANDS)
    mu = _parse(_field(obj, "mu", list, required=True), "mu", _float_list)
    known = {f for f in JobConfig.__dataclass_fields__} | {"version"}
    for key in obj:
        if key not in known:
            raise UsageError(f"config field '{key}': unknown field")
    cfg = JobConfig(
        command=command,
        mu=mu,
        alpha=_field(obj, "alpha", float, default=-math.pi / 2.0),
        r=_field(obj, "r", float, default=1.0),
        M=_field(obj, "M", int),
        route=_field(obj, "route", str, default="integral", choices=("spectral", "integral", "smoothed")),
        L=_field(obj, "L", float, default=8.0),
        n=_field(obj, "n", int),
        s_min=_field(obj, "s_min", float, default=0.05),
        function=_field(obj, "function", dict),
        outputs=_field(obj, "outputs", dict, default={}),
        order=_field(obj, "order", float),
        suite=_field(obj, "suite", str, default="all"),
        vary=_field(obj, "vary", str, default="r", choices=("r", "alpha")),
        values=_field(obj, "values", list),
        projections=_field(obj, "projections", list, default=[0]),
        resolvent_lambda=_field(obj, "resolvent_lambda", list, default=[1.0, 0.5]),
        q_nodes=_field(obj, "q_nodes", int, default=64),
        seed=_field(obj, "seed", int, default=12345),
        tol_scale=_field(obj, "tol_scale", float),
    )
    return cfg


def _make_plan(cfg):
    with _refused("mu"):
        mult = Multiplicity(cfg.mu)
    with _refused("L", "n"):
        grid = build_grid(mult, L=cfg.L, n=cfg.n)
    with _refused("alpha"):
        normalize_alpha(cfg.alpha)
    with _refused("s_min"):
        normalize_alpha(cfg.alpha, cfg.s_min)
    if cfg.M is not None and cfg.M < 0:
        raise UsageError(f"config field 'M': must be >= 0, got {cfg.M}")
    with _refused("r"):
        return TransformPlan(mult, cfg.alpha, grid=grid, r=cfg.r, M=cfg.M, s_min=cfg.s_min)


def build_function(spec, plan):
    """Turn a declarative function spec into an evaluable (or node values).

    Kinds: hermite_combo (list of {nu, re, im} terms), gauss_poly
    (polynomial JSON over exp(-|x|^2/2)), gaussian (exp(-a |y|^2)),
    laguerre_gaussian (L_m^(order)(|y|^2) exp(-|y|^2/2)) and samples
    (raw values on the plan grid, flattened row-major).
    """
    if spec is None:
        raise UsageError("config field 'function' is required for this command")
    kind = _field(spec, "kind", str, required=True,
                  choices=("hermite_combo", "gauss_poly", "gaussian", "laguerre_gaussian", "samples"))
    if kind == "hermite_combo":
        table = {}
        for t in _field(spec, "terms", list, required=True):
            nu, c = _parse(t, "function.terms", _combo_term)
            table[nu] = table.get(nu, 0.0) + c
        return HermiteExpansion.from_terms(plan.basis, table)
    if kind == "gauss_poly":
        raw = _field(spec, "poly", dict, required=True)
        poly = _parse(raw, "function.poly", MultiPoly.from_json)
        if poly.dim != plan.mult.dim:
            raise UsageError(f"config field 'function.poly': dim {poly.dim} != {plan.mult.dim}")
        return GaussPoly(poly)
    if kind == "gaussian":
        a = _field(spec, "a", float, default=0.5)
        if a <= 0:
            raise UsageError("config field 'function.a': must be positive")
        return lambda pts: np.exp(-a * np.sum(np.asarray(pts) ** 2, axis=-1))
    if kind == "laguerre_gaussian":
        m = _field(spec, "m", int, default=0)
        order = _field(spec, "order", float, default=0.0)
        return lambda pts: (
            laguerre_eval(m, order, np.sum(np.asarray(pts) ** 2, axis=-1))
            * np.exp(-0.5 * np.sum(np.asarray(pts) ** 2, axis=-1))
        )
    npts = plan.grid.nodes.shape[0]
    parts = {}
    for key, required in (("values_re", True), ("values_im", False)):
        raw = _field(spec, key, list, required=required, default=[0.0] * npts)
        parts[key] = _parse(raw, f"function.{key}", _float_array)
        if parts[key].shape != (npts,):
            raise UsageError(f"config field 'function.{key}': need {npts} samples, one per grid node")
    return parts["values_re"] + 1j * parts["values_im"]


def _combo_term(term):
    nu = tuple(int(v) for v in term["nu"])
    return nu, complex(float(term.get("re", 0.0)), float(term.get("im", 0.0)))


def _radial_profile(spec):
    if spec is None:
        raise UsageError("config field 'function' is required for this command")
    kind = _field(spec, "kind", str, default="gaussian", choices=("gaussian", "laguerre_gaussian"))
    if kind == "gaussian":
        a = _field(spec, "a", float, default=0.5)
        return lambda y: np.exp(-a * np.asarray(y) ** 2)
    m = _field(spec, "m", int, default=0)
    order = _field(spec, "order", float, default=0.0)
    return lambda y: laguerre_eval(m, order, np.asarray(y) ** 2) * np.exp(-0.5 * np.asarray(y) ** 2)


def _output_points(cfg, plan):
    spec = cfg.outputs or {}
    if "points" in spec:
        pts = _coordinates(spec["points"], "outputs.points")
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[1] != plan.mult.dim:
            raise UsageError(f"config field 'outputs.points': need shape (m, {plan.mult.dim})")
        return pts
    if "linspace" in spec:
        bounds = _coordinates(spec["linspace"], "outputs.linspace")
        axis = _parse(bounds, "outputs.linspace", _linspace)
    elif spec.get("grid", False):
        return plan.grid.nodes
    else:
        axis = np.linspace(-3.0, 3.0, 25)
    if plan.mult.dim == 1:
        return axis[:, None]
    mesh = np.meshgrid(*([axis] * plan.mult.dim), indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def _linspace(spec):
    lo, hi, count = _float_list(spec)
    return np.linspace(lo, hi, int(count))


def _csv_lines(header_cols, rows, cfg):
    lines = [f"# dunkl-frft {__version__}", f"# config: {json.dumps(cfg.to_json(), sort_keys=True)}"]
    lines.append("# " + ",".join(header_cols))
    for row in rows:
        lines.append(",".join(f"{v:.15e}" if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def _complex_rows(points, values):
    rows = []
    for pt, v in zip(points, np.asarray(values)):
        rows.append([float(c) for c in pt] + [float(np.real(v)), float(np.imag(v))])
    return rows


def _write(out_dir, name, text):
    path = Path(out_dir) / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return path


def _emit(cfg, out_dir, fmt, header_cols, rows, extra=None):
    stamp = cfg.to_json()
    if extra:
        stamp["summary"] = extra
    _write(out_dir, "resolved_config.json", json.dumps(stamp, indent=2, sort_keys=True) + "\n")
    if fmt == "json":
        payload = {
            "version": __version__,
            "config": cfg.to_json(),
            "columns": header_cols,
            "rows": rows,
        }
        if extra:
            payload["summary"] = extra
        path = _write(out_dir, "result.json", json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        path = _write(out_dir, "result.csv", _csv_lines(header_cols, rows, cfg))
    return path


def _cmd_transform(cfg, out_dir, fmt):
    plan = _make_plan(cfg)
    f = build_function(cfg.function, plan)
    points = _output_points(cfg, plan)
    if cfg.route == "spectral":
        result = fdt_spectral(f, plan)
        values = result(points)
        extra = {"tail_mass": result.tail_mass, "parseval_slack": result.parseval_slack}
    elif cfg.route == "smoothed":
        values = fdt_smoothed(f, plan, points)
        extra = None
    else:
        values = fdt_integral(f, plan, points)
        extra = None
    cols = [f"x{j}" for j in range(plan.mult.dim)] + ["re", "im"]
    _emit(cfg, out_dir, fmt, cols, _complex_rows(points, values), extra)
    return 0


def _cmd_kernel(cfg, out_dir, fmt):
    plan = _make_plan(cfg)
    spec = cfg.outputs or {}
    pairs = spec.get("pairs")
    if pairs is None:
        raise UsageError("config field 'outputs.pairs' is required for the kernel command")
    dim = plan.mult.dim
    rows = []
    for pair in _parse(pairs, "outputs.pairs", list):
        arr = _coordinates(pair, "outputs.pairs")
        if arr.shape != (2 * dim,):
            raise UsageError(f"config field 'outputs.pairs': each entry needs {2 * dim} numbers")
        x, y = arr[:dim], arr[dim:]
        if cfg.route == "spectral":
            v = kernel_spectral(plan, x, y)
        elif cfg.route == "smoothed":
            v = kernel_smoothed(plan, x, y)
        else:
            v = kernel_alpha(plan, x, y)
        rows.append([float(c) for c in arr] + [float(np.real(v)), float(np.imag(v))])
    cols = [f"x{j}" for j in range(dim)] + [f"y{j}" for j in range(dim)] + ["re", "im"]
    _emit(cfg, out_dir, fmt, cols, rows)
    return 0


def _cmd_basis(cfg, out_dir, fmt):
    plan = _make_plan(cfg)
    basis = plan.basis
    mat_rows = []
    for nu, norm in zip(basis.indices, basis.norms):
        mat_rows.append(list(map(float, nu)) + [float(norm)])
    gram_worst = 0.0
    for j in range(basis.dim):
        mat = basis.axis_matrix(j, plan.grid.axes_nodes[j])
        gram = (mat * plan.grid.axes_weights[j][None, :]) @ mat.T
        gram_worst = max(gram_worst, float(np.max(np.abs(gram - np.eye(basis.max_degree + 1)))))
    cols = [f"nu{j}" for j in range(basis.dim)] + ["norm_constant"]
    _emit(cfg, out_dir, fmt, cols, mat_rows, {"gram_residual": gram_worst})
    print(f"basis: {basis.size} functions, per-axis gram residual {gram_worst:.3e}")
    return 0


def _cmd_hankel(cfg, out_dir, fmt):
    plan = _make_plan(cfg)
    if cfg.order is None:
        raise UsageError("config field 'order' is required for the hankel command")
    with _refused("order"):
        order = BesselOrder(cfg.order)
    psi = _radial_profile(cfg.function)
    spec = cfg.outputs or {}
    radii = _coordinates(spec.get("radii", np.linspace(0.0, 4.0, 17)), "outputs.radii")
    if radii.ndim != 1:
        raise UsageError("config field 'outputs.radii': expected a list of radii")
    vals = fractional_hankel(psi, order, plan, radii)
    rows = [[float(x), float(np.real(v)), float(np.imag(v))] for x, v in zip(radii, vals)]
    _emit(cfg, out_dir, fmt, ["x", "re", "im"], rows)
    return 0


def _coefficient_rows(expansion):
    rows = []
    for nu, c in zip(expansion.basis.indices, expansion.coeffs):
        rows.append(list(map(float, nu)) + [float(c.real), float(c.imag)])
    return rows


def _cmd_projection(cfg, out_dir, fmt):
    plan = _make_plan(cfg)
    f = build_function(cfg.function, plan)
    with _refused("q_nodes"):
        sampler = GroupSampler(plan, q=cfg.q_nodes)
    rows = []
    for n in _parse(cfg.projections, "projections", lambda v: [int(k) for k in v]):
        proj = spectral_projection(f, n, sampler)
        for row in _coefficient_rows(proj):
            rows.append([n] + row)
    cols = ["n"] + [f"nu{j}" for j in range(plan.mult.dim)] + ["re", "im"]
    _emit(cfg, out_dir, fmt, cols, rows)
    return 0


def _cmd_resolvent(cfg, out_dir, fmt):
    plan = _make_plan(cfg)
    f = build_function(cfg.function, plan)
    with _refused("q_nodes"):
        sampler = GroupSampler(plan, q=cfg.q_nodes)
    lam = _parse(cfg.resolvent_lambda, "resolvent_lambda", lambda v: complex(*_float_list(v)))
    res = resolvent_apply(f, lam, sampler)
    cols = [f"nu{j}" for j in range(plan.mult.dim)] + ["re", "im"]
    _emit(cfg, out_dir, fmt, cols, _coefficient_rows(res))
    return 0


def _cmd_check(cfg, out_dir, fmt):
    if cfg.suite != "all" and cfg.suite not in SUITES:
        raise UsageError(
            f"config field 'suite': unknown suite {cfg.suite!r}; available: all, "
            + ", ".join(SUITES)
        )
    results = run_suite(cfg.suite, seed=cfg.seed, tol_scale=cfg.tol_scale)
    rows = []
    for res in results:
        print(res.row())
        rows.append([res.name, float(res.residual), float(res.tolerance), int(res.passed)])
    n_fail = sum(1 for r in results if not r.passed)
    _emit(cfg, out_dir, fmt, ["name", "residual", "tolerance", "passed"], rows,
          {"failures": n_fail, "total": len(results)})
    print(f"check suite '{cfg.suite}': {len(results) - n_fail}/{len(results)} passed")
    return 0 if n_fail == 0 else 1


def _cmd_convergence(cfg, out_dir, fmt):
    plan = _make_plan(cfg)
    rng = np.random.default_rng(cfg.seed)
    rows = []
    if cfg.vary == "r":
        values = _parse(cfg.values or [1.0 - 2.0**-j for j in range(3, 13)], "values", _float_list)
        samples = rng.uniform(-2.0, 2.0, size=(12, 2, plan.mult.dim))
        for r in values:
            worst = 0.0
            for x, y in samples:
                target = plan.prefactor * kernel_alpha(plan, x, y)
                worst = max(worst, abs(kernel_smoothed(plan, x, y, r=float(r)) - target))
            rows.append([float(r), worst])
        cols = ["r", "kernel_residual"]
    else:
        values = _parse(cfg.values or [0.4 * 2.0**-j for j in range(8)], "values", _float_list)
        f = build_function(cfg.function, plan)
        if not isinstance(f, HermiteExpansion):
            raise UsageError("config field 'function': alpha convergence needs a hermite_combo")
        for a, resid in difference_quotient(f, values, plan):
            rows.append([a, resid])
        cols = ["alpha", "quotient_residual"]
    for row in rows:
        print(f"{cols[0]} = {row[0]:.10g}   residual = {row[1]:.6e}")
    _emit(cfg, out_dir, fmt, cols, rows)
    return 0


_DISPATCH = {
    "basis": _cmd_basis,
    "kernel": _cmd_kernel,
    "transform": _cmd_transform,
    "hankel": _cmd_hankel,
    "projection": _cmd_projection,
    "resolvent": _cmd_resolvent,
    "check": _cmd_check,
    "convergence": _cmd_convergence,
}


def run(config, out_dir="out", fmt="csv", seed=None):
    """Execute a job config; returns the process exit status.

    0 on success, 1 when a check suite reports failures, 2 on usage errors.
    Byte-identical outputs need the BLAS thread variables set to 1.
    """
    try:
        cfg = config if isinstance(config, JobConfig) else parse_config(config)
        if seed is not None:
            cfg.seed = int(seed)
        return _DISPATCH[cfg.command](cfg, out_dir, fmt)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DunklError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="dunkl-frft",
        description="Fractional Dunkl transform toolbox (Z2^N): transforms, "
        "kernels, spectral projections and property-check suites.",
    )
    parser.add_argument("--config", required=True, help="Path to the JSON job config.")
    parser.add_argument("--out", default="out", help="Output directory (default: out).")
    parser.add_argument("--format", default="csv", choices=("csv", "json"))
    parser.add_argument("--seed", type=int, default=None, help="Override the config seed.")
    args = parser.parse_args(argv)
    try:
        obj = json.loads(Path(args.config).read_text(encoding="utf-8"))
    except FileNotFoundError:
        print(f"error: config file not found: {args.config}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: config is not valid JSON: {exc}", file=sys.stderr)
        return 2
    return run(obj, out_dir=args.out, fmt=args.format, seed=args.seed)


if __name__ == "__main__":
    raise SystemExit(main())
