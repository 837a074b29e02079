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
import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__
from .checks import SUITES, run_suite
from .errors import CalibrationError, DomainError, DunklError, RangeError, UsageError
from .polyengine import GaussPoly, HermiteExpansion, MultiPoly
from .quadrature import build_grid
from .semigroup import (
    GroupSampler,
    difference_quotient,
    resolvent_apply,
    resolvent_lambda,
    spectral_projection,
)
from .specfun import BesselOrder, Multiplicity, laguerre_eval
from .transform import (
    HANKEL_NODES,
    TransformPlan,
    fdt_integral,
    fdt_integral_on_grid,
    fdt_smoothed,
    fdt_smoothed_on_grid,
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


# JobConfig's annotations are strings (postponed evaluation); these are their kinds.
_KINDS = {"str": str, "list": list, "float": float, "int": int, "dict": dict}
_CHOICES = {"route": ("spectral", "integral", "smoothed"), "vary": ("r", "alpha")}


def _field(obj, key, kind, default=None, required=False, choices=None, prefix=""):
    """obj[key] read as kind; errors name the field as prefix + key, so a
    key of a nested object is named by its path (``function.m``)."""
    name = prefix + key
    if key not in obj or obj[key] is None:
        if required:
            raise UsageError(f"config field '{name}' is required for this command")
        return default
    value = obj[key]
    try:
        if kind in (float, int):
            value = _number(value, kind)
        elif kind is str:
            value = str(value)
        elif not isinstance(value, kind):
            raise TypeError
    except (TypeError, ValueError, OverflowError):
        raise UsageError(f"config field '{name}': expected {kind.__name__}, got {value!r}")
    if choices is not None and value not in choices:
        raise UsageError(f"config field '{name}': must be one of {choices}, got {value!r}")
    return value


def _number(value, kind):
    """A config number read as kind (int or float).  A boolean is refused,
    and so is a non-integral number where an int is wanted, so no value is
    silently truncated; a numeric string is read by kind."""
    if isinstance(value, bool) or (
        kind is int and isinstance(value, float) and not value.is_integer()
    ):
        raise ValueError(value)
    return kind(value)


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
    return [_number(v, float) for v in values]


def _float_array(values):
    if _has_bool(values):
        raise TypeError("a boolean is not a number")
    return np.asarray(values, dtype=float)


def _has_bool(value):
    """Whether a value, or any entry of a nested list, is a boolean."""
    if not isinstance(value, list):
        return isinstance(value, bool)
    kinds = set(map(type, value))
    return bool in kinds or (list in kinds and any(map(_has_bool, value)))


def _finite(value, key):
    """The numbers of a config field (coordinates, sample values or
    coefficients) as a float array, all finite."""
    arr = _parse(value, key, _float_array)
    if not np.all(np.isfinite(arr)):
        raise UsageError(f"config field '{key}': values must be finite, got {value!r}")
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
    known = {f.name for f in fields(JobConfig)} | {"version"}
    for key in obj:
        if key not in known:
            raise UsageError(f"config field '{key}': unknown field")
    resolved = {"command": command, "mu": mu}
    for f in fields(JobConfig)[2:]:  # every field after command and mu, in order
        default = f.default_factory() if f.default is MISSING else f.default
        resolved[f.name] = _field(obj, f.name, _KINDS[f.type], default=default,
                                  choices=_CHOICES.get(f.name))
    return JobConfig(**resolved)


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
    _check_r(cfg)
    return TransformPlan(mult, cfg.alpha, grid=grid, M=cfg.M, s_min=cfg.s_min)


def _check_r(cfg):
    """Refuse a smoothing r outside (0, 1], and an r other than 1 where the
    job would not read it: only the spectral and smoothed routes of
    transform and kernel smooth."""
    if not 0.0 < cfg.r <= 1.0:
        raise UsageError(f"config field 'r': smoothing parameter must lie in (0, 1], got {cfg.r!r}")
    if cfg.r == 1.0:
        return
    if cfg.command not in ("transform", "kernel"):
        raise UsageError(f"config field 'r': the {cfg.command} command does not smooth, got r = {cfg.r!r}")
    if cfg.route == "integral":
        raise UsageError(f"config fields 'r' and 'route': the integral route does not smooth, got r = {cfg.r!r}")


def build_function(spec, plan):
    """Turn a declarative function spec into an evaluable (or node values).

    Kinds: hermite_combo (list of {nu, re, im} terms), gauss_poly
    (polynomial JSON over exp(-|x|^2/2)), gaussian (exp(-a |y|^2)),
    laguerre_gaussian (L_m^(order)(|y|^2) exp(-|y|^2/2)) and samples
    (raw values on the plan grid, flattened row-major).
    """
    if spec is None:
        raise UsageError("config field 'function' is required for this command")
    kind = _field(spec, "kind", str, required=True, prefix="function.",
                  choices=("hermite_combo", "gauss_poly", "gaussian", "laguerre_gaussian", "samples"))
    if kind == "hermite_combo":
        table = {}
        for t in _field(spec, "terms", list, required=True, prefix="function."):
            nu, parts = _parse(t, "function.terms", _combo_term)
            if len(nu) != plan.mult.dim or min(nu) < 0:
                raise UsageError(f"config field 'function.terms': {nu} needs {plan.mult.dim} entries >= 0")
            if sum(nu) > plan.M:
                raise UsageError(f"config fields 'function.terms' and 'M': {nu} has degree > M = {plan.M}")
            re, im = _finite(parts, "function.terms")
            table[nu] = table.get(nu, 0.0) + complex(re, im)
        return HermiteExpansion.from_terms(plan.basis, table)
    if kind == "gauss_poly":
        raw = _field(spec, "poly", dict, required=True, prefix="function.")
        poly = _parse(raw, "function.poly", _poly)
        if poly.dim != plan.mult.dim:
            raise UsageError(f"config field 'function.poly': dim {poly.dim} != {plan.mult.dim}")
        return GaussPoly(poly)
    if kind in ("gaussian", "laguerre_gaussian"):
        profile = _profile(spec, kind)
        return lambda pts: profile(np.sum(np.asarray(pts) ** 2, axis=-1))
    npts = math.prod(plan.grid.shape)
    parts = {}
    for key, required in (("values_re", True), ("values_im", False)):
        raw = _field(spec, key, list, required=required, default=[0.0] * npts, prefix="function.")
        parts[key] = _finite(raw, f"function.{key}")
        if parts[key].shape != (npts,):
            raise UsageError(f"config field 'function.{key}': need {npts} samples, one per grid node")
    return parts["values_re"] + 1j * parts["values_im"]


def _combo_term(term):
    nu = tuple(_number(v, int) for v in term["nu"])
    return nu, _float_list([term.get("re", 0.0), term.get("im", 0.0)])


def _poly(raw):
    """MultiPoly.from_json under the ``_number`` rule: dim and every
    exponent must be integral, and no coefficient may be a boolean."""
    terms = []
    for term in raw["terms"]:
        if isinstance(term.get("re"), bool) or isinstance(term.get("im"), bool):
            raise TypeError("a boolean is not a coefficient")
        terms.append(dict(term, exp=[_number(e, int) for e in term["exp"]]))
    return MultiPoly.from_json({"dim": _number(raw["dim"], int), "terms": terms})


def _profile(spec, kind):
    """The gaussian (exp(-a s)) or laguerre_gaussian (L_m^(order)(s) exp(-s/2))
    profile of a function spec, in s = |y|^2."""
    if kind == "gaussian":
        a = _field(spec, "a", float, default=0.5, prefix="function.")
        if not 0.0 < a < math.inf:
            raise UsageError(f"config field 'function.a': must be positive and finite, got {a!r}")
        return lambda s: np.exp(-a * s)
    m = _field(spec, "m", int, default=0, prefix="function.")
    if m < 0:
        raise UsageError(f"config field 'function.m': must be >= 0, got {m}")
    order = _field(spec, "order", float, default=0.0, prefix="function.")
    if not -1.0 < order < math.inf:
        raise UsageError(f"config field 'function.order': must be finite and > -1, got {order!r}")
    return lambda s: laguerre_eval(m, order, s) * np.exp(-0.5 * s)


def _radial_profile(spec):
    if spec is None:
        raise UsageError("config field 'function' is required for this command")
    kind = _field(spec, "kind", str, default="gaussian", prefix="function.",
                  choices=("gaussian", "laguerre_gaussian"))
    profile = _profile(spec, kind)
    return lambda y: profile(np.asarray(y) ** 2)


def _output_points(cfg, plan):
    spec = cfg.outputs or {}
    if "points" in spec:
        pts = _finite(spec["points"], "outputs.points")
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[1] != plan.mult.dim:
            raise UsageError(f"config field 'outputs.points': need shape (m, {plan.mult.dim})")
        return pts
    if "linspace" in spec:
        _finite(spec["linspace"], "outputs.linspace")
        axis = _parse(spec["linspace"], "outputs.linspace", _linspace)
    elif spec.get("grid", False):
        return None
    else:
        axis = np.linspace(-3.0, 3.0, 25)
    if plan.mult.dim == 1:
        return axis[:, None]
    mesh = np.meshgrid(*([axis] * plan.mult.dim), indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def _linspace(spec):
    lo, hi, count = _float_list(spec)
    return np.linspace(lo, hi, _number(count, int))


def _csv_chunks(header_cols, rows, config):
    yield f"# dunkl-frft {__version__}\n# config: {json.dumps(config, sort_keys=True)}\n# {','.join(header_cols)}\n"
    for block in _blocks(rows):
        yield "".join(",".join(f"{v:.15e}" if isinstance(v, float) else str(v) for v in row) + "\n"
                      for row in block)


def _complex_rows(points, values):
    """The float table [*point, re, im], one row per output point."""
    values = np.asarray(values)
    return np.column_stack([points, values.real, values.imag])


def _write(out_dir, name, chunks):
    """Write text chunks to a temporary file, renamed to name once complete."""
    path = Path(out_dir) / name
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as f:
            f.writelines(chunks)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path


# Rows per block of a written table: one block's floats and text are held at once.
_BLOCK_ROWS = 512


def _blocks(rows):
    """The rows as lists, _BLOCK_ROWS at a time (one ``tolist`` per array block)."""
    for start in range(0, len(rows), _BLOCK_ROWS):
        block = rows[start:start + _BLOCK_ROWS]
        yield block.tolist() if isinstance(block, np.ndarray) else block


def _scalar(value):
    return value is None or isinstance(value, (str, int, float))


def _pretty(obj, indent="\n"):
    """``json.dumps(obj, indent=2, sort_keys=True)``, byte for byte, for
    dicts with str keys, lists, tuples and JSON scalars.

    With ``indent`` set, ``json`` runs its pure-Python encoder.  Here each
    list of scalars, and each block of a table of nonempty scalar rows, is
    encoded by one compact call of the C encoder whose item separator
    carries the newline and indent.  No JSON string holds a raw newline and
    no scalar ends in "]", so that separator, and "]" + separator + "[",
    mark only item and row boundaries.
    """
    inner = indent + "  "
    if isinstance(obj, dict) and obj:
        items = [json.dumps(key) + ": " + _pretty(value, inner) for key, value in sorted(obj.items())]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if not isinstance(obj, (list, tuple)) or not obj:
        return json.dumps(obj)
    if all(_scalar(v) for v in obj):
        return "[" + inner + json.dumps(obj, separators=("," + inner, ": "))[1:-1] + indent + "]"
    if all(isinstance(v, (list, tuple)) and v and all(_scalar(x) for x in v) for v in obj):
        return "".join(_table(obj, indent))
    return "[" + inner + ("," + inner).join(_pretty(v, inner) for v in obj) + indent + "]"


def _table(rows, indent):
    """``_pretty``'s layout of nonempty scalar rows, one C encoder call per block."""
    inner = indent + "  "
    deep = inner + "  "
    between = inner + "]," + inner + "[" + deep
    for k, block in enumerate(_blocks(rows)):
        yield between if k else "[" + inner + "[" + deep
        yield json.dumps(block, separators=("," + deep, ": "))[2:-2].replace("]," + deep + "[", between)
    yield inner + "]" + indent + "]"


def _json_chunks(payload, rows):
    """``_pretty(dict(payload, rows=rows)) + "\\n"``; float array rows block by block."""
    # only the top-level "rows" key starts a line with a two-space indent
    head, _, tail = _pretty(dict(payload, rows=[])).partition('\n  "rows": []')
    yield head + '\n  "rows": '
    if isinstance(rows, np.ndarray) and len(rows):
        yield from _table(rows, "\n  ")
    else:
        yield _pretty(list(rows), "\n  ")
    yield tail + "\n"


def _finite_rows(header_cols, rows, extra):
    """A non-finite number in the rows (a float array is checked whole) or
    in the summary is refused with a RangeError naming its row and column,
    or its summary key."""
    if isinstance(rows, np.ndarray):
        bad = np.argwhere(~np.isfinite(rows)).tolist()
    else:
        bad = [(i, j) for i, row in enumerate(rows) for j, v in enumerate(row)
               if isinstance(v, float) and not math.isfinite(v)]
    if bad:
        i, j = bad[0]
        raise RangeError(f"result row {i}, column '{header_cols[j]}': {float(rows[i][j])!r} is not a finite number")
    for key, value in (extra or {}).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise RangeError(f"result summary '{key}': {value!r} is not a finite number")


def _emit(cfg, out_dir, fmt, header_cols, rows, extra=None):
    """Write resolved_config.json and the result file; nothing for a refused result."""
    _finite_rows(header_cols, rows, extra)
    config = cfg.to_json()
    stamp = dict(config, summary=extra) if extra else config
    _write(out_dir, "resolved_config.json", [_pretty(stamp) + "\n"])
    if fmt == "json":
        payload = {"version": __version__, "config": config, "columns": header_cols}
        if extra:
            payload["summary"] = extra
        return _write(out_dir, "result.json", _json_chunks(payload, rows))
    return _write(out_dir, "result.csv", _csv_chunks(header_cols, rows, config))


def _cmd_transform(cfg, out_dir, fmt):
    plan = _make_plan(cfg)
    f = build_function(cfg.function, plan)
    points = _output_points(cfg, plan)
    on_grid = points is None
    extra = None
    if cfg.route == "spectral":
        result = fdt_spectral(f, plan, cfg.r)
        values = plan.grid.values(result) if on_grid else result(points)
        extra = {"tail_mass": result.tail_mass, "parseval_slack": result.parseval_slack}
        if not isinstance(f, HermiteExpansion):  # an expansion's coefficients are copied exactly
            extra["gram_residual"] = result.gram_residual
    elif cfg.route == "smoothed":
        values = fdt_smoothed_on_grid(f, plan, cfg.r) if on_grid else fdt_smoothed(f, plan, points, cfg.r)
    else:
        values = fdt_integral_on_grid(f, plan) if on_grid else fdt_integral(f, plan, points)
    cols = [f"x{j}" for j in range(plan.mult.dim)] + ["re", "im"]
    _emit(cfg, out_dir, fmt, cols, _complex_rows(plan.grid.nodes if on_grid else points, values), extra)
    return 0


def _cmd_kernel(cfg, out_dir, fmt):
    plan = _make_plan(cfg)
    spec = cfg.outputs or {}
    if spec.get("pairs") is None:
        raise UsageError("config field 'outputs.pairs' is required for the kernel command")
    dim = plan.mult.dim
    pairs = _finite(spec["pairs"], "outputs.pairs")
    if pairs.shape[1:] != (2 * dim,) and pairs.shape != (0,):
        raise UsageError(f"config field 'outputs.pairs': each entry needs {2 * dim} numbers")
    pairs = pairs.reshape(-1, 2 * dim)
    kernel = {"spectral": kernel_spectral, "smoothed": kernel_smoothed}.get(cfg.route)
    x, y = pairs[:, :dim], pairs[:, dim:]
    values = kernel_alpha(plan, x, y) if kernel is None else kernel(plan, x, y, cfg.r)
    cols = [f"x{j}" for j in range(dim)] + [f"y{j}" for j in range(dim)] + ["re", "im"]
    _emit(cfg, out_dir, fmt, cols, _complex_rows(pairs, values))
    return 0


def _cmd_basis(cfg, out_dir, fmt):
    plan = _make_plan(cfg)
    basis = plan.basis
    gram_worst = basis.gram_residual(plan.grid)
    cols = [f"nu{j}" for j in range(basis.dim)] + ["norm_constant"]
    rows = np.column_stack([basis.indices, basis.norms])
    _emit(cfg, out_dir, fmt, cols, rows, {"gram_residual": gram_worst})
    print(f"basis: {basis.size} functions, per-axis gram residual {gram_worst:.3e}")
    return 0


def _cmd_hankel(cfg, out_dir, fmt):
    for key in ("n", "M"):
        if getattr(cfg, key) is not None:
            raise UsageError(f"config field '{key}': the hankel command runs on its own rank-one grid "
                             f"of {HANKEL_NODES} points per half-axis and does not read it")
    plan = _make_plan(cfg)
    if cfg.order is None:
        raise UsageError("config field 'order' is required for the hankel command")
    with _refused("order"):
        order = BesselOrder(cfg.order)
    psi = _radial_profile(cfg.function)
    spec = cfg.outputs or {}
    radii = _finite(spec.get("radii", np.linspace(0.0, 4.0, 17)), "outputs.radii")
    if radii.ndim != 1:
        raise UsageError("config field 'outputs.radii': expected a list of radii")
    if np.any(radii < 0):
        raise UsageError("config field 'outputs.radii': radii must be >= 0")
    vals = fractional_hankel(psi, order, plan, radii)
    _emit(cfg, out_dir, fmt, ["x", "re", "im"], _complex_rows(radii[:, None], vals))
    return 0


def _coefficient_rows(expansion):
    """The float table [*nu, re, im], one row per basis index."""
    return np.column_stack([expansion.basis.indices, expansion.coeffs.real, expansion.coeffs.imag])


def _cmd_projection(cfg, out_dir, fmt):
    plan = _make_plan(cfg)
    f = build_function(cfg.function, plan)
    with _refused("q_nodes"):
        sampler = GroupSampler(plan, q=cfg.q_nodes)
    rows = []
    for n in _parse(cfg.projections, "projections", lambda v: [_number(k, int) for k in v]):
        with _refused("projections"):
            proj = spectral_projection(f, n, sampler)
        rows += [[n] + row for row in _coefficient_rows(proj).tolist()]
    cols = ["n"] + [f"nu{j}" for j in range(plan.mult.dim)] + ["re", "im"]
    _emit(cfg, out_dir, fmt, cols, rows)
    return 0


def _cmd_resolvent(cfg, out_dir, fmt):
    plan = _make_plan(cfg)
    lam = _parse(cfg.resolvent_lambda, "resolvent_lambda", lambda v: complex(*_float_list(v)))
    with _refused("resolvent_lambda"):
        lam = resolvent_lambda(lam)
    res = resolvent_apply(build_function(cfg.function, plan), lam, plan)
    cols = [f"nu{j}" for j in range(plan.mult.dim)] + ["re", "im"]
    _emit(cfg, out_dir, fmt, cols, _coefficient_rows(res))
    return 0


def _cmd_check(cfg, out_dir, fmt):
    _check_r(cfg)
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
        values = [1.0 - 2.0**-j for j in range(3, 13)] if cfg.values is None else cfg.values
        values = _parse(values, "values", _float_list)
        if not all(0.0 < r < 1.0 for r in values):
            raise UsageError(f"config field 'values': r must lie in (0, 1), got {values}")
        samples = rng.uniform(-2.0, 2.0, size=(12, 2, plan.mult.dim))
        x, y = samples[:, 0], samples[:, 1]
        target = plan.prefactor * kernel_alpha(plan, x, y)
        for r in values:
            gaps = np.abs(kernel_smoothed(plan, x, y, r=float(r)) - target)
            rows.append([float(r), float(gaps.max())])
        cols = ["r", "kernel_residual"]
    else:
        values = [0.4 * 2.0**-j for j in range(8)] if cfg.values is None else cfg.values
        values = _parse(values, "values", _float_list)
        if not all(a != 0.0 and math.isfinite(a) for a in values):
            raise UsageError(f"config field 'values': orders must be finite and nonzero, got {values}")
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

    0 on success, 1 when a check suite reports failures, a computation is
    refused, a result holds a non-finite number or the job's arrays do not
    fit in memory, 2 on usage errors.  numpy's floating-point warnings are
    off while a job runs, so an error line is all it writes to stderr.
    Byte-identical outputs need the BLAS thread variables set to 1.
    """
    try:
        cfg = config if isinstance(config, JobConfig) else parse_config(config)
        if seed is not None:
            cfg.seed = int(seed)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return _DISPATCH[cfg.command](cfg, out_dir, fmt)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DunklError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
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
