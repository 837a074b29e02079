"""The three workloads: request generators, the timed calls and their
references.

Every workload is a single-client closed loop driven from one seed.
References are computed outside the timed region, from results the
library does not use to produce the timed answer: exact eigenphases for
Hermite combinations, the Gaussian closed form at mu = 0, Bessel values
from ``scipy.special`` for kernels (J_nu for the integral kernel, the
Mehler closed form through 0F1 for the spectral and smoothed kernels),
Laguerre eigenfunctions for the fractional Hankel transform, and the
suites' own pinned rows for the gate.
"""

from __future__ import annotations

import cmath
import json
import math
import multiprocessing
import os
import resource
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import special as sp

import dunkl_frft as lib

BENCH_DIR = Path(__file__).resolve().parent

# Orders below this |sin alpha| are refused (near-singular) or give O(1)
# errors on the integral and smoothed routes at the default grids (the
# ROADMAP's known integral-route defect).  Timed kernel-route requests draw
# alpha outside this band; the untimed census draws it from the whole
# circle and reports every failure by id.
RESOLVED_SIN = 0.3
# Grid outputs at N = 2 reach |x| = L, where the kernel oscillates fastest:
# the 80-point-per-axis grid below resolves them to 1e-9 only for
# |sin alpha| >= 0.9 (4e-7 at 0.8).  The default 160-point grid would cost
# about 15 s per job on the scattered-point contraction.
GRID_N2 = {"L": 8.0, "n": 40}
GRID_N2_SIN = 0.9

INPUT_DEGREE = 6
REF_DEGREE = 8
TOL_SPECTRAL = 1e-8
TOL_KERNEL_ROUTE = 1e-6
HEADROOM_CAP = 16.0
JOB_TIMEOUT_S = 150.0


@dataclass
class Outcome:
    id: str
    kind: str
    latency_s: float = 0.0
    ok: bool = False
    error: float = math.nan
    tol: float = math.nan
    why: str = ""
    extra: dict = field(default_factory=dict)

    @property
    def headroom(self):
        if not self.ok or math.isnan(self.error):
            return None
        if self.error == 0.0:
            return HEADROOM_CAP
        if self.tol == 0.0:
            return None
        return min(HEADROOM_CAP, math.log10(self.tol / self.error))


def judge(outcome, got, want, tol, corrupt=False):
    """Max-abs comparison; ``corrupt`` perturbs the reference (self-test)."""
    want = np.asarray(want, dtype=complex)
    if corrupt:
        want = want * (1.0 + 1e-3) + 1e-3
    got = np.asarray(got, dtype=complex)
    outcome.tol = tol
    if got.shape != want.shape:
        outcome.ok, outcome.why = False, f"shape {got.shape} != reference {want.shape}"
        return outcome
    outcome.error = float(np.max(np.abs(got - want))) if got.size else 0.0
    outcome.ok = bool(outcome.error <= tol)
    if not outcome.ok:
        outcome.why = f"error {outcome.error:.3e} > tol {tol:.1e}"
    return outcome


def uniform_alpha(rng):
    """Uniform on (-pi, pi]."""
    return math.pi - 2.0 * math.pi * rng.random()


def resolved_alpha(rng, s_min=RESOLVED_SIN):
    """Uniform on the orders with |sin alpha| >= s_min."""
    while True:
        a = uniform_alpha(rng)
        if abs(math.sin(a)) >= s_min:
            return a


def random_terms(rng, dim, degree=INPUT_DEGREE):
    """Unit-norm random complex coefficients on |nu| <= degree."""
    indices = [nu for nu in _indices(dim, degree)]
    vals = rng.standard_normal(len(indices)) + 1j * rng.standard_normal(len(indices))
    vals /= np.linalg.norm(vals)
    return dict(zip(indices, vals))


def _indices(dim, degree):
    if dim == 1:
        return [(n,) for n in range(degree + 1)]
    return [(a,) + rest for a in range(degree + 1) for rest in _indices(dim - 1, degree - a)]


class References:
    """Cached reference machinery living in the benchmark process."""

    def __init__(self):
        self._bases = {}
        self._grid0 = None

    def basis(self, mu):
        mu = tuple(float(m) for m in mu)
        if mu not in self._bases:
            self._bases[mu] = lib.HermiteBasis(lib.Multiplicity(mu), REF_DEGREE)
        return self._bases[mu]

    def phased(self, mu, terms, alpha, r=1.0):
        """sum_nu r^|nu| e^{i|nu|alpha} c_nu h_nu, the exact transform."""
        basis = self.basis(mu)
        return lib.HermiteExpansion.from_terms(
            basis, {nu: c * (r ** sum(nu)) * cmath.exp(1j * sum(nu) * alpha) for nu, c in terms.items()}
        )

    def gaussian_frft(self, alpha, a, xs):
        from dunkl_frft.checks import _frft_gaussian_closed_form

        mult = lib.Multiplicity([0.0])
        if self._grid0 is None:
            self._grid0 = lib.build_grid(mult)
        plan = lib.TransformPlan(mult, alpha, grid=self._grid0, M=0)
        return _frft_gaussian_closed_form(plan, a, xs)


def jhat_imag(nu, t):
    """jhat_nu(i t) = Gamma(nu+1) (t/2)^(-nu) J_nu(t), even in t."""
    t = np.abs(np.asarray(t, dtype=float))
    safe = np.where(t > 0, t, 1.0)
    vals = math.gamma(nu + 1.0) * (safe / 2.0) ** (-nu) * sp.jv(nu, safe)
    return np.where(t > 0, vals, 1.0)


def kernel_alpha_ref(mu, alpha, x, y):
    """K_alpha(x, y) from scipy's J_nu, independent of the library's series."""
    s = math.sin(alpha)
    cot = math.cos(alpha) / s
    out = np.exp(-0.5j * cot * (np.sum(x * x, axis=-1) + np.sum(y * y, axis=-1)))
    for j, m in enumerate(mu):
        nu = m - 0.5
        t = x[..., j] * y[..., j] / s
        out = out * (jhat_imag(nu, t) + 1j * t * jhat_imag(nu + 1.0, t) / (2.0 * (nu + 1.0)))
    return out


def dunkl_1d_ref(nu, w):
    """jhat_nu(w) + w jhat_{nu+1}(w) / (2 (nu+1)) for complex w, with
    jhat_nu(w) = 0F1(; nu+1; w^2/4) from scipy: no branch to choose."""
    w = np.asarray(w, dtype=complex)
    return sp.hyp0f1(nu + 1.0, w * w / 4.0) + w / (2.0 * (nu + 1.0)) * sp.hyp0f1(nu + 2.0, w * w / 4.0)


def kernel_mehler_ref(mu, alpha, r, x, y):
    """The smoothed kernel sum_nu r^|nu| e^{i|nu|alpha} h_nu(x) h_nu(y) in
    Mehler closed form, for 0 < r < 1."""
    w = r * r * cmath.exp(2j * alpha)
    denom = 1.0 - w
    zscale = 2.0 * r * cmath.exp(1j * alpha) / denom
    out = denom ** (-(sum(mu) + len(mu) / 2.0)) / math.prod(math.gamma(m + 0.5) for m in mu)
    out = out * np.exp(-(1.0 + w) / (2.0 * denom) * (np.sum(x * x, axis=-1) + np.sum(y * y, axis=-1)))
    for j, m in enumerate(mu):
        out = out * dunkl_1d_ref(m - 0.5, zscale * x[..., j] * y[..., j])
    return out


def hermite_norm_constant(mu, nu):
    """Leading coefficient of the normalized h_nu, from the Laguerre form."""
    out = 1.0
    for m_j, n in zip(mu, nu):
        k, odd = divmod(int(n), 2)
        out *= math.sqrt(math.factorial(k) / math.gamma(k + m_j + 0.5 + odd)) / math.factorial(k)
    return out


# ---------------------------------------------------------------------------
# repeat_orders: library calls cycling a fixed set of operators


REPEAT_SETS = (
    ((0.5,), (math.pi / 6, -math.pi / 6, math.pi / 3, -math.pi / 3, 2 * math.pi / 5, -2 * math.pi / 5)),
    ((0.3, 0.7), (math.pi / 3, -2 * math.pi / 5)),
)
REPEAT_KINDS = ("grid", "points", "smoothed")
SMOOTH_R = 0.9


def _probe_points(dim):
    axis = np.linspace(-2.0, 2.0, 9)
    if dim == 1:
        return axis[:, None]
    mesh = np.meshgrid(axis, axis, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


@dataclass
class Operator:
    name: str
    mu: tuple
    plan: object
    kind: str
    points: np.ndarray


def repeat_orders_setup():
    """Grids, plans and bases for every operator in the cycle."""
    ops = []
    for mu, alphas in REPEAT_SETS:
        mult = lib.Multiplicity(mu)
        plan0 = lib.TransformPlan(mult, alphas[0], grid=lib.build_grid(mult), M=REF_DEGREE)
        plan0.basis
        for alpha in alphas:
            plan = plan0.with_alpha(alpha)
            for kind in REPEAT_KINDS:
                points = _probe_points(mult.dim) if kind == "points" else plan.grid.nodes
                ops.append(Operator(f"N{mult.dim}-a{alpha:+.4f}-{kind}", mu, plan, kind, points))
    return ops


class RepeatOrders:
    """The seeded request stream: operators in a fixed per-seed cycle, a
    fresh unit-norm Hermite combination for each request."""

    def __init__(self, seed, ops):
        self.rng = np.random.default_rng(seed)
        self.cycle = [ops[i] for i in self.rng.permutation(len(ops))]
        self.refs = References()
        self.count = 0

    def next_request(self):
        op = self.cycle[self.count % len(self.cycle)]
        rid = f"r{self.count}"
        self.count += 1
        terms = random_terms(self.rng, len(op.mu))
        f = lib.HermiteExpansion.from_terms(op.plan.basis, terms)
        return rid, op, terms, f

    @staticmethod
    def call(op, f):
        if op.kind == "grid":
            return lib.fdt_integral_on_grid(f, op.plan)
        if op.kind == "points":
            return lib.fdt_integral(f, op.plan, op.points)
        return lib.fdt_smoothed_on_grid(f, op.plan, r=SMOOTH_R)

    def run_one(self, corrupt_id=None):
        rid, op, terms, f = self.next_request()
        out = Outcome(rid, op.name)
        out.extra["input"] = op.name + ":" + np.asarray(f.coeffs).tobytes().hex()
        start = time.perf_counter()
        try:
            got = self.call(op, f)
        except lib.DunklError as exc:
            out.latency_s = time.perf_counter() - start
            out.why = f"{type(exc).__name__}: {exc}"
            return out
        out.latency_s = time.perf_counter() - start
        r = SMOOTH_R if op.kind == "smoothed" else 1.0
        want = self.refs.phased(op.mu, terms, op.plan.alpha, r)(op.points)
        return judge(out, got, want, TOL_KERNEL_ROUTE, corrupt=(rid == corrupt_id))


# ---------------------------------------------------------------------------
# cli_jobs: fresh CLI invocations, no operator repeats


N1_MU = [0.5]
N2_MU = [0.3, 0.7]
# One job of each kind per deck: the mix is a plain census of the CLI's
# commands and routes, not a claim about real traffic.
JOB_KINDS = (
    "transform-spectral-n1",
    "transform-spectral-n2",
    "transform-integral-n1",
    "transform-integral-n2",
    "transform-smoothed-n1",
    "transform-smoothed-n2",
    "transform-integral-grid-n1",
    "transform-integral-grid-n2",
    "transform-gaussian-mu0",
    "kernel-integral-n1",
    "kernel-integral-n2",
    "kernel-spectral-n1",
    "kernel-spectral-n2",
    "kernel-smoothed-n1",
    "kernel-smoothed-n2",
    "hankel",
    "basis-n1",
    "basis-n2",
    "projection-n1",
    "projection-n2",
    "resolvent-n1",
    "resolvent-n2",
)
# The spectral kernel is an eigen-sum truncated at |nu| <= M (24 at N = 1,
# 16 at N = 2); for r <= 0.3 the dropped tail is below 1e-8 on |x|, |y| <= 3.
KERNEL_R = {"spectral": (0.2, 0.3), "smoothed": (0.5, 0.9)}


def _combo_spec(terms):
    return {
        "kind": "hermite_combo",
        "terms": [{"nu": list(nu), "re": float(c.real), "im": float(c.imag)} for nu, c in terms.items()],
    }


@dataclass
class Job:
    id: str
    kind: str
    config: dict
    ref: dict
    seed: int = None


def job_stream(rng):
    """Jobs dealt in decks holding each kind once, in a seeded order, so the
    mix of a run that ends on a deck boundary does not move with the seed."""
    index = 0
    while True:
        for k in rng.permutation(len(JOB_KINDS)):
            yield make_job(rng, index, JOB_KINDS[k])
            index += 1


def make_job(rng, index, kind):
    """One well-formed job config plus what its reference needs."""
    jid = f"j{index}"
    mu = N2_MU if kind.endswith("n2") else N1_MU
    dim = len(mu)
    if kind.startswith("transform-gaussian"):
        alpha, a = resolved_alpha(rng), float(rng.uniform(0.4, 1.5))
        cfg = {"command": "transform", "mu": [0.0], "alpha": alpha, "route": "integral",
               "function": {"kind": "gaussian", "a": a}}
        return Job(jid, kind, cfg, {"alpha": alpha, "a": a})
    if kind.startswith("transform"):
        route = kind.split("-")[1]
        if route == "spectral":
            alpha = uniform_alpha(rng)
        else:
            alpha = resolved_alpha(rng, GRID_N2_SIN if kind.endswith("grid-n2") else RESOLVED_SIN)
        terms = random_terms(rng, dim)
        cfg = {"command": "transform", "mu": mu, "alpha": alpha, "route": route,
               "function": _combo_spec(terms)}
        r = 1.0
        if route == "smoothed":
            r = float(rng.uniform(0.5, 0.95))
            cfg["r"] = r
        if "-grid-" in kind:
            cfg["outputs"] = {"grid": True}
            if dim == 2:
                cfg["grid"] = dict(GRID_N2)
        return Job(jid, kind, cfg, {"mu": mu, "terms": terms, "alpha": alpha, "r": r})
    if kind.startswith("kernel"):
        route = kind.split("-")[1]
        alpha = resolved_alpha(rng) if route == "integral" else uniform_alpha(rng)
        pairs = rng.uniform(-3.0, 3.0, size=(8, 2 * dim))
        cfg = {"command": "kernel", "mu": mu, "alpha": alpha, "route": route,
               "outputs": {"pairs": pairs.tolist()}}
        r = 1.0
        if route in KERNEL_R:
            r = float(rng.uniform(*KERNEL_R[route]))
            cfg["r"] = r
        return Job(jid, kind, cfg, {"mu": mu, "alpha": alpha, "r": r})
    if kind == "hankel":
        alpha = resolved_alpha(rng)
        order, m = float(rng.uniform(-0.5, 2.0)), int(rng.integers(0, 5))
        radii = np.sort(rng.uniform(0.0, 4.0, size=17))
        cfg = {"command": "hankel", "mu": N1_MU, "alpha": alpha, "order": order,
               "function": {"kind": "laguerre_gaussian", "m": m, "order": order},
               "outputs": {"radii": radii.tolist()}}
        return Job(jid, kind, cfg, {"alpha": alpha, "order": order, "m": m})
    if kind.startswith("basis"):
        cfg = {"command": "basis", "mu": mu, "alpha": uniform_alpha(rng)}
        return Job(jid, kind, cfg, {"mu": mu})
    terms = random_terms(rng, dim)
    cfg = {"command": kind.split("-")[0], "mu": mu, "alpha": uniform_alpha(rng),
           "function": _combo_spec(terms)}
    ref = {"mu": mu, "terms": terms}
    if kind.startswith("projection"):
        cfg["projections"] = sorted(int(n) for n in rng.choice(INPUT_DEGREE + 2, size=3, replace=False))
    else:
        while True:
            lam = complex(rng.uniform(-2.0, 2.0), rng.uniform(-3.0, 3.0))
            if math.hypot(lam.real, lam.imag - round(lam.imag)) >= 0.15:
                break
        cfg["resolvent_lambda"] = [lam.real, lam.imag]
        ref["lam"] = lam
    return Job(jid, kind, cfg, ref)


def check_job(job, result, refs, corrupt=False):
    """Compare a CLI result.json with the job's reference."""
    if job.config["command"] == "check":
        return check_gate_result(job, result, corrupt)
    out = Outcome(job.id, job.kind)
    rows = np.asarray(result["rows"], dtype=float)
    cmd = job.config["command"]
    ref = job.ref
    if rows.ndim != 2 or rows.shape[0] == 0:
        out.why = "no result rows"
        return out
    if cmd == "transform":
        dim = rows.shape[1] - 2
        pts = rows[:, :dim]
        got = rows[:, dim] + 1j * rows[:, dim + 1]
        if job.kind.startswith("transform-gaussian"):
            want = refs.gaussian_frft(ref["alpha"], ref["a"], pts)
        else:
            want = refs.phased(ref["mu"], ref["terms"], ref["alpha"], ref["r"])(pts)
        tol = TOL_SPECTRAL if job.config["route"] == "spectral" else TOL_KERNEL_ROUTE
        return judge(out, got, want, tol, corrupt)
    if cmd == "kernel":
        dim = len(ref["mu"])
        x, y = rows[:, :dim], rows[:, dim:2 * dim]
        got = rows[:, 2 * dim] + 1j * rows[:, 2 * dim + 1]
        if job.config["route"] == "integral":
            want = kernel_alpha_ref(ref["mu"], ref["alpha"], x, y)
        else:
            want = kernel_mehler_ref(ref["mu"], ref["alpha"], ref["r"], x, y)
        return judge(out, got, want, TOL_KERNEL_ROUTE, corrupt)
    if cmd == "hankel":
        x = rows[:, 0]
        got = rows[:, 1] + 1j * rows[:, 2]
        psi = lib.laguerre_eval(ref["m"], ref["order"], x * x) * np.exp(-0.5 * x * x)
        want = cmath.exp(2j * ref["m"] * ref["alpha"]) * psi
        return judge(out, got, want, TOL_KERNEL_ROUTE, corrupt)
    if cmd == "basis":
        dim = rows.shape[1] - 1
        want = [hermite_norm_constant(ref["mu"], nu) for nu in rows[:, :dim]]
        rel = rows[:, dim] / np.asarray(want)
        # The job's own gram residual is a diagnostic, not a reference:
        # it is recorded, and at the default M = 24 (N = 1) it reads 1e-4.
        out.extra["gram_residual"] = float(result.get("summary", {}).get("gram_residual", math.nan))
        return judge(out, rel, np.ones_like(rel), TOL_SPECTRAL, corrupt)
    if cmd == "projection":
        dim = rows.shape[1] - 3
        got, want = [], []
        for row in rows:
            n, nu = int(row[0]), tuple(int(v) for v in row[1:dim + 1])
            c = ref["terms"].get(nu, 0.0) if sum(nu) == n else 0.0
            got.append(row[dim + 1] + 1j * row[dim + 2])
            want.append(c)
        return judge(out, got, want, TOL_SPECTRAL, corrupt)
    dim = rows.shape[1] - 2
    lam = ref["lam"]
    got = rows[:, dim] + 1j * rows[:, dim + 1]
    want = [ref["terms"].get(tuple(int(v) for v in row[:dim]), 0.0) / (lam - 1j * sum(row[:dim]))
            for row in rows]
    return judge(out, got, want, TOL_SPECTRAL, corrupt)


def census(rng, refs, count):
    """Untimed integral-route requests at alpha uniform on the whole circle,
    near-singular and small-|sin alpha| draws included."""
    mult = lib.Multiplicity(N1_MU)
    plan0 = lib.TransformPlan(mult, 1.0, M=REF_DEGREE)
    mult0 = lib.Multiplicity([0.0])
    grid0 = lib.build_grid(mult0)
    probe = np.linspace(-3.0, 3.0, 25)[:, None]
    outcomes = []
    for k in range(count):
        alpha = uniform_alpha(rng)
        out = Outcome(f"census{k}", "census-grid-n1" if k % 2 == 0 else "census-gaussian-mu0")
        out.extra["alpha"] = alpha
        try:
            if k % 2 == 0:
                terms = random_terms(rng, 1)
                plan = plan0.with_alpha(alpha)
                f = lib.HermiteExpansion.from_terms(plan.basis, terms)
                got = lib.fdt_integral_on_grid(f, plan)
                want = refs.phased(N1_MU, terms, plan.alpha)(plan.grid.nodes)
            else:
                a = float(rng.uniform(0.4, 1.5))
                plan = lib.TransformPlan(mult0, alpha, grid=grid0, M=0)
                got = lib.fdt_integral(lambda p, _a=a: np.exp(-_a * p[..., 0] ** 2), plan, probe)
                want = refs.gaussian_frft(alpha, a, probe)
        except lib.DunklError as exc:
            out.why = f"refused: {type(exc).__name__}"
            outcomes.append(out)
            continue
        outcomes.append(judge(out, got, want, TOL_KERNEL_ROUTE))
    return outcomes


# ---------------------------------------------------------------------------
# check_gate: one CLI check job per suite


def gate_jobs(seed, suites):
    return [Job(f"g{i}-{name}", f"check-{name}", {"command": "check", "mu": [0.0], "suite": name},
                {}, seed=seed) for i, name in enumerate(suites)]


def check_gate_result(job, result, corrupt=False):
    out = Outcome(job.id, job.kind, tol=0.0)
    rows = result["rows"]
    worst = HEADROOM_CAP
    failing = []
    for name, residual, tol, passed in rows:
        if not passed or residual > tol:
            failing.append(name)
        elif residual > 0.0:
            worst = min(worst, math.log10(tol / residual))
    if corrupt:
        failing.append("corrupted reference")
    out.ok = not failing and bool(rows)
    out.why = "; ".join(failing) if failing else ("" if rows else "no rows")
    out.error = 0.0
    out.extra["headroom"] = worst
    return out


# ---------------------------------------------------------------------------
# CLI runner


def forkserver_context(trace, tmp_dir):
    """A multiprocessing forkserver that has imported the CLI (and, when
    tracing, the tracer) once, so each job starts from a clean fork of it.
    Its socket goes under ``tmp_dir`` by a relative path: inside the
    checkout, and clear of the 108-byte limit on socket paths."""
    tempfile.tempdir = os.path.relpath(tmp_dir)
    # The forkserver is a new interpreter that does not take this process's
    # sys.path (Python < 3.13 drops it), so it finds the library and the
    # benchmark's modules through PYTHONPATH.
    paths = [str(Path(lib.__file__).resolve().parent.parent), str(BENCH_DIR)]
    os.environ["PYTHONPATH"] = os.pathsep.join(paths + [p for p in [os.environ.get("PYTHONPATH")] if p])
    ctx = multiprocessing.get_context("forkserver")
    ctx.set_forkserver_preload(["__main__", "dunkl_frft.cli", "workloads"] + (["tracer"] if trace else []))
    warm = ctx.Process(target=_noop)
    warm.start()
    warm.join()
    return ctx


def stop_forkserver():
    """Stop the forkserver and resource tracker this process started, and
    wait for both.  The standard library has no public call for this."""
    from multiprocessing import forkserver, resource_tracker

    forkserver._forkserver._stop()
    resource_tracker._resource_tracker._stop()


def _noop():
    pass


def _cli_child(job_id, argv, job_dir, trace):
    """One CLI invocation in a forked child: output into the job directory,
    then its peak RSS and, when tracing, its span summary."""
    for fd, name in ((1, "stdout.txt"), (2, "stderr.txt")):
        os.dup2(os.open(job_dir / name, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644), fd)
    from dunkl_frft import cli

    tr = None
    if trace:
        import tracer as tracing

        tr = tracing.Tracer()
        tracing.instrument(tr)
        tr.request = job_id
    try:
        code = cli.main(argv)
    finally:
        ru = resource.getrusage(resource.RUSAGE_SELF)
        usage = {"maxrss_kb": ru.ru_maxrss, "cpu_s": ru.ru_utime + ru.ru_stime}
        (job_dir / "usage.json").write_text(json.dumps(usage), encoding="utf-8")
        if tr is not None:
            trace_doc = {"summary": tr.summary(), "spans": tr.spans}
            (job_dir / "trace.json").write_text(json.dumps(trace_doc), encoding="utf-8")
    sys.exit(code)


def _read_json(path):
    return json.loads(path.read_text(encoding="utf-8")) if path.exists() else None


def run_cli_job(ctx, job, work_dir, trace):
    """Run one job in a fresh child; returns (exit code, elapsed s, result
    or None, stderr text, bytes written, usage, trace or None), where usage
    holds the child's peak RSS in kB and its CPU seconds."""
    job_dir = work_dir / job.id
    job_dir.mkdir(parents=True, exist_ok=True)
    cfg_path = job_dir / "config.json"
    cfg_path.write_text(json.dumps(job.config), encoding="utf-8")
    argv = ["--config", str(cfg_path), "--out", str(job_dir), "--format", "json"]
    if job.seed is not None:
        argv += ["--seed", str(job.seed)]
    proc = ctx.Process(target=_cli_child, args=(job.id, argv, job_dir, trace))
    start = time.perf_counter()
    proc.start()
    proc.join(JOB_TIMEOUT_S)
    elapsed = time.perf_counter() - start
    if proc.exitcode is None:
        proc.kill()
        proc.join()
    code = proc.exitcode
    written = sum((job_dir / n).stat().st_size for n in ("result.json", "resolved_config.json")
                  if (job_dir / n).exists())
    result = _read_json(job_dir / "result.json") if code in (0, 1) else None
    stderr_path = job_dir / "stderr.txt"
    stderr = stderr_path.read_text(encoding="utf-8", errors="replace") if stderr_path.exists() else ""
    usage = _read_json(job_dir / "usage.json") or {"maxrss_kb": 0, "cpu_s": math.nan}
    trace_doc = _read_json(job_dir / "trace.json")
    shutil.rmtree(job_dir, ignore_errors=True)
    return code, elapsed, result, stderr, written, usage, trace_doc
