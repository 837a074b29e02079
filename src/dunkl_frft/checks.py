"""Named property-check suites shared by the CLI ``check`` command and the
acceptance tests.

Every suite returns a list of CheckResult rows with the measured residual
and its pinned tolerance.  Suites pin their gates as plain numbers;
``run_suite`` alone scales them, by its ``tol_scale`` argument or else the
DUNKL_FRFT_TOL environment variable (default 1.0).
"""

from __future__ import annotations

import cmath
import math
import os
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from .errors import UsageError
from .polyengine import (
    GaussPoly,
    HermiteBasis,
    HermiteExpansion,
    MultiPoly,
    _graded_indices,
    hermite_closed_form_1d,
    hermite_operator,
)
from .quadrature import build_grid, sphere_rule
from .semigroup import (
    GroupSampler,
    difference_quotient,
    expansion_generator,
    generator_exact,
    generator_integral,
    group_integral,
    observed_order,
    resolvent_apply,
    spectral_projection,
)
from .specfun import Multiplicity, gamma_fn, laguerre_eval
from .transform import (
    REGIME_GENERIC,
    TransformPlan,
    bochner_fdt,
    fdt_integral,
    fdt_integral_on_grid,
    fdt_smoothed_on_grid,
    fdt_spectral,
    fractional_hankel,
    funk_hecke_radial,
    kernel_alpha,
    kernel_smoothed,
    kernel_smoothed_bound,
    master_formula_lhs_input,
    master_formula_rhs,
    normalize_alpha,
    radial_bessel,
)

DEFAULT_SEED = 20240901

GENERIC_ALPHAS = (
    math.pi / 6.0,
    -math.pi / 6.0,
    math.pi / 3.0,
    -math.pi / 3.0,
    2.0 * math.pi / 5.0,
    -2.0 * math.pi / 5.0,
)


@dataclass
class CheckResult:
    name: str
    residual: float
    tolerance: float
    passed: bool = field(init=False)
    detail: str = ""

    def __post_init__(self):
        self.passed = bool(self.residual <= self.tolerance)

    def row(self):
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.name}: residual {self.residual:.3e}  tol {self.tolerance:.1e}"


def tolerance_scale(tol_scale=None):
    """The tolerance multiplier: ``tol_scale``, or the DUNKL_FRFT_TOL
    environment variable (default 1.0) when it is None.  A value that is
    not a finite number > 0 is a UsageError naming its source."""
    source, raw = "'tol_scale'", tol_scale
    if tol_scale is None:
        source, raw = "DUNKL_FRFT_TOL", os.environ.get("DUNKL_FRFT_TOL", "1.0")
    try:
        scale = float(raw)
    except (TypeError, ValueError, OverflowError):
        scale = math.nan
    if not (math.isfinite(scale) and scale > 0.0):
        raise UsageError(f"{source} must be a finite number > 0, got {raw!r}")
    return scale


def _random_combos(basis, count, max_degree, rng):
    """Seeded random unit-norm Hermite combinations with |nu| <= max_degree."""
    live = np.flatnonzero(basis.degrees <= max_degree)
    combos = []
    for _ in range(count):
        coeffs = np.zeros(basis.size, dtype=complex)
        vals = rng.standard_normal(len(live)) + 1j * rng.standard_normal(len(live))
        vals /= np.linalg.norm(vals)
        coeffs[live] = vals
        combos.append(HermiteExpansion(basis, coeffs))
    return combos


# ---------------------------------------------------------------------------
# 1. basis integrity


def check_basis_integrity(seed=DEFAULT_SEED):
    out = []
    for mu in (0.0, 0.5, 1.7):
        mult = Multiplicity([mu])
        basis = HermiteBasis(mult, 12)
        gram_err = basis.gram_residual(build_grid(mult))
        out.append(CheckResult(f"basis-gram mu={mu}", gram_err, 1e-9))
        # the exact heat exponential and the float recurrence, each against
        # the independent Laguerre closed form
        t = np.linspace(-3.0, 3.0, 21)
        heat_worst = recurrence_worst = 0.0
        for n, recurrence in enumerate(basis.axis_matrix(0, t)):
            closed = hermite_closed_form_1d(n, mu, t)
            heat = basis.function((n,))(t[:, None])
            heat_worst = max(heat_worst, float(np.max(np.abs(heat - closed))))
            recurrence_worst = max(recurrence_worst, float(np.max(np.abs(recurrence - closed))))
        out.append(CheckResult(f"basis-laguerre-vs-heat mu={mu}", heat_worst, 1e-12))
        out.append(CheckResult(f"basis-recurrence-vs-laguerre mu={mu}", recurrence_worst, 1e-12))
    return out


# ---------------------------------------------------------------------------
# 2. Dunkl eigenrelation at alpha = -pi/2


def check_dunkl_eigenrelation(seed=DEFAULT_SEED):
    out = []
    cases = [([0.0], "N=1 mu=0"), ([0.5], "N=1 mu=0.5"), ([0.3, 0.7], "N=2 mu=(0.3,0.7)")]
    for mu, label in cases:
        mult = Multiplicity(mu)
        plan = TransformPlan(mult, -0.5 * math.pi, M=6)
        basis = plan.basis
        worst = 0.0
        for nu in basis.indices:
            h = basis.function(nu)
            got = fdt_integral_on_grid(h, plan)
            want = (-1j) ** sum(nu) * plan.grid.values(h)
            worst = max(worst, plan.grid.norm_l2(got - want))
        out.append(CheckResult(f"dunkl-eigenrelation {label}", worst, 1e-7))
    return out


# ---------------------------------------------------------------------------
# 3. unitarity + group law + periodicity + parity


def check_unitary_group_laws(seed=DEFAULT_SEED):
    rng = np.random.default_rng(seed)
    mult = Multiplicity([0.5])
    plan0 = TransformPlan(mult, math.pi / 3.0, M=8)
    grid = plan0.grid
    combos = _random_combos(plan0.basis, 20, 6, rng)
    plans = {a: plan0.with_alpha(a) for a in GENERIC_ALPHAS}

    unit_worst = 0.0
    for f in combos:
        fnorm = grid.norm_l2(f)
        for a, plan in plans.items():
            tnorm = grid.norm_l2(fdt_integral_on_grid(f, plan))
            unit_worst = max(unit_worst, abs(tnorm - fnorm))
    results = [CheckResult("unitarity (integral route)", unit_worst, 1e-6)]

    pairs = []
    for a in GENERIC_ALPHAS:
        for b in GENERIC_ALPHAS:
            _, regime = normalize_alpha(a + b)
            if regime == REGIME_GENERIC:
                pairs.append((a, b))
    probe = np.linspace(-2.0, 2.0, 9)[:, None]
    law_worst = 0.0
    for f in combos[:6]:
        for a, b in pairs[:8]:
            inner_vals = fdt_integral_on_grid(f, plans[b])
            lhs = fdt_integral(inner_vals, plans[a], probe)
            rhs = fdt_integral(f, plan0.with_alpha(a + b), probe)
            law_worst = max(law_worst, float(np.max(np.abs(lhs - rhs))))
    results.append(CheckResult("group law D^a D^b = D^(a+b)", law_worst, 1e-6))

    per_worst = 0.0
    for f in combos[:4]:
        pa = plans[math.pi / 3.0]
        pb = plan0.with_alpha(math.pi / 3.0 + 2.0 * math.pi)
        per_worst = max(
            per_worst,
            abs(pa.prefactor - pb.prefactor),
            float(np.max(np.abs(fdt_integral(f, pa, probe) - fdt_integral(f, pb, probe)))),
        )
    results.append(CheckResult("periodicity D^(a+2pi) = D^a", per_worst, 1e-6))

    # grid values, so that the analysis quadrature is gated (an expansion is exact)
    par_worst = 0.0
    for f in combos[:8]:
        flipped = fdt_spectral(grid.values(f), plan0.with_alpha(math.pi))
        par_worst = max(
            par_worst, grid.norm_l2(grid.values(flipped) - f(-grid.nodes))
        )
    results.append(CheckResult("parity D^pi f = f(-x)", par_worst, 1e-6))

    adj_worst = 0.0
    for f, g in zip(combos[:4], combos[4:8]):
        a = 2.0 * math.pi / 5.0
        lhs = np.sum(grid.weights * fdt_integral_on_grid(f, plans[a]) * np.conj(grid.values(g)))
        rhs = np.sum(grid.weights * grid.values(f) * np.conj(fdt_integral_on_grid(g, plans[-a])))
        adj_worst = max(adj_worst, abs(lhs - rhs))
    results.append(CheckResult("adjoint <D^a f, g> = <f, D^-a g>", adj_worst, 1e-8))
    return results


# ---------------------------------------------------------------------------
# 4. route agreement


def check_route_agreement(seed=DEFAULT_SEED):
    rng = np.random.default_rng(seed)
    results = []
    r_smooth = 1.0 - 2.0**-10
    for mu, m_spec, count, label in (
        ([0.5], 24, 20, "N=1 mu=0.5"),
        ([0.3, 0.7], 16, 5, "N=2 mu=(0.3,0.7)"),
    ):
        mult = Multiplicity(mu)
        plan = TransformPlan(mult, math.pi / 3.0, M=m_spec)
        grid = plan.grid
        combos = _random_combos(plan.basis, count, 6, rng)
        spec_worst = 0.0
        smooth_worst = 0.0
        for f in combos:
            spectral = fdt_spectral(f, plan)
            integral = fdt_integral_on_grid(f, plan)
            spec_worst = max(
                spec_worst, grid.norm_l2(grid.values(spectral) - integral)
            )
            smooth_ref = fdt_spectral(f, plan, r=r_smooth)
            smooth = fdt_smoothed_on_grid(f, plan, r=r_smooth)
            smooth_worst = max(
                smooth_worst, grid.norm_l2(grid.values(smooth_ref) - smooth)
            )
        results.append(CheckResult(f"route spectral-vs-integral {label}", spec_worst, 1e-6))
        results.append(CheckResult(f"route smoothed r=1-2^-10 {label}", smooth_worst, 1e-4))
    return results


# ---------------------------------------------------------------------------
# 5. Mehler limit and bound


def check_mehler(seed=DEFAULT_SEED):
    rng = np.random.default_rng(seed)
    mult = Multiplicity([0.5, 1.0])
    plan = TransformPlan(mult, math.pi / 3.0, M=4)
    xy = rng.uniform(-2.0, 2.0, size=(20, 2, 2))
    worst_violation = 0.0
    final_gap = 0.0
    for x, y in xy:
        gaps = []
        target = plan.prefactor * kernel_alpha(plan, x, y)
        for j in range(3, 13):
            r = 1.0 - 2.0**-j
            gaps.append(abs(kernel_smoothed(plan, x, y, r=r) - target))
        for a, b in zip(gaps[:-1], gaps[1:]):
            worst_violation = max(worst_violation, b - a * (1.0 + 1e-9) - 1e-13)
        final_gap = max(final_gap, gaps[-1])
    results = [
        CheckResult("mehler-limit monotone decrease", max(worst_violation, 0.0), 1e-12),
        CheckResult("mehler-limit residual at r=1-2^-12", final_gap, 1e-2),
    ]

    worst_margin = 0.0
    for _ in range(200):
        alpha = rng.uniform(-math.pi, math.pi)
        _, regime = normalize_alpha(alpha)
        if regime != REGIME_GENERIC:
            continue
        r = rng.uniform(0.05, 0.99)
        x = rng.uniform(-2.0, 2.0, size=2)
        y = rng.uniform(-2.0, 2.0, size=2)
        p = TransformPlan(mult, alpha, grid=plan.grid, M=4)
        lhs, rhs = kernel_smoothed_bound(p, x, y, r)
        worst_margin = max(worst_margin, float(lhs - rhs))
    results.append(CheckResult("mehler kernel bound margin >= 0", max(worst_margin, 0.0), 1e-12))
    return results


# ---------------------------------------------------------------------------
# 6. Master formula, Hecke and Bochner identities


def check_master_hecke(seed=DEFAULT_SEED):
    results = []
    probe1 = np.linspace(-2.0, 2.0, 9)[:, None]
    probe2 = np.stack(
        [np.linspace(-2.0, 2.0, 9), np.linspace(2.0, -2.0, 9)], axis=-1
    )
    for mu, degmax, probe, label in (
        ([0.5], 5, probe1, "N=1 mu=0.5"),
        ([0.3, 0.7], 4, probe2, "N=2 mu=(0.3,0.7)"),
    ):
        mult = Multiplicity(mu)
        worst = 0.0
        for alpha in (math.pi / 3.0, -2.0 * math.pi / 5.0):
            plan = TransformPlan(mult, alpha, M=0)
            # every monomial of degree <= degmax, by degree, as in a HermiteBasis
            for nu in sorted(_graded_indices(mult.dim, degmax), key=lambda nu: (sum(nu), nu)):
                p = MultiPoly.monomial(nu)
                lhs = fdt_integral(master_formula_lhs_input(p, mult), plan, probe)
                rhs = master_formula_rhs(p, plan, probe)
                worst = max(worst, float(np.max(np.abs(lhs - rhs))))
        results.append(CheckResult(f"master formula {label}", worst, 1e-7))

    mult = Multiplicity([0.3, 0.7])
    plan = TransformPlan(mult, math.pi / 3.0, M=0)
    worst = 0.0
    for p in (MultiPoly.variable(0, 2), MultiPoly.variable(1, 2)):
        f = GaussPoly(p)
        lhs = fdt_integral(f, plan, probe2)
        rhs = cmath.exp(1j * plan.alpha) * f(probe2)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    results.append(CheckResult("hecke identity (harmonic p)", worst, 1e-7))

    # Bochner: D^a [p psi(|.|)] = e^{ina} p H^a_{n+lambda} psi for harmonic p
    # of degree n, against the integral route on the product itself
    worst = 0.0
    harmonics = (
        MultiPoly.constant(1, 2),
        MultiPoly.variable(0, 2),
        MultiPoly.variable(1, 2),
        MultiPoly.monomial((1, 1)),
    )
    for alpha in (math.pi / 3.0, -2.0 * math.pi / 5.0):
        plan = TransformPlan(mult, alpha, M=0)
        for p in harmonics:
            index = p.homogeneous_degree() + mult.lambda_index
            for m in range(3):

                def psi(y, _m=m, _a=index):
                    return laguerre_eval(_m, _a, y * y) * np.exp(-0.5 * y * y)

                def f(pts, _p=p, _psi=psi):
                    return _p(pts) * _psi(np.sqrt(np.sum(pts * pts, axis=-1)))

                lhs = fdt_integral(f, plan, probe2)
                rhs = bochner_fdt(p, psi, plan, probe2)
                worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    results.append(CheckResult("bochner identity (harmonic p, Laguerre profile)", worst, 1e-7))
    return results


# ---------------------------------------------------------------------------
# 7. eigenbasis psi_{m,n,j} for N=2


def check_eigenbasis_2d(seed=DEFAULT_SEED):
    mult = Multiplicity([0.3, 0.7])
    plan = TransformPlan(mult, 2.0 * math.pi / 5.0, M=0)
    grid = plan.grid
    lam = mult.lambda_index
    gamma = mult.gamma_index
    worst = 0.0
    harmonics = {0: [MultiPoly.constant(1, 2)], 1: [MultiPoly.variable(0, 2), MultiPoly.variable(1, 2)]}
    for n, ps in harmonics.items():
        for m in range(5):
            a = n + gamma
            for p in ps:
                pv = grid.values(p)

                def psi(nodes, _p=pv, _m=m, _a=a):
                    rsq = np.sum(nodes**2, axis=-1)
                    return _p * laguerre_eval(_m, _a, rsq) * np.exp(-0.5 * rsq)

                vals = grid.values(psi)
                norm = grid.norm_l2(vals)
                got = fdt_integral_on_grid(vals, plan)
                want = cmath.exp(1j * plan.alpha * (n + 2 * m)) * vals
                worst = max(worst, grid.norm_l2(got - want) / norm)
    results = [CheckResult("eigenbasis psi_{m,n,j} phases (N=2)", worst, 1e-6)]

    worst = 0.0
    radii = np.linspace(0.0, 3.0, 13)
    for nu in (lam, 1.0 + lam, 0.7):
        for m in range(5):

            def prof(y, _m=m, _nu=nu):
                return laguerre_eval(_m, _nu, y * y) * np.exp(-0.5 * y * y)

            got = fractional_hankel(prof, nu, plan, radii)
            want = cmath.exp(2j * plan.alpha * m) * prof(radii)
            worst = max(worst, float(np.max(np.abs(got - want))))
    results.append(CheckResult("fractional Hankel Laguerre eigenrelation", worst, 1e-6))
    return results


# ---------------------------------------------------------------------------
# 8. Funk-Hecke radial + c_k/d_k relation


def check_funk_hecke(seed=DEFAULT_SEED):
    """Radial Funk-Hecke and c_k^-1 = pi^(N/2) Gamma(lambda+1) d_k / Gamma(N/2),
    d_k the mass of ``sphere_rule``, at N = 2 and 3."""
    results = []
    plane = [np.array([math.cos(theta), math.sin(theta)]) for theta in (0.0, 0.7, 2.1)]
    space = [np.array([1.0, 0.0, 0.0]), np.array([2.0, -1.0, 2.0]) / 3.0, np.array([-0.48, 0.6, 0.64])]
    cases = [(mu, plane) for mu in ((0.0, 0.0), (0.3, 0.7))]
    cases += [(mu, space) for mu in ((0.0, 0.0, 0.0), (0.3, 0.7, 0.2), (1.7, 0.2, 0.5))]
    for mu, directions in cases:
        mult = Multiplicity(mu)
        worst = 0.0
        for radius in (0.0, 0.5, 2.0, 5.0, 10.0):
            for unit in directions:
                lhs = funk_hecke_radial(mult, radius * unit)
                rhs = complex(radial_bessel(mult, radius))
                worst = max(worst, abs(lhs - rhs))
        results.append(CheckResult(f"funk-hecke radial mu={mu}", worst, 1e-8))
        d_k = float(np.sum(sphere_rule(mult)[1]))
        half = 0.5 * mult.dim
        lhs = 1.0 / mult.mehta_constant
        rhs = math.pi**half * gamma_fn(mult.lambda_index + 1.0) * d_k / gamma_fn(half)
        results.append(CheckResult(f"c_k/d_k relation mu={mu}", abs(lhs - rhs) / abs(lhs), 1e-8))
    return results


# ---------------------------------------------------------------------------
# 9. generator consistency


def check_generator(seed=DEFAULT_SEED):
    rng = np.random.default_rng(seed)
    results = []
    mult = Multiplicity([0.5])
    grid = build_grid(mult)
    probe = np.linspace(-2.0, 2.0, 9)[:, None]
    worst = 0.0
    for _ in range(5):
        terms = {}
        for d in range(5):
            terms[(d,)] = int(rng.integers(-3, 4))
        f = GaussPoly(MultiPoly(1, terms))
        exact = generator_exact(f, mult)(probe)
        numeric = generator_integral(f, mult, grid, probe)
        worst = max(worst, float(np.max(np.abs(exact - numeric))))
    mult2 = Multiplicity([0.3, 0.7])
    grid2 = build_grid(mult2)
    probe2 = np.stack([np.linspace(-1.5, 1.5, 7), np.linspace(1.0, -1.0, 7)], axis=-1)
    f2 = GaussPoly(
        MultiPoly(2, {(0, 0): 1, (2, 0): -1, (1, 1): 2, (0, 2): 1, (2, 2): Fraction(1, 2)})
    )
    exact2 = generator_exact(f2, mult2)(probe2)
    numeric2 = generator_integral(f2, mult2, grid2, probe2)
    worst2 = float(np.max(np.abs(exact2 - numeric2)))
    results.append(CheckResult("generator integral-vs-exact (deg <= 4)", max(worst, worst2), 1e-6))

    basis = HermiteBasis(mult2, 4)
    exact_fail = 0.0
    for nu in ((0, 0), (1, 2), (2, 2), (0, 3)):
        h = basis.function(nu)
        lhs = hermite_operator(h, mult2)
        rhs = h * (-(2 * sum(nu) + 2 * mult2.gamma_exact + 2))
        if lhs != rhs:
            exact_fail = 1.0
    results.append(
        CheckResult("hermite eigenrelation exact in rational arithmetic", exact_fail, 0.0)
    )

    plan = TransformPlan(mult, 0.5, M=6)
    f = HermiteExpansion.from_terms(plan.basis, {(0,): 0.6, (1,): -0.8j, (3,): 0.5})
    alphas = [0.4 * 2.0**-j for j in range(7)]
    residuals = difference_quotient(f, alphas, plan)
    order = observed_order(residuals)
    results.append(
        CheckResult("difference-quotient order ~ 1", abs(order - 1.0), 0.3, detail=f"order={order:.3f}")
    )
    decreasing = all(b < a for (_, a), (_, b) in zip(residuals[:-1], residuals[1:]))
    results.append(
        CheckResult("difference-quotient residuals decrease", 0.0 if decreasing else 1.0, 0.0)
    )
    return results


# ---------------------------------------------------------------------------
# 10. spectral theory: projections + resolvent


def check_spectral_theory(seed=DEFAULT_SEED):
    rng = np.random.default_rng(seed)
    mult = Multiplicity([0.5])
    plan = TransformPlan(mult, 0.0, M=8)
    sampler = GroupSampler(plan, q=64)
    combos = _random_combos(plan.basis, 4, 6, rng)
    results = []

    worst = 0.0
    for f in combos:
        base = sampler.expand(f)
        for n in range(7):
            proj = spectral_projection(f, n, sampler)
            want = base.scale_degrees([1.0 if d == n else 0.0 for d in range(plan.M + 1)])
            worst = max(worst, float(np.max(np.abs(proj.coeffs - want.coeffs))))
    results.append(CheckResult("P_n picks eigencomponents", worst, 1e-10))

    worst = 0.0
    for f in combos:
        for n in (-1, -3):
            worst = max(worst, spectral_projection(f, n, sampler).norm_l2())
    results.append(CheckResult("P_n = 0 for n < 0", worst, 1e-12))

    grid = plan.grid
    worst = 0.0
    lams = []
    while len(lams) < 10:
        lam = complex(rng.uniform(-2.0, 2.0), rng.uniform(-3.0, 3.0))
        if math.hypot(lam.real, lam.imag - round(lam.imag)) >= 0.1:
            lams.append(lam)
    for f in combos[:2]:
        fvals = grid.values(f)
        for lam in lams:
            res = resolvent_apply(f, lam, plan)
            t_res = expansion_generator(res, mult)
            back = lam * grid.values(res) - grid.values(t_res)
            worst = max(worst, grid.norm_l2(back - fvals))
    results.append(CheckResult("resolvent identity (lam - T) R(lam) = I", worst, 1e-8))
    return results


# ---------------------------------------------------------------------------
# 11. classical reductions at mu = 0


def _frft_gaussian_closed_form(plan, a, xs):
    """Closed-form fractional Fourier transform of exp(-a y^2) (N=1, mu=0),
    by completing the square in the integral representation."""
    s = math.sin(plan.alpha)
    cot = math.cos(plan.alpha) / s
    q = a + 0.5j * cot
    xs = np.asarray(xs, dtype=float).reshape(-1)
    return (
        plan.prefactor
        * np.exp(-0.5j * cot * xs**2)
        * cmath.sqrt(math.pi / q)
        * np.exp(-(xs**2) / (4.0 * q * s * s))
    )


def check_classical(seed=DEFAULT_SEED):
    mult = Multiplicity([0.0])
    grid = build_grid(mult)
    probe = np.linspace(-3.0, 3.0, 13)[:, None]
    results = []
    worst = 0.0
    for alpha in (math.pi / 3.0, -2.0 * math.pi / 5.0, 5.0 * math.pi / 6.0):
        plan = TransformPlan(mult, alpha, grid=grid, M=0)
        for a in (0.5, 0.8, 1.3):
            f = lambda pts, _a=a: np.exp(-_a * pts[..., 0] ** 2)
            got = fdt_integral(f, plan, probe)
            want = _frft_gaussian_closed_form(plan, a, probe)
            worst = max(worst, float(np.max(np.abs(got - want))))
    results.append(CheckResult("fractional Fourier of Gaussians (mu=0)", worst, 1e-8))

    plan = TransformPlan(mult, -0.5 * math.pi, grid=grid, M=0)
    worst = 0.0
    for a in (0.5, 1.1):
        f = lambda pts, _a=a: np.exp(-_a * pts[..., 0] ** 2)
        got = fdt_integral(f, plan, probe)
        want = np.exp(-probe[:, 0] ** 2 / (4.0 * a)) / math.sqrt(2.0 * a)
        worst = max(worst, float(np.max(np.abs(got - want))))
    results.append(CheckResult("cosine transform of even Gaussians", worst, 1e-8))

    f = lambda pts: pts[..., 0] * np.exp(-0.7 * pts[..., 0] ** 2)
    twice = fdt_integral(fdt_integral_on_grid(f, plan), plan, -probe)
    worst = float(np.max(np.abs(twice - f(probe))))
    results.append(CheckResult("L1 inversion D^2 f = f(-x)", worst, 1e-6))
    return results


# ---------------------------------------------------------------------------
# extra suites exposed through the CLI


def check_semigroup_calculus(seed=DEFAULT_SEED):
    """D^a f - f = T integral_0^a D^s f ds, mixing the integral route (lhs)
    with exact generator algebra applied to the s-quadrature (rhs)."""
    rng = np.random.default_rng(seed)
    mult = Multiplicity([0.5])
    plan = TransformPlan(mult, math.pi / 3.0, M=6)
    grid = plan.grid
    worst = 0.0
    for f in _random_combos(plan.basis, 3, 5, rng):
        lhs = fdt_integral_on_grid(f, plan) - grid.values(f)
        integral = group_integral(f, plan.alpha, plan)
        rhs = grid.values(expansion_generator(integral, mult))
        worst = max(worst, grid.norm_l2(lhs - rhs))
    return [CheckResult("semigroup calculus D^a f - f = T int D^s f", worst, 1e-8)]


def check_projection_algebra(seed=DEFAULT_SEED):
    rng = np.random.default_rng(seed)
    mult = Multiplicity([0.5, 1.0])
    plan = TransformPlan(mult, 0.0, M=6)
    sampler = GroupSampler(plan, q=64)
    combos = _random_combos(plan.basis, 3, 4, rng)
    results = []
    worst = 0.0
    for f in combos:
        for n, m in ((0, 2), (1, 3), (2, 4)):
            pm = spectral_projection(f, m, sampler)
            pn_pm = spectral_projection(pm, n, sampler)
            worst = max(worst, pn_pm.norm_l2())
    results.append(CheckResult("P_n P_m = 0 (n != m)", worst, 1e-10))

    s = 0.7
    worst = 0.0
    for f in combos:
        for n in range(4):
            lhs = spectral_projection(sampler.group_apply(f, s), n, sampler)
            rhs = spectral_projection(f, n, sampler) * cmath.exp(1j * n * s)
            worst = max(worst, float(np.max(np.abs(lhs.coeffs - rhs.coeffs))))
    results.append(CheckResult("D^s P_n = e^{ins} P_n", worst, 1e-9))

    grid = plan.grid
    worst = 0.0
    for f, g in ((combos[0], combos[1]), (combos[1], combos[2])):
        for n in range(3):
            lhs = np.sum(grid.weights * grid.values(spectral_projection(f, n, sampler)) * np.conj(grid.values(g)))
            rhs = np.sum(grid.weights * grid.values(f) * np.conj(grid.values(spectral_projection(g, n, sampler))))
            worst = max(worst, abs(lhs - rhs))
    results.append(CheckResult("<P_n f, g> = <f, P_n g>", worst, 1e-9))
    return results


SUITES = {
    "basis": check_basis_integrity,
    "eigenrelation": check_dunkl_eigenrelation,
    "unitary_group": check_unitary_group_laws,
    "route_agreement": check_route_agreement,
    "mehler": check_mehler,
    "master_formula": check_master_hecke,
    "eigenbasis": check_eigenbasis_2d,
    "funk_hecke": check_funk_hecke,
    "generator": check_generator,
    "spectral_theory": check_spectral_theory,
    "classical": check_classical,
    "semigroup_calculus": check_semigroup_calculus,
    "projection_algebra": check_projection_algebra,
}


def run_suite(name, seed=DEFAULT_SEED, tol_scale=None):
    """The rows of suite ``name`` (or of every suite, for "all"), each
    pinned tolerance multiplied by ``tolerance_scale(tol_scale)``."""
    scale = tolerance_scale(tol_scale)
    if name != "all" and name not in SUITES:
        raise KeyError(f"unknown check suite {name!r}; available: {', '.join(SUITES)}")
    keys = SUITES if name == "all" else (name,)
    rows = [row for key in keys for row in SUITES[key](seed=seed)]
    return [replace(row, tolerance=row.tolerance * scale) for row in rows]
