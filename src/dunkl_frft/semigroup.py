"""Operator-theoretic numerics for the one-parameter transform group:
spectral projections, the resolvent of the generator, two independent
realizations of the generator itself, and difference-quotient convergence.

Group applications inside the s-integrals always go through the spectral
route (the integral route is singular at s in pi*Z, which every s-grid
hits).  Projections use the equispaced trapezoid rule, which is exact on
band-limited expansions by the Nyquist condition; the resolvent and the
semigroup-calculus integrals use composite Gauss-Legendre in s because
their integrands are not 2*pi-periodic.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np

from .errors import DomainError, UsageError
from .polyengine import GaussPoly, RationalComplex, hermite_operator
from .quadrature import gauss_legendre
from .transform import TransformPlan, _as_points, fdt_integral, fdt_integral_on_grid, hermite_expand


class GroupSampler:
    """Samples of the 2*pi-periodic path s -> D_k^s on equispaced nodes.

    Q must satisfy the Nyquist condition Q >= 2*M + 2 so that the
    trapezoid rule is exact on expansions band-limited at degree M.
    Every expansion is computed afresh from f's current values; the plan
    keeps the analysis matrices.
    """

    def __init__(self, plan, q=64):
        if not isinstance(plan, TransformPlan):
            raise UsageError("GroupSampler needs a TransformPlan template")
        q = int(q)
        if q < 2 * plan.M + 2:
            raise DomainError(
                f"Q = {q} violates the Nyquist condition Q >= 2M+2 = {2 * plan.M + 2}"
            )
        self.plan = plan
        self.q = q
        self.s_nodes = 2.0 * math.pi * np.arange(q) / q

    def expand(self, f):
        return hermite_expand(f, self.plan)

    def group_apply(self, f, s):
        """D_k^s f as a Hermite expansion (spectral route)."""
        factors = [cmath.exp(1j * n * s) for n in range(self.plan.M + 1)]
        return self.expand(f).scale_degrees(factors)


def spectral_projection(f, n, sampler):
    """Spectral projection P_n f = (1/2pi) integral_0^{2pi} e^{-ins} D_k^s f ds
    by the equispaced trapezoid rule over the sampler nodes.

    Picks the total-degree-n component for n >= 0 and vanishes for n < 0
    (computed, not assumed).  The Q-node rule aliases n onto degree n + kQ,
    so it is exact on degrees 0..M only for M - Q < n < Q; other n are refused."""
    n = int(n)
    q, top = sampler.q, sampler.plan.M
    if not top - q < n < q:
        raise DomainError(f"projection degree n = {n} must satisfy M - Q < n < Q (Q = {q}, M = {top}): "
                          "the trapezoid rule aliases it onto another degree")
    s = sampler.s_nodes
    factors = [complex(np.mean(np.exp(1j * (d - n) * s))) for d in range(sampler.plan.M + 1)]
    return sampler.expand(f).scale_degrees(factors)


def _distance_to_int_times_i(lam):
    lam = complex(lam)
    return math.hypot(lam.real, lam.imag - round(lam.imag))


def _s_line_integral(lam, max_degree, upper):
    """[integral_0^upper e^{-lam s} e^{i d s} ds for d = 0..max_degree], by
    composite Gauss-Legendre (the integrand is smooth but not periodic)."""
    maxfreq = max_degree + abs(lam)
    panels = max(8, int(math.ceil(abs(upper) * (maxfreq + 2.0) / 5.0)))
    nodes, weights = gauss_legendre(12)
    edges = np.linspace(0.0, upper, panels + 1)
    svals = []
    wvals = []
    for a, b in zip(edges[:-1], edges[1:]):
        svals.append(0.5 * (b - a) * nodes + 0.5 * (a + b))
        wvals.append(0.5 * (b - a) * weights)
    svals = np.concatenate(svals)
    wvals = np.concatenate(wvals)
    return [complex(np.sum(wvals * np.exp((1j * d - lam) * svals))) for d in range(max_degree + 1)]


def resolvent_lambda(lam):
    """lam as a complex number, refused with a DomainError when it is not
    finite or lies within 0.1 of i*Z, where the resolvent's prefactor blows
    up and the quadrature conditioning degrades."""
    lam = complex(lam)
    if not cmath.isfinite(lam) or _distance_to_int_times_i(lam) < 0.1:
        raise DomainError(f"lambda = {lam} is not finite or within 0.1 of i*Z; resolvent refused")
    return lam


def resolvent_apply(f, lam, plan):
    """Resolvent R(lam, T) f = (1 - e^{-2 pi lam})^{-1}
    integral_0^{2pi} e^{-lam s} D_k^s f ds, by composite Gauss-Legendre in
    s over the spectral route.

    Refuses lam as ``resolvent_lambda`` does.  On eigenfunctions the result
    is h_nu / (lam - i |nu|)."""
    lam = resolvent_lambda(lam)
    integrals = _s_line_integral(lam, plan.M, 2.0 * math.pi)
    pref = 1.0 / (1.0 - cmath.exp(-2.0 * math.pi * lam))
    return hermite_expand(f, plan).scale_degrees([pref * v for v in integrals])


def generator_exact(f, mult):
    """Exact generator on Gaussian-polynomial functions:

        T f = -i (gamma + N/2) f - (i/2)(Delta_k - |x|^2) f,

    computed from ``hermite_operator`` in exact rational-complex arithmetic.
    T h_nu = i |nu| h_nu."""
    if not isinstance(f, GaussPoly):
        raise UsageError("generator_exact acts on GaussPoly")
    if mult.dim != f.dim:
        raise UsageError("multiplicity and function dimensions differ")
    g = mult.gamma_exact + Fraction(mult.dim, 2)
    half_i = RationalComplex(0, Fraction(1, 2))
    poly = RationalComplex(0, -1) * g * f.poly - half_i * hermite_operator(f, mult).poly
    return GaussPoly(poly)


def generator_integral(f, mult, grid, xs, diagnostics=False):
    """Generator realized by two numerical Dunkl transforms (alpha = -pi/2):

        T f(x) = -i (gamma + N/2) f(x) + (i/2) |x|^2 f(x)
                 + (i/2) D_k[ |y|^2 (D_k f)(y) ](-x).

    Matches generator_exact on Gaussian-polynomial inputs to quadrature
    tolerance.  With ``diagnostics=True`` also returns the unitarity defect
    of the inner transform, |(|D_k f| - |f|)| / |f| in L2 on the grid: an
    underresolved grid shows up there instead of passing silently."""
    plan = TransformPlan(mult, -0.5 * math.pi, grid=grid, M=0)
    xs = _as_points(xs, mult.dim)
    fvals = np.asarray(grid.values(f), dtype=complex)
    first = fdt_integral_on_grid(fvals, plan)
    weighted = np.sum(grid.nodes**2, axis=-1) * first
    second = fdt_integral(weighted, plan, -xs)
    fx = np.asarray(f(xs), dtype=complex)
    g = mult.gamma_index + 0.5 * mult.dim
    out = -1j * g * fx + 0.5j * np.sum(xs * xs, axis=-1) * fx + 0.5j * second
    if not diagnostics:
        return out
    norm_in = grid.norm_l2(fvals)
    norm_out = grid.norm_l2(first)
    defect = abs(norm_out - norm_in) / norm_in if norm_in > 0 else 0.0
    return out, {"unitarity_defect": defect}


def difference_quotient(f, alpha_seq, plan):
    """L2 residuals |(D^a f - f)/a - T f| along a decreasing sequence of
    orders; first order in a for band-limited f.

    The quotient uses the spectral route (the integral route has no kernel
    as a -> 0) and T f carries the exact eigenvalues i|nu|."""
    base = hermite_expand(f, plan)
    out = []
    for a in alpha_seq:
        a = float(a)
        if a == 0.0 or not math.isfinite(a):
            raise DomainError(f"difference quotient needs finite nonzero orders, got {a!r}")
        factors = [(cmath.exp(1j * n * a) - 1.0) / a - 1j * n for n in range(plan.M + 1)]
        resid = base.scale_degrees(factors).coeffs
        out.append((a, math.sqrt(sum(abs(c) ** 2 for c in resid))))
    return out


def observed_order(residuals):
    """Least-squares slope of log residual vs log step; ~1.0 for first-order
    convergence.  Pairs with zero residual are skipped."""
    pts = [(a, r) for a, r in residuals if r > 0.0]
    if len(pts) < 2:
        return None
    xs = np.log([a for a, _ in pts])
    ys = np.log([r for _, r in pts])
    slope = np.polyfit(xs, ys, 1)[0]
    return float(slope)


def group_integral(f, upper, plan):
    """integral_0^upper D_k^s f ds as a Hermite expansion, by composite
    Gauss-Legendre in s over the spectral route."""
    integrals = _s_line_integral(0.0, plan.M, float(upper))
    return hermite_expand(f, plan).scale_degrees(integrals)


def expansion_generator(expansion, mult):
    """Exact T applied to a Hermite expansion via its GaussPoly form."""
    return generator_exact(expansion.to_gauss_poly(), mult)
