"""The fractional Dunkl transform by three cross-validating routes.

Spectral route: phase-weighted Hermite expansion (the definition).
Integral route: oscillatory kernel against the weighted measure.
Smoothed route: closed-form Mehler kernel of the regularized transform.
The integral kernel is the Mehler kernel at r = 1, so both routes share one
kernel builder.

Also here: the fractional Hankel reduction, the Bochner factorization, the
Master / Hecke formulas, the radial Funk-Hecke check and the bilinear /
moment Gaussian identities used to validate the kernel machinery.
"""

from __future__ import annotations

import cmath
import math
import threading
from collections import OrderedDict, namedtuple
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError, RangeError, UsageError
from .polyengine import (
    GaussPoly,
    HermiteBasis,
    HermiteExpansion,
    MultiPoly,
    dunkl_laplacian,
    heat_exp_poly,
)
from .quadrature import QuadGrid, build_grid, jacobi_halfline
from .specfun import (
    U_MAX_KERNEL,
    BesselOrder,
    dunkl_kernel_1d,
    dunkl_kernel_prod,
    gamma_fn,
    normalized_ibessel,
)

REGIME_IDENTITY = "identity"
REGIME_PARITY = "parity"
REGIME_GENERIC = "generic"
REGIME_NEAR_SINGULAR = "near-singular"

DEFAULT_S_MIN = 0.05
_TWO_PI = 2.0 * math.pi

# Bytes of prepared operators one plan keeps (keys included).  An operator
# larger than this is built and returned but not kept.
_OPERATOR_CACHE_BYTES = 32 << 20

OperatorCacheInfo = namedtuple("OperatorCacheInfo", "hits misses entries nbytes")


def normalize_alpha(alpha, s_min=DEFAULT_S_MIN):
    """Canonical representative of the order in (-pi, pi] plus regime tag.

    The group is 2*pi-periodic, so alpha and alpha + 2*pi yield identical
    plans.  Regimes: identity (alpha == 0 mod 2*pi), parity (alpha == pi),
    near-singular (0 < |sin alpha| < s_min, integral route refused) and
    generic.  s_min must lie in (0, 1]: a value <= 0 or nan would switch the
    near-singular refusal off.
    """
    s_min = float(s_min)
    if not 0.0 < s_min <= 1.0:
        raise DomainError(f"s_min must lie in (0, 1], got {s_min!r}")
    alpha = float(alpha)
    if not math.isfinite(alpha):
        raise DomainError(f"order must be finite, got {alpha!r}")
    a = math.remainder(alpha, _TWO_PI)
    if a <= -math.pi:
        a = math.pi
    if a == 0.0:
        return 0.0, REGIME_IDENTITY
    if a == math.pi:
        return math.pi, REGIME_PARITY
    if abs(math.sin(a)) < s_min:
        return a, REGIME_NEAR_SINGULAR
    return a, REGIME_GENERIC


class _OperatorCache:
    """Least-recently-used map from a key to prepared arrays, bounded by
    their bytes plus the key's (``_OPERATOR_CACHE_BYTES``).

    Only the bookkeeping runs under the lock: two threads that miss the same
    key both build it, and the later insert replaces the earlier one.
    Stored arrays are made read-only, because every caller shares them.
    """

    def __init__(self):
        self._entries = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._nbytes = 0

    def get(self, key, build):
        """The list of arrays stored under key, made by ``build()`` on a miss."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self._hits += 1
                return entry[0]
            self._misses += 1
        value = build()
        nbytes = sum(arr.nbytes for arr in value)
        nbytes += sum(len(part) for part in key if isinstance(part, bytes))
        budget = _OPERATOR_CACHE_BYTES
        if nbytes > budget:
            return value
        for arr in value:
            arr.setflags(write=False)
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._nbytes -= old[1]
            self._entries[key] = (value, nbytes)
            self._nbytes += nbytes
            while self._nbytes > budget:
                _, (_, dropped) = self._entries.popitem(last=False)
                self._nbytes -= dropped
        return value

    def info(self):
        with self._lock:
            return OperatorCacheInfo(self._hits, self._misses, len(self._entries), self._nbytes)


class TransformPlan:
    """Prepared context for one transform order: canonical alpha, regime,
    smoothing r, spectral truncation M, quadrature grid and the integral
    prefactor.

    The Hermite basis is built lazily.  The plan also holds a bounded
    cache of the operators it prepares (kernel axis factors per (r,
    output axes), Hermite analysis matrices), filled by the first call
    that needs each one.  Its bookkeeping is locked and the cached arrays
    are read-only, so a plan stays safe to share between threads.
    """

    def __init__(self, mult, alpha, grid=None, r=1.0, M=None, s_min=DEFAULT_S_MIN):
        self.mult = mult
        self.s_min = float(s_min)
        self.alpha, self.regime = normalize_alpha(alpha, self.s_min)
        if not (0.0 < r <= 1.0):
            raise DomainError(f"smoothing parameter must lie in (0, 1], got {r!r}")
        self.r = float(r)
        self.M = int(M) if M is not None else (24 if mult.dim == 1 else 16)
        self.grid = grid if grid is not None else build_grid(mult)
        if self.grid.mult.mu != mult.mu:
            raise UsageError("grid was built for a different multiplicity")
        self._basis = None
        self._operators = _OperatorCache()

    def operator_cache_info(self):
        """(hits, misses, entries, nbytes) of the plan's operator cache, like
        ``functools`` ``cache_info``; nbytes counts arrays and keys held."""
        return self._operators.info()

    @property
    def basis(self):
        if self._basis is None:
            self._basis = HermiteBasis(self.mult, self.M)
        return self._basis

    @property
    def order_exponent(self):
        """gamma + N/2, the exponent carried by every kernel prefactor."""
        return self.mult.gamma_index + 0.5 * self.mult.dim

    @property
    def prefactor(self):
        """A_alpha = c_k exp(i (gamma+N/2)(sgn(sin a) pi/2 - a)) / (2|sin a|)^(gamma+N/2).

        None in the identity/parity regimes where no integral kernel exists.
        """
        s = math.sin(self.alpha)
        if s == 0.0 or self.regime in (REGIME_IDENTITY, REGIME_PARITY):
            return None
        ahat = 1.0 if s > 0 else -1.0
        g = self.order_exponent
        scale = (2.0 * abs(s)) ** g
        if scale == 0.0:
            raise RangeError(f"prefactor A_alpha overflows at |sin alpha| = {abs(s):.3g}")
        return (
            self.mult.mehta_constant
            * cmath.exp(1j * g * (ahat * math.pi / 2.0 - self.alpha))
            / scale
        )

    def hankel_prefactor(self, order):
        """B_nu = exp(i (nu+1)(sgn(sin a) pi/2 - a)) / (Gamma(nu+1) (2|sin a|)^(nu+1))."""
        nu = order.nu if isinstance(order, BesselOrder) else float(order)
        s = math.sin(self.alpha)
        if s == 0.0:
            raise UsageError("no integral kernel exists at alpha in {0, pi}")
        ahat = 1.0 if s > 0 else -1.0
        scale = (2.0 * abs(s)) ** (nu + 1.0)
        if scale == 0.0:
            raise RangeError(f"prefactor B_nu overflows at |sin alpha| = {abs(s):.3g}")
        return cmath.exp(1j * (nu + 1.0) * (ahat * math.pi / 2.0 - self.alpha)) / (
            gamma_fn(nu + 1.0) * scale
        )

    def with_alpha(self, alpha):
        plan = TransformPlan(
            self.mult, alpha, grid=self.grid, r=self.r, M=self.M, s_min=self.s_min
        )
        plan._basis = self._basis
        return plan

    def describe(self):
        return {
            "mu": [float(m) for m in self.mult.mu],
            "alpha": self.alpha,
            "regime": self.regime,
            "r": self.r,
            "M": self.M,
            "s_min": self.s_min,
            "grid": self.grid.to_json(),
        }


def _require_kernel_regime(plan, op, reject_near_singular=True):
    if plan.regime == REGIME_IDENTITY:
        raise UsageError(f"{op}: no kernel exists at alpha = 0 (identity regime)")
    if plan.regime == REGIME_PARITY:
        raise UsageError(f"{op}: no kernel exists at alpha = pi (parity regime)")
    if reject_near_singular and plan.regime == REGIME_NEAR_SINGULAR:
        raise UsageError(
            f"{op}: |sin alpha| = {abs(math.sin(plan.alpha)):.3g} < s_min = {plan.s_min}; "
            "the oscillatory kernel outruns the grid here -- use fdt_spectral instead"
        )


def _as_points(xs, dim):
    xs = np.asarray(xs, dtype=float)
    if xs.ndim == 1:
        xs = xs[:, None] if dim == 1 else xs[None, :]
    if xs.ndim != 2 or xs.shape[1] != dim:
        raise UsageError(f"output points must have shape (m, {dim}), got {xs.shape}")
    if not np.all(np.isfinite(xs)):
        raise DomainError("output points must be finite")
    return xs


# ---------------------------------------------------------------------------
# kernels


def _mehler_form(plan, r):
    """(zscale, gcoef, pref) with K_a(r,x,y) = pref exp(-gcoef (|x|^2+|y|^2)) K(zscale x, y)
    at smoothing r in (0, 1] (see kernel_smoothed).  At r = 1 they are taken exactly as
    the integral route's i/sin a, (i/2) cot a and A_a, so zscale x stays purely
    imaginary (real-argument Bessel path, |K| <= 1)."""
    if r == 1.0:
        s = math.sin(plan.alpha)
        return 1j / s, 0.5j * (math.cos(plan.alpha) / s), plan.prefactor
    w = r * r * cmath.exp(2j * plan.alpha)
    denom = 1.0 - w
    zscale = 2.0 * r * cmath.exp(1j * plan.alpha) / denom
    gcoef = (1.0 + w) / (2.0 * denom)
    return zscale, gcoef, plan.mult.mehta_constant * denom ** (-plan.order_exponent)


def _smoothing(plan, r, op):
    r = plan.r if r is None else float(r)
    if not (0.0 < r < 1.0):
        raise UsageError(f"{op} needs 0 < r < 1, got {r!r}")
    return r


def _kernel_parts(plan, x, y, r):
    """(pref, gauss, kern) with K_a(r,x,y) = pref * gauss * kern pointwise."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    zscale, gcoef, pref = _mehler_form(plan, r)
    kern = dunkl_kernel_prod(plan.mult, zscale * x, y, u_max=U_MAX_KERNEL)
    gauss = np.exp(-gcoef * (np.sum(x * x, axis=-1) + np.sum(y * y, axis=-1)))
    return pref, gauss, kern


def kernel_alpha(plan, x, y):
    """Integral kernel K_alpha(x, y) = e^{-(i/2) cot(a) (|x|^2+|y|^2)} K(ix/sin a, y).

    Defined whenever sin(alpha) != 0; |K_alpha| <= 1 pointwise.  This is the
    Mehler kernel at r = 1 without its prefactor A_alpha.
    """
    _require_kernel_regime(plan, "kernel_alpha", reject_near_singular=False)
    _, gauss, kern = _kernel_parts(plan, x, y, 1.0)
    return kern * gauss


def kernel_smoothed(plan, x, y, r=None):
    """Mehler closed form of the smoothed kernel,

        K_a(r,x,y) = c_k (1 - r^2 e^{2ia})^{-(gamma+N/2)}
                     exp(-(1 + r^2 e^{2ia})(|x|^2+|y|^2) / (2 (1 - r^2 e^{2ia})))
                     K(2 r e^{ia} x / (1 - r^2 e^{2ia}), y),

    finite for every alpha including 0 and pi.  Principal branch of the
    power (safe: Re(1 - r^2 e^{2ia}) >= 1 - r^2 > 0 for r < 1).
    """
    r = _smoothing(plan, r, "kernel_smoothed")
    pref, gauss, kern = _kernel_parts(plan, x, y, r)
    return pref * gauss * kern


def kernel_smoothed_bound(plan, x, y, r=None):
    """(lhs, rhs) of the smoothed-kernel majorization: the modulus of the
    y-Gaussian times the kernel factor against

        exp(2 r^2 (1-r^2) cos^2(a) |x|^2 / ((r^4 - 2 r^2 cos 2a + 1)(r^2+1))).
    """
    r = _smoothing(plan, r, "kernel_smoothed_bound")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    a = plan.alpha
    zscale, gcoef, _ = _mehler_form(plan, r)
    kern = dunkl_kernel_prod(plan.mult, zscale * x, y, u_max=U_MAX_KERNEL)
    gauss = np.exp(-gcoef * np.sum(y * y, axis=-1))
    lhs = np.abs(gauss * kern)
    xsq = np.sum(x * x, axis=-1)
    dd = r**4 - 2.0 * r * r * math.cos(2.0 * a) + 1.0
    rhs = np.exp(2.0 * r * r * (1.0 - r * r) * math.cos(a) ** 2 * xsq / (dd * (r * r + 1.0)))
    return lhs, rhs


def kernel_spectral(plan, x, y, r=None, M=None):
    """Truncated eigen-sum sum_{|nu| <= M} r^|nu| e^{i |nu| a} h_nu(x) h_nu(y)."""
    r = plan.r if r is None else float(r)
    if not (0.0 < r <= 1.0):
        raise UsageError(f"kernel_spectral needs 0 < r <= 1, got {r!r}")
    basis = plan.basis if M is None else HermiteBasis(plan.mult, M)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    out = np.zeros(np.broadcast(x[..., 0], y[..., 0]).shape, dtype=complex)
    for nu in basis.indices:
        n = sum(nu)
        out = out + (r**n) * cmath.exp(1j * n * plan.alpha) * basis.eval_index(
            nu, x
        ) * basis.eval_index(nu, y)
    return out


# ---------------------------------------------------------------------------
# spectral route


@dataclass
class SpectralTransform:
    """Result of the spectral route: the phased coefficients (the primary
    artifact) plus a reconstructing evaluator and resolution diagnostics."""

    expansion: HermiteExpansion
    base_coefficients: np.ndarray
    alpha: float
    smoothing: float
    input_norm_sq: float

    def __call__(self, x):
        return self.expansion(x)

    @property
    def coefficients(self):
        return self.expansion.coeffs

    @property
    def indices(self):
        return self.expansion.basis.indices

    def norm_l2(self):
        return self.expansion.norm_l2()

    @property
    def parseval_slack(self):
        """sum |c_nu|^2 - |f|_2^2; positive values beyond quadrature noise
        indicate an inconsistent expansion."""
        return float(np.sum(np.abs(self.base_coefficients) ** 2) - self.input_norm_sq)

    @property
    def tail_mass(self):
        """Coefficient mass at the top retained degree, for detecting
        underresolution."""
        basis = self.expansion.basis
        return self.expansion.degree_mass(basis.max_degree)


def hermite_expand(f, plan):
    """Coefficients <f, h_nu> for |nu| <= plan.M by tensor quadrature; the
    weighted analysis matrices are kept in the plan's operator cache."""
    grid = plan.grid
    basis = plan.basis
    fvals = grid.values(f).astype(complex)
    tensor = grid.to_tensor(fvals)

    def build():
        return [
            basis.axis_matrix(j, grid.axes_nodes[j]) * grid.axes_weights[j][None, :]
            for j in range(grid.dim)
        ]

    full = _contract_grid(plan._operators.get(("analysis",), build), tensor)
    coeffs = np.array([full[nu] for nu in basis.indices], dtype=complex)
    return HermiteExpansion(basis, coeffs)


def fdt_spectral(f, plan, r=None):
    """Spectral fractional Dunkl transform: coefficients e^{i|nu|a} <f, h_nu>
    times r^|nu| (r defaults to plan.r) plus the reconstructing expansion."""
    r = plan.r if r is None else float(r)
    if not (0.0 < r <= 1.0):
        raise UsageError(f"smoothing must lie in (0, 1], got {r!r}")
    fvals = plan.grid.values(f)
    base = hermite_expand(fvals, plan)
    norm_sq = float(plan.grid.norm_l2(fvals) ** 2)
    phased = base.map_coeffs(lambda n, c: (r**n) * cmath.exp(1j * n * plan.alpha) * c)
    return SpectralTransform(
        expansion=phased,
        base_coefficients=base.coeffs,
        alpha=plan.alpha,
        smoothing=r,
        input_norm_sq=norm_sq,
    )


# ---------------------------------------------------------------------------
# integral route


def _contract_grid(mats, tensor):
    """Apply per-axis matrices to a tensor: out[a1..aN] = sum M1[a1,b1]...F[b..]."""
    out = tensor
    for j in range(len(mats)):
        out = np.tensordot(mats[j], out, axes=(1, j))
    return np.transpose(out, axes=tuple(reversed(range(len(mats)))))


def _contract_points(mats, tensor):
    """out[z] = sum_b prod_j M_j[z, b_j] F[b1..bN] for per-point matrices."""
    n = len(mats)
    if n == 1:
        return mats[0] @ tensor
    letters = "abcdefgh"[:n]
    parts = ",".join("z" + letter for letter in letters)
    return np.einsum(f"{parts},{letters}->z", *mats, tensor, optimize=True)


def _axis_matrices(plan, per_axis_outputs, r):
    """Per-axis factors exp(-gcoef (x^2+y^2)) K_nu(zscale x, y) w(y) of the Mehler
    kernel at smoothing r against the grid, and its prefactor.

    Each axis is built once per distinct |x|, the orbit representatives of
    the reflection x -> -x, and kept in the plan's operator cache under (r,
    the bytes of each output axis).  A call gathers its rows in one take;
    the row for x < 0 is the |x| row with its columns reversed.  That is
    bit-identical to a per-point build:

    - the grid axis and its weights are mirror images by construction
      (see ``QuadGrid``), so reversing the columns maps y to -y exactly;
    - K_nu depends on (x, y) only through u = zscale x y, which flips sign
      exactly, and jhat_nu sees u only through u^2; the phase sees only x^2
      and y^2;
    - each Bessel value depends only on its own argument.
    """
    zscale, gcoef, pref = _mehler_form(plan, r)
    coords = [np.asarray(c, dtype=float) for c in per_axis_outputs]

    def build():
        halves, gathers = [], []
        for j, order in enumerate(plan.mult.orders):
            xa, rows = np.unique(np.abs(coords[j]), return_inverse=True)
            xk = xa[:, None]
            yk = plan.grid.axes_nodes[j][None, :]
            kern = dunkl_kernel_1d(order, zscale * xk, yk, u_max=U_MAX_KERNEL)
            phase = np.exp(-gcoef * (xk * xk + yk * yk))
            halves.append(kern * phase * plan.grid.axes_weights[j][None, :])
            gathers.append(rows + (coords[j] < 0) * len(xa))
        return halves + gathers

    key = ("kernel", r) + tuple(c.tobytes() for c in coords)
    entry = plan._operators.get(key, build)
    dim = len(coords)
    mats = [
        np.concatenate([half, half[:, ::-1]])[rows]
        for half, rows in zip(entry[:dim], entry[dim:])
    ]
    return mats, pref


def _kernel_transform(f, plan, xs, r):
    """pref * integral K(r, x, y) f(y) w_k(y) dy on the plan grid, at the
    points xs (shape (m, N)), or at every grid node (flattened) when xs is
    None, using the tensor structure of both grids."""
    tensor = plan.grid.to_tensor(plan.grid.values(f).astype(complex))
    if xs is None:
        mats, pref = _axis_matrices(plan, list(plan.grid.axes_nodes), r)
        return (pref * _contract_grid(mats, tensor)).ravel()
    mats, pref = _axis_matrices(plan, [xs[:, j] for j in range(plan.mult.dim)], r)
    return pref * _contract_points(mats, tensor)


def fdt_integral(f, plan, xs):
    """Integral-route transform D_k^a f(x) = A_a * integral f(y) K_a(x,y) w_k(y) dy
    at output points xs (shape (m, N)).

    Requires the generic regime; near alpha in pi*Z the kernel frequency
    outruns any fixed grid and the call refuses, pointing at the spectral
    route.  No Bessel ceiling applies: |K_a| <= 1, so the grid's resolution,
    not the Bessel range, is the binding constraint on this route.
    """
    _require_kernel_regime(plan, "fdt_integral")
    return _kernel_transform(f, plan, _as_points(xs, plan.mult.dim), 1.0)


def fdt_integral_on_grid(f, plan):
    """Integral-route transform evaluated at every grid node (flattened)."""
    _require_kernel_regime(plan, "fdt_integral")
    return _kernel_transform(f, plan, None, 1.0)


def fdt_smoothed(f, plan, xs, r=None):
    """Smoothed transform D_{k,r}^a f(x) = integral K_a(r,x,y) f(y) w_k(y) dy
    via the Mehler closed form (0 < r < 1)."""
    _require_kernel_regime(plan, "fdt_smoothed")
    r = _smoothing(plan, r, "fdt_smoothed")
    return _kernel_transform(f, plan, _as_points(xs, plan.mult.dim), r)


def fdt_smoothed_on_grid(f, plan, r=None):
    """Smoothed transform evaluated at every grid node (flattened)."""
    _require_kernel_regime(plan, "fdt_smoothed")
    return _kernel_transform(f, plan, None, _smoothing(plan, r, "fdt_smoothed"))


# ---------------------------------------------------------------------------
# fractional Hankel / Bochner / Master


def fractional_hankel(psi, order, plan, x):
    """Fractional Hankel transform of a radial profile psi on [0, inf),

        H_nu^a psi(x) = 2 B_nu * integral_0^inf e^{-(i/2)(x^2+y^2) cot a}
                        j_nu(x y / sin a) psi(y) y^(2 nu + 1) dy,

    evaluated at radii x >= 0.  The y^(2 nu + 1) factor is folded into a
    220-node Gauss-Jacobi rule in t = y^2, so the rule is spectrally accurate
    for Gaussian-dominated psi.  The interval [0, box + 4] runs past the grid
    box because the radial integrand decays only like exp(-y^2/2).
    """
    _require_kernel_regime(plan, "fractional_hankel")
    if not isinstance(order, BesselOrder):
        order = BesselOrder(order)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(xs < 0):
        raise DomainError("fractional_hankel radii must be >= 0")
    length = plan.grid.box + 4.0
    t, wt = jacobi_halfline(220, order.nu, length * length)
    y = np.sqrt(t)
    wt = 0.5 * wt
    s = math.sin(plan.alpha)
    cot = math.cos(plan.alpha) / s
    psi_vals = np.asarray(psi(y), dtype=complex)
    kern = normalized_ibessel(order, 1j * xs[:, None] * y[None, :] / s, u_max=U_MAX_KERNEL)
    phase = np.exp(-0.5j * cot * (xs[:, None] ** 2 + y[None, :] ** 2))
    vals = 2.0 * plan.hankel_prefactor(order) * np.sum(
        kern * phase * (wt * psi_vals)[None, :], axis=1
    )
    if np.isscalar(x) or np.ndim(x) == 0:
        return complex(vals[0])
    return vals


def bochner_fdt(p, psi, plan, xs):
    """Bochner factorization: for Delta_k-harmonic homogeneous p of degree n
    and radial psi,

        D_k^a [p * psi(|.|)](x) = e^{i n a} p(x) H^a_{n + gamma + N/2 - 1} psi(|x|).

    The harmonicity of p is verified exactly before use.
    """
    if plan.mult.dim < 2:
        raise UsageError("the Bochner factorization is exercised for N >= 2")
    if not isinstance(p, MultiPoly) or p.dim != plan.mult.dim:
        raise UsageError("p must be a MultiPoly of matching dimension")
    n = p.homogeneous_degree()
    if n is None:
        raise UsageError("p must be homogeneous")
    if not dunkl_laplacian(p, plan.mult).is_zero:
        raise UsageError("p must be Dunkl-harmonic (Delta_k p = 0), exactly")
    xs = _as_points(xs, plan.mult.dim)
    radii = np.sqrt(np.sum(xs * xs, axis=-1))
    order = BesselOrder(n + plan.mult.lambda_index)
    hank = fractional_hankel(psi, order, plan, radii)
    return cmath.exp(1j * n * plan.alpha) * p(xs) * hank


def master_formula_rhs(p, plan, xs):
    """Exact right-hand side of the master formula,

        e^{i n a} e^{-|x|^2/2} (e^{-Delta_k/4} p)(x),

    for homogeneous p of degree n (heat exponential taken exactly)."""
    if not isinstance(p, MultiPoly) or p.dim != plan.mult.dim:
        raise UsageError("p must be a MultiPoly of matching dimension")
    n = p.homogeneous_degree()
    if n is None:
        raise UsageError("p must be homogeneous")
    xs = _as_points(xs, plan.mult.dim)
    reg = heat_exp_poly(p, Fraction(-1, 4), plan.mult)
    return (
        cmath.exp(1j * n * plan.alpha)
        * np.exp(-0.5 * np.sum(xs * xs, axis=-1))
        * reg(xs)
    )


def master_formula_lhs_input(p, mult):
    """The function e^{-|y|^2/2} (e^{-Delta_k/4} p)(y) fed to the transform
    on the left-hand side of the master formula."""
    return GaussPoly(heat_exp_poly(p, Fraction(-1, 4), mult))


def funk_hecke_radial(mult, x, circle):
    """Circle average (1/d_k) * integral_{S^1} K(ix, y) w_k(y) dsigma(y) for
    N = 2; equals j_lambda(|x|) with lambda = gamma + N/2 - 1.

    Uses the same uniform rule for d_k and the numerator so the algebraic
    cusp of w_k cancels to first order.
    """
    if mult.dim != 2:
        raise UsageError("funk_hecke_radial is the N = 2 radial case")
    x = np.asarray(x, dtype=float)
    if x.shape != (2,):
        raise UsageError(f"x must be a 2-vector, got shape {x.shape}")
    pts = circle.points
    wk = mult.weight(pts)
    d_k = float(np.sum(circle.weights * wk))
    kern = dunkl_kernel_prod(mult, 1j * x, pts, u_max=U_MAX_KERNEL)
    return complex(np.sum(circle.weights * wk * kern) / d_k)


def radial_bessel(mult, radius):
    """j_lambda(radius) (the normalized Bessel function at the radial
    index), the right-hand side of the radial Funk-Hecke identity."""
    order = BesselOrder(mult.lambda_index)
    return normalized_ibessel(order, 1j * np.asarray(radius, dtype=float), u_max=U_MAX_KERNEL)


# ---------------------------------------------------------------------------
# Gaussian integral identities


def _quadratic_sum(v):
    v = np.asarray(v, dtype=complex)
    return complex(np.sum(v * v))


def gaussian_bilinear_check(mult, z, w, a_const, grid):
    """Residual of the bilinear Gaussian identity

        c_k * integral K(2z,x) K(2w,x) e^{-A|x|^2} w_k(x) dx
            = e^{(l(z)+l(w))/A} A^{-(gamma+N/2)} K(2z/A, w),

    with l(v) = sum v_j^2, for complex vectors z, w and Re(A) > 0."""
    a_const = complex(a_const)
    if a_const.real <= 0:
        raise DomainError(f"need Re(A) > 0, got {a_const!r}")
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    if z.shape != (mult.dim,) or w.shape != (mult.dim,):
        raise UsageError("z and w must be N-vectors")
    kern = dunkl_kernel_prod(mult, 2.0 * z, grid.nodes, u_max=U_MAX_KERNEL)
    kern = kern * dunkl_kernel_prod(mult, 2.0 * w, grid.nodes, u_max=U_MAX_KERNEL)
    gauss = np.exp(-a_const * np.sum(grid.nodes**2, axis=-1))
    lhs = mult.mehta_constant * np.sum(grid.weights * kern * gauss)
    rhs = cmath.exp((_quadratic_sum(z) + _quadratic_sum(w)) / a_const) * a_const ** (
        -(mult.gamma_index + 0.5 * mult.dim)
    )
    rhs = rhs * dunkl_kernel_prod(mult, 2.0 * z / a_const, w, u_max=U_MAX_KERNEL)
    return abs(lhs - rhs)


def gaussian_moment_check(p, mult, omega, xs, grid):
    """Residual of the Gaussian moment identity for homogeneous p
    of degree n:

        c_k * integral p(y) K(x, 2y) e^{-omega |y|^2} w_k(y) dy
            = e^{l(x)/omega} omega^{-(gamma+n+N/2)} (e^{(omega/4) Delta_k} p)(x),

    with l(x) = sum x_j^2 and Re(omega) > 0."""
    omega = complex(omega)
    if omega.real <= 0:
        raise DomainError(f"need Re(omega) > 0, got {omega!r}")
    if not isinstance(p, MultiPoly) or p.dim != mult.dim:
        raise UsageError("p must be a MultiPoly of matching dimension")
    n = p.homogeneous_degree()
    if n is None:
        raise UsageError("p must be homogeneous")
    xs = np.asarray(xs, dtype=float)
    if xs.shape != (mult.dim,):
        raise UsageError("x must be an N-vector")
    kern = dunkl_kernel_prod(mult, 2.0 * xs, grid.nodes, u_max=U_MAX_KERNEL)
    pvals = p(grid.nodes)
    gauss = np.exp(-omega * np.sum(grid.nodes**2, axis=-1))
    lhs = mult.mehta_constant * np.sum(grid.weights * pvals * kern * gauss)
    heated = heat_exp_poly(p, omega / 4.0, mult)
    rhs = (
        cmath.exp(complex(np.sum(xs * xs)) / omega)
        * omega ** (-(mult.gamma_index + n + 0.5 * mult.dim))
        * complex(heated(xs[None, :])[0])
    )
    return abs(lhs - rhs)
