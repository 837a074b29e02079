"""The fractional Dunkl transform by three cross-validating routes.

Spectral route: phase-weighted Hermite expansion (the definition).
Integral route: oscillatory kernel against the weighted measure.
Smoothed route: closed-form Mehler kernel of the regularized transform.
The integral kernel is the Mehler kernel at r = 1, so both routes share one
kernel builder.

Also here: the fractional Hankel reduction, the Bochner factorization, the
Master / Hecke formulas and the radial Funk-Hecke check.
"""

from __future__ import annotations

import cmath
import math
import threading
from collections import OrderedDict, namedtuple
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import DomainError, RangeError, UsageError
from .polyengine import (
    GaussPoly,
    HermiteBasis,
    HermiteExpansion,
    MultiPoly,
    _pointwise_sum,
    dunkl_laplacian,
    heat_exp_poly,
)
from .quadrature import QuadGrid, build_grid, sphere_rule
from .specfun import (
    BesselOrder,
    Multiplicity,
    _kernel_even_odd,
    dunkl_kernel_prod,
    normalized_ibessel,
)

REGIME_IDENTITY = "identity"
REGIME_PARITY = "parity"
REGIME_GENERIC = "generic"
REGIME_NEAR_SINGULAR = "near-singular"

DEFAULT_S_MIN = 0.05
# Points per half-axis of the fractional Hankel grid: at 120 a Laguerre
# eigenfunction at |sin a| = 0.3, radius 4 errs by 1.5e-9; at 160, 1.1e-12.
HANKEL_NODES = 160
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
    spectral truncation M, quadrature grid and the integral prefactor.  The
    smoothing r is not the order's: each call that smooths takes its own.

    The Hermite basis is built lazily.  The plan also holds a bounded
    cache of the operators it prepares, filled by the first call that needs
    each one:

    - the kernel routes' entries, one per (r, input basis, outputs) under
      "kernel": each axis's kernel rows of ``_point_rows`` for a sampled
      input, or those rows applied to the synthesis table of an
      expansion's basis (see ``_kernel_tables``);
    - the Hermite analysis matrices of ``hermite_expand``'s quadrature;
    - the axis of each fractional Hankel grid per (nu, interval), and the
      basis's Gram residual.

    Its bookkeeping is locked and the cached arrays are read-only, so a
    plan stays safe to share between threads.
    """

    def __init__(self, mult, alpha, grid=None, M=None, s_min=DEFAULT_S_MIN):
        self.mult = mult
        self.s_min = float(s_min)
        self.alpha, self.regime = normalize_alpha(alpha, self.s_min)
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

        None in the identity/parity regimes where no integral kernel exists;
        a scale that underflows to 0 is refused with a RangeError.
        """
        s = math.sin(self.alpha)
        if s == 0.0 or self.regime in (REGIME_IDENTITY, REGIME_PARITY):
            return None
        g = self.order_exponent
        scale = (2.0 * abs(s)) ** g
        if scale == 0.0:
            raise RangeError(f"prefactor A_alpha overflows at |sin alpha| = {abs(s):.3g}")
        phase = cmath.exp(1j * g * (math.copysign(math.pi / 2.0, s) - self.alpha))
        return self.mult.mehta_constant * phase / scale

    def with_alpha(self, alpha):
        plan = TransformPlan(self.mult, alpha, grid=self.grid, M=self.M, s_min=self.s_min)
        plan._basis = self._basis
        return plan


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


def _require_finite(op, *points):
    """Refuse a NaN or infinite coordinate before any table or Bessel value."""
    if not all(np.all(np.isfinite(p)) for p in points):
        raise DomainError(f"{op}: points must be finite")


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


def _smoothing(r, op, upto_one=False):
    """r as a float, which must lie in (0, 1), or in (0, 1] when ``upto_one``."""
    r = float(r)
    if not (0.0 < r < 1.0 or (upto_one and r == 1.0)):
        raise UsageError(f"{op} needs 0 < r {'<=' if upto_one else '<'} 1, got {r!r}")
    return r


def _out_of_range(route, coordinate, value, what="kernel row"):
    return RangeError(
        f"{route} route: {coordinate} = {value!r} is out of range: "
        f"its {what} is not finite in double precision"
    )


def _kernel_value(plan, x, y, r):
    """K_a(r,x,y) pointwise: kern * gauss at r = 1 (the integral kernel, whose
    prefactor A_a stays outside), pref * gauss * kern for 0 < r < 1.

    A pair so large that its value is not finite (|x|^2 overflows in the
    Gaussian, or a Bessel value overflows where the Gaussian underflows) is
    refused with a RangeError naming the pair's largest coordinate.
    """
    _require_finite("kernel_alpha" if r == 1.0 else "kernel_smoothed", x, y)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    zscale, gcoef, pref = _mehler_form(plan, r)
    with np.errstate(over="ignore", invalid="ignore"):
        kern = dunkl_kernel_prod(plan.mult, zscale * x, y)
        gauss = np.exp(-gcoef * (np.sum(x * x, axis=-1) + np.sum(y * y, axis=-1)))
        value = kern * gauss if r == 1.0 else pref * gauss * kern
    _refuse_nonfinite_pairs(plan, x, y, np.isfinite(value), r)
    return value


def _refuse_nonfinite_pairs(plan, x, y, finite, r):
    """Raise a RangeError naming the largest coordinate of the first (x, y)
    pair whose entry of ``finite`` (shaped like the broadcast pairs) is False."""
    bad = ~finite.ravel()
    if bad.any():
        dim = plan.mult.dim
        pairs = np.concatenate(np.broadcast_arrays(x, y), axis=-1).reshape(-1, 2 * dim)
        pair = pairs[np.argmax(bad)]
        k = int(np.argmax(np.abs(pair)))
        name = f"x{k}" if k < dim else f"y{k - dim}"
        route = "integral" if r == 1.0 else "smoothed"
        raise _out_of_range(route, f"kernel coordinate {name}", float(pair[k]), "kernel value")


def kernel_alpha(plan, x, y):
    """Integral kernel K_alpha(x, y) = e^{-(i/2) cot(a) (|x|^2+|y|^2)} K(ix/sin a, y).

    Defined whenever sin(alpha) != 0; |K_alpha| <= 1 pointwise.  This is the
    Mehler kernel at r = 1 without its prefactor A_alpha.
    """
    _require_kernel_regime(plan, "kernel_alpha", reject_near_singular=False)
    return _kernel_value(plan, x, y, 1.0)


def kernel_smoothed(plan, x, y, r):
    """Mehler closed form of the smoothed kernel,

        K_a(r,x,y) = c_k (1 - r^2 e^{2ia})^{-(gamma+N/2)}
                     exp(-(1 + r^2 e^{2ia})(|x|^2+|y|^2) / (2 (1 - r^2 e^{2ia})))
                     K(2 r e^{ia} x / (1 - r^2 e^{2ia}), y),

    finite for every alpha including 0 and pi.  Principal branch of the
    power (safe: Re(1 - r^2 e^{2ia}) >= 1 - r^2 > 0 for r < 1).
    """
    return _kernel_value(plan, x, y, _smoothing(r, "kernel_smoothed"))


def kernel_smoothed_bound(plan, x, y, r):
    """(lhs, rhs) of the smoothed-kernel majorization: the modulus of the
    y-Gaussian times the kernel factor against

        exp(2 r^2 (1-r^2) cos^2(a) |x|^2 / ((r^4 - 2 r^2 cos 2a + 1)(r^2+1))).

    A pair for which either side is not finite is refused like a kernel
    value (see ``_kernel_value``).
    """
    r = _smoothing(r, "kernel_smoothed_bound")
    _require_finite("kernel_smoothed_bound", x, y)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    a = plan.alpha
    zscale, gcoef, _ = _mehler_form(plan, r)
    with np.errstate(over="ignore", invalid="ignore"):
        kern = dunkl_kernel_prod(plan.mult, zscale * x, y)
        gauss = np.exp(-gcoef * np.sum(y * y, axis=-1))
        lhs = np.abs(gauss * kern)
        xsq = np.sum(x * x, axis=-1)
        dd = r**4 - 2.0 * r * r * math.cos(2.0 * a) + 1.0
        rhs = np.exp(2.0 * r * r * (1.0 - r * r) * math.cos(a) ** 2 * xsq / (dd * (r * r + 1.0)))
    _refuse_nonfinite_pairs(plan, x, y, np.isfinite(lhs) & np.isfinite(rhs), r)
    return lhs, rhs


def kernel_spectral(plan, x, y, r=1.0):
    """Truncated eigen-sum sum_{|nu| <= plan.M} r^|nu| e^{i |nu| a} h_nu(x) h_nu(y), summed
    like ``HermiteExpansion.__call__``: ``_pointwise_sum`` of the phased block over the
    per-axis tables h_k(x_j) h_k(y_j) of the broadcast pairs, each pair on its own."""
    r = _smoothing(r, "kernel_spectral", upto_one=True)
    _require_finite("kernel_spectral", x, y)
    basis = plan.basis
    x, y = np.broadcast_arrays(x, y)
    block = HermiteExpansion(basis, np.ones(basis.size)).scale_degrees(_degree_phases(plan, r))
    block = block.coefficient_block()
    tables = [
        basis.axis_matrix(j, x[..., j].ravel(), d) * basis.axis_matrix(j, y[..., j].ravel(), d)
        for j, d in enumerate(block.shape)
    ]
    out = np.empty(x[..., 0].size, dtype=complex)
    out.real, out.imag = _pointwise_sum(np.stack([block.real, block.imag]), tables)
    return out.reshape(x.shape[:-1])[()]


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
    plan: TransformPlan = field(repr=False, compare=False)

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

    @property
    def gram_residual(self):
        """How far the grid's rule is from keeping the basis orthonormal: the
        plan's ``HermiteBasis.gram_residual``, kept in its operator cache.  It
        bounds the analysis of a sampled input only; an expansion in the
        plan's multiplicity is copied exactly."""
        plan = self.plan
        entry = plan._operators.get(("gram",), lambda: [np.array(plan.basis.gram_residual(plan.grid))])
        return float(entry[0])


def _grid_tensor(f, plan):
    """f's values on the plan grid (``QuadGrid.values``) as a complex tensor:
    the input of ``hermite_expand``'s quadrature, and of the kernel routes'
    for every input but a Hermite expansion (see ``_kernel_transform``)."""
    grid = plan.grid
    return grid.to_tensor(np.asarray(grid.values(f), dtype=complex))


def _in_plan_basis(f, plan):
    return isinstance(f, HermiteExpansion) and f.basis.mult.mu_exact == plan.mult.mu_exact


def hermite_expand(f, plan):
    """Coefficients <f, h_nu> for |nu| <= plan.M.  An expansion in the plan's
    multiplicity has them: the basis order is graded, so they are copied,
    truncated or zero-padded.  Any other input is analysed by quadrature of
    ``_grid_tensor(f, plan)``, with the plan caching the analysis matrices."""
    basis = plan.basis
    if _in_plan_basis(f, plan):
        coeffs = np.zeros(basis.size, dtype=complex)
        coeffs[: f.basis.size] = f.coeffs[: basis.size]
        return HermiteExpansion(basis, coeffs)
    grid = plan.grid

    def build():
        return [
            basis.axis_matrix(j, grid.axes_nodes[j]) * grid.axes_weights[j][None, :]
            for j in range(grid.dim)
        ]

    full = _contract_grid(plan._operators.get(("analysis",), build), _grid_tensor(f, plan))
    return HermiteExpansion(basis, full[tuple(basis._index_array.T)])


def _degree_phases(plan, r):
    """r^n e^{i n a} for n = 0..plan.M, the spectral factor of total degree n."""
    return [(r**n) * cmath.exp(1j * n * plan.alpha) for n in range(plan.M + 1)]


def fdt_spectral(f, plan, r=1.0):
    """Spectral fractional Dunkl transform: coefficients e^{i|nu|a} <f, h_nu>
    times r^|nu|, 0 < r <= 1, plus the reconstructing expansion.  The input
    norm of an expansion in the plan's multiplicity is sum |c_nu|^2, so its
    ``parseval_slack`` is minus the mass dropped above plan.M (0.0 if none);
    any other input's grid values give both the expansion and the norm."""
    r = _smoothing(r, "fdt_spectral", upto_one=True)
    if _in_plan_basis(f, plan):
        base = hermite_expand(f, plan)
        above = f.coeffs[f.basis.degrees > plan.M]
        norm_sq = float(np.sum(np.abs(base.coeffs) ** 2) + np.sum(np.abs(above) ** 2))
    else:
        fvals = _grid_tensor(f, plan).ravel()
        base = hermite_expand(fvals, plan)
        norm_sq = float(plan.grid.norm_l2(fvals) ** 2)
    phased = base.scale_degrees(_degree_phases(plan, r))
    return SpectralTransform(
        expansion=phased,
        base_coefficients=base.coeffs,
        alpha=plan.alpha,
        smoothing=r,
        input_norm_sq=norm_sq,
        plan=plan,
    )


# ---------------------------------------------------------------------------
# integral route


def _contract_grid(mats, tensor):
    """Apply one matrix per axis to a tensor: out[a1..aN] = sum M1[a1,b1]...F[b..].

    Each step is the product ``np.tensordot(mat, out, axes=(1, j))`` forms,
    bit for bit, without its argument handling.
    """
    out = tensor
    for j, mat in enumerate(mats):
        moved = out.transpose((j,) + tuple(i for i in range(out.ndim) if i != j))
        out = np.dot(mat, moved.reshape(mat.shape[1], -1)).reshape(mat.shape[:1] + moved.shape[1:])
    return out.T


def _contract_points(mats, tensor):
    """out[z] = sum_b prod_j M_j[z, b_j] F[b1..bN] for per-point matrices:
    the first axis by one product over the flattened others, then each
    further axis point by point."""
    first = mats[0]
    if len(mats) == 1:
        return first @ tensor
    out = np.dot(first, tensor.reshape(len(tensor), -1)).reshape(first.shape[:1] + tensor.shape[1:])
    for mat in mats[1:]:
        out = np.einsum("zb...,zb->z...", out, mat)
    return out


def _axis_factor(plan, j, x, r):
    """The Mehler kernel's factor on axis j at smoothing r, split by the
    reflection y -> -y: (E, O, rows), with E = even phase w and O = odd
    phase w.  even and odd are the parts of K_nu(zscale x, y) from
    ``_kernel_even_odd``, phase is exp(-gcoef (x^2+y^2)) and w the weights;
    E and O on axis 0 also carry the kernel's prefactor.

    This is the only place a kernel axis factor is evaluated.  The rows are
    the distinct |x| of the output coordinates x, in increasing order
    (rows[i] is that of x[i]), and the columns the y > 0 half of the grid
    axis, ``axes_nodes[j][n:]``.  That is all of the factor, bit for bit:
    the axis and its weights are mirror images (see ``QuadGrid``), K_nu
    sees (x, y) only through u = zscale x y, whose sign flips exactly, its
    even part sees u only through u^2, and the phase only x^2 and y^2; so
    for x >= 0, K(x, y) w is E + O at y > 0 and the mirrored E - O at
    y < 0, and the other way round for x < 0.  A coordinate so large that
    its row is not finite in double precision (x^2 overflows in the phase,
    or a Bessel value overflows where the Gaussian underflows) is refused
    with a RangeError naming the first coordinate of x with the smallest
    such |x|.
    """
    zscale, gcoef, pref = _mehler_form(plan, r)
    n = plan.grid.points_per_axis
    xa, rows = np.unique(np.abs(x), return_inverse=True)
    xk = xa[:, None]
    yk = plan.grid.axes_nodes[j][None, n:]
    u = np.asarray(zscale * xk, dtype=complex) * np.asarray(yk, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        even, odd = _kernel_even_odd(plan.mult.orders[j], u)
        phase = np.exp(-gcoef * (xk * xk + yk * yk))
        wk = plan.grid.axes_weights[j][None, n:]
        weighted = phase * wk if j else pref * phase * wk
        even, odd = even * weighted, odd * weighted
    finite = np.all(np.isfinite(even) & np.isfinite(odd), axis=1)
    if not finite.all():
        route = "integral" if r == 1.0 else "smoothed"
        bad = x[np.abs(x) == xa[~finite][0]][0]
        raise _out_of_range(route, f"output coordinate x{j}", float(bad))
    return even, odd, rows


def _kernel_tables(plan, r, xs=None, basis=None):
    """The plan's kernel entry at smoothing r, for the output points xs (the
    grid when None) and an input in ``basis`` (a sampled one when None).  On
    each axis the ``_point_rows`` table of the output coordinates (the
    axis's own nodes for grid outputs) meets what the input contributes:
    the identity for a sampled input, the synthesis table h_k(y_j) of the
    basis (made here and dropped) for an expansion.  Grid outputs keep each
    axis's table gathered into grid order, one matrix per axis; so does an
    expansion at N = 1 at points.  Other point outputs keep each axis's
    table, one row per distinct signed coordinate, then each axis's gather.
    """
    grid = plan.grid
    tables, gathers = [], []
    for j in range(plan.mult.dim):
        nodes = grid.axes_nodes[j]
        table, rows = _point_rows(plan, j, nodes if xs is None else xs[:, j], r)
        tables.append(table if basis is None else table @ basis.axis_matrix(j, nodes).T)
        gathers.append(rows)
    if xs is None or (basis is not None and plan.mult.dim == 1):
        return [table[rows] for table, rows in zip(tables, gathers)]
    return tables + gathers


def _point_rows(plan, j, x, r):
    """(table, rows): the full-axis rows of axis j's factor, one per
    distinct signed coordinate of x, [reversed E - O | E + O] for x >= 0
    and [reversed E + O | E - O] for x < 0; rows[i] is that of x[i]."""
    even, odd, rows = _axis_factor(plan, j, x, r)
    signed, rows = np.unique(2 * rows + (x < 0), return_inverse=True)
    even, odd = even[signed // 2], odd[signed // 2]
    plus, minus = even + odd, even - odd
    neg = (signed % 2 == 1)[:, None]
    table = np.concatenate([np.where(neg, plus, minus)[:, ::-1], np.where(neg, minus, plus)], axis=1)
    return table, rows


def _kernel_transform(f, plan, xs, r):
    """pref * integral K(r, x, y) f(y) w_k(y) dy on the plan grid, at the
    points xs (shape (m, N)), or at every grid node (flattened) when xs is
    None, from the full-axis kernel rows of ``_point_rows``.

    The input is decided once: a Hermite expansion of the grid's dimension
    is separable like the kernel and enters as its coefficient block, any
    other input as its grid tensor (``_grid_tensor``).  The plan keeps the
    ``_kernel_tables`` entry per (r, the expansion's (mu, max_degree) or
    None, the bytes of each output axis or "grid"), and a call contracts it
    with the input: ``_contract_grid`` of each axis's matrix, trimmed to the
    block's degrees for an expansion, on the grid, ``_contract_points`` of
    the gathered rows for points.  The grid product runs last axis first,
    so its result is C-contiguous in the grid's axis order and the
    flattened output is written once, not copied out of a transposed view.
    At N = 1 the basis order is the degree order: the block is the
    coefficients up to the last nonzero one, the entry one (outputs x
    degrees) matrix, and a call one product, ``@`` (the contractions'
    zgemv, without ``np.dot``'s copy of the columns), or ``np.dot`` as in
    ``_contract_grid`` for one term on the grid, where the two round
    differently.
    """
    dim = plan.mult.dim
    basis = f.basis if isinstance(f, HermiteExpansion) and f.basis.dim == dim else None
    if basis is not None and dim == 1:
        live = f.coeffs.nonzero()[0]
        tensor = f.coeffs[: live[-1] + 1 if live.size else 0]
    else:
        tensor = _grid_tensor(f, plan) if basis is None else f.coefficient_block()
    source = None if basis is None else (basis.mult.mu, basis.max_degree)
    outputs = ("grid",) if xs is None else tuple(xs[:, j].tobytes() for j in range(dim))
    entry = plan._operators.get(
        ("kernel", r, source) + outputs, lambda: _kernel_tables(plan, r, xs, basis)
    )
    if basis is not None and dim == 1:
        product = np.dot if xs is None and len(tensor) == 1 else np.matmul
        return product(entry[0][:, : len(tensor)], tensor)
    if xs is not None:
        rows = zip(entry[:dim], entry[dim:], tensor.shape)
        return _contract_points([t[gather, :d] for t, gather, d in rows], tensor)
    mats = [t[:, :d] for t, d in zip(entry, tensor.shape)]
    return _contract_grid(mats[::-1], tensor.T).T.ravel()


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


def fdt_smoothed(f, plan, xs, r):
    """Smoothed transform D_{k,r}^a f(x) = integral K_a(r,x,y) f(y) w_k(y) dy
    via the Mehler closed form (0 < r < 1)."""
    _require_kernel_regime(plan, "fdt_smoothed")
    r = _smoothing(r, "fdt_smoothed")
    return _kernel_transform(f, plan, _as_points(xs, plan.mult.dim), r)


def fdt_smoothed_on_grid(f, plan, r):
    """Smoothed transform evaluated at every grid node (flattened)."""
    _require_kernel_regime(plan, "fdt_smoothed")
    return _kernel_transform(f, plan, None, _smoothing(r, "fdt_smoothed"))


# ---------------------------------------------------------------------------
# fractional Hankel / Bochner / Master


def fractional_hankel(psi, order, plan, x):
    """Fractional Hankel transform of a radial profile psi on [0, inf),

        H_nu^a psi(x) = 2 B_nu * integral_0^inf e^{-(i/2)(x^2+y^2) cot a}
                        j_nu(x y / sin a) psi(y) y^(2 nu + 1) dy,

    at radii x >= 0: the rank-one integral route at mu = nu + 1/2, where
    A_alpha is B_nu, on the even extension psi(|y|), exact on the mirrored
    axis.  Its grid, HANKEL_NODES points per half-axis on [-(box + 4), box + 4],
    runs past the plan's box because the radial integrand decays only like
    exp(-y^2/2); the plan keeps its axis per (nu, interval).  psi must give
    one value per node, as ``QuadGrid.values`` asks, and a radius whose
    kernel row is not finite is refused with a RangeError naming it.
    """
    _require_kernel_regime(plan, "fractional_hankel")
    nu = (order if isinstance(order, BesselOrder) else BesselOrder(order)).nu
    radii = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(radii < 0):
        raise DomainError("fractional_hankel radii must be >= 0")
    mult = Multiplicity([nu + 0.5])
    length = plan.grid.box + 4.0

    def build():
        grid = build_grid(mult, length, n=HANKEL_NODES)
        return [grid.axes_nodes[0], grid.axes_weights[0]]

    nodes, weights = plan._operators.get(("hankel_grid", nu, length), build)
    grid = QuadGrid(mult=mult, box=length, axes_nodes=(nodes,), axes_weights=(weights,))
    radial = TransformPlan(mult, plan.alpha, grid, M=0, s_min=plan.s_min)
    vals = fdt_integral(lambda p: psi(np.abs(p[:, 0])), radial, radii[:, None])
    return complex(vals[0]) if np.ndim(x) == 0 else vals


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


def funk_hecke_radial(mult, x):
    """Sphere average (1/d_k) * integral_{S^(N-1)} K(ix, y) w_k(y) dsigma(y);
    equals j_lambda(|x|) with lambda = gamma + N/2 - 1.

    Summed over ``sphere_rule``, exact for w_k dsigma at every N, as
    sum W K(ix, y) / sum W.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (mult.dim,):
        raise UsageError(f"x must be a {mult.dim}-vector, got shape {x.shape}")
    _require_finite("funk_hecke_radial", x)
    points, weights = sphere_rule(mult)
    kern = dunkl_kernel_prod(mult, 1j * x, points)
    return complex(np.sum(weights * kern) / np.sum(weights))


def radial_bessel(mult, radius):
    """j_lambda(radius) (the normalized Bessel function at the radial
    index), the right-hand side of the radial Funk-Hecke identity."""
    order = BesselOrder(mult.lambda_index)
    return normalized_ibessel(order, 1j * np.asarray(radius, dtype=float))
