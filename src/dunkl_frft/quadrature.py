"""Deterministic quadrature for the weighted measure w_k(y) dy on R^N.

Grids are tensor products of half-axis Gauss-Jacobi rules (the weight
|y|^(2 mu_j) is folded into the node weights exactly, and the two half-axis
panels meet at the cusp without placing a node on it); a grid stores these
axes and builds its mesh on first use.  Every grid is validated at
construction against the Mehta integral.  The Funk-Hecke identity
integrates over the unit sphere with ``sphere_rule``, a product of
Gauss-Jacobi rules exact for w_k(y) dsigma(y) at every N.  ``circle_grid``,
the uniform-angle points of S^1 each of weight 1/n, stays as an independent
N = 2 reference, which converges only algebraically at the cusps of w_k.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special as _sp

from .errors import CalibrationError, DomainError, RangeError, UsageError
from .specfun import Multiplicity, gamma_fn

_CALIBRATION_RTOL = 1e-9


def gauss_legendre(n):
    """Gauss-Legendre nodes and weights on [-1, 1].

    Nodes/weights accurate to ~1e-14 (Golub-Welsch via numpy); the weights
    sum to 2 and the rule integrates x^k exactly for k <= 2n-1.
    """
    if not (1 <= n <= 512):
        raise RangeError(f"gauss_legendre supports 1 <= n <= 512, got {n}")
    return np.polynomial.legendre.leggauss(int(n))


def _gauss_jacobi(n, b, a=0.0):
    """Gauss-Jacobi rule on [-1, 1] for the weight (1 - x)^a (1 + x)^b, a, b > -1.

    The same Golub-Welsch computation as ``scipy.special.roots_jacobi(n, a,
    b)``, step for step: scipy's three-term recurrence, the eigenvalues of the
    symmetric tridiagonal Jacobi matrix, one Newton step on P_n and scipy's
    log-normalised weight formula.  The eigenvalues come from numpy's
    symmetric solver instead of ``scipy.linalg`` (both end in LAPACK's
    dsterf), so the rule costs no scipy.linalg import and equals scipy's bit
    for bit wherever a != b (at a == b scipy takes its Gegenbauer routine).
    At n = 1 scipy's banded solver returns 0 for the 1x1 matrix and the
    Newton step on the linear P_1 starts there; so does this one (starting
    from the matrix entry instead moves the node by up to 65 ulp).
    """
    if a + b <= 1000:
        mu0 = 2.0 ** (a + b + 1) * _sp.beta(a + 1, b + 1)
    else:
        mu0 = np.exp((a + b + 1) * np.log(2.0) + _sp.betaln(a + 1, b + 1))
    k = np.arange(n, dtype=float)
    # np.where drops the 0/0 of the branch it does not take: at a + b = 0 for
    # diag at k = 0, at a + b = -1 for off's last factor at k = 1.
    with np.errstate(invalid="ignore", divide="ignore"):
        diag = np.where(k == 0, (b - a) / (2 + a + b), (b * b - a * a) / ((2.0 * k + a + b) * (2.0 * k + a + b + 2)))
        k = k[1:]
        off = (
            2.0 / (2.0 * k + a + b)
            * np.sqrt((k + a) * (k + b) / (2 * k + a + b + 1))
            * np.where(k == 1, 1.0, np.sqrt(k * (k + a + b) / (2.0 * k + a + b - 1)))
        )
    if n == 1:
        x = np.zeros(1)
    else:
        x = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    dy = 0.5 * (n + a + b + 1) * _sp.eval_jacobi(n - 1, a + 1, b + 1, x)
    x -= _sp.eval_jacobi(n, a, b, x) / dy
    fm = _sp.eval_jacobi(n - 1, a, b, x)
    log_fm = np.log(np.abs(fm))
    log_dy = np.log(np.abs(dy))
    fm /= np.exp((log_fm.max() + log_fm.min()) / 2.0)
    dy /= np.exp((log_dy.max() + log_dy.min()) / 2.0)
    w = 1.0 / (fm * dy)
    w *= mu0 / w.sum()
    return x, w


def jacobi_halfline(n, exponent, length):
    """Nodes/weights for integral_0^length g(t) t^exponent dt, g smooth.

    Gauss-Jacobi rule with the algebraic endpoint factor t^exponent folded
    into the weights, so the cusp at 0 costs no accuracy.  exponent > -1.
    """
    if exponent <= -1.0:
        raise DomainError(f"jacobi_halfline needs exponent > -1, got {exponent}")
    if n < 1:
        raise DomainError("jacobi_halfline needs n >= 1")
    if exponent == 0.0:
        x, w = gauss_legendre(n)
    else:
        x, w = _gauss_jacobi(int(n), float(exponent))
    t = 0.5 * length * (x + 1.0)
    try:
        scale = (0.5 * length) ** (exponent + 1.0)
    except OverflowError:
        raise DomainError(f"jacobi_halfline: length {length} overflows the weights") from None
    return t, w * scale


@dataclass(frozen=True, eq=False)
class QuadGrid:
    """Tensor quadrature grid on [-L, L]^N with w_k folded into the weights.

    It stores only the per-axis rules ``axes_nodes[j]`` / ``axes_weights[j]``
    (weights already include |t|^(2 mu_j)).  ``nodes`` (npts, N) and
    ``weights`` (npts,), their flattened tensor product in row-major (first
    axis slowest) order, are built on first use and kept.  Summation is
    numpy's pairwise reduction, deterministic at a fixed thread count of 1.

    Every axis is mirror-symmetric by construction (``build_grid`` places
    the negative panel as the exact negated reverse of the positive one, and
    its weights as their reverse): ``axes_nodes[j][::-1] == -axes_nodes[j]``
    and ``axes_weights[j][::-1] == axes_weights[j]`` bit for bit.  The kernel
    routes rely on this to build only the |x| rows of each axis factor, and
    to take its Bessel values on the y > 0 half, ``axes_nodes[j][n:]`` with
    n = ``points_per_axis``.
    """

    mult: Multiplicity
    box: float
    axes_nodes: tuple = field(repr=False)
    axes_weights: tuple = field(repr=False)

    @property
    def dim(self):
        return self.mult.dim

    @property
    def shape(self):
        return tuple(len(t) for t in self.axes_nodes)

    @property
    def points_per_axis(self):
        return len(self.axes_nodes[0]) // 2

    @functools.cached_property
    def nodes(self):
        mesh = np.meshgrid(*self.axes_nodes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    @functools.cached_property
    def weights(self):
        return functools.reduce(np.multiply.outer, self.axes_weights).ravel()

    def values(self, f):
        """f's values on the flattened nodes: f itself when it is an array,
        else ``f(self.nodes)``.  Either way they must come as one value per
        node, shape (npts,); any other shape (a column, a scalar) would
        broadcast against the weights, and is refused."""
        npts = math.prod(self.shape)
        vals = f if isinstance(f, np.ndarray) else np.asarray(f(self.nodes))
        if vals.shape != (npts,):
            raise UsageError(f"value array has shape {vals.shape}, grid has {npts} nodes")
        return vals

    def norm_l2(self, f):
        vals = self.values(f)
        return math.sqrt(float(np.sum(self.weights * np.abs(vals) ** 2).real))

    def to_tensor(self, values):
        return np.asarray(values).reshape(self.shape)


def build_grid(mult, L=8.0, n=None):
    """Build the tensor rule for integral over [-L, L]^N of f(y) w_k(y) dy.

    ``n``, 8 to 512 for every mu, is the point count per half-axis panel (2n
    per axis); defaults to 120 for N = 1 and 80 for N >= 2.  Construction
    verifies the Mehta calibration sum(w * exp(-|y|^2)) = 1/c_k to relative
    1e-9 and raises CalibrationError otherwise (a NaN sum included).
    """
    if not 0 < L < math.inf:
        raise DomainError(f"box half-width must be positive and finite, got {L}")
    if n is None:
        n = 120 if mult.dim == 1 else 80
    if not 8 <= n <= 512:
        raise DomainError(f"need 8 to 512 points per panel, got {n}")
    target = 1.0 / mult.mehta_constant
    axes_nodes, axes_weights = [], []
    for m in mult.mu:
        t, wt = jacobi_halfline(n, 2.0 * m, L)
        order = np.argsort(t)
        t, wt = t[order], wt[order]
        axes_nodes.append(np.concatenate([-t[::-1], t]))
        axes_weights.append(np.concatenate([wt[::-1], wt]))
    # Calibrated on the axes: the mesh's weight products can overflow for a
    # box far too wide.  A box so wide that t^2 overflows (L >~ 1e154) gives
    # a total of 0 here and is refused without a warning.
    total = 1.0
    with np.errstate(over="ignore"):
        for t, wt in zip(axes_nodes, axes_weights):
            total *= float(np.sum(wt * np.exp(-(t**2))))
    if not abs(total - target) <= _CALIBRATION_RTOL * abs(target):
        raise CalibrationError(
            f"grid failed Mehta calibration: got {total!r}, expected {target!r} "
            f"(L={L}, n={n}, mu={mult.mu})"
        )
    return QuadGrid(mult=mult, box=float(L), axes_nodes=tuple(axes_nodes), axes_weights=tuple(axes_weights))


SPHERE_NODES = 32


def sphere_rule(mult):
    """Points (m, N) and weights (m,) of an exact rule for w_k(y) dsigma(y) on
    S^(N-1), sigma normalized; the weights sum to d_k = Gamma(N/2) prod
    Gamma(mu_j + 1/2) / (pi^(N/2) Gamma(gamma + N/2)).  t_j = y_j^2 carries
    the Dirichlet weight prod t_j^(mu_j - 1/2) on the simplex; stick-breaking
    makes it a product of Beta weights s^(mu_j - 1/2) (1 - s)^(sum_(i>j)
    (mu_i + 1/2) - 1), one Gauss-Jacobi rule per stick.  Every node comes
    with its 2^N sign flips, sharing its weight, so odd parts are summed too.
    At N = 1 the rule is the two points +-1."""
    mu = mult.mu
    dim = len(mu)
    cols, rest = [], np.ones(1)
    weights = np.full(1, gamma_fn(0.5 * dim) / math.pi ** (0.5 * dim))
    for j in range(dim - 1):
        b = mu[j] - 0.5
        a = sum(m + 0.5 for m in mu[j + 1:]) - 1.0
        x, w = _gauss_jacobi(SPHERE_NODES, b, a)
        cols = [np.repeat(c, SPHERE_NODES) for c in cols] + [np.outer(rest, 0.5 * (1.0 + x)).ravel()]
        rest = np.outer(rest, 0.5 * (1.0 - x)).ravel()
        weights = np.outer(weights, w / 2.0 ** (a + b + 1.0)).ravel()
    orthant = np.sqrt(np.stack(cols + [rest], axis=-1))
    signs = np.array(list(itertools.product((1.0, -1.0), repeat=dim)))
    points = (signs[:, None, :] * orthant).reshape(-1, dim)
    return points, np.tile(weights / len(signs), len(signs))


def circle_grid(n):
    """Unit vectors (n, 2) at the angles 2 pi k / n: the trapezoid rule for the
    normalized surface measure on S^1, each point of weight 1/n."""
    if n < 8:
        raise DomainError(f"circle_grid needs n >= 8, got {n}")
    n = int(n)
    angles = 2.0 * math.pi * np.arange(n) / n
    return np.stack([np.cos(angles), np.sin(angles)], axis=-1)


def circle_identity_residual(mult, n):
    """Relative residual of c_k^-1 = pi^(N/2) Gamma(lambda+1) d_k / Gamma(N/2).

    Relates the Mehta constant to the circle mass d_k (the mean of w_k over
    ``circle_grid(n)``) for N = 2; it converges only algebraically in n at the
    cusps of w_k (``sphere_rule`` gives d_k exactly at every N).
    """
    if mult.dim != 2:
        raise UsageError("the c_k/d_k relation is exercised for N = 2 only")
    d_k = float(np.sum(1.0 / n * mult.weight(circle_grid(n))))
    lhs = 1.0 / mult.mehta_constant
    rhs = math.pi * gamma_fn(mult.lambda_index + 1.0) * d_k / gamma_fn(1.0)
    return abs(lhs - rhs) / abs(lhs)
