"""Reference identities used only by the tests: the grid inner product, the
literal eigen-decomposition sum of the transform group, the bilinear /
moment Gaussian identities that validate the kernel machinery, and the
uniform circle average that checks the Funk-Hecke rule independently."""

import cmath

import numpy as np

from dunkl_frft.errors import DomainError, UsageError
from dunkl_frft.polyengine import MultiPoly, heat_exp_poly
from dunkl_frft.quadrature import circle_grid
from dunkl_frft.semigroup import spectral_projection
from dunkl_frft.specfun import dunkl_kernel_prod


def inner_product(f, g, grid):
    """<f, g> = sum_i w_i f(x_i) conj(g(x_i)) on the grid."""
    return np.sum(grid.weights * grid.values(f) * np.conj(grid.values(g)))


def eigen_decomposition_sum(f, sampler, n_max, apply_generator=False):
    """sum_{n=0..n_max} P_n f (or sum i n P_n f when ``apply_generator``),
    assembled from literal projections; reproduces f (resp. T f) up to the
    mass dropped beyond n_max."""
    if n_max < 0:
        raise DomainError("n_max must be >= 0")
    total = None
    for n in range(n_max + 1):
        term = spectral_projection(f, n, sampler)
        if apply_generator:
            term = term * (1j * n)
        total = term if total is None else total + term
    return total


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
    kern = dunkl_kernel_prod(mult, 2.0 * z, grid.nodes)
    kern = kern * dunkl_kernel_prod(mult, 2.0 * w, grid.nodes)
    gauss = np.exp(-a_const * np.sum(grid.nodes**2, axis=-1))
    lhs = mult.mehta_constant * np.sum(grid.weights * kern * gauss)
    rhs = cmath.exp((_quadratic_sum(z) + _quadratic_sum(w)) / a_const) * a_const ** (
        -(mult.gamma_index + 0.5 * mult.dim)
    )
    rhs = rhs * dunkl_kernel_prod(mult, 2.0 * z / a_const, w)
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
    kern = dunkl_kernel_prod(mult, 2.0 * xs, grid.nodes)
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


def circle_average(mult, x, n):
    """Circle average (1/d_k) * integral_{S^1} K(ix, y) w_k(y) dsigma(y) for
    N = 2 on the n uniform points of ``circle_grid``, each of weight 1/n; the
    same rule for d_k and the numerator cancels the cusp of w_k to first
    order.  It converges only algebraically there."""
    if mult.dim != 2:
        raise UsageError("circle_average is the N = 2 radial case")
    x = np.asarray(x, dtype=float)
    if x.shape != (2,):
        raise UsageError(f"x must be a 2-vector, got shape {x.shape}")
    circle = circle_grid(n)
    weight = 1.0 / len(circle)
    wk = mult.weight(circle)
    d_k = float(np.sum(weight * wk))
    kern = dunkl_kernel_prod(mult, 1j * x, circle)
    return complex(np.sum(weight * wk * kern) / d_k)
