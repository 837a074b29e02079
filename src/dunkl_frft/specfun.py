"""Scalar special functions for the Z2^N Dunkl setting.

Everything here is pure and reentrant: gamma, the normalized modified
Bessel function ``jhat``, Laguerre polynomials, and the one-dimensional /
product Dunkl kernels built from them.  All kernel-style functions accept
numpy arrays and broadcast elementwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy import special as _sp

from .errors import DomainError, RangeError, UsageError


def gamma_fn(x):
    """Gamma function for real x > 0.

    Backed by the C library implementation (relative error well under
    1e-13 on [0.5, 50]).  Every caller needs a finite positive value: x <= 0
    or non-finite is a DomainError, x > 171.62 (overflow) a RangeError.
    """
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"gamma_fn requires x > 0, got {x!r}")
    try:
        return math.gamma(x)
    except OverflowError:
        raise RangeError(f"gamma_fn: Gamma({x!r}) overflows double precision") from None


@dataclass(frozen=True)
class BesselOrder:
    """Order nu >= -1/2 of a normalized Bessel-type kernel."""

    nu: float

    def __post_init__(self):
        nu = float(self.nu)
        if not math.isfinite(nu) or nu < -0.5:
            raise DomainError(f"Bessel order must satisfy nu >= -1/2, got {self.nu!r}")
        object.__setattr__(self, "nu", nu)


@dataclass(frozen=True)
class Multiplicity:
    """Multiplicity vector mu for Z2^N, one weight per coordinate sign-flip.

    Carries the derived constants used throughout: the homogeneity index
    gamma = sum(mu), the Mehta-type normalization c_k, the radial index
    lambda = gamma + N/2 - 1 and the per-coordinate Bessel orders
    nu_j = mu_j - 1/2.  ``mu_exact`` keeps the exact (dyadic) rationals so
    the polynomial algebra downstream never rounds.
    """

    mu: tuple
    mu_exact: tuple

    def __init__(self, mu):
        try:
            values = [Fraction(m) for m in mu]
        except (TypeError, ValueError, OverflowError) as exc:
            raise DomainError(f"multiplicity entries must be numeric: {mu!r}") from exc
        if len(values) < 1:
            raise DomainError("multiplicity vector must have N >= 1 entries")
        if any(v < 0 for v in values):
            raise DomainError(f"multiplicity entries must be >= 0, got {mu!r}")
        object.__setattr__(self, "mu_exact", tuple(values))
        object.__setattr__(self, "mu", tuple(float(v) for v in values))

    @property
    def dim(self):
        return len(self.mu)

    @property
    def gamma_index(self):
        """gamma = sum_j mu_j (degree of homogeneity of w_k is 2*gamma)."""
        return float(sum(self.mu_exact))

    @property
    def gamma_exact(self):
        return sum(self.mu_exact)

    @property
    def mehta_constant(self):
        """c_k = (integral of exp(-|x|^2) w_k(x) dx)^-1 = prod 1/Gamma(mu_j + 1/2)."""
        out = 1.0
        for m in self.mu:
            out /= gamma_fn(m + 0.5)
        return out

    @property
    def lambda_index(self):
        """lambda = gamma + N/2 - 1, the radial Bessel index."""
        return self.gamma_index + 0.5 * self.dim - 1.0

    @property
    def orders(self):
        """Per-coordinate Bessel orders nu_j = mu_j - 1/2."""
        return tuple(BesselOrder(m - 0.5) for m in self.mu)

    def weight(self, x):
        """w_k(x) = prod_j |x_j|^(2 mu_j); x has shape (..., N)."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.dim:
            raise UsageError(f"points have dim {x.shape[-1]}, multiplicity has dim {self.dim}")
        out = np.ones(x.shape[:-1])
        for j, m in enumerate(self.mu):
            if m != 0.0:
                out = out * np.abs(x[..., j]) ** (2.0 * m)
        return out


def _hyp0f1_real(b, z):
    """0F1(; b; z) at real z <= 0.  Below b = 1 scipy would call J at the
    negative order b - 1, which loses digits, so the contiguous relation
    0F1(b) = 0F1(b+1) + z 0F1(b+2) / (b (b+1)) raises both orders above 1."""
    if b < 1.0:
        return _sp.hyp0f1(b + 1.0, z) + z / (b * (b + 1.0)) * _sp.hyp0f1(b + 2.0, z)
    return _sp.hyp0f1(b, z)


def normalized_ibessel(order, u):
    """Normalized entire Bessel-type function

        jhat_nu(u) = 0F1(; nu+1; u^2/4) = Gamma(nu+1) sum_n (u/2)^(2n) / (n! Gamma(n+nu+1)).

    Even and entire in u, with jhat_nu(0) = 1 and jhat_nu(i x) equal to the
    classical normalized spherical Bessel function j_nu(x).  Evaluated per
    element through scipy's 0F1 (D. E. Amos's routines, ACM TOMS 12(3),
    1986): the real-argument 0F1 at -t^2/4 on the imaginary axis u = i t,
    the complex 0F1 elsewhere and cosh u at nu = -1/2, so each value depends
    only on its own argument.  Accepts scalar or array u (complex) of any
    modulus; a non-finite argument raises RangeError.
    """
    if not isinstance(order, BesselOrder):
        order = BesselOrder(order)
    nu = order.nu
    u_arr = np.asarray(u, dtype=complex)
    if not np.all(np.isfinite(u_arr)):
        amax = float(np.max(np.abs(u_arr)))
        raise RangeError(f"normalized_ibessel: argument is not finite (|u| = {amax})")
    if nu == -0.5:
        out = np.cosh(u_arr)
    else:
        out = np.empty(u_arr.shape, dtype=complex)
        axis = u_arr.real == 0.0
        t = u_arr.imag[axis]
        out[axis] = _hyp0f1_real(nu + 1.0, -(t * t) / 4.0)
        rest = u_arr[~axis]
        out[~axis] = _sp.hyp0f1(nu + 1.0, rest * rest / 4.0)
    if u_arr.ndim == 0:
        return complex(out)
    return out


def laguerre_eval(m, a, t):
    """Laguerre polynomial L_m^{(a)}(t) by the three-term recurrence.

    Vectorized in t; exact (up to rounding) for all m, and literally exact
    for m <= 2 where the recurrence reduces to the closed forms.
    """
    if m < 0 or int(m) != m:
        raise DomainError(f"Laguerre degree must be a non-negative integer, got {m!r}")
    a = float(a)
    if a <= -1.0:
        raise DomainError(f"Laguerre parameter must satisfy a > -1, got {a!r}")
    t = np.asarray(t, dtype=float) if not np.isscalar(t) else t
    prev = np.ones_like(t, dtype=float) if not np.isscalar(t) else 1.0
    if m == 0:
        return prev
    cur = 1.0 + a - t
    for k in range(1, m):
        prev, cur = cur, ((2.0 * k + 1.0 + a - t) * cur - (k + a) * prev) / (k + 1.0)
    return cur


def dunkl_kernel_1d(order, z, y):
    """One-dimensional Dunkl kernel for Z2 at Bessel order nu,

        K_nu(z, y) = jhat_nu(z y) + (z y / (2 (nu+1))) jhat_{nu+1}(z y),

    the analytic continuation of j_nu(xy) + i xy j_{nu+1}(xy)/(2(nu+1)) at
    z = ix.  Satisfies K(0, y) = 1, |K(ix, y)| <= 1 for real x, y, and is
    a function of the product z*y alone.  For nu = -1/2 it reduces to
    exp(z y).  Broadcasts over arrays in z and y.
    """
    if not isinstance(order, BesselOrder):
        order = BesselOrder(order)
    u = np.asarray(z, dtype=complex) * np.asarray(y, dtype=complex)
    even, odd = _kernel_even_odd(order, u)
    out = even + odd
    if out.ndim == 0:
        return complex(out)
    return out


def _kernel_even_odd(order, u):
    """The parts of K_nu even and odd in u, shaped like the complex array u:
    jhat_nu(u) and u jhat_{nu+1}(u) / (2 (nu+1)).

    At -u the even part is bitwise the same and the odd part bitwise
    negated, since jhat sees u only through u^2 (cosh u at nu = -1/2 is
    even in each component); a caller that needs both signs evaluates one.
    """
    # a scalar takes numpy's array loops too: its scalar complex product
    # rounds differently, and each value should not depend on the call shape
    flat = np.ravel(u)
    even = normalized_ibessel(order, flat)
    second = normalized_ibessel(BesselOrder(order.nu + 1), flat)
    odd = flat / (2.0 * (order.nu + 1.0)) * second
    return even.reshape(np.shape(u)), odd.reshape(np.shape(u))


def dunkl_kernel_prod(mult, z, y):
    """Product Dunkl kernel for W = Z2^N: K(z, y) = prod_j K_{nu_j}(z_j, y_j).

    z and y are vectors (or arrays with trailing axis of length N); equals
    1 at z = 0 and reduces to exp(i<x, y>) when all mu_j = 0 and z = ix.
    """
    z = np.asarray(z, dtype=complex)
    y = np.asarray(y, dtype=complex)
    n = mult.dim
    if z.shape[-1] != n or y.shape[-1] != n:
        raise UsageError(
            f"dimension mismatch: multiplicity has N={n}, z has {z.shape[-1]}, y has {y.shape[-1]}"
        )
    out = None
    for j, order in enumerate(mult.orders):
        factor = dunkl_kernel_1d(order, z[..., j], y[..., j])
        out = factor if out is None else out * factor
    return out
