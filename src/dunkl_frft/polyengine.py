"""Exact algebra for Z2^N Dunkl operators on polynomials and
Gaussian-times-polynomial functions.

Coefficients are exact complex rationals (pairs of Fractions), so Dunkl
derivatives, the Dunkl Laplacian, the nilpotent heat exponential and the
Hermite operator Delta_k - |x|^2 all run without rounding; floating point
enters only at evaluation time.  The generalized Hermite basis is the
heat-regularized monomials exp(-Delta_k/4) x^nu, normalized by products of
one-dimensional norms from the three-term recurrence.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import DomainError, RangeError, UsageError
from .specfun import gamma_fn, laguerre_eval


class RationalComplex:
    """Complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if isinstance(re, Fraction) else Fraction(re)
        self.im = im if isinstance(im, Fraction) else Fraction(im)

    @staticmethod
    def coerce(value):
        out = RationalComplex._try_coerce(value)
        if out is None:
            raise UsageError(f"cannot use {type(value).__name__} as an exact coefficient")
        return out

    @staticmethod
    def _try_coerce(value):
        if isinstance(value, RationalComplex):
            return value
        if isinstance(value, complex):
            return RationalComplex(Fraction(value.real), Fraction(value.imag))
        if isinstance(value, (int, float, Fraction, str)):
            return RationalComplex(Fraction(value))
        if isinstance(value, np.integer):
            return RationalComplex(Fraction(int(value)))
        if isinstance(value, np.floating):
            return RationalComplex(Fraction(float(value)))
        if isinstance(value, np.complexfloating):
            c = complex(value)
            return RationalComplex(Fraction(c.real), Fraction(c.imag))
        return None

    def __add__(self, other):
        other = RationalComplex._try_coerce(other)
        if other is None:
            return NotImplemented
        return RationalComplex(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return RationalComplex(-self.re, -self.im)

    def __sub__(self, other):
        other = RationalComplex._try_coerce(other)
        if other is None:
            return NotImplemented
        return RationalComplex(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        other = RationalComplex._try_coerce(other)
        if other is None:
            return NotImplemented
        return RationalComplex(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        other = RationalComplex._try_coerce(other)
        if other is None:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"RationalComplex({self.re!r}, {self.im!r})"


class MultiPoly:
    """Polynomial in N variables with exact complex-rational coefficients.

    Treated as immutable: all operations return new instances, zero
    coefficients are never stored, and float conversion happens only in
    ``__call__``.
    """

    __slots__ = ("dim", "terms", "_float_cache")

    def __init__(self, dim, terms=None):
        if dim < 1:
            raise DomainError(f"polynomial dimension must be >= 1, got {dim}")
        self.dim = int(dim)
        clean = {}
        for exponents, coeff in (terms or {}).items():
            key = tuple(int(e) for e in exponents)
            if len(key) != self.dim or any(e < 0 for e in key):
                raise UsageError(f"bad multi-index {exponents!r} for dim {self.dim}")
            c = RationalComplex.coerce(coeff)
            if c:
                clean[key] = c
        self.terms = clean
        self._float_cache = None

    @staticmethod
    def zero(dim):
        return MultiPoly(dim)

    @staticmethod
    def constant(value, dim):
        return MultiPoly(dim, {(0,) * dim: value})

    @staticmethod
    def monomial(exponents, coeff=1):
        return MultiPoly(len(exponents), {tuple(exponents): coeff})

    @staticmethod
    def variable(j, dim):
        exps = [0] * dim
        exps[j] = 1
        return MultiPoly(dim, {tuple(exps): 1})

    @staticmethod
    def radius_sq(dim):
        """The polynomial |x|^2 = sum_j x_j^2."""
        out = MultiPoly(dim)
        for j in range(dim):
            e = [0] * dim
            e[j] = 2
            out = out + MultiPoly(dim, {tuple(e): 1})
        return out

    @property
    def is_zero(self):
        return not self.terms

    @property
    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def homogeneous_degree(self):
        """The common total degree of all terms, or None if inhomogeneous."""
        degrees = {sum(e) for e in self.terms}
        if len(degrees) == 1:
            return degrees.pop()
        return None if degrees else 0

    def _binary(self, other, sign):
        if isinstance(other, MultiPoly):
            if other.dim != self.dim:
                raise UsageError("polynomial dimensions differ")
            out = dict(self.terms)
            for key, c in other.terms.items():
                val = out.get(key, RationalComplex()) + (c if sign > 0 else -c)
                if val:
                    out[key] = val
                else:
                    out.pop(key, None)
            return MultiPoly(self.dim, out)
        return self._binary(MultiPoly.constant(other, self.dim), sign)

    def __add__(self, other):
        return self._binary(other, +1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, -1)

    def __neg__(self):
        return MultiPoly(self.dim, {k: -c for k, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, MultiPoly):
            if other.dim != self.dim:
                raise UsageError("polynomial dimensions differ")
            out = {}
            for ka, ca in self.terms.items():
                for kb, cb in other.terms.items():
                    key = tuple(a + b for a, b in zip(ka, kb))
                    val = out.get(key, RationalComplex()) + ca * cb
                    if val:
                        out[key] = val
                    else:
                        out.pop(key, None)
            return MultiPoly(self.dim, out)
        c = RationalComplex.coerce(other)
        if not c:
            return MultiPoly.zero(self.dim)
        return MultiPoly(self.dim, {k: v * c for k, v in self.terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, MultiPoly) and self.dim == other.dim and self.terms == other.terms

    def __hash__(self):
        return hash((self.dim, frozenset(self.terms.items())))

    def times_coordinate(self, j):
        out = {}
        for key, c in self.terms.items():
            shifted = list(key)
            shifted[j] += 1
            out[tuple(shifted)] = c
        return MultiPoly(self.dim, out)

    def _floats(self):
        if self._float_cache is None:
            exps = np.array(sorted(self.terms), dtype=int).reshape(len(self.terms), self.dim)
            coeffs = np.array([complex(self.terms[tuple(e)]) for e in exps], dtype=complex)
            self._float_cache = (exps, coeffs)
        return self._float_cache

    def __call__(self, x):
        """Evaluate at points x of shape (..., N); returns complex values."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.dim:
            raise UsageError(f"points have dim {x.shape[-1]}, polynomial has dim {self.dim}")
        if not self.terms:
            return np.zeros(x.shape[:-1], dtype=complex)
        exps, coeffs = self._floats()
        maxdeg = int(exps.max())
        powers = np.ones((maxdeg + 1,) + x.shape, dtype=float)
        for d in range(1, maxdeg + 1):
            powers[d] = powers[d - 1] * x
        out = np.zeros(x.shape[:-1], dtype=complex)
        for e, c in zip(exps, coeffs):
            mono = np.ones(x.shape[:-1])
            for j in range(self.dim):
                if e[j]:
                    mono = mono * powers[e[j], ..., j]
            out += c * mono
        return out

    def to_json(self):
        return {
            "dim": self.dim,
            "terms": [
                {"exp": list(k), "re": str(c.re), "im": str(c.im)}
                for k, c in sorted(self.terms.items())
            ],
        }

    @staticmethod
    def from_json(obj):
        terms = {}
        for t in obj["terms"]:
            terms[tuple(t["exp"])] = RationalComplex(
                Fraction(t.get("re", "0")), Fraction(t.get("im", "0"))
            )
        return MultiPoly(obj["dim"], terms)

    def __repr__(self):
        if not self.terms:
            return "MultiPoly(0)"
        bits = []
        for key, c in sorted(self.terms.items()):
            mono = "*".join(f"x{j}^{e}" for j, e in enumerate(key) if e) or "1"
            bits.append(f"({complex(c):.6g})*{mono}")
        return "MultiPoly[" + " + ".join(bits) + "]"


def dunkl_derivative(p, j, mult):
    """Dunkl derivative T_j for Z2^N, exactly on the coefficient map.

    On a monomial factor x_j^n: n x_j^(n-1) for even n, (n + 2 mu_j)
    x_j^(n-1) for odd n; other coordinates ride along.
    """
    if j < 0 or j >= p.dim:
        raise UsageError(f"axis {j} out of range for dim {p.dim}")
    if mult.dim != p.dim:
        raise UsageError("multiplicity and polynomial dimensions differ")
    two_mu = 2 * mult.mu_exact[j]
    out = {}
    for key, c in p.terms.items():
        n = key[j]
        if n == 0:
            continue
        factor = Fraction(n) if n % 2 == 0 else Fraction(n) + two_mu
        shifted = list(key)
        shifted[j] -= 1
        skey = tuple(shifted)
        val = out.get(skey, RationalComplex()) + c * factor
        if val:
            out[skey] = val
        else:
            out.pop(skey, None)
    return MultiPoly(p.dim, out)


def dunkl_laplacian(p, mult):
    """Generalized Laplacian Delta_k = sum_j T_j^2, exact."""
    out = MultiPoly.zero(p.dim)
    for j in range(p.dim):
        out = out + dunkl_derivative(dunkl_derivative(p, j, mult), j, mult)
    return out


def heat_exp_poly(p, c, mult):
    """exp(c * Delta_k) p as the finite nilpotent sum sum_s c^s Delta_k^s p / s!.

    Exact whenever c is rational (floats and complex values are coerced to
    their exact dyadic representation, so the arithmetic never rounds).
    """
    scale = RationalComplex.coerce(c)
    out = term = p
    coeff = RationalComplex(1)
    s = 0
    while True:
        term = dunkl_laplacian(term, mult)
        if term.is_zero:
            return out
        s += 1
        coeff = coeff * scale * Fraction(1, s)
        out = out + term * coeff
        if s > p.degree:
            raise RangeError("heat exponential failed to terminate (non-nilpotent input?)")


class GaussPoly:
    """Function of the form poly(x) * exp(-|x|^2 / 2), closed under the
    Dunkl operators and coordinate multiplication.

    The closure rule T_j(q * G) = (T_j q - x_j q) * G (with G the Gaussian)
    keeps everything inside the class with exact coefficients.
    """

    __slots__ = ("poly",)

    def __init__(self, poly):
        if not isinstance(poly, MultiPoly):
            raise UsageError("GaussPoly wraps a MultiPoly")
        self.poly = poly

    @property
    def dim(self):
        return self.poly.dim

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return self.poly(x) * np.exp(-0.5 * np.sum(x * x, axis=-1))

    def __add__(self, other):
        if isinstance(other, GaussPoly):
            return GaussPoly(self.poly + other.poly)
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, GaussPoly):
            return GaussPoly(self.poly - other.poly)
        return NotImplemented

    def __mul__(self, scalar):
        return GaussPoly(self.poly * scalar)

    __rmul__ = __mul__

    def __neg__(self):
        return GaussPoly(-self.poly)

    def __eq__(self, other):
        return isinstance(other, GaussPoly) and self.poly == other.poly

    def __hash__(self):
        return hash(("GaussPoly", self.poly))

    def times_coordinate(self, j):
        return GaussPoly(self.poly.times_coordinate(j))

    def dunkl_derivative(self, j, mult):
        return GaussPoly(dunkl_derivative(self.poly, j, mult) - self.poly.times_coordinate(j))

    def dunkl_laplacian(self, mult):
        out = MultiPoly.zero(self.dim)
        for j in range(self.dim):
            out = out + self.dunkl_derivative(j, mult).dunkl_derivative(j, mult).poly
        return GaussPoly(out)

    def __repr__(self):
        return f"GaussPoly({self.poly!r})"


def hermite_operator(f, mult):
    """(Delta_k - |x|^2) f for a GaussPoly f, exactly."""
    if not isinstance(f, GaussPoly):
        raise UsageError("hermite_operator acts on GaussPoly")
    rsq = MultiPoly.radius_sq(f.dim)
    return GaussPoly(f.dunkl_laplacian(mult).poly - rsq * f.poly)


def _hermite_norms_1d(mu_exact, max_degree):
    """Norms of the 1-D family at multiplicity mu for degrees 0..max_degree.

    The monic p_n = exp(-Delta_k/4) t^n obey p_(n+1) = t p_n - b_n p_(n-1)
    with b_n = (n + 2 mu [n odd]) / 2 (Rosenblum 1994), so the norm^2 of
    p_n exp(-t^2/2) in L^2(|t|^(2 mu) dt) is Gamma(mu + 1/2) b_1 ... b_n.  The
    product is taken exactly and float() rounds it correctly.
    """
    two_mu = 2 * Fraction(mu_exact)
    gamma_base = gamma_fn(float(Fraction(mu_exact) + Fraction(1, 2)))
    prod = Fraction(1)
    norms = []
    for n in range(max_degree + 1):
        if n:
            prod *= (n + two_mu * (n & 1)) / 2
        try:
            norm = math.sqrt(float(prod) * gamma_base)
        except OverflowError:
            norm = math.inf
        if norm == math.inf:
            raise RangeError(f"the Hermite norm of degree {n} at mu = {float(mu_exact):g} "
                             f"overflows double precision; max_degree must stay below {n}")
        norms.append(norm)
    return norms


class HermiteBasis:
    """Orthonormal generalized Hermite functions h_nu for |nu| <= max_degree.

    h_nu is the heat-regularized monomial exp(-Delta_k/4) x^nu times
    exp(-|x|^2/2), normalized in L^2(w_k); the leading coefficient stays
    positive.  These are tensor products of 1-D functions, orthonormal under
    w_k and eigenfunctions of the Dunkl transform with eigenvalue (-i)^|nu|.
    The 1-D norms come from the recurrence product of ``_hermite_norms_1d``,
    once per distinct mu_j.  Float values come from the recurrence of
    ``axis_matrix``; the exact polynomial of an h_nu is the heat exponential,
    taken on its first request and kept.  Instances are immutable after
    construction.
    """

    def __init__(self, mult, max_degree):
        if max_degree < 0:
            raise DomainError("max_degree must be >= 0")
        self.mult = mult
        self.max_degree = int(max_degree)
        families = {
            mu: _hermite_norms_1d(mu, self.max_degree) for mu in dict.fromkeys(mult.mu_exact)
        }
        self._axis_norms = [families[mu] for mu in mult.mu_exact]
        self.indices = tuple(
            sorted(_graded_indices(mult.dim, self.max_degree), key=lambda nu: (sum(nu), nu))
        )
        self._index_array = np.array(self.indices, dtype=np.intp).reshape(-1, mult.dim)
        self.degrees = self._index_array.sum(axis=1)
        self._functions = {}

    @property
    def dim(self):
        return self.mult.dim

    @property
    def size(self):
        return len(self.indices)

    @property
    def norms(self):
        """Normalization constants applied to each tensor product, keyed
        like ``indices``."""
        return tuple(
            float(np.prod([1.0 / self._axis_norms[j][nu[j]] for j in range(self.dim)]))
            for nu in self.indices
        )

    def function(self, nu):
        """The orthonormalized h_nu as an exact GaussPoly.

        The float normalization constant is folded into the rational
        coefficients exactly (floats are dyadic rationals), so downstream
        algebra on h_nu stays exact.
        """
        nu = tuple(int(v) for v in nu)
        if len(nu) != self.dim:
            raise UsageError(f"multi-index {nu} has wrong length for dim {self.dim}")
        if any(v < 0 for v in nu) or sum(nu) > self.max_degree:
            raise RangeError(f"multi-index {nu} outside basis range |nu| <= {self.max_degree}")
        if nu not in self._functions:
            scale = Fraction(1)
            for j, n in enumerate(nu):
                scale *= Fraction(1.0 / self._axis_norms[j][n])
            poly = heat_exp_poly(MultiPoly.monomial(nu), Fraction(-1, 4), self.mult)
            self._functions[nu] = GaussPoly(poly * scale)
        return self._functions[nu]

    def axis_matrix(self, j, t, rows=None):
        """Matrix (rows, len(t)) of normalized 1-D values on axis j; row n
        holds the degree-n function.  ``rows`` defaults to max_degree + 1.

        The rows are the orthonormal polynomials of |t|^(2 mu) e^(-t^2)
        times e^(-t^2/2), raised by their three-term recurrence (Rosenblum
        1994; Rosler 1998):

            h_0 = e^(-t^2/2) / sqrt(Gamma(mu + 1/2)),
            sqrt(b_(n+1)) h_(n+1) = t h_n - sqrt(b_n) h_(n-1),
            b_n = (n + 2 mu [n odd]) / 2.

        No terms cancel, so no precision is lost as the degree grows.  Row n
        is made from rows n - 1 and n - 2 only, so fewer rows give the same
        leading rows, bit for bit.  Where t^2 overflows, h_0 is exactly 0.0,
        and so is every row above it; t = +-inf counts as the largest float,
        so that inf * 0.0 never makes a NaN.
        """
        mu = float(self.mult.mu_exact[j])
        t = np.asarray(t, dtype=float)
        big = np.finfo(float).max
        flat = np.clip(t.reshape(-1), -big, big)
        out = np.empty((self.max_degree + 1 if rows is None else rows, flat.size))
        prev, cur, root = None, out[0], 0.0
        with np.errstate(over="ignore"):
            np.exp(-0.5 * flat * flat, out=cur)
        cur *= 1.0 / self._axis_norms[j][0]
        scratch = np.empty_like(flat)
        for n, row in enumerate(out[1:], 1):
            np.multiply(flat, cur, out=row)
            if prev is not None:
                np.multiply(prev, root, out=scratch)
                row -= scratch
            root = math.sqrt(n / 2 + mu * (n & 1))
            row /= root
            prev, cur = cur, row
        return out.reshape(out.shape[:1] + t.shape)

    def gram_residual(self, grid):
        """Largest |G - I| entry over the per-axis Gram matrices of the 1-D
        families under the grid's axis rules."""
        worst = 0.0
        for j in range(self.dim):
            mat = self.axis_matrix(j, grid.axes_nodes[j])
            gram = (mat * grid.axes_weights[j][None, :]) @ mat.T
            worst = max(worst, float(np.max(np.abs(gram - np.eye(self.max_degree + 1)))))
        return worst


def _graded_indices(dim, max_degree):
    if dim == 1:
        return [(n,) for n in range(max_degree + 1)]
    out = []
    for first in range(max_degree + 1):
        for rest in _graded_indices(dim - 1, max_degree - first):
            out.append((first,) + rest)
    return out


def hermite_closed_form_1d(n, mu, t):
    """Closed Laguerre form of the normalized 1-D Hermite function.

    Even degrees:  (-1)^m sqrt(m!/Gamma(m+mu+1/2)) L_m^(mu-1/2)(t^2) e^(-t^2/2)
    Odd degrees:   (-1)^m sqrt(m!/Gamma(m+mu+3/2)) t L_m^(mu+1/2)(t^2) e^(-t^2/2)

    Independent of the heat-exponential construction; used to cross-check it.
    """
    t = np.asarray(t, dtype=float)
    m, parity = divmod(n, 2)
    if parity == 0:
        const = (-1.0) ** m * math.sqrt(math.factorial(m) / gamma_fn(m + mu + 0.5))
        return const * laguerre_eval(m, mu - 0.5, t * t) * np.exp(-0.5 * t * t)
    const = (-1.0) ** m * math.sqrt(math.factorial(m) / gamma_fn(m + mu + 1.5))
    return const * t * laguerre_eval(m, mu + 0.5, t * t) * np.exp(-0.5 * t * t)


def _pointwise_sum(block, tables):
    """(2, m) real and imaginary parts of sum_k T_0[k] * (the same sum over
    the remaining axes of block[:, k]) at m points, skipping all-zero
    slices; adding a zero term would leave every sum unchanged."""
    table = tables[0]
    acc = np.zeros((2, table.shape[1]))
    for k in range(block.shape[1]):
        sub = block[:, k]
        if sub.any():
            inner = _pointwise_sum(sub, tables[1:]) if len(tables) > 1 else sub[:, None]
            acc += inner * table[k]
    return acc


# Points per pass of HermiteExpansion.__call__: its tables and sums are
# that long, so a large point set holds one pass's worth of them at a time.
_EVAL_CHUNK = 8192


class HermiteExpansion:
    """Finite combination sum_nu c_nu h_nu over a HermiteBasis.

    The coefficients are the primary artifact; evaluation, norms and
    linear operations all go through them.
    """

    __slots__ = ("basis", "coeffs")

    def __init__(self, basis, coeffs):
        self.basis = basis
        arr = np.asarray(coeffs, dtype=complex)
        if arr.shape != (basis.size,):
            raise UsageError(f"expected {basis.size} coefficients, got {arr.shape}")
        self.coeffs = arr

    @classmethod
    def from_terms(cls, basis, terms):
        """Build from {nu: coefficient} pairs."""
        coeffs = np.zeros(basis.size, dtype=complex)
        lookup = {nu: i for i, nu in enumerate(basis.indices)}
        for nu, c in terms.items():
            key = tuple(int(v) for v in nu)
            if key not in lookup:
                raise RangeError(f"multi-index {key} outside basis range")
            coeffs[lookup[key]] += c
        return cls(basis, coeffs)

    def coefficient(self, nu):
        nu = tuple(int(v) for v in nu)
        for i, idx in enumerate(self.basis.indices):
            if idx == nu:
                return complex(self.coeffs[i])
        raise RangeError(f"multi-index {nu} outside basis range")

    def degree_mass(self, n):
        """l2 mass of the coefficients at total degree n."""
        return float(np.sum(np.abs(self.coeffs[self.basis.degrees == n]) ** 2))

    def norm_l2(self):
        return float(np.sqrt(np.sum(np.abs(self.coeffs) ** 2)))

    def __call__(self, x):
        """Values at the points ``x`` (last axis of length dim).

        The points are taken in passes of ``_EVAL_CHUNK``.  In each pass the
        axis tables T_j are built on the points' own coordinates and
        trimmed to the coefficient block C; each point gets sum_k T_0[k] *
        (the sum over the remaining axes of C[k]), one leading index at a
        time, so only a few arrays of a pass's size are live at once.  Real
        and imaginary parts are summed as real arrays, so every step is one
        rounded real multiply or add whatever the array layout or the pass,
        and the values do not depend on how the points are split.
        """
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.basis.dim:
            raise UsageError(f"points have dim {x.shape[-1]}, expansion has dim {self.basis.dim}")
        if not np.all(np.isfinite(x)):
            raise DomainError("HermiteExpansion: points must be finite")
        block = self.coefficient_block()
        parts = np.stack([block.real, block.imag])
        coords = [x[..., j].ravel() for j in range(self.basis.dim)]
        out = np.empty(coords[0].size, dtype=complex)
        for start in range(0, out.size, _EVAL_CHUNK):
            chunk = slice(start, start + _EVAL_CHUNK)
            tables = [self.basis.axis_matrix(j, coords[j][chunk], d) for j, d in enumerate(block.shape)]
            sums = _pointwise_sum(parts, tables)
            out.real[chunk] = sums[0]
            out.imag[chunk] = sums[1]
        return out.reshape(x.shape[:-1])

    def coefficient_block(self):
        """The coefficients as a dense complex block (d_0, ..., d_N-1),
        entry [nu] = c_nu, trimmed on each axis to its largest nonzero
        degree.  All-zero coefficients give a zero block of one entry per
        axis."""
        live = np.flatnonzero(self.coeffs)
        index = self.basis._index_array[live]
        block = np.zeros(tuple(index.max(axis=0, initial=0) + 1), dtype=complex)
        block[tuple(index.T)] = self.coeffs[live]
        return block

    def scale_degrees(self, factors):
        """New expansion with coefficients factors[|nu|] * c_nu: every spectral
        operator is a function of the total degree.  Each product is one
        scalar multiply, which a vectorised multiply may round differently."""
        out = [factors[d] * c for d, c in zip(self.basis.degrees, self.coeffs)]
        return HermiteExpansion(self.basis, out)

    def __add__(self, other):
        self._check(other)
        return HermiteExpansion(self.basis, self.coeffs + other.coeffs)

    def __sub__(self, other):
        self._check(other)
        return HermiteExpansion(self.basis, self.coeffs - other.coeffs)

    def __mul__(self, scalar):
        return HermiteExpansion(self.basis, self.coeffs * scalar)

    __rmul__ = __mul__

    def _check(self, other):
        if not isinstance(other, HermiteExpansion) or other.basis is not self.basis:
            raise UsageError("expansions must share a basis")

    def to_gauss_poly(self):
        """Exact GaussPoly with the float coefficients folded in as dyadic
        rationals; re/im parts handled exactly."""
        total = MultiPoly.zero(self.basis.dim)
        for c, nu in zip(self.coeffs, self.basis.indices):
            if c == 0:
                continue
            h = self.basis.function(nu)
            total = total + h.poly * RationalComplex(Fraction(c.real), Fraction(c.imag))
        return GaussPoly(total)
