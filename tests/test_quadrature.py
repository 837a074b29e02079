"""Quadrature layer: Gauss-Legendre, Gauss-Jacobi, weighted tensor grids, the
sphere rule and the uniform circle rule."""

import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from scipy import special as scipy_special

from dunkl_frft import quadrature
from dunkl_frft.errors import CalibrationError, DomainError, RangeError, UsageError
from dunkl_frft.polyengine import HermiteBasis
from dunkl_frft.quadrature import (
    build_grid,
    circle_grid,
    circle_identity_residual,
    gauss_legendre,
    jacobi_halfline,
    sphere_rule,
)
from dunkl_frft.specfun import Multiplicity, gamma_fn
from dunkl_frft.transform import TransformPlan, fdt_integral_on_grid
from frft_helpers import inner_product


class TestGaussLegendre:
    def test_one_point(self):
        x, w = gauss_legendre(1)
        assert x[0] == pytest.approx(0.0, abs=1e-15)
        assert w[0] == pytest.approx(2.0, rel=1e-15)

    def test_two_point(self):
        x, w = gauss_legendre(2)
        assert sorted(x) == pytest.approx([-1 / math.sqrt(3), 1 / math.sqrt(3)], rel=1e-14)
        assert list(w) == pytest.approx([1.0, 1.0], rel=1e-14)

    def test_monomial_exactness_n16(self):
        x, w = gauss_legendre(16)
        for k in range(32):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert np.sum(w * x**k) == pytest.approx(exact, abs=1e-14)

    def test_weight_sum(self):
        for n in (5, 64, 512):
            _, w = gauss_legendre(n)
            assert np.sum(w) == pytest.approx(2.0, rel=1e-14)

    def test_range(self):
        with pytest.raises(RangeError):
            gauss_legendre(0)
        with pytest.raises(RangeError):
            gauss_legendre(513)


class TestBuildGrid:
    def test_gaussian_integral_mu_zero(self):
        grid = build_grid(Multiplicity([0.0]), L=8.0, n=80)
        val = np.sum(grid.weights * grid.values(lambda p: np.exp(-p[..., 0] ** 2)))
        assert val == pytest.approx(math.sqrt(math.pi), abs=1e-10)

    def test_abs_weight_moment(self):
        # integral |y| e^{-y^2} dy = Gamma(1) = 1 (substitution t = y^2)
        grid = build_grid(Multiplicity([0.5]), L=8.0, n=80)
        val = np.sum(grid.weights * grid.values(lambda p: np.exp(-p[..., 0] ** 2)))
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_two_dim_product_moment(self):
        grid = build_grid(Multiplicity([0.3, 0.7]), L=8.0, n=40)
        val = np.sum(grid.weights * grid.values(lambda p: np.exp(-np.sum(p**2, axis=-1))))
        assert val == pytest.approx(gamma_fn(0.8) * gamma_fn(1.2), rel=1e-12)

    def test_calibration_invariant(self):
        for mu in ([0.0], [0.3], [1.7], [0.3, 0.7]):
            mult = Multiplicity(mu)
            grid = build_grid(mult, n=40)
            total = float(np.sum(grid.weights * np.exp(-np.sum(grid.nodes**2, axis=-1))))
            assert total == pytest.approx(1.0 / mult.mehta_constant, rel=1e-9)

    def test_no_node_at_cusp(self):
        grid = build_grid(Multiplicity([0.3]), n=40)
        assert np.min(np.abs(grid.axes_nodes[0])) > 0.0

    def test_validation(self):
        with pytest.raises(DomainError):
            build_grid(Multiplicity([0.5]), L=-1.0)
        with pytest.raises(DomainError):
            build_grid(Multiplicity([0.5]), n=4)
        # 512 points per panel, the reach of gauss_legendre at mu = 0, bounds every mu
        for mu in ([0.0], [0.5]):
            assert build_grid(Multiplicity(mu), n=512).shape == (1024,)
            with pytest.raises(DomainError, match="got 513"):
                build_grid(Multiplicity(mu), n=513)
        # Gamma(200.5) overflows: refused before the weights can overflow
        with pytest.raises(RangeError, match=re.escape("Gamma(200.5)")):
            build_grid(Multiplicity([200.0]))

    @pytest.mark.parametrize("mu, L", [([0.0], 1e300), ([0.0, 0.0], 1e200), ([0.3, 0.7], 1e100)])
    def test_overflowing_box_refused_without_warning(self, mu, L):
        # t^2 (at mu_j = 0) or the mesh's weight products would overflow:
        # refused by the calibration, naming L, before any numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CalibrationError, match=re.escape(f"L={L!r},")):
                build_grid(Multiplicity(mu), L=L)

    def test_tail_control_doubling_box(self):
        # doubling L at fixed density moves Hermite inner products < 1e-10
        mult = Multiplicity([0.7])
        basis = HermiteBasis(mult, 8)
        vals = {}
        for L, n in ((8.0, 80), (16.0, 160)):
            grid = build_grid(mult, L=L, n=n)
            mat = basis.axis_matrix(0, grid.axes_nodes[0])
            vals[L] = (mat * grid.axes_weights[0][None, :]) @ mat.T
        assert np.max(np.abs(vals[8.0] - vals[16.0])) < 1e-10


class TestInnerProduct:
    def setup_method(self):
        self.mult = Multiplicity([0.5])
        self.grid = build_grid(self.mult, n=80)
        self.basis = HermiteBasis(self.mult, 4)

    def test_ground_state_normalized(self):
        h0 = self.basis.function((0,))
        assert inner_product(h0, h0, self.grid).real == pytest.approx(1.0, abs=1e-10)

    def test_odd_pair_vanishes(self):
        h0 = self.basis.function((0,))
        h1 = self.basis.function((1,))
        assert abs(inner_product(h0, h1, self.grid)) <= 1e-12

    def test_degree_two_laguerre_norm(self):
        # normalization against the Laguerre norm Gamma(m+a+1)/m!
        h2 = self.basis.function((2,))
        assert inner_product(h2, h2, self.grid).real == pytest.approx(1.0, abs=1e-9)


class TestGridValues:
    """``QuadGrid.values`` takes one value per node, shape (npts,), from an
    array and from a callable alike; any other shape would broadcast
    against the weights, so it is refused wherever grid values are read."""

    def test_callable_of_wrong_shape_refused(self):
        mult = Multiplicity([0.5])
        grid = build_grid(mult)
        plan = TransformPlan(mult, math.pi / 3, grid=grid, M=4)
        npts = grid.nodes.shape[0]
        bad = {
            "column": (lambda p: np.exp(-p * p), (npts, 1)),
            "scalar": (lambda p: 1.0, ()),
        }
        readers = {
            "values": grid.values,
            "norm_l2": grid.norm_l2,
            "integral route": lambda f: fdt_integral_on_grid(f, plan),
        }
        for name, (f, shape) in bad.items():
            for key, read in readers.items():
                with pytest.raises(UsageError) as refused:
                    read(f)
                assert str(refused.value) == (
                    f"value array has shape {shape}, grid has {npts} nodes"
                ), (name, key)


def meshgrid_reference(grid):
    """(nodes, weights) by the formula ``build_grid`` used when the grid
    stored its mesh: meshgrid of the axes, and the weights as a running
    product from ones."""
    mesh = np.meshgrid(*grid.axes_nodes, indexing="ij")
    nodes = np.stack([m.ravel() for m in mesh], axis=-1)
    weights = np.ones(nodes.shape[0])
    for w in np.meshgrid(*grid.axes_weights, indexing="ij"):
        weights = weights * w.ravel()
    return nodes, weights


class TestLazyMesh:
    """A grid stores its per-axis rules only; the flattened mesh is derived
    on first use, bit for bit the mesh it used to store."""

    def test_fields_are_the_axes(self):
        names = [f.name for f in dataclasses.fields(quadrature.QuadGrid)]
        assert names == ["mult", "box", "axes_nodes", "axes_weights"]

    @pytest.mark.parametrize("mu", [[0.5], [0.3, 0.7], [0.2, 0.5, 0.4]])
    @pytest.mark.parametrize("L, n", [(8.0, None), (6.0, 24)])
    def test_mesh_matches_meshgrid_formula(self, mu, L, n):
        grid = build_grid(Multiplicity(mu), L=L, n=n)
        assert "nodes" not in vars(grid) and "weights" not in vars(grid)
        nodes, weights = meshgrid_reference(grid)
        assert grid.nodes.tobytes() == nodes.tobytes() and grid.nodes.shape == nodes.shape
        assert grid.weights.tobytes() == weights.tobytes() and grid.weights.shape == weights.shape
        assert grid.points_per_axis == (n or (120 if len(mu) == 1 else 80))
        assert grid.nodes is grid.nodes and grid.weights is grid.weights


class TestJacobiHalfline:
    def test_plain_exponent_matches_legendre(self):
        t, wt = jacobi_halfline(20, 0.0, 2.0)
        val = np.sum(wt * np.exp(-t))
        assert val == pytest.approx(1.0 - math.exp(-2.0), rel=1e-14)

    def test_cusp_weight_moment(self):
        t, wt = jacobi_halfline(60, 0.6, 8.0)
        val = np.sum(wt * np.exp(-(t**2)))
        assert val == pytest.approx(0.5 * gamma_fn(0.8), rel=1e-13)

    def test_errors(self):
        with pytest.raises(DomainError):
            jacobi_halfline(10, -1.0, 1.0)


def scipy_halfline(n, exponent, length):
    """jacobi_halfline's rule built from scipy.special.roots_jacobi."""
    x, w = scipy_special.roots_jacobi(n, 0.0, exponent)
    return 0.5 * length * (x + 1.0), w * (0.5 * length) ** (exponent + 1.0)


# 2 mu for every mu the tests, the check suites and the benchmark use (mu = 0
# takes numpy's Gauss-Legendre rule, not Gauss-Jacobi), Hankel orders nu in
# (-1, 3] and one exponent above scipy's betaln switch at 1000.
GRID_MUS = (0.2, 0.3, 0.4, 0.5, 0.7, 0.75, 0.8, 0.9, 1.0, 1.1, 1.2, 1.5, 1.7, 2.0, 2.3, 4 / 7)
GRID_EXPONENTS = tuple(2.0 * mu for mu in GRID_MUS)
HANKEL_ORDERS = (-0.9, -0.5, -0.25, 0.25, 0.5, 0.7, 1.0, 1.3, 2.0, 2.35, 3.0)


class TestJacobiHalflineMatchesScipy:
    """The rule computes scipy's roots_jacobi without importing scipy.linalg;
    it must agree with scipy bit for bit, n = 1 included."""

    @pytest.mark.parametrize("n", [1, 2, 8, 40, 80, 120, 220, 512])
    def test_bitwise_equal(self, n):
        for exponent in GRID_EXPONENTS + HANKEL_ORDERS + (1000.5,):
            length = 2.0 if exponent > 1000 else 8.0
            got = jacobi_halfline(n, exponent, length)
            want = scipy_halfline(n, exponent, length)
            for a, b in zip(got, want):
                assert a.tobytes() == b.tobytes(), (n, exponent)

    def test_build_grid_bitwise_equal(self, monkeypatch):
        cases = [([0.0], None), ([0.5], None), ([1.7], None), ([0.3, 0.7], None),
                 ([0.5, 1.0], None), ([0.5], 80), ([0.3, 0.7], 40)]
        grids = [build_grid(Multiplicity(mu), n=n) for mu, n in cases]
        monkeypatch.setattr(
            quadrature, "_gauss_jacobi", lambda n, beta: scipy_special.roots_jacobi(n, 0.0, beta)
        )
        for (mu, n), got in zip(cases, grids):
            want = build_grid(Multiplicity(mu), n=n)
            for name in ("axes_nodes", "axes_weights"):
                for a, b in zip(getattr(got, name), getattr(want, name)):
                    assert a.tobytes() == b.tobytes(), (mu, n, name)
            assert got.nodes.tobytes() == want.nodes.tobytes()
            assert got.weights.tobytes() == want.weights.tobytes()


# The stick exponents (a, b) = (sum_{i>j} (mu_i + 1/2) - 1, mu_j - 1/2) that
# sphere_rule takes for every mu the Funk-Hecke tests and check suite use.
SPHERE_MUS = ((0.0, 0.0), (0.3, 0.7), (0.5, 1.0), (0.0, 0.0, 0.0), (0.3, 0.7, 0.2),
              (1.7, 0.2, 0.5), (0.2, 0.5, 0.4))
STICK_EXPONENTS = sorted({(sum(m + 0.5 for m in mu[j + 1:]) - 1.0, mu[j] - 0.5)
                          for mu in SPHERE_MUS for j in range(len(mu) - 1)})


class TestGaussJacobiTwoExponents:
    """``_gauss_jacobi(n, b, a)`` is scipy's roots_jacobi(n, a, b) for the
    weight (1 - x)^a (1 + x)^b; where a == b scipy takes its Gegenbauer
    routine instead, so there the rule is held to the nodes and the moments."""

    @pytest.mark.parametrize("n", [1, 2, 8, 24, 32, 120])
    def test_bitwise_equal_when_exponents_differ(self, n):
        pairs = [(a, b) for a, b in STICK_EXPONENTS if a != b]
        assert len(pairs) >= 6
        for a, b in pairs:
            got = quadrature._gauss_jacobi(n, b, a)
            want = scipy_special.roots_jacobi(n, a, b)
            for u, v in zip(got, want):
                assert u.tobytes() == v.tobytes(), (n, a, b)

    @pytest.mark.parametrize("n", [1, 2, 8, 24, 32, 120])
    def test_equal_exponents_nodes_and_moments(self, n):
        equal = {a for a, b in STICK_EXPONENTS if a == b}
        assert equal == {-0.5}
        for a in sorted(equal | {-0.3, 0.0, 0.2, 1.0}):
            x, w = quadrature._gauss_jacobi(n, a, a)
            assert np.max(np.abs(x - scipy_special.roots_jacobi(n, a, a)[0])) <= 1e-15, (n, a)
            # integral_{-1}^{1} x^k (1 - x^2)^a dx = B((k + 1)/2, a + 1) for even k
            mass = scipy_special.beta(0.5, a + 1.0)
            for k in range(2 * n):
                want = 0.0 if k % 2 else scipy_special.beta(0.5 * (k + 1), a + 1.0)
                assert abs(np.sum(w * x**k) - want) <= 1e-12 * mass, (n, a, k)

    def test_default_is_the_one_sided_weight(self):
        for b in (-0.5, 0.4, 1.5):
            got = quadrature._gauss_jacobi(24, b)
            want = quadrature._gauss_jacobi(24, b, 0.0)
            for u, v in zip(got, want):
                assert u.tobytes() == v.tobytes()


def closed_form_mass(mu):
    """d_k = Gamma(N/2) prod Gamma(mu_j + 1/2) / (pi^(N/2) Gamma(gamma + N/2))."""
    dim = len(mu)
    top = gamma_fn(0.5 * dim) * math.prod(gamma_fn(m + 0.5) for m in mu)
    return top / (math.pi ** (0.5 * dim) * gamma_fn(sum(mu) + 0.5 * dim))


class TestSphereRule:
    @pytest.mark.parametrize("mu", [(0.0,), (0.7,)] + list(SPHERE_MUS))
    def test_mass_and_sign_flips(self, mu):
        points, weights = sphere_rule(Multiplicity(mu))
        dim = len(mu)
        nodes = quadrature.SPHERE_NODES ** (dim - 1)
        assert points.shape == (2**dim * nodes, dim) and weights.shape == (2**dim * nodes,)
        assert np.sum(weights) == pytest.approx(closed_form_mass(mu), rel=2e-15)
        assert np.max(np.abs(np.sum(points * points, axis=-1) - 1.0)) <= 1e-15
        assert np.all(weights > 0)
        # 2^N blocks, each the first with its own signs
        blocks = points.reshape(2**dim, nodes, dim)
        assert np.all(np.abs(blocks) == np.abs(blocks[0])) and np.all(blocks[0] > 0)
        signs = np.sign(blocks[:, 0, :])
        assert len({tuple(s) for s in signs}) == 2**dim
        assert np.all(weights.reshape(2**dim, nodes) == weights[:nodes])

    def test_one_dimension(self):
        points, weights = sphere_rule(Multiplicity([0.7]))
        assert points.tolist() == [[1.0], [-1.0]] and weights.tolist() == [0.5, 0.5]

    @pytest.mark.parametrize("mu", [(0.3, 0.7), (0.0, 0.0, 0.0), (1.7, 0.2, 0.5)])
    def test_monomial_moments(self, mu):
        # integral of y^(2 alpha) w_k dsigma is d_k at mu + alpha, since
        # y^(2 alpha) w_k is w_k at the shifted multiplicity; odd monomials
        # cancel over the sign flips
        points, weights = sphere_rule(Multiplicity(mu))
        dim = len(mu)
        for alpha in [(0,) * dim, (1,) + (0,) * (dim - 1), (2,) * dim, tuple(range(dim, 0, -1)),
                      (7,) + (3,) * (dim - 1)]:
            want = closed_form_mass(tuple(m + k for m, k in zip(mu, alpha)))
            got = np.sum(weights * np.prod(points ** (2 * np.array(alpha)), axis=-1))
            assert got == pytest.approx(want, rel=1e-13), (mu, alpha)
            odd = np.sum(weights * points[:, 0] * np.prod(points[:, 1:] ** 2, axis=-1))
            assert abs(odd) <= 1e-16

    def test_mass_agrees_with_uniform_circle(self):
        # the independent N = 2 reference: the circle rule's mean of w_k
        for mu in ((0.0, 0.0), (0.3, 0.7)):
            mult = Multiplicity(mu)
            d_k = np.mean(mult.weight(circle_grid(1 << 16)))
            assert np.sum(sphere_rule(mult)[1]) == pytest.approx(d_k, rel=1e-6)


class TestCircleGrid:
    def test_total_mass_exactly_one(self):
        # n unit vectors at the angles 2 pi k / n, each of weight 1/n
        circle = circle_grid(64)
        assert circle.shape == (64, 2)
        assert np.allclose(np.hypot(circle[:, 0], circle[:, 1]), 1.0, rtol=0, atol=1e-15)
        assert circle[16].tolist() == pytest.approx([0.0, 1.0], abs=1e-16)

    def test_surface_weight_vs_beta_identity(self):
        # d_k for mu = (0.3, 0.7) equals B(0.8, 1.2)/pi
        mult = Multiplicity([0.3, 0.7])
        d_k = np.mean(mult.weight(circle_grid(1 << 22)))
        beta = gamma_fn(0.8) * gamma_fn(1.2) / gamma_fn(2.0)
        assert d_k == pytest.approx(beta / math.pi, rel=1e-9)

    def test_mehta_surface_relation(self):
        # c_k^-1 = pi^(N/2) Gamma(lambda+1) d_k / Gamma(N/2) for N = 2
        for mu in ((0.0, 0.0), (0.3, 0.7)):
            assert circle_identity_residual(Multiplicity(mu), n=1 << 22) <= 1e-9

    def test_minimum_size(self):
        with pytest.raises(DomainError):
            circle_grid(4)

    @pytest.mark.parametrize("n", [1 << 12, 1000])
    def test_bit_equal_to_weight_array_rule(self, n):
        # reference: the rule with an array of n weights 1/n, whose products
        # the scalar weight 1/n forms too, so the residual matches bit for bit
        angles = 2.0 * math.pi * np.arange(n) / n
        points = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
        assert circle_grid(n).tobytes() == points.tobytes()
        weights = np.full(n, 1.0 / n)
        for mu in ((0.0, 0.0), (0.3, 0.7)):
            mult = Multiplicity(mu)
            d_k = float(np.sum(weights * mult.weight(points)))
            lhs = 1.0 / mult.mehta_constant
            rhs = math.pi * gamma_fn(mult.lambda_index + 1.0) * d_k / gamma_fn(1.0)
            assert circle_identity_residual(mult, n) == abs(lhs - rhs) / abs(lhs)
