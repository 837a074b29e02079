"""Transform layer: plans, three kernel routes, Hankel reduction, Bochner,
Master/Hecke, Funk-Hecke and the Gaussian integral identities."""

import cmath
import math
import sys
import threading
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from dunkl_frft import transform
from dunkl_frft.errors import DomainError, RangeError, UsageError
from dunkl_frft.polyengine import GaussPoly, HermiteExpansion, MultiPoly, heat_exp_poly
from dunkl_frft.quadrature import build_grid, circle_grid
from dunkl_frft.specfun import BesselOrder, Multiplicity, laguerre_eval
from dunkl_frft.transform import (
    REGIME_GENERIC,
    REGIME_IDENTITY,
    REGIME_NEAR_SINGULAR,
    REGIME_PARITY,
    TransformPlan,
    bochner_fdt,
    fdt_integral,
    fdt_integral_on_grid,
    fdt_smoothed,
    fdt_smoothed_on_grid,
    fdt_spectral,
    fractional_hankel,
    funk_hecke_radial,
    gaussian_bilinear_check,
    gaussian_moment_check,
    kernel_alpha,
    kernel_smoothed,
    kernel_smoothed_bound,
    kernel_spectral,
    master_formula_lhs_input,
    master_formula_rhs,
    normalize_alpha,
    radial_bessel,
)

TWO_PI = 2.0 * math.pi


def grid_l2(grid, values):
    return math.sqrt(float(np.sum(grid.weights * np.abs(values) ** 2)))


class TestNormalizeAlpha:
    def test_two_pi_is_identity(self):
        a, regime = normalize_alpha(TWO_PI)
        assert a == 0.0 and regime == REGIME_IDENTITY

    def test_minus_pi_maps_to_parity(self):
        a, regime = normalize_alpha(-math.pi)
        assert a == math.pi and regime == REGIME_PARITY

    def test_generic_reduction(self):
        a, regime = normalize_alpha(math.pi / 2 + 4 * math.pi)
        assert a == pytest.approx(math.pi / 2, abs=1e-12) and regime == REGIME_GENERIC

    def test_near_singular(self):
        _, regime = normalize_alpha(0.01)
        assert regime == REGIME_NEAR_SINGULAR
        _, regime = normalize_alpha(math.pi - 0.01)
        assert regime == REGIME_NEAR_SINGULAR

    def test_non_finite(self):
        with pytest.raises(DomainError):
            normalize_alpha(math.inf)

    def test_s_min_validated(self):
        # s_min <= 0 or nan would switch the near-singular refusal off
        mult = Multiplicity([0.0])
        for s_min in (-1.0, 0.0, math.nan, math.inf, 1.5):
            with pytest.raises(DomainError, match="s_min"):
                normalize_alpha(0.01, s_min)
            with pytest.raises(DomainError, match="s_min"):
                TransformPlan(mult, 0.01, s_min=s_min)
        assert TransformPlan(mult, 0.01, s_min=1.0).regime == REGIME_NEAR_SINGULAR


class TestTransformPlan:
    def test_prefactor_matches_alternative_expression(self):
        # A_alpha also equals c_k (i e^{-i a} / (2 sin a))^(gamma + N/2)
        for mu in ([0.5], [0.3, 0.7]):
            mult = Multiplicity(mu)
            grid = build_grid(mult, n=24)
            for alpha in (0.3, 1.2, -0.7, 2.8, -2.9):
                plan = TransformPlan(mult, alpha, grid=grid)
                g = mult.gamma_index + mult.dim / 2.0
                alt = mult.mehta_constant * (
                    1j * cmath.exp(-1j * alpha) / (2.0 * math.sin(alpha))
                ) ** g
                assert plan.prefactor == pytest.approx(alt, rel=1e-13)

    def test_prefactor_is_mehler_power_at_r_one(self):
        # A_alpha = c_k (1 - e^{2ia})^{-(gamma + N/2)} on the principal branch,
        # sign(sin a) included: the integral kernel is the Mehler kernel at r = 1
        for mu in ([0.0], [0.5], [0.3, 0.7]):
            mult = Multiplicity(mu)
            grid = build_grid(mult, n=24)
            for alpha in (0.3, 1.2, 2.8, -0.3, -1.2, -2.8, math.pi / 2, -math.pi / 2):
                plan = TransformPlan(mult, alpha, grid=grid)
                mehler = mult.mehta_constant * (1.0 - cmath.exp(2j * alpha)) ** (
                    -plan.order_exponent
                )
                assert abs(mehler - plan.prefactor) <= 1e-14 * abs(plan.prefactor)

    def test_prefactor_underflow_refused(self):
        # (2|sin a|)^(gamma + N/2) underflows to 0 far inside the near-singular regime
        plan = TransformPlan(Multiplicity([1.5]), 1e-300)
        with pytest.raises(RangeError):
            _ = plan.prefactor
        with pytest.raises(RangeError):
            plan.hankel_prefactor(2.0)

    def test_periodic_plans_identical(self):
        mult = Multiplicity([0.5])
        grid = build_grid(mult, n=24)
        p1 = TransformPlan(mult, 0.9, grid=grid)
        p2 = TransformPlan(mult, 0.9 + TWO_PI, grid=grid)
        assert p1.alpha == pytest.approx(p2.alpha, abs=1e-12)
        assert abs(p1.prefactor - p2.prefactor) <= 1e-13 * abs(p1.prefactor)

    def test_smoothing_validation(self):
        mult = Multiplicity([0.5])
        with pytest.raises(DomainError):
            TransformPlan(mult, 0.5, r=0.0)
        with pytest.raises(DomainError):
            TransformPlan(mult, 0.5, r=1.5)

    def test_default_truncation_by_dimension(self):
        g1 = build_grid(Multiplicity([0.5]), n=24)
        assert TransformPlan(Multiplicity([0.5]), 0.5, grid=g1).M == 24
        g2 = build_grid(Multiplicity([0.5, 0.5]), n=32)
        assert TransformPlan(Multiplicity([0.5, 0.5]), 0.5, grid=g2).M == 16


class TestKernelAlpha:
    def test_fourier_kernel_at_mu_zero(self):
        mult = Multiplicity([0.0])
        plan = TransformPlan(mult, -math.pi / 2, grid=build_grid(mult, n=24))
        for x, y in ((0.7, 1.3), (-1.2, 2.0)):
            got = kernel_alpha(plan, np.array([x]), np.array([y]))
            assert complex(got) == pytest.approx(cmath.exp(-1j * x * y), rel=1e-13)

    def test_no_chirp_phase_at_half_pi(self):
        # cot(+-pi/2) = 0: kernel is the bare product kernel
        mult = Multiplicity([0.8])
        plan = TransformPlan(mult, math.pi / 2, grid=build_grid(mult, n=24))
        from dunkl_frft.specfun import dunkl_kernel_1d

        x, y = 1.1, 0.6
        got = kernel_alpha(plan, np.array([x]), np.array([y]))
        ref = dunkl_kernel_1d(BesselOrder(0.3), 1j * x, y)
        assert complex(got) == pytest.approx(ref, rel=1e-13)

    def test_quarter_turn_composition(self):
        # mu=0.5, alpha=pi/4, x=y=1: e^{-i} * E_0(i sqrt(2), 1)
        from dunkl_frft.specfun import dunkl_kernel_1d

        mult = Multiplicity([0.5])
        plan = TransformPlan(mult, math.pi / 4, grid=build_grid(mult, n=24))
        got = kernel_alpha(plan, np.array([1.0]), np.array([1.0]))
        ref = cmath.exp(-1j) * dunkl_kernel_1d(BesselOrder(0.0), 1j * math.sqrt(2.0), 1.0)
        assert complex(got) == pytest.approx(ref, rel=1e-13)

    def test_modulus_bounded_by_one(self):
        mult = Multiplicity([0.3, 0.7])
        plan = TransformPlan(mult, 1.0, grid=build_grid(mult, n=32))
        rng = np.random.default_rng(5)
        x = rng.uniform(-3, 3, size=(50, 2))
        y = rng.uniform(-3, 3, size=(50, 2))
        vals = kernel_alpha(plan, x, y)
        chirp = np.exp(
            -0.5j / math.tan(1.0) * (np.sum(x * x, axis=-1) + np.sum(y * y, axis=-1))
        )
        assert np.max(np.abs(vals / chirp)) <= 1.0 + 1e-12

    def test_regime_errors(self):
        mult = Multiplicity([0.5])
        grid = build_grid(mult, n=24)
        with pytest.raises(UsageError):
            kernel_alpha(TransformPlan(mult, 0.0, grid=grid), np.array([1.0]), np.array([1.0]))
        with pytest.raises(UsageError):
            kernel_alpha(TransformPlan(mult, math.pi, grid=grid), np.array([1.0]), np.array([1.0]))


class TestKernelSmoothed:
    def test_small_r_limit(self):
        # r -> 0: only the ground term c_k e^{-(|x|^2+|y|^2)/2} survives
        mult = Multiplicity([0.5, 1.0])
        plan = TransformPlan(mult, 1.1, grid=build_grid(mult, n=32))
        x = np.array([0.8, -0.4])
        y = np.array([1.5, 0.2])
        got = kernel_smoothed(plan, x, y, r=1e-8)
        ref = mult.mehta_constant * math.exp(-0.5 * (np.sum(x * x) + np.sum(y * y)))
        assert complex(got) == pytest.approx(ref, rel=1e-6)

    def test_classical_mehler_formula(self):
        # mu = 0, N = 1: pi^-1/2 (1-z^2)^-1/2 exp(-(1+z^2)(x^2+y^2)/(2(1-z^2)) + 2xyz/(1-z^2))
        mult = Multiplicity([0.0])
        plan = TransformPlan(mult, 0.9, grid=build_grid(mult, n=24))
        r = 0.6
        z = r * cmath.exp(1j * 0.9)
        for x, y in ((0.3, 1.1), (-1.0, 0.4)):
            got = kernel_smoothed(plan, np.array([x]), np.array([y]), r=r)
            ref = (
                math.pi ** (-0.5)
                * (1 - z * z) ** (-0.5)
                * cmath.exp(-(1 + z * z) * (x * x + y * y) / (2 * (1 - z * z)) + 2 * x * y * z / (1 - z * z))
            )
            assert complex(got) == pytest.approx(ref, rel=1e-12)

    def test_r_validation(self):
        mult = Multiplicity([0.5])
        plan = TransformPlan(mult, 0.9, grid=build_grid(mult, n=24))
        with pytest.raises(UsageError):
            kernel_smoothed(plan, np.array([1.0]), np.array([1.0]), r=1.0)

    def test_bound_holds_beyond_bessel_default_range(self):
        # |u| = 87.3 here, past the direct-caller ceiling of 80; the kernel and
        # its majorization are both evaluated rather than refused
        mult = Multiplicity([0.5, 1.0])
        plan = TransformPlan(mult, math.pi / 3, grid=build_grid(mult, n=32), r=0.5)
        x = np.array([10.0, 1.0])
        assert np.isfinite(complex(kernel_smoothed(plan, x, x)))
        lhs, rhs = kernel_smoothed_bound(plan, x, x)
        assert lhs <= rhs


class TestKernelSpectral:
    def test_single_term(self):
        mult = Multiplicity([0.5, 1.0])
        plan = TransformPlan(mult, 0.7, grid=build_grid(mult, n=32), M=0)
        x = np.array([0.5, 0.5])
        y = np.array([-0.3, 1.0])
        got = kernel_spectral(plan, x, y, r=0.8)
        ref = mult.mehta_constant * math.exp(-0.5 * (np.sum(x * x) + np.sum(y * y)))
        assert complex(got) == pytest.approx(ref, rel=1e-13)

    def test_matches_mehler_closed_form(self):
        mult = Multiplicity([0.5])
        plan = TransformPlan(mult, 1.2, grid=build_grid(mult, n=24))
        x = np.array([0.9])
        y = np.array([-0.7])
        series = kernel_spectral(plan, x, y, r=0.5, M=40)
        closed = kernel_smoothed(plan, x, y, r=0.5)
        assert complex(series) == pytest.approx(complex(closed), abs=1e-8)

    def test_origin_even_only(self):
        mult = Multiplicity([0.8])
        plan = TransformPlan(mult, 0.7, grid=build_grid(mult, n=24), M=6)
        zero = np.array([0.0])
        got = kernel_spectral(plan, zero, zero, r=0.5)
        basis = plan.basis
        ref = 0.0j
        for nu in basis.indices:
            if sum(nu) % 2 == 0:
                ref += 0.5 ** sum(nu) * cmath.exp(1j * sum(nu) * plan.alpha) * (
                    basis.eval_index(nu, zero) ** 2
                )
        assert complex(got) == pytest.approx(complex(ref), rel=1e-13)

    def test_mehler_limit_monotone(self):
        mult = Multiplicity([0.5])
        plan = TransformPlan(mult, math.pi / 3, grid=build_grid(mult, n=40))
        x, y = np.array([0.8]), np.array([-1.1])
        target = plan.prefactor * kernel_alpha(plan, x, y)
        gaps = [
            abs(complex(kernel_smoothed(plan, x, y, r=1.0 - 2.0**-j) - target))
            for j in range(3, 13)
        ]
        assert all(b <= a * (1 + 1e-9) for a, b in zip(gaps[:-1], gaps[1:]))


class TestSpectralRoute:
    def setup_method(self):
        self.mult = Multiplicity([0.5])
        self.plan = TransformPlan(self.mult, math.pi / 3, M=8)

    def test_identity_order_is_projection(self):
        plan0 = self.plan.with_alpha(0.0)
        f = HermiteExpansion.from_terms(plan0.basis, {(1,): 1.0, (4,): -2.0j})
        out = fdt_spectral(f, plan0)
        assert np.max(np.abs(out.coefficients - f.coeffs)) <= 1e-12

    def test_basis_element_single_coefficient(self):
        f = self.plan.basis.function((3,))
        out = fdt_spectral(f, self.plan)
        got = out.expansion.coefficient((3,))
        assert got == pytest.approx(cmath.exp(3j * self.plan.alpha), abs=1e-12)
        others = [c for nu, c in zip(out.indices, out.coefficients) if nu != (3,)]
        assert np.max(np.abs(others)) <= 1e-12

    def test_parity_reconstruction(self):
        plan_pi = self.plan.with_alpha(math.pi)
        f = HermiteExpansion.from_terms(self.plan.basis, {(0,): 0.5, (1,): 1.0, (2,): -0.25})
        out = fdt_spectral(f, plan_pi)
        x = np.linspace(-2, 2, 11)[:, None]
        assert np.max(np.abs(out(x) - f(-x))) <= 1e-12

    def test_parseval_and_tail(self):
        f = self.plan.basis.function((2,))
        out = fdt_spectral(f, self.plan)
        assert out.parseval_slack <= 1e-10
        assert out.tail_mass <= 1e-20


class TestIntegralRoute:
    def test_ground_state_fixed_point(self):
        mult = Multiplicity([0.3, 0.7])
        plan = TransformPlan(mult, 2 * math.pi / 5, M=2)
        h0 = plan.basis.function((0, 0))
        xs = np.array([[0.0, 0.0], [1.0, -0.5], [2.0, 1.0]])
        got = fdt_integral(h0, plan, xs)
        assert np.max(np.abs(got - h0(xs))) <= 1e-8

    def test_hecke_first_degree(self):
        mult = Multiplicity([0.3, 0.7])
        plan = TransformPlan(mult, math.pi / 6, M=0)
        f = GaussPoly(MultiPoly.variable(0, 2))
        xs = np.array([[0.5, 0.5], [-1.0, 2.0]])
        got = fdt_integral(f, plan, xs)
        assert np.max(np.abs(got - cmath.exp(1j * plan.alpha) * f(xs))) <= 1e-9

    def test_near_singular_refusal_mentions_spectral(self):
        mult = Multiplicity([0.5])
        plan = TransformPlan(mult, 0.02, M=4)
        assert plan.regime == REGIME_NEAR_SINGULAR
        with pytest.raises(UsageError, match="fdt_spectral"):
            fdt_integral(plan.basis.function((0,)), plan, np.array([[0.0]]))

    def test_identity_parity_refusal(self):
        mult = Multiplicity([0.5])
        plan = TransformPlan(mult, 0.0, M=4)
        with pytest.raises(UsageError):
            fdt_integral(plan.basis.function((0,)), plan, np.array([[0.0]]))

    def test_non_finite_points_refused(self):
        mult = Multiplicity([0.5])
        plan = TransformPlan(mult, math.pi / 3, M=4)
        f = plan.basis.function((0,))
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError, match="finite"):
                fdt_integral(f, plan, np.array([[0.0], [bad]]))
            with pytest.raises(DomainError, match="finite"):
                fdt_smoothed(f, plan, np.array([[bad]]), r=0.5)

    def test_route_agreement_single_combo(self):
        mult = Multiplicity([0.5])
        plan = TransformPlan(mult, -math.pi / 3, M=24)
        f = HermiteExpansion.from_terms(plan.basis, {(0,): 1.0, (2,): 1.0j, (5,): -0.5})
        spectral = fdt_spectral(f, plan)
        integral = fdt_integral_on_grid(f, plan)
        assert grid_l2(plan.grid, spectral(plan.grid.nodes) - integral) <= 1e-6

    def test_smoothed_contraction(self):
        # |D_{k,r}^a f| <= |f| and spectral/integral smoothed routes agree
        mult = Multiplicity([0.5])
        plan = TransformPlan(mult, math.pi / 3, M=8)
        f = HermiteExpansion.from_terms(plan.basis, {(1,): 1.0, (3,): 0.5j})
        fnorm = f.norm_l2()
        for r in (0.5, 0.9, 1.0 - 2.0**-8):
            smooth = fdt_smoothed(f, plan, plan.grid.nodes, r=r)
            norm = grid_l2(plan.grid, smooth)
            assert norm <= fnorm + 1e-9
            ref = fdt_spectral(f, plan, r=r)
            assert grid_l2(plan.grid, ref(plan.grid.nodes) - smooth) <= 1e-6

    def test_smoothed_on_grid_matches_points(self):
        for mu in ([0.5], [0.3, 0.7]):
            mult = Multiplicity(mu)
            plan = TransformPlan(mult, math.pi / 3, grid=build_grid(mult, L=6.0, n=16), M=4)
            nu = (1,) + (2,) * (mult.dim - 1)
            f = HermiteExpansion.from_terms(plan.basis, {(0,) * mult.dim: 1.0, nu: 0.5j})
            for r in (0.5, 0.9):
                on_grid = fdt_smoothed_on_grid(f, plan, r=r)
                at_nodes = fdt_smoothed(f, plan, plan.grid.nodes, r=r)
                assert np.max(np.abs(on_grid - at_nodes)) <= 1e-12

    def test_smoothed_converges_to_transform(self):
        mult = Multiplicity([0.5])
        plan = TransformPlan(mult, math.pi / 3, M=8)
        f = HermiteExpansion.from_terms(plan.basis, {(2,): 1.0, (6,): -0.5})
        target = fdt_integral_on_grid(f, plan)
        errs = [
            grid_l2(plan.grid, fdt_smoothed(f, plan, plan.grid.nodes, r=1 - 2.0**-j) - target)
            for j in (3, 5, 7, 9, 11)
        ]
        assert all(b < a for a, b in zip(errs[:-1], errs[1:]))

    def test_dunkl_transform_is_minus_half_pi(self):
        # D^{-pi/2} h_nu = (-i)^{|nu|} h_nu; the +pi/2 order gives the
        # conjugate phases instead (the two differ for odd degrees)
        mult = Multiplicity([0.5])
        plan_minus = TransformPlan(mult, -math.pi / 2, M=4)
        plan_plus = plan_minus.with_alpha(math.pi / 2)
        h1 = plan_minus.basis.function((1,))
        xs = np.linspace(-2, 2, 9)[:, None]
        got_minus = fdt_integral(h1, plan_minus, xs)
        got_plus = fdt_integral(h1, plan_plus, xs)
        assert np.max(np.abs(got_minus - (-1j) * h1(xs))) <= 1e-9
        assert np.max(np.abs(got_plus - (+1j) * h1(xs))) <= 1e-9
        assert np.max(np.abs(got_plus - got_minus)) > 0.1


class TestAxisDedup:
    """Point outputs are built once per distinct coordinate on each axis."""

    @staticmethod
    def _plan():
        mult = Multiplicity([0.3, 0.7])
        return TransformPlan(mult, math.pi / 3, grid=build_grid(mult, L=6.0, n=16), M=4)

    @staticmethod
    def _f(pts):
        return np.exp(-0.4 * np.sum(pts * pts, axis=-1)) * (1.0 + 0.3 * pts[..., 0])

    def test_mesh_builds_one_row_per_distinct_coordinate(self, monkeypatch):
        rows = []
        original = transform.dunkl_kernel_1d

        def recording(order, z, y, **kw):
            rows.append(np.shape(z)[0])
            return original(order, z, y, **kw)

        monkeypatch.setattr(transform, "dunkl_kernel_1d", recording)
        plan = self._plan()
        lin = np.linspace(-5.0, 5.0, 25)
        mesh = np.stack(np.meshgrid(lin, lin, indexing="ij"), axis=-1).reshape(-1, 2)
        fdt_integral(self._f, plan, mesh)
        fdt_smoothed(self._f, plan, mesh, r=0.6)
        # one row per distinct |x|: the x < 0 rows are mirrored, not built
        assert rows == [np.unique(np.abs(lin)).size] * 4

    def test_grid_nodes_match_on_grid(self):
        plan = self._plan()
        at_nodes = fdt_integral(self._f, plan, plan.grid.nodes)
        on_grid = fdt_integral_on_grid(self._f, plan)
        assert np.max(np.abs(at_nodes - on_grid)) <= 1e-12

    def test_repeated_points_bitwise_equal(self):
        plan = self._plan()
        xs = np.array(
            [[0.0, 1.5], [-0.0, 1.5], [2.0, -0.0], [2.0, 0.0], [-0.0, -0.0], [0.0, 0.0],
             [0.7, -3.1], [0.7, -3.1]]
        )
        for out in (fdt_integral(self._f, plan, xs), fdt_smoothed(self._f, plan, xs, r=0.6)):
            for i in range(0, len(xs), 2):
                assert out[i].tobytes() == out[i + 1].tobytes(), xs[i]


class TestOperatorCache:
    """The plan keeps its kernel axis factors on the |x| rows and its
    Hermite analysis matrices, and a cached call returns the same bits."""

    _plan = staticmethod(TestAxisDedup._plan)
    _f = staticmethod(TestAxisDedup._f)

    @staticmethod
    def _outputs(plan):
        rng = np.random.default_rng(17)
        return {
            "signed zeros": np.array([[0.0, -0.0], [-0.0, 1.5], [2.0, 0.0], [-2.0, -0.0]]),
            "random": rng.uniform(-4.0, 4.0, size=(13, 2)),
            "grid nodes": plan.grid.nodes,
        }

    @staticmethod
    def _parent_style(plan, f, xs, r):
        """The per-point build: every output row through the Bessel layer."""
        zscale, gcoef, pref = transform._mehler_form(plan, r)
        mats = []
        for j, order in enumerate(plan.mult.orders):
            xk = xs[:, j][:, None]
            yk = plan.grid.axes_nodes[j][None, :]
            kern = transform.dunkl_kernel_1d(order, zscale * xk, yk, u_max=math.inf)
            phase = np.exp(-gcoef * (xk * xk + yk * yk))
            mats.append(kern * phase * plan.grid.axes_weights[j][None, :])
        tensor = plan.grid.to_tensor(plan.grid.values(f).astype(complex))
        return pref * transform._contract_points(mats, tensor)

    def test_repeat_call_builds_nothing(self, monkeypatch):
        plan = self._plan()
        xs = self._outputs(plan)["random"]
        first = fdt_integral(self._f, plan, xs)
        assert plan.operator_cache_info()[:3] == (0, 1, 1)

        def refuse(*args, **kwargs):
            raise AssertionError("kernel rebuilt on a cache hit")

        monkeypatch.setattr(transform, "dunkl_kernel_1d", refuse)
        again = fdt_integral(self._f, plan, xs.copy())
        assert again.tobytes() == first.tobytes()
        info = plan.operator_cache_info()
        assert (info.hits, info.misses, info.entries) == (1, 1, 1)
        assert info.nbytes > 0

    def test_cached_fresh_and_parent_style_agree(self):
        plan = self._plan()
        for name, xs in self._outputs(plan).items():
            for r in (1.0, 0.6):
                route = (lambda p: fdt_integral(self._f, p, xs)) if r == 1.0 else (
                    lambda p: fdt_smoothed(self._f, p, xs, r=r)
                )
                fresh = route(self._plan())
                route(plan)
                cached = route(plan)
                parent = self._parent_style(plan, self._f, xs, r)
                assert cached.tobytes() == fresh.tobytes(), (name, r)
                assert cached.tobytes() == parent.tobytes(), (name, r)
        on_grid = fdt_integral_on_grid(self._f, plan)
        assert fdt_integral_on_grid(self._f, plan).tobytes() == on_grid.tobytes()
        assert on_grid.tobytes() == fdt_integral_on_grid(self._f, self._plan()).tobytes()

    def test_with_alpha_shares_no_operators(self):
        plan = self._plan()
        xs = self._outputs(plan)["random"]
        fdt_integral(self._f, plan, xs)
        other = plan.with_alpha(-2.0 * math.pi / 5.0)
        assert other.operator_cache_info() == (0, 0, 0, 0)
        fdt_integral(self._f, other, xs)
        assert other.operator_cache_info()[:3] == (0, 1, 1)
        assert plan.operator_cache_info()[:3] == (0, 1, 1)

    def test_budget_evicts_least_recent_and_skips_oversized(self, monkeypatch):
        plan = self._plan()
        sets = [np.array([[0.5 * k + 0.25, -0.5 * k - 0.25]]) for k in range(3)]
        fdt_integral(self._f, plan, sets[0])
        one = plan.operator_cache_info().nbytes
        builds = []
        original = transform.dunkl_kernel_1d

        def counting(*args, **kwargs):
            builds.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(transform, "dunkl_kernel_1d", counting)
        monkeypatch.setattr(transform, "_OPERATOR_CACHE_BYTES", 2 * one)
        fdt_integral(self._f, plan, sets[1])
        fdt_integral(self._f, plan, sets[0])  # hit: sets[1] is now least recent
        fdt_integral(self._f, plan, sets[2])  # evicts sets[1]
        assert plan.operator_cache_info()[1:] == (3, 2, 2 * one)
        builds.clear()
        fdt_integral(self._f, plan, sets[0])
        fdt_integral(self._f, plan, sets[2])
        assert builds == []
        fdt_integral(self._f, plan, sets[1])
        assert len(builds) == plan.mult.dim

        small = self._plan()
        monkeypatch.setattr(transform, "_OPERATOR_CACHE_BYTES", one - 1)
        got = fdt_integral(self._f, small, sets[0])
        assert small.operator_cache_info() == (0, 1, 0, 0)
        assert got.tobytes() == fdt_integral(self._f, self._plan(), sets[0]).tobytes()

    def test_analysis_matrices_shared_by_spectral_and_sampler(self, monkeypatch):
        from dunkl_frft.polyengine import HermiteBasis
        from dunkl_frft.semigroup import GroupSampler

        plan = self._plan()
        first = fdt_spectral(self._f, plan).base_coefficients

        def refuse(*args, **kwargs):
            raise AssertionError("analysis matrix rebuilt on a cache hit")

        monkeypatch.setattr(HermiteBasis, "axis_matrix", refuse)
        again = fdt_spectral(self._f, plan).base_coefficients
        sampled = GroupSampler(plan, q=16).expand(self._f).coeffs
        assert again.tobytes() == first.tobytes() == sampled.tobytes()
        assert plan.operator_cache_info()[:3] == (2, 1, 1)
        monkeypatch.undo()
        fresh = fdt_spectral(self._f, self._plan()).base_coefficients
        assert fresh.tobytes() == first.tobytes()

    @staticmethod
    def _run_threads(work, workers):
        errors = []

        def guarded(seed):
            try:
                work(seed)
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=guarded, args=(s,)) for s in range(workers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads)
        assert errors == []

    def test_threads_share_one_plan(self, monkeypatch):
        plan = self._plan()
        sets = list(self._outputs(plan).values())[:2] + [np.array([[1.0, -3.0]])]
        want = [fdt_integral(self._f, self._plan(), xs).tobytes() for xs in sets]
        fdt_integral(self._f, plan, sets[0])
        # room for about two entries, so the threads also evict
        monkeypatch.setattr(transform, "_OPERATOR_CACHE_BYTES", 2 * plan.operator_cache_info().nbytes)

        def work(seed):
            for k in range(12):
                i = (seed + k) % len(sets)
                assert fdt_integral(self._f, plan, sets[i]).tobytes() == want[i]

        self._run_threads(work, 6)

    def test_bookkeeping_under_contention(self, monkeypatch):
        monkeypatch.setattr(transform, "_OPERATOR_CACHE_BYTES", 4 * 8)
        cache = transform._OperatorCache()
        calls, workers = 6000, 8

        def work(seed):
            for k in range(calls):
                cache.get(("k", (7 * seed + k) % 9), lambda: [np.zeros(1)])

        self._run_threads(work, workers)
        info = cache.info()
        assert info.hits + info.misses == workers * calls
        assert info.nbytes == sum(size for _, size in cache._entries.values()) <= 4 * 8
        assert info.entries == len(cache._entries)


class TestFractionalHankel:
    def test_laguerre_eigenfunctions(self):
        mult = Multiplicity([1.0])
        plan = TransformPlan(mult, math.pi / 3, M=0)
        nu = 0.5
        radii = np.linspace(0.0, 2.5, 11)
        for m in range(4):
            psi = lambda y, _m=m: laguerre_eval(_m, nu, y * y) * np.exp(-0.5 * y * y)
            got = fractional_hankel(psi, nu, plan, radii)
            want = cmath.exp(2j * plan.alpha * m) * psi(radii)
            assert np.max(np.abs(got - want)) <= 1e-9

    def test_ground_state_invariant(self):
        mult = Multiplicity([1.0])
        plan = TransformPlan(mult, -2 * math.pi / 5, M=0)
        psi = lambda y: laguerre_eval(0, 0.7, y * y) * np.exp(-0.5 * y * y)
        got = fractional_hankel(psi, 0.7, plan, np.array([0.9]))
        assert complex(got[0]) == pytest.approx(complex(psi(0.9)), abs=1e-10)

    def test_cosine_reduction_at_minus_half(self):
        # nu = -1/2, alpha = -pi/2: classical cosine transform of a Gaussian
        mult = Multiplicity([0.0])
        plan = TransformPlan(mult, -math.pi / 2, M=0)
        a = 0.8
        psi = lambda y: np.exp(-a * y * y)
        for x in (0.0, 0.7, 2.1):
            got = fractional_hankel(psi, -0.5, plan, np.array([x]))
            want = math.exp(-x * x / (4 * a)) / math.sqrt(2 * a)
            assert complex(got[0]) == pytest.approx(want, abs=1e-10)

    def test_negative_radius_rejected(self):
        mult = Multiplicity([0.5])
        plan = TransformPlan(mult, 0.9, M=0)
        with pytest.raises(DomainError):
            fractional_hankel(lambda y: np.exp(-y * y), 0.5, plan, np.array([-1.0]))


class TestBochner:
    def setup_method(self):
        self.mult = Multiplicity([0.3, 0.7])
        self.plan = TransformPlan(self.mult, math.pi / 3, M=0)

    def test_radial_case_matches_integral_route(self):
        p = MultiPoly.constant(1, 2)
        psi = lambda y: np.exp(-0.5 * np.asarray(y) ** 2)
        xs = np.array([[0.6, -0.2], [1.5, 1.0]])
        rhs = bochner_fdt(p, psi, self.plan, xs)
        f = lambda pts: np.exp(-0.5 * np.sum(pts**2, axis=-1))
        lhs = fdt_integral(f, self.plan, xs)
        assert np.max(np.abs(lhs - rhs)) <= 1e-8

    def test_degree_one_consistent_with_hecke(self):
        p = MultiPoly.variable(0, 2)
        psi = lambda y: np.exp(-0.5 * np.asarray(y) ** 2)
        xs = np.array([[0.4, 0.9], [-1.2, 0.3]])
        rhs = bochner_fdt(p, psi, self.plan, xs)
        want = cmath.exp(1j * self.plan.alpha) * p(xs) * np.exp(
            -0.5 * np.sum(xs**2, axis=-1)
        )
        assert np.max(np.abs(rhs - want)) <= 1e-9

    def test_eigen_phase(self):
        n, m = 1, 2
        a = n + self.mult.gamma_index
        p = MultiPoly.variable(1, 2)
        psi = lambda y: laguerre_eval(m, a, np.asarray(y) ** 2) * np.exp(-0.5 * np.asarray(y) ** 2)
        xs = np.array([[0.8, -0.6], [1.1, 0.2]])
        rhs = bochner_fdt(p, psi, self.plan, xs)
        f = lambda pts: p(pts) * psi(np.sqrt(np.sum(pts**2, axis=-1)))
        lhs = fdt_integral(f, self.plan, xs)
        assert np.max(np.abs(lhs - rhs)) <= 1e-8
        phase = cmath.exp(1j * self.plan.alpha * (n + 2 * m))
        assert np.max(np.abs(lhs - phase * f(xs))) <= 1e-8

    def test_non_harmonic_rejected(self):
        p = MultiPoly.monomial((2, 0))
        with pytest.raises(UsageError):
            bochner_fdt(p, lambda y: np.exp(-(y**2)), self.plan, np.array([[1.0, 0.0]]))

    def test_one_dimension_rejected(self):
        mult = Multiplicity([0.5])
        plan = TransformPlan(mult, 0.9, M=0)
        with pytest.raises(UsageError):
            bochner_fdt(MultiPoly.constant(1, 1), lambda y: np.exp(-(y**2)), plan, np.array([[1.0]]))


class TestMasterFormula:
    def test_constant(self):
        mult = Multiplicity([0.5])
        plan = TransformPlan(mult, 0.8, M=0)
        xs = np.array([[0.3], [1.7]])
        got = master_formula_rhs(MultiPoly.constant(1, 1), plan, xs)
        assert np.max(np.abs(got - np.exp(-0.5 * xs[:, 0] ** 2))) <= 1e-14

    def test_symbolic_heat_example(self):
        # p = x1^2 x2 over N=2: e^{-Delta/4} p = p - (2 + 4 mu1) x2 / 4
        mu1, mu2 = 0.3, 0.7
        mult = Multiplicity([mu1, mu2])
        plan = TransformPlan(mult, 1.0, M=0)
        p = MultiPoly.monomial((2, 1))
        xs = np.array([[0.9, -1.1]])
        got = master_formula_rhs(p, plan, xs)
        x1, x2 = xs[0]
        expected = (
            cmath.exp(3j * plan.alpha)
            * math.exp(-0.5 * (x1 * x1 + x2 * x2))
            * (x1 * x1 * x2 - (2 + 4 * mu1) * x2 / 4.0)
        )
        assert complex(got[0]) == pytest.approx(expected, rel=1e-13)

    def test_transform_matches_master_rhs(self):
        mult = Multiplicity([0.5])
        plan = TransformPlan(mult, -math.pi / 3, M=0)
        xs = np.linspace(-2, 2, 9)[:, None]
        for degree in range(4):
            p = MultiPoly.monomial((degree,))
            lhs = fdt_integral(master_formula_lhs_input(p, mult), plan, xs)
            rhs = master_formula_rhs(p, plan, xs)
            assert np.max(np.abs(lhs - rhs)) <= 1e-8

    def test_harmonic_reduces_to_hecke(self):
        mult = Multiplicity([0.3, 0.7])
        plan = TransformPlan(mult, 0.9, M=0)
        p = MultiPoly.variable(0, 2)
        xs = np.array([[1.0, 0.5]])
        rhs = master_formula_rhs(p, plan, xs)
        hecke = cmath.exp(1j * plan.alpha) * p(xs) * np.exp(-0.5 * np.sum(xs**2, axis=-1))
        assert np.max(np.abs(rhs - hecke)) <= 1e-14

    def test_inhomogeneous_rejected(self):
        mult = Multiplicity([0.5])
        plan = TransformPlan(mult, 0.9, M=0)
        p = MultiPoly(1, {(0,): 1, (1,): 1})
        with pytest.raises(UsageError):
            master_formula_rhs(p, plan, np.array([[0.0]]))


class TestFunkHecke:
    def test_at_origin(self):
        mult = Multiplicity([0.3, 0.7])
        circle = circle_grid(4096)
        got = funk_hecke_radial(mult, np.zeros(2), circle)
        assert got == pytest.approx(1.0 + 0.0j, abs=1e-14)

    def test_classical_plane_wave_average(self):
        # mu = 0, |x| = 1: average of e^{i<x,y>} over the circle is J_0(1)
        mult = Multiplicity([0.0, 0.0])
        circle = circle_grid(1 << 12)
        got = funk_hecke_radial(mult, np.array([1.0, 0.0]), circle)
        with mpmath.workdps(30):
            ref = float(mpmath.besselj(0, 1))
        assert got.real == pytest.approx(ref, abs=1e-12)
        assert abs(got.imag) <= 1e-12

    def test_weighted_radial_identity(self):
        # lambda = 1 for mu = (0.3, 0.7): value is j_1(|x|) at |x| = 2
        mult = Multiplicity([0.3, 0.7])
        circle = circle_grid(1 << 18)
        x = 2.0 * np.array([math.cos(0.4), math.sin(0.4)])
        got = funk_hecke_radial(mult, x, circle)
        ref = complex(radial_bessel(mult, 2.0))
        with mpmath.workdps(30):
            direct = complex(mpmath.gamma(2) * (mpmath.mpf(1)) ** (-1) * mpmath.besselj(1, 2))
        assert ref == pytest.approx(direct, rel=1e-12)
        assert got == pytest.approx(ref, abs=2e-8)

    def test_dimension_guard(self):
        with pytest.raises(UsageError):
            funk_hecke_radial(Multiplicity([0.5]), np.array([1.0, 0.0]), circle_grid(64))


class TestGaussianIdentities:
    def test_bilinear_trivial_scaling(self):
        # z = w = 0: c_k integral e^{-A|x|^2} w_k = A^{-(gamma+N/2)}
        mult = Multiplicity([0.5, 1.0])
        grid = build_grid(mult, n=40)
        res = gaussian_bilinear_check(mult, np.zeros(2), np.zeros(2), 1.3 + 0.4j, grid)
        assert res <= 1e-12

    def test_bilinear_classical_closed_form(self):
        # mu = 0, N = 1: the kernel is exp, both sides integrate in closed form
        mult = Multiplicity([0.0])
        grid = build_grid(mult, n=80)
        z = np.array([0.4 + 0.2j])
        w = np.array([-0.3 + 0.5j])
        a = 1.1 + 0.3j
        res = gaussian_bilinear_check(mult, z, w, a, grid)
        assert res <= 1e-12
        lhs = mult.mehta_constant * np.sum(
            grid.weights
            * np.exp(2 * z[0] * grid.nodes[:, 0] + 2 * w[0] * grid.nodes[:, 0] - a * grid.nodes[:, 0] ** 2)
        )
        rhs = cmath.exp((z[0] ** 2 + w[0] ** 2) / a) * a ** (-0.5) * cmath.exp(2 * z[0] * w[0] / a)
        assert abs(lhs - rhs) <= 1e-13

    def test_bilinear_weighted_random(self):
        rng = np.random.default_rng(17)
        mult = Multiplicity([0.5])
        grid = build_grid(mult, n=80)
        for _ in range(5):
            z = np.array([complex(rng.uniform(-1, 1), rng.uniform(-1, 1))])
            w = np.array([complex(rng.uniform(-1, 1), rng.uniform(-1, 1))])
            assert gaussian_bilinear_check(mult, z, w, 1.3 + 0.4j, grid) <= 1e-8

    def test_bilinear_domain_guard(self):
        mult = Multiplicity([0.5])
        grid = build_grid(mult, n=24)
        with pytest.raises(DomainError):
            gaussian_bilinear_check(mult, np.zeros(1), np.zeros(1), -1.0 + 0.0j, grid)

    def test_moment_trivial(self):
        mult = Multiplicity([0.5, 1.0])
        grid = build_grid(mult, n=40)
        res = gaussian_moment_check(MultiPoly.constant(1, 2), mult, 1.0 + 0.0j, np.zeros(2), grid)
        assert res <= 1e-12

    def test_moment_scaling(self):
        mult = Multiplicity([0.7])
        grid = build_grid(mult, n=80)
        res = gaussian_moment_check(
            MultiPoly.constant(1, 1), mult, 1.4 - 0.2j, np.array([0.8]), grid
        )
        assert res <= 1e-10

    def test_moment_quadratic_heat_oracle(self):
        # p = y^2, omega = 1, mu = 0.5: e^{Delta/4} p = y^2 + (1 + 2 mu)/2
        mult = Multiplicity([0.5])
        grid = build_grid(mult, n=80)
        p = MultiPoly.monomial((2,))
        heated = heat_exp_poly(p, Fraction(1, 4), mult)
        assert heated == MultiPoly(1, {(2,): 1, (0,): 1})
        res = gaussian_moment_check(p, mult, 1.0 + 0.0j, np.array([0.9]), grid)
        assert res <= 1e-10

    def test_moment_domain_guard(self):
        mult = Multiplicity([0.5])
        grid = build_grid(mult, n=24)
        with pytest.raises(DomainError):
            gaussian_moment_check(MultiPoly.constant(1, 1), mult, -2.0, np.zeros(1), grid)


class TestEvenExtensionEquivalence:
    def test_rank_one_transform_reduces_to_hankel(self):
        # for even f the one-dimensional transform at multiplicity mu equals
        # the fractional Hankel transform of order nu = mu - 1/2 of its
        # radial profile
        mu = 1.0
        mult = Multiplicity([mu])
        plan = TransformPlan(mult, 2 * math.pi / 5, M=0)
        a = 0.7
        f = lambda pts: np.exp(-a * pts[..., 0] ** 2)
        psi = lambda y: np.exp(-a * np.asarray(y) ** 2)
        radii = np.array([0.0, 0.4, 1.1, 2.3])
        via_transform = fdt_integral(f, plan, radii[:, None])
        via_hankel = fractional_hankel(psi, mu - 0.5, plan, radii)
        assert np.max(np.abs(via_transform - via_hankel)) <= 1e-9

    def test_odd_input_has_no_even_reduction(self):
        # sanity: the equivalence is a statement about even inputs only
        mu = 1.0
        mult = Multiplicity([mu])
        plan = TransformPlan(mult, 2 * math.pi / 5, M=0)
        f = lambda pts: pts[..., 0] * np.exp(-0.5 * pts[..., 0] ** 2)
        radii = np.array([0.7, 1.5])
        via_transform = fdt_integral(f, plan, radii[:, None])
        psi = lambda y: np.asarray(y) * np.exp(-0.5 * np.asarray(y) ** 2)
        via_hankel = fractional_hankel(psi, mu - 0.5, plan, radii)
        assert np.max(np.abs(via_transform - via_hankel)) > 1e-3


class TestFunkHeckeRange:
    def test_radius_twenty_unweighted(self):
        mult = Multiplicity([0.0, 0.0])
        circle = circle_grid(1 << 12)
        x = 20.0 * np.array([math.cos(1.1), math.sin(1.1)])
        got = funk_hecke_radial(mult, x, circle)
        ref = complex(radial_bessel(mult, 20.0))
        assert got == pytest.approx(ref, abs=1e-10)

    def test_radius_twenty_weighted(self):
        mult = Multiplicity([0.3, 0.7])
        circle = circle_grid(1 << 20)
        x = 20.0 * np.array([math.cos(0.3), math.sin(0.3)])
        got = funk_hecke_radial(mult, x, circle)
        ref = complex(radial_bessel(mult, 20.0))
        assert got == pytest.approx(ref, abs=1e-8)


class TestUnitarityBoundary:
    def test_integral_route_at_low_sine(self):
        # |sin alpha| just above 0.3: the integral route still holds 1e-7
        mult = Multiplicity([0.5])
        alpha = math.asin(0.3) + 1e-3
        plan = TransformPlan(mult, alpha, M=8)
        f = HermiteExpansion.from_terms(
            plan.basis, {(0,): 0.5, (1,): -0.5j, (4,): 0.5, (6,): 0.5j}
        )
        out = fdt_integral_on_grid(f, plan)
        norm_in = grid_l2(plan.grid, f(plan.grid.nodes))
        norm_out = grid_l2(plan.grid, out)
        assert abs(norm_out - norm_in) <= 1e-7

    def test_composition_reaches_singular_orders(self):
        # alpha + beta = 0 has no direct kernel, but the composition of the
        # two generic factors still realizes the identity
        mult = Multiplicity([0.5])
        plan = TransformPlan(mult, math.pi / 6, M=4)
        h1 = plan.basis.function((1,))
        inner = fdt_integral_on_grid(h1, plan)
        probe = np.linspace(-1.5, 1.5, 7)[:, None]
        back = fdt_integral(inner, plan.with_alpha(-math.pi / 6), probe)
        assert np.max(np.abs(back - h1(probe))) <= 1e-8
        with pytest.raises(UsageError):
            fdt_integral(h1, plan.with_alpha(0.0), probe)
