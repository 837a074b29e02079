"""Transform layer: plans, three kernel routes, Hankel reduction, Bochner,
Master/Hecke, Funk-Hecke and the Gaussian integral identities."""

import cmath
import math
import re
import sys
import threading
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from dunkl_frft import transform
from dunkl_frft.errors import DomainError, RangeError, UsageError
from dunkl_frft.polyengine import GaussPoly, HermiteExpansion, MultiPoly, heat_exp_poly
from dunkl_frft.quadrature import build_grid
from dunkl_frft.specfun import (
    BesselOrder,
    Multiplicity,
    dunkl_kernel_1d,
    laguerre_eval,
    normalized_ibessel,
)
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
    kernel_alpha,
    kernel_smoothed,
    kernel_smoothed_bound,
    kernel_spectral,
    master_formula_lhs_input,
    master_formula_rhs,
    normalize_alpha,
    radial_bessel,
)
from frft_helpers import circle_average, gaussian_bilinear_check, gaussian_moment_check

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

    def test_periodic_plans_identical(self):
        mult = Multiplicity([0.5])
        grid = build_grid(mult, n=24)
        p1 = TransformPlan(mult, 0.9, grid=grid)
        p2 = TransformPlan(mult, 0.9 + TWO_PI, grid=grid)
        assert p1.alpha == pytest.approx(p2.alpha, abs=1e-12)
        assert abs(p1.prefactor - p2.prefactor) <= 1e-13 * abs(p1.prefactor)

    def test_smoothing_validation(self):
        # r is an argument of each call that smooths, validated there
        mult = Multiplicity([0.5])
        plan = TransformPlan(mult, 0.5, grid=build_grid(mult, n=24), M=4)
        assert not hasattr(plan, "r")
        with pytest.raises(TypeError):
            TransformPlan(mult, 0.5, r=0.5)
        x = np.array([0.5])
        with pytest.raises(UsageError):
            kernel_smoothed(plan, x, x, 0.0)
        with pytest.raises(UsageError):
            fdt_spectral(plan.basis.function((1,)), plan, 1.5)

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


    def test_huge_coordinates_refused(self):
        # x^2 overflows in the Gaussian: the pair is refused by its largest
        # coordinate and no RuntimeWarning escapes (the suite makes it an error).
        for mu in ([0.5], [0.3, 0.7]):
            mult = Multiplicity(mu)
            plan = TransformPlan(mult, 1.0, grid=build_grid(mult, n=24))
            one = np.ones(mult.dim)
            huge = np.array([1.0] * (mult.dim - 1) + [1e200])
            with pytest.raises(RangeError, match=rf"integral route: kernel coordinate x{mult.dim - 1} = 1e\+200"):
                kernel_alpha(plan, huge, one)
            with pytest.raises(RangeError, match=r"integral route: kernel coordinate y0 = -1e\+200"):
                kernel_alpha(plan, np.stack([one, one]), np.stack([one, -1e200 * one]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_coordinates_refused(self, bad, monkeypatch):
        # named as a coordinate, before any Bessel value is evaluated
        monkeypatch.setattr(transform, "dunkl_kernel_prod", None)
        for mu in ([0.5], [0.3, 0.7]):
            mult = Multiplicity(mu)
            plan = TransformPlan(mult, 1.0, grid=build_grid(mult, n=24))
            one = np.ones(mult.dim)
            odd = np.array([1.0] * (mult.dim - 1) + [bad])
            for x, y in ((odd, one), (one, odd), (np.stack([one, one]), np.stack([one, odd]))):
                with pytest.raises(DomainError, match="kernel_alpha: points must be finite"):
                    kernel_alpha(plan, x, y)
                with pytest.raises(DomainError, match="kernel_smoothed: points must be finite"):
                    kernel_smoothed(plan, x, y, 0.7)
                with pytest.raises(DomainError, match="kernel_smoothed_bound: points must be finite"):
                    kernel_smoothed_bound(plan, x, y, 0.7)


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

    def test_huge_coordinates_refused(self):
        # At 1e20 a Bessel value overflows where the Gaussian underflows; at
        # 1e200 x^2 overflows.  Both pairs are refused by name.
        mult = Multiplicity([0.5, 1.0])
        plan = TransformPlan(mult, 1.0, grid=build_grid(mult, n=32))
        for huge in (1e20, 1e200):
            x = np.array([[1.0, 2.0], [3.0, huge]])
            name = f"smoothed route: kernel coordinate x1 = {huge!r}"
            with pytest.raises(RangeError, match=re.escape(name)):
                kernel_smoothed(plan, x, np.array([1.0, 1.0]), r=0.9)

    def test_bound_holds_beyond_bessel_default_range(self):
        # |u| = 87.3 here, past the direct-caller ceiling of 80; the kernel and
        # its majorization are both evaluated rather than refused
        mult = Multiplicity([0.5, 1.0])
        plan = TransformPlan(mult, math.pi / 3, grid=build_grid(mult, n=32))
        x = np.array([10.0, 1.0])
        assert np.isfinite(complex(kernel_smoothed(plan, x, x, 0.5)))
        lhs, rhs = kernel_smoothed_bound(plan, x, x, 0.5)
        assert lhs <= rhs

    def test_bound_refuses_huge_coordinates(self):
        # |x|^2 or |y|^2 overflows: the pair is refused by its largest
        # coordinate instead of returning nan or inf, and no RuntimeWarning
        # escapes (the suite makes it an error).
        for mu in ([0.5], [0.3, 0.7]):
            mult = Multiplicity(mu)
            plan = TransformPlan(mult, 1.0, grid=build_grid(mult, n=24))
            one = np.ones(mult.dim)
            last = mult.dim - 1
            for huge in (1e200, -1e200):
                big = np.array([1.0] * last + [huge])
                for x, y, name in ((big, one, f"x{last}"), (one, big, f"y{last}")):
                    message = f"smoothed route: kernel coordinate {name} = {huge!r}"
                    with pytest.raises(RangeError, match=re.escape(message)):
                        kernel_smoothed_bound(plan, x, y, 0.9)


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
        plan = TransformPlan(mult, 1.2, grid=build_grid(mult, n=24), M=40)
        x = np.array([0.9])
        y = np.array([-0.7])
        series = kernel_spectral(plan, x, y, r=0.5)
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
                h_nu = HermiteExpansion.from_terms(basis, {nu: 1.0})
                ref += 0.5 ** sum(nu) * cmath.exp(1j * sum(nu) * plan.alpha) * (
                    h_nu(zero[None, :])[0] ** 2
                )
        assert complex(got) == pytest.approx(complex(ref), rel=1e-13)

    @staticmethod
    def _per_index_sum(plan, x, y, r):
        # one full-length complex term per basis index, in graded order
        basis = plan.basis
        tables = [(basis.axis_matrix(j, x[..., j]), basis.axis_matrix(j, y[..., j]))
                  for j in range(basis.dim)]
        phases = [(r**n) * cmath.exp(1j * n * plan.alpha) for n in range(basis.max_degree + 1)]
        out = np.zeros(np.broadcast(x[..., 0], y[..., 0]).shape, dtype=complex)
        for nu, n in zip(basis.indices, basis.degrees):
            hx = hy = 1.0
            for (tx, ty), k in zip(tables, nu):
                hx = hx * tx[k]
                hy = hy * ty[k]
            out = out + phases[n] * hx * hy
        return out

    @pytest.mark.parametrize("mu", [[0.5], [0.3, 0.7], [0.2, 0.5, 0.4]])
    def test_matches_per_index_sum(self, mu):
        mult = Multiplicity(mu)
        dim = mult.dim
        plan = TransformPlan(mult, 1.1, grid=build_grid(mult, n=24))
        rng = np.random.default_rng(41)
        shapes = [((dim,), (dim,)), ((7, dim), (7, dim)), ((dim,), (5, dim))]
        for r in (1.0, 0.8, 0.3):
            for xs, ys in shapes:
                x, y = rng.uniform(-3.0, 3.0, xs), rng.uniform(-3.0, 3.0, ys)
                got = kernel_spectral(plan, x, y, r=r)
                want = self._per_index_sum(plan, x, y, r)
                assert np.shape(got) == np.shape(want)
                assert np.all(np.abs(got - want) <= 1e-14 * np.maximum(1.0, np.abs(want)))

    def test_batch_equals_per_pair_bitwise(self):
        mult = Multiplicity([0.3, 0.7])
        plan = TransformPlan(mult, 0.9, grid=build_grid(mult, n=24))
        rng = np.random.default_rng(43)
        x, y = rng.uniform(-3.0, 3.0, (9, 2)), rng.uniform(-3.0, 3.0, (9, 2))
        x[3] = [-0.0, 0.0]
        for r in (1.0, 0.6):
            batch = kernel_spectral(plan, x, y, r=r)
            single = np.array([kernel_spectral(plan, a, b, r=r) for a, b in zip(x, y)])
            assert batch.tobytes() == single.tobytes()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_coordinates_refused(self, bad, monkeypatch):
        # a NaN used to give nan+nanj and an infinity 0; refused before any
        # table is built
        for mu in ([0.5], [0.3, 0.7]):
            plan = TransformPlan(Multiplicity(mu), 1.0, M=4)
            one = np.ones(len(mu))
            odd = np.array([1.0] * (len(mu) - 1) + [bad])
            with monkeypatch.context() as patch:
                patch.setattr(type(plan.basis), "axis_matrix", None)
                for x, y in ((odd, one), (one, odd), (np.stack([one, one]), np.stack([one, odd]))):
                    for r in (1.0, 0.6):
                        with pytest.raises(DomainError, match="kernel_spectral: points must be finite"):
                            kernel_spectral(plan, x, y, r=r)

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

    def test_huge_finite_points(self):
        # Beyond double range the spectral route returns the underflowed
        # value 0 and the kernel routes refuse the coordinate by name; the
        # suite turns any RuntimeWarning into an error.
        for mu in ([0.5], [0.3, 0.7]):
            mult = Multiplicity(mu)
            plan = TransformPlan(mult, math.pi / 3, M=4)
            f = plan.basis.function((0,) * mult.dim)
            near = np.full((1, mult.dim), 2.0)
            for huge in (1e200, -1e200, 1e20):
                xs = np.concatenate([near, np.full((1, mult.dim), huge)])
                vals = fdt_spectral(f, plan)(xs)
                assert vals[1] == 0.0
                assert vals[0] == fdt_spectral(f, plan)(near)[0]
            xs = np.array([[2.0] * mult.dim, [1e200] + [1.0] * (mult.dim - 1)])
            with pytest.raises(RangeError, match=r"integral route: output coordinate x0 = 1e\+200"):
                fdt_integral(f, plan, xs)
            for huge in (1e200, 1e20):
                xs = np.array([[2.0] * mult.dim, [1.0] * (mult.dim - 1) + [-huge]])
                name = f"smoothed route: output coordinate x{mult.dim - 1} = {-huge!r}"
                with pytest.raises(RangeError, match=re.escape(name)):
                    fdt_smoothed(f, plan, xs, r=0.9)

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


class TestTensorGridInput:
    @pytest.mark.parametrize("route", ["integral", "smoothed"])
    def test_n3_expansion_at_points_builds_no_mesh(self, route):
        # The kernel routes read an expansion input and point outputs through
        # the grid's per-axis rules only: the default N = 3 grid (160^3 nodes)
        # never builds its flattened mesh.
        mult = Multiplicity([0.2, 0.5, 0.4])
        plan = TransformPlan(mult, 1.0, M=4)
        f = HermiteExpansion.from_terms(plan.basis, {(1, 0, 2): 1.0, (0, 0, 0): 0.5j})
        xs = np.array([[0.5, 0.0, -1.0], [1.0, -2.0, 0.25]])
        if route == "integral":
            got = fdt_integral(f, plan, xs)
        else:
            got = fdt_smoothed(f, plan, xs, 0.6)
        assert got.shape == (2,) and np.all(np.isfinite(got))
        assert "nodes" not in vars(plan.grid) and "weights" not in vars(plan.grid)

    def test_routes_never_evaluate_expansions_pointwise(self, monkeypatch):
        # Every route reads a Hermite-expansion input through its
        # coefficients: the kernel routes by products with the synthesis
        # tables, the spectral route and hermite_expand by a copy into the
        # plan's basis; none falls back to the pointwise __call__.
        mult = Multiplicity([0.3, 0.7])
        plan = TransformPlan(mult, math.pi / 3, grid=build_grid(mult, n=32), M=6)
        f = HermiteExpansion.from_terms(plan.basis, {(0, 0): 0.6, (1, 2): -0.8j})
        xs = np.array([[0.5, -1.0]])

        def outputs():
            return {
                "grid": fdt_integral_on_grid(f, plan),
                "points": fdt_integral(f, plan, xs),
                "smoothed_grid": fdt_smoothed_on_grid(f, plan, r=0.9),
                "smoothed": fdt_smoothed(f, plan, xs, r=0.9),
                "spectral": fdt_spectral(f, plan).coefficients,
                "expand": transform.hermite_expand(f, plan).coeffs,
            }

        want = outputs()

        def refuse(self, x):
            raise AssertionError("pointwise evaluation on the grid")

        monkeypatch.setattr(HermiteExpansion, "__call__", refuse)
        got = outputs()
        for key, value in want.items():
            assert got[key].tobytes() == value.tobytes(), key


class TestExpansionInput:
    """A Hermite-expansion input reaches the kernel routes as per-axis
    synthesis products on its trimmed coefficient block, with the tables kept
    in the plan's operator cache, instead of through grid.values.  The
    spectral route and hermite_expand take an expansion in the plan's
    multiplicity as its own coefficients of degree <= plan.M, exactly."""

    MUS = ([0.5], [0.3, 0.7], [0.2, 0.5, 0.4])

    @staticmethod
    def _plan(mu):
        mult = Multiplicity(mu)
        n = 24 if len(mu) == 1 else 16
        return TransformPlan(mult, 2.0, grid=build_grid(mult, L=6.0, n=n), M=4)

    @staticmethod
    def _expansion(basis, seed):
        rng = np.random.default_rng(seed)
        coeffs = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
        # nothing at degree max_degree on axis 0, so its block is trimmed there
        coeffs[basis._index_array[:, 0] == basis.max_degree] = 0.0
        return HermiteExpansion(basis, coeffs)

    @staticmethod
    def _exact(plan, f, r=1.0):
        """The spectral and expand keys' values for an expansion in the plan's
        multiplicity: its terms of degree <= plan.M, with and without the
        phases."""
        terms = {nu: c for nu, c in zip(f.basis.indices, f.coeffs) if sum(nu) <= plan.M}
        base = HermiteExpansion.from_terms(plan.basis, terms)
        phased = base.scale_degrees(transform._degree_phases(plan, r))
        return {"spectral": phased.coeffs, "expand": base.coeffs}

    @staticmethod
    def _points(dim):
        rng = np.random.default_rng(5)
        rows = [np.zeros(dim), -np.zeros(dim), rng.uniform(-3.0, 3.0, dim)]
        rows += [rows[2], np.where(np.arange(dim) % 2 == 0, -0.0, 1.5), rng.uniform(-3.0, 3.0, dim)]
        return np.array(rows)

    @staticmethod
    def _entries(plan, xs):
        return {
            "integral grid": lambda f: fdt_integral_on_grid(f, plan),
            "integral points": lambda f: fdt_integral(f, plan, xs),
            "smoothed grid": lambda f: fdt_smoothed_on_grid(f, plan, r=0.6),
            "smoothed points": lambda f: fdt_smoothed(f, plan, xs, r=0.6),
            "spectral": lambda f: fdt_spectral(f, plan).coefficients,
            "expand": lambda f: transform.hermite_expand(f, plan).coeffs,
        }

    @pytest.mark.parametrize("mu", MUS)
    def test_matches_grid_values_path(self, mu):
        plan = self._plan(mu)
        xs = self._points(len(mu))
        f = self._expansion(plan.basis, 11)
        values = plan.grid.values(f)
        exact = self._exact(plan, f)
        for key, call in self._entries(plan, xs).items():
            got = call(f)
            if key in exact:
                assert got.tobytes() == exact[key].tobytes(), key
                continue
            want = call(values)
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), key
            if key.endswith("points"):
                # signed zeros and a repeated point share their rows
                assert got[0].tobytes() == got[1].tobytes(), key
                assert got[2].tobytes() == got[3].tobytes(), key

    @pytest.mark.parametrize("mu", MUS)
    def test_repeat_call_builds_no_table(self, mu, monkeypatch):
        from dunkl_frft.polyengine import HermiteBasis

        plan = self._plan(mu)
        xs = self._points(len(mu))
        f = self._expansion(plan.basis, 12)
        entries = self._entries(plan, xs)
        first = {key: call(f) for key, call in entries.items()}

        def refuse(*args, **kwargs):
            raise AssertionError("synthesis table rebuilt on a cache hit")

        monkeypatch.setattr(HermiteBasis, "axis_matrix", refuse)
        for key, call in entries.items():
            assert call(f).tobytes() == first[key].tobytes(), key

    @pytest.mark.parametrize("mu", MUS)
    def test_basis_degree_other_than_plan_M(self, mu):
        # The spectral and expand keys are the input's own coefficients,
        # zero-padded from degree M - 2 or truncated from M + 2, bit for bit.
        from dunkl_frft.polyengine import HermiteBasis

        plan = self._plan(mu)
        xs = self._points(len(mu))
        own = self._expansion(plan.basis, 13)
        for degree in (plan.M - 2, plan.M + 2):
            f = self._expansion(HermiteBasis(plan.mult, degree), 14)
            exact, own_exact = self._exact(plan, f), self._exact(plan, own)
            for key, call in self._entries(plan, xs).items():
                if key in exact:
                    assert call(f).tobytes() == exact[key].tobytes(), (degree, key)
                    assert call(own).tobytes() == own_exact[key].tobytes(), key
                    continue
                got, want = call(f), call(plan.grid.values(f))
                assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), (degree, key)
                # the plan's own basis keeps its own tables
                want = call(plan.grid.values(own))
                assert np.max(np.abs(call(own) - want)) <= 1e-14 * np.max(np.abs(want)), key
            # so at r < 1 too; the Parseval slack is minus the mass dropped
            # above plan.M, 0.0 exactly when nothing is dropped
            dropped = sum(f.degree_mass(n) for n in range(plan.M + 1, degree + 1))
            assert (dropped > 0.0) == (degree > plan.M)
            for g, mass in ((f, dropped), (own, 0.0)):
                out = fdt_spectral(g, plan, 0.6)
                assert out.coefficients.tobytes() == self._exact(plan, g, 0.6)["spectral"].tobytes(), degree
                assert out.parseval_slack == pytest.approx(-mass, rel=1e-12, abs=0.0), degree

    def test_other_multiplicity_goes_through_grid_values(self):
        from dunkl_frft.polyengine import HermiteBasis

        plan = self._plan([0.3, 0.7])
        f = self._expansion(HermiteBasis(Multiplicity([0.3, 0.5]), 4), 16)
        values = plan.grid.values(f)
        got, want = fdt_spectral(f, plan), fdt_spectral(values, plan)
        assert got.coefficients.tobytes() == want.coefficients.tobytes()
        assert got.parseval_slack == want.parseval_slack
        expanded = transform.hermite_expand(f, plan).coeffs
        assert expanded.tobytes() == transform.hermite_expand(values, plan).coeffs.tobytes()

    @pytest.mark.parametrize("mu", MUS)
    def test_zero_expansion_gives_zeros(self, mu):
        plan = self._plan(mu)
        zero = HermiteExpansion(plan.basis, np.zeros(plan.basis.size))
        for key, call in self._entries(plan, self._points(len(mu))).items():
            assert not np.any(call(zero)), key

    def test_dimension_mismatch_refused_as_by_grid_values(self):
        from dunkl_frft.polyengine import HermiteBasis

        plan = self._plan([0.3, 0.7])
        f = self._expansion(HermiteBasis(Multiplicity([0.3]), 4), 15)
        with pytest.raises(UsageError) as expected:
            plan.grid.values(f)
        for key, call in self._entries(plan, self._points(2)).items():
            with pytest.raises(UsageError) as refused:
                call(f)
            assert str(refused.value) == str(expected.value), key


class TestKernelThroughBasis:
    """A Hermite-expansion input meets the kernel routes through T_j, each
    axis factor applied once to the synthesis table of its axis; the plan
    keeps T_j and not the factors it was built from."""

    @staticmethod
    def _setup(dim=2):
        if dim == 2:
            mult = Multiplicity([0.3, 0.7])
            plan = TransformPlan(mult, math.pi / 3)
            terms = {(0, 0): 0.6, (1, 2): -0.8j, (3, 1): 0.3}
        else:
            mult = Multiplicity([0.3, 0.7, 0.2])
            plan = TransformPlan(mult, math.pi / 3, grid=build_grid(mult, L=6.0, n=16))
            terms = {(0, 0, 0): 0.6, (1, 2, 0): -0.8j, (3, 0, 1): 0.3, (0, 1, 2): 0.5}
        f = HermiteExpansion.from_terms(plan.basis, terms)
        xs = np.random.default_rng(8).uniform(-3.0, 3.0, size=(25, dim))
        return plan, f, xs

    @staticmethod
    def _entries(plan, xs):
        return {
            "integral grid": lambda f: fdt_integral_on_grid(f, plan),
            "integral points": lambda f: fdt_integral(f, plan, xs),
            "smoothed grid": lambda f: fdt_smoothed_on_grid(f, plan, r=0.9),
            "smoothed points": lambda f: fdt_smoothed(f, plan, xs, r=0.9),
        }

    def test_only_composed_tables_are_kept(self):
        plan, f, xs = self._setup()
        for call in self._entries(plan, xs).values():
            call(f)
        keys = list(plan._operators._entries)
        assert {key[0] for key in keys} == {"kernel"}
        assert {key[2] for key in keys} == {(plan.mult.mu, f.basis.max_degree)}
        # T_j on the default N = 2 grid (160 nodes per axis, 17 degrees) and
        # 25 points, at two r: 198 KiB.  One cached sampled-input table pair
        # at one r would add 800 KiB.
        info = plan.operator_cache_info()
        assert (info.misses, info.entries) == (4, 4)
        assert info.nbytes <= 256 << 10

    def test_repeat_call_does_no_bessel_work(self, monkeypatch):
        plan, f, xs = self._setup()
        entries = self._entries(plan, xs)
        first = {key: call(f) for key, call in entries.items()}

        def refuse(*args, **kwargs):
            raise AssertionError("kernel axis factor rebuilt on a cache hit")

        monkeypatch.setattr(transform, "_axis_factor", refuse)
        g = HermiteExpansion.from_terms(plan.basis, {(2, 2): 1.0})
        for key, call in entries.items():
            assert call(f).tobytes() == first[key].tobytes(), key
            call(g)
        assert plan.operator_cache_info()[:3] == (8, 4, 4)

    def test_sampled_and_expansion_inputs_keep_separate_entries(self, monkeypatch):
        # one "kernel" namespace: at the same r and outputs, the input's
        # basis (None for a sampled input) tells the entries apart
        plan, f, xs = self._setup()
        inputs = {"expansion": f, "array": plan.grid.values(f)}
        entries = self._entries(plan, xs)
        first = {(key, kind): call(arg) for key, call in entries.items() for kind, arg in inputs.items()}
        keys = list(plan._operators._entries)
        assert {key[0] for key in keys} == {"kernel"}
        assert {key[2] for key in keys} == {None, (plan.mult.mu, f.basis.max_degree)}
        assert plan.operator_cache_info()[:3] == (0, 8, 8)

        def refuse(*args, **kwargs):
            raise AssertionError("kernel axis factor rebuilt on a cache hit")

        monkeypatch.setattr(transform, "_axis_factor", refuse)
        for (key, kind), want in first.items():
            assert entries[key](inputs[kind]).tobytes() == want.tobytes(), (key, kind)
        assert plan.operator_cache_info()[:3] == (8, 8, 8)

    def test_expansion_array_expansion_agree(self):
        for dim in (2, 3):
            plan, f, xs = self._setup(dim)
            values = plan.grid.values(f)
            for key, call in self._entries(plan, xs).items():
                first, array, again = call(f), call(values), call(f)
                assert again.tobytes() == first.tobytes(), (dim, key)
                assert np.max(np.abs(first - array)) <= 1e-14 * np.max(np.abs(array)), (dim, key)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_grid_output_is_the_contraction_unflattened(self, monkeypatch, dim):
        # the expansion's grid product comes out C-contiguous in the grid's
        # axis order, so the flattened result is a view of it, not a copy
        plan, f, xs = self._setup(dim)
        contract, results = transform._contract_grid, []

        def recorded(mats, tensor):
            results.append(contract(mats, tensor))
            return results[-1]

        monkeypatch.setattr(transform, "_contract_grid", recorded)
        for key in ("integral grid", "smoothed grid"):
            results.clear()
            out = self._entries(plan, xs)[key](f)
            assert out.shape == (math.prod(plan.grid.shape),)
            assert np.shares_memory(results[-1], out), key

    def test_out_of_range_refused_as_for_grid_values(self):
        mult = Multiplicity([0.3, 0.7])
        plan = TransformPlan(mult, 1.0, grid=build_grid(mult, L=6.0, n=16), M=4)
        f = HermiteExpansion.from_terms(plan.basis, {(1, 0): 1.0})
        xs = np.array([[0.5, 1.0], [0.25, -1e200]])
        wide = TransformPlan(Multiplicity([0.5]), 1.0, grid=build_grid(Multiplicity([0.5]), L=60.0, n=120), M=4)
        g = HermiteExpansion.from_terms(wide.basis, {(2,): 1.0})
        cases = {
            "integral points": (f, lambda h: fdt_integral(h, plan, xs), "x1 = -1e+200"),
            "smoothed points": (f, lambda h: fdt_smoothed(h, plan, xs, r=0.6), "x1 = -1e+200"),
            # the smoothed kernel's Bessel values overflow where its Gaussian
            # underflows
            "smoothed grid": (g, lambda h: fdt_smoothed_on_grid(h, wide, r=0.3), "x0 = -"),
        }
        for key, (h, call, where) in cases.items():
            messages = []
            for arg in (h, (plan if h is f else wide).grid.values(h)):
                with pytest.raises(RangeError, match=f"output coordinate {re.escape(where)}") as info:
                    call(arg)
                messages.append(str(info.value))
            assert messages[0] == messages[1], key


class TestOneDimensionalExpansion:
    """At N = 1 an expansion input meets one (outputs x degrees) matrix, T_0
    or the gathered point rows, in one product on its coefficients up to the
    last nonzero one; every result keeps the bits of the trimmed-block
    contraction it replaces (``_reference``)."""

    XS = np.array([[0.0], [-0.0], [1.25], [-1.25], [1.25], [-2.5], [-0.0], [3.0]])

    @staticmethod
    def _plan():
        mult = Multiplicity([0.5])
        return TransformPlan(mult, 1.1, grid=build_grid(mult, L=6.0, n=24), M=8)

    @staticmethod
    def _reference(plan, f, xs, r):
        """The trimmed coefficient block through ``_contract_grid`` on the
        grid and through ``_contract_points`` on the gathered rows."""
        block = f.coefficient_block()
        d = len(block)
        synthesis = f.basis.axis_matrix(0, plan.grid.axes_nodes[0])
        if xs is None:
            table, rows = transform._point_rows(plan, 0, plan.grid.axes_nodes[0], r)
            table = (table @ synthesis.T)[rows]
            return transform._contract_grid([table[:, :d]], block.T).T.ravel()
        table, rows = transform._point_rows(plan, 0, xs[:, 0], r)
        return transform._contract_points([(table @ synthesis.T)[rows, :d]], block)

    @staticmethod
    def _expansions(plan):
        from dunkl_frft.polyengine import HermiteBasis

        rng = np.random.default_rng(24)
        out = {}
        for degree in (plan.M - 3, plan.M, plan.M + 3):
            basis = HermiteBasis(plan.mult, degree)
            coeffs = rng.standard_normal(basis.size) + 1j * rng.standard_normal(basis.size)
            out[f"random {degree}"] = HermiteExpansion(basis, coeffs)
            tail = coeffs.copy()
            tail[1], tail[3], tail[-3:] = complex(-0.0, 0.0), complex(1.5, -0.0), 0.0
            tail[-1] = complex(-0.0, -0.0)
            out[f"trailing zeros {degree}"] = HermiteExpansion(basis, tail)
            out[f"h0 {degree}"] = HermiteExpansion.from_terms(basis, {(0,): 0.8 - 0.6j})
            out[f"top {degree}"] = HermiteExpansion.from_terms(basis, {(degree,): -1.25j})
            out[f"zero {degree}"] = HermiteExpansion(basis, np.zeros(basis.size))
            out[f"negative zero {degree}"] = HermiteExpansion(basis, -np.zeros(basis.size))
        return out

    @classmethod
    def _calls(cls, plan):
        """{(route, outputs): (call, xs, r)}."""
        calls = {("integral", "grid"): (lambda f: fdt_integral_on_grid(f, plan), None, 1.0),
                 ("smoothed", "grid"): (lambda f: fdt_smoothed_on_grid(f, plan, r=0.6), None, 0.6)}
        for name, xs in (("points", cls.XS), ("no points", np.empty((0, 1)))):
            calls["integral", name] = (lambda f, xs=xs: fdt_integral(f, plan, xs), xs, 1.0)
            calls["smoothed", name] = (lambda f, xs=xs: fdt_smoothed(f, plan, xs, r=0.6), xs, 0.6)
        return calls

    def test_bitwise_equal_to_trimmed_block_contraction(self):
        plan = self._plan()
        for name, f in self._expansions(plan).items():
            for key, (call, xs, r) in self._calls(plan).items():
                want = self._reference(plan, f, xs, r)
                for attempt in ("first", "repeat"):
                    got = call(f)
                    assert (got.dtype, got.shape) == (want.dtype, want.shape), (name, key)
                    assert got.tobytes() == want.tobytes(), (name, key, attempt)

    def test_entry_is_one_matrix(self):
        # T_0 on the grid, the point rows gathered per point (repeats included)
        plan = self._plan()
        f = self._expansions(plan)[f"random {plan.M + 3}"]
        for call, _, _ in self._calls(plan).values():
            call(f)
        entries = [arrays for arrays, _ in plan._operators._entries.values()]
        assert all(len(arrays) == 1 for arrays in entries)
        width = f.basis.max_degree + 1
        rows = [len(plan.grid.nodes), len(self.XS), 0] * 2
        assert sorted(arrays[0].shape for arrays in entries) == sorted((m, width) for m in rows)

    def test_result_is_fresh_and_writable(self):
        plan = self._plan()
        f = self._expansions(plan)[f"random {plan.M}"]
        for key, (call, _, _) in self._calls(plan).items():
            first = call(f)
            want = first.copy()
            got = call(f)
            assert got.flags.writeable and got.flags.c_contiguous, key
            for arrays, _ in plan._operators._entries.values():
                for arr in arrays:
                    assert not arr.flags.writeable
                    assert not np.shares_memory(got, arr), key
            got[...] = 7.0
            assert call(f).tobytes() == want.tobytes(), key

    def test_repeat_call_builds_no_axis_factor(self, monkeypatch):
        plan = self._plan()
        expansions = self._expansions(plan)
        calls = self._calls(plan)
        first = {(name, key): call(f) for name, f in expansions.items()
                 for key, (call, _, _) in calls.items()}

        def refuse(*args, **kwargs):
            raise AssertionError("kernel axis factor rebuilt on a cache hit")

        monkeypatch.setattr(transform, "_axis_factor", refuse)
        for (name, key), want in first.items():
            assert calls[key][0](expansions[name]).tobytes() == want.tobytes(), (name, key)


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
        shapes = []
        original = transform._kernel_even_odd

        def recording(order, u):
            shapes.append(np.shape(u))
            return original(order, u)

        monkeypatch.setattr(transform, "_kernel_even_odd", recording)
        plan = self._plan()
        lin = np.linspace(-5.0, 5.0, 25)
        mesh = np.stack(np.meshgrid(lin, lin, indexing="ij"), axis=-1).reshape(-1, 2)
        fdt_integral(self._f, plan, mesh)
        fdt_smoothed(self._f, plan, mesh, r=0.6)
        # one row per distinct |x|: the x < 0 rows are mirrored, not built;
        # and Bessel values on the y > 0 half of each grid axis only
        half = plan.grid.points_per_axis
        assert 2 * half == plan.grid.axes_nodes[0].size
        assert shapes == [(np.unique(np.abs(lin)).size, half)] * 4

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


def _point_rows(plan, xs, r):
    """The per-axis rows the points path hands to ``_contract_points``."""
    seen = []
    original = transform._contract_points

    def recording(mats, tensor):
        seen.append(mats)
        return original(mats, tensor)

    def f(pts):
        return np.exp(-0.4 * np.sum(pts * pts, axis=-1))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transform, "_contract_points", recording)
        if r == 1.0:
            fdt_integral(f, plan, xs)
        else:
            fdt_smoothed(f, plan, xs, r=r)
    (mats,) = seen
    return mats


class TestHalfAxisKernel:
    """The axis factors, built from Bessel values on the y > 0 half of each
    grid axis and on the distinct |x|, equal a per-point build on the full
    axis bit for bit."""

    @staticmethod
    def _full_axis(plan, j, x, r):
        """The per-point build of the kernel axis factor E + O on the full
        axis: no dedupe, no halving, the prefactor on axis 0."""
        zscale, gcoef, pref = transform._mehler_form(plan, r)
        xk = np.asarray(x, dtype=float)[:, None]
        yk = plan.grid.axes_nodes[j][None, :]
        u = np.asarray(zscale * xk, dtype=complex) * np.asarray(yk, dtype=complex)
        even, odd = transform._kernel_even_odd(plan.mult.orders[j], u)
        phase = np.exp(-gcoef * (xk * xk + yk * yk))
        wk = plan.grid.axes_weights[j][None, :]
        weighted = phase * wk if j else pref * phase * wk
        return even * weighted + odd * weighted

    @staticmethod
    def _kernel_1d_build(plan, j, x, r):
        """An independent build from dunkl_kernel_1d, the prefactor on axis 0."""
        zscale, gcoef, pref = transform._mehler_form(plan, r)
        xk = np.asarray(x, dtype=float)[:, None]
        yk = plan.grid.axes_nodes[j][None, :]
        kern = dunkl_kernel_1d(plan.mult.orders[j], zscale * xk, yk)
        # phase is named: on a large temporary numpy may multiply in place
        # with the operands swapped, which can round differently
        phase = np.exp(-gcoef * (xk * xk + yk * yk))
        row = kern * phase * plan.grid.axes_weights[j][None, :]
        return row if j else pref * row

    @pytest.mark.parametrize("mu", [[0.0], [0.3], [0.5], [0.0, 0.3], [0.5, 0.0]])
    @pytest.mark.parametrize("r", [1.0, 0.6])
    def test_rows_equal_full_axis_build(self, mu, r):
        mult = Multiplicity(mu)
        plan = TransformPlan(mult, 2.0, grid=build_grid(mult, L=6.0, n=16), M=4)
        xs = np.array([1.25, -1.25, 0.0, -0.0, 3.5, 3.5, -0.7, 5.9, -5.9, 0.0, 2.2])
        eps = np.finfo(float).eps
        for outputs in ([xs] * mult.dim, [xs[::-1]] * mult.dim, list(plan.grid.axes_nodes)):
            mats = _point_rows(plan, np.stack(outputs, axis=1), r)
            for j, (mat, x) in enumerate(zip(mats, outputs)):
                assert mat.tobytes() == self._full_axis(plan, j, x, r).tobytes(), (mu, r, j)
                scale = np.max(np.abs(mat), axis=1, keepdims=True)
                independent = self._kernel_1d_build(plan, j, x, r)
                assert np.all(np.abs(mat - independent) <= 4 * eps * scale), (mu, r, j)


class TestParityFold:
    """Grid outputs contract the full-axis rows of the points path, taken at
    the grid's own nodes: built from the even and odd parts of each axis
    factor on the y > 0 half of the grid, mirrored onto the -x half."""

    @staticmethod
    def _f(pts):
        # neither even nor odd in any coordinate
        return np.exp(-0.4 * np.sum(pts * pts, axis=-1)) * (
            1.0 + 0.3 * pts[..., 0] - 0.2 * pts[..., -1] ** 3
        )

    @staticmethod
    def _on_grid(f, plan, r):
        return fdt_integral_on_grid(f, plan) if r == 1.0 else fdt_smoothed_on_grid(f, plan, r=r)

    @pytest.mark.parametrize("mu", [[0.0], [0.3], [0.5], [0.0, 0.3], [0.5, 0.0]])
    @pytest.mark.parametrize("r", [1.0, 0.6])
    def test_matches_points_path(self, mu, r):
        mult = Multiplicity(mu)
        plan = TransformPlan(mult, 2.0, grid=build_grid(mult, L=6.0, n=16), M=4)
        nodes = plan.grid.nodes
        at_nodes = fdt_integral(self._f, plan, nodes) if r == 1.0 else fdt_smoothed(
            self._f, plan, nodes, r=r
        )
        assert np.max(np.abs(self._on_grid(self._f, plan, r) - at_nodes)) <= 1e-12

    def test_fractional_fourier_of_gaussians(self):
        from dunkl_frft.checks import _frft_gaussian_closed_form

        mult = Multiplicity([0.0])
        grid = build_grid(mult)
        for alpha in (math.pi / 3, -0.4 * math.pi, 2 * math.pi / 3, -0.75 * math.pi, -math.pi / 2):
            assert abs(math.sin(alpha)) >= 0.5
            plan = TransformPlan(mult, alpha, grid=grid, M=0)
            for a in (0.5, 0.8, 1.3):
                got = fdt_integral_on_grid(lambda p, _a=a: np.exp(-_a * p[..., 0] ** 2), plan)
                want = _frft_gaussian_closed_form(plan, a, grid.nodes)
                assert np.max(np.abs(got - want)) <= 1e-12, (alpha, a)

    @pytest.mark.parametrize("mu, odd, even", [([0.5], (1,), (2,)), ([0.3, 0.7], (1, 0), (0, 2))])
    def test_odd_and_even_eigenfunctions(self, mu, odd, even):
        # an odd input changes sign on the -x half, an even one does not
        mult = Multiplicity(mu)
        grid = build_grid(mult, L=8.0, n=40)
        for alpha in (2.0, -math.pi / 3):
            plan = TransformPlan(mult, alpha, grid=grid, M=2)
            for nu in (odd, even):
                h = HermiteExpansion.from_terms(plan.basis, {nu: 1.0})
                for r in (1.0, 0.6):
                    want = (r * cmath.exp(1j * alpha)) ** sum(nu) * grid.values(h)
                    got = self._on_grid(h, plan, r)
                    assert np.max(np.abs(got - want)) <= 1e-9, (alpha, nu, r)

    def test_nonfinite_rows_refused_like_points_path(self):
        # on a wide box the smoothed kernel's Bessel values overflow where
        # its Gaussian underflows
        mult = Multiplicity([0.5])
        plan = TransformPlan(mult, 1.0, grid=build_grid(mult, L=60.0, n=120), M=4)
        messages = []
        for call in (lambda: fdt_smoothed_on_grid(self._f, plan, r=0.3),
                     lambda: fdt_smoothed(self._f, plan, plan.grid.nodes, r=0.3)):
            with pytest.raises(RangeError, match="output coordinate x0 = -") as info:
                call()
            messages.append(str(info.value))
        assert messages[0] == messages[1]

    @pytest.mark.parametrize("r", [1.0, 0.6])
    def test_point_rows_are_the_fold_factors(self, r):
        # one definition of the axis factor: every grid row of the kernel
        # tables is, bit for bit, the points path's row at that grid node
        mult = Multiplicity([0.3, 0.7])
        plan = TransformPlan(mult, 2.0, grid=build_grid(mult, L=6.0, n=16), M=4)
        mats = _point_rows(plan, np.stack(plan.grid.axes_nodes, axis=1), r)
        tables = transform._kernel_tables(plan, r)
        assert len(tables) == len(mats) == mult.dim
        for j, (table, mat) in enumerate(zip(tables, mats)):
            assert table.tobytes() == mat.tobytes(), (r, j)

    def test_contract_grid_is_tensordot_bit_for_bit(self):
        # _contract_grid applies one matrix per axis and forms tensordot's
        # product without its argument handling
        rng = np.random.default_rng(3)

        def cplx(shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        cases = (((24,), [7]), ((16, 12), [5, 9]), ((6, 5, 4), [3, 2, 7]))
        for shape, rows in cases:
            tensor = cplx(shape)
            for layout in (tensor, np.asfortranarray(tensor), tensor.transpose()[..., ::-1].T):
                mats = [cplx((r, shape[j])) for j, r in enumerate(rows)]
                want = layout
                for j, mat in enumerate(mats):
                    want = np.tensordot(mat, want, axes=(1, j))
                want = want.T
                got = transform._contract_grid(mats, layout)
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), (shape, rows)

    def test_repeat_call_is_a_cache_hit(self, monkeypatch):
        plan = TestAxisDedup._plan()
        first = fdt_integral_on_grid(self._f, plan)
        assert plan.operator_cache_info()[:3] == (0, 1, 1)

        def refuse(*args, **kwargs):
            raise AssertionError("kernel rebuilt on a cache hit")

        monkeypatch.setattr(transform, "_kernel_even_odd", refuse)
        again = fdt_integral_on_grid(self._f, plan)
        assert again.tobytes() == first.tobytes()
        assert plan.operator_cache_info()[:3] == (1, 1, 1)

    def test_one_half_axis_block_per_axis(self, monkeypatch):
        shapes = []
        original = transform._kernel_even_odd

        def recording(order, u):
            shapes.append(np.shape(u))
            return original(order, u)

        monkeypatch.setattr(transform, "_kernel_even_odd", recording)
        plan = TestAxisDedup._plan()
        for _ in range(2):
            fdt_integral_on_grid(self._f, plan)
            fdt_smoothed_on_grid(self._f, plan, r=0.6)
        half = plan.grid.points_per_axis
        assert shapes == [(half, half)] * (2 * plan.mult.dim)


class TestContractPoints:
    """``_contract_points`` against the plain sum it stands for."""

    @pytest.mark.parametrize("cols", [(9,), (5, 8), (3, 6, 4)])
    @pytest.mark.parametrize("z", [0, 1, 7])
    def test_matches_plain_einsum(self, cols, z):
        rng = np.random.default_rng(10 * len(cols) + z)

        def cplx(shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        mats, tensor = [cplx((z, c)) for c in cols], cplx(cols)
        letters = "abc"[: len(cols)]
        spec = ",".join("z" + letter for letter in letters) + f",{letters}->z"
        want = np.einsum(spec, *mats, tensor, optimize=False)
        scale = np.einsum(spec, *map(np.abs, mats), np.abs(tensor), optimize=False)
        got = transform._contract_points(mats, tensor)
        assert got.shape == (z,)
        assert np.all(np.abs(got - want) <= 1e-13 * scale), (cols, z)
        if len(cols) == 1:
            assert got.tobytes() == (mats[0] @ tensor).tobytes()


class TestOperatorCache:
    """The plan keeps its kernel axis factors, built on the |x| rows, and its
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
        mats = [TestHalfAxisKernel._full_axis(plan, j, xs[:, j], r) for j in range(plan.mult.dim)]
        tensor = plan.grid.to_tensor(plan.grid.values(f).astype(complex))
        return transform._contract_points(mats, tensor)

    def test_repeat_call_builds_nothing(self, monkeypatch):
        plan = self._plan()
        xs = self._outputs(plan)["random"]
        first = fdt_integral(self._f, plan, xs)
        assert plan.operator_cache_info()[:3] == (0, 1, 1)

        def refuse(*args, **kwargs):
            raise AssertionError("kernel rebuilt on a cache hit")

        monkeypatch.setattr(transform, "_kernel_even_odd", refuse)
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
        original = transform._kernel_even_odd

        def counting(*args, **kwargs):
            builds.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(transform, "_kernel_even_odd", counting)
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
        # psi_m = L_m^nu(y^2) e^{-y^2/2} has eigenvalue e^{2 i a m}; radii up
        # to 4 at |sin a| down to 0.3 need the grid's HANKEL_NODES
        mult = Multiplicity([1.0])
        radii = np.linspace(0.0, 4.0, 17)
        for alpha in (math.pi / 3, 2.84, -0.31):
            plan = TransformPlan(mult, alpha, M=0)
            for nu in (-0.5, 0.5, 1.3, 2.0):
                for m in range(4):
                    psi = lambda y, _m=m, _nu=nu: laguerre_eval(_m, _nu, y * y) * np.exp(-0.5 * y * y)
                    got = fractional_hankel(psi, nu, plan, radii)
                    want = cmath.exp(2j * plan.alpha * m) * psi(radii)
                    assert np.max(np.abs(got - want)) <= 1e-9, (alpha, nu, m)

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

    def test_rule_kept_on_plan(self, monkeypatch):
        mult = Multiplicity([0.5])
        plan = TransformPlan(mult, 0.9, M=0)
        psi = lambda y: np.exp(-0.5 * y * y)
        radii = np.linspace(0.0, 3.0, 7)
        first = fractional_hankel(psi, 0.7, plan, radii)
        calls = []
        original = transform.build_grid

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(transform, "build_grid", counting)
        second = fractional_hankel(psi, 0.7, plan, radii)
        assert calls == []
        assert second.tobytes() == first.tobytes()
        fractional_hankel(psi, 1.2, plan, radii)
        assert len(calls) == 1
        fractional_hankel(psi, 0.7, plan.with_alpha(1.3), radii)
        assert len(calls) == 2

    def test_huge_radius_refused(self):
        mult = Multiplicity([0.5])
        plan = TransformPlan(mult, 1.0, M=0)
        with pytest.raises(RangeError, match=r"integral route: output coordinate x0 = 1e\+200"):
            fractional_hankel(lambda y: np.exp(-y * y), 0.5, plan, np.array([1.0, 1e200]))

    def test_negative_radius_rejected(self):
        mult = Multiplicity([0.5])
        plan = TransformPlan(mult, 0.9, M=0)
        with pytest.raises(DomainError):
            fractional_hankel(lambda y: np.exp(-y * y), 0.5, plan, np.array([-1.0]))

    def test_profile_of_wrong_shape_refused(self):
        # one value per node of the 320-node axis, as QuadGrid.values asks;
        # a column would broadcast against the weights
        plan = TransformPlan(Multiplicity([0.5]), 0.9, M=0)
        profiles = {
            "column": (lambda y: np.exp(-y * y)[:, None], r"\(320, 1\)"),
            "scalar": (lambda y: 1.0, r"\(\)"),
            "short": (lambda y: np.exp(-y[:-1] ** 2), r"\(319,\)"),
        }
        for key, (psi, shape) in profiles.items():
            for radii in ([0.5], [0.5, 1.0, 2.0], 0.5):
                with pytest.raises(UsageError, match=rf"value array has shape {shape}, grid has 320 nodes"):
                    fractional_hankel(psi, 0.5, plan, radii)
        plan2 = TransformPlan(Multiplicity([0.3, 0.7]), 0.9, M=0)
        with pytest.raises(UsageError, match=r"value array has shape \(320, 1\), grid has 320 nodes"):
            bochner_fdt(MultiPoly.variable(0, 2), profiles["column"][0], plan2, [[0.5, 1.0]])


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
    # Each value is checked twice: on the uniform circle rule (the independent
    # N = 2 reference, ``circle_average``) at its own tolerance, and on the
    # sphere rule of ``funk_hecke_radial`` within 1e-13.
    def test_at_origin(self):
        mult = Multiplicity([0.3, 0.7])
        got = circle_average(mult, np.zeros(2), 4096)
        assert got == pytest.approx(1.0 + 0.0j, abs=1e-14)
        assert funk_hecke_radial(mult, np.zeros(2)) == pytest.approx(1.0 + 0.0j, abs=1e-13)

    def test_classical_plane_wave_average(self):
        # mu = 0, |x| = 1: average of e^{i<x,y>} over the circle is J_0(1)
        mult = Multiplicity([0.0, 0.0])
        x = np.array([1.0, 0.0])
        got = circle_average(mult, x, 1 << 12)
        with mpmath.workdps(30):
            ref = float(mpmath.besselj(0, 1))
        assert got.real == pytest.approx(ref, abs=1e-12)
        assert abs(got.imag) <= 1e-12
        assert funk_hecke_radial(mult, x) == pytest.approx(ref, abs=1e-13)

    def test_weighted_radial_identity(self):
        # lambda = 1 for mu = (0.3, 0.7): value is j_1(|x|) at |x| = 2
        mult = Multiplicity([0.3, 0.7])
        x = 2.0 * np.array([math.cos(0.4), math.sin(0.4)])
        got = circle_average(mult, x, 1 << 18)
        ref = complex(radial_bessel(mult, 2.0))
        with mpmath.workdps(30):
            direct = complex(mpmath.gamma(2) * (mpmath.mpf(1)) ** (-1) * mpmath.besselj(1, 2))
        assert ref == pytest.approx(direct, rel=1e-12)
        assert got == pytest.approx(ref, abs=2e-8)
        assert funk_hecke_radial(mult, x) == pytest.approx(ref, abs=1e-13)

    def test_dimension_guard(self):
        # x must have one coordinate per axis of the multiplicity
        for mu, x in (([0.5], [1.0, 0.0]), ([0.3, 0.7], [1.0]), ([0.3, 0.7], [[1.0, 0.0]]),
                      ([0.3, 0.7, 0.2], [1.0, 0.0])):
            with pytest.raises(UsageError, match="vector"):
                funk_hecke_radial(Multiplicity(mu), np.array(x))

    @pytest.mark.parametrize("mu", [0.0, 0.5, 0.7, 1.7])
    def test_one_dimension_is_the_even_part(self, mu):
        # N = 1: the sphere is +-1, so the average is the even part of the
        # kernel, j_(mu - 1/2)(|x|), exactly
        mult = Multiplicity([mu])
        for x in (0.0, 0.3, -1.3, 2.5, -20.0):
            want = complex(normalized_ibessel(mu - 0.5, 1j * abs(x)))
            got = funk_hecke_radial(mult, np.array([x]))
            assert (got.real, got.imag) == (want.real, want.imag), (mu, x)

    def test_three_dimensions(self):
        # lambda = gamma + 1/2; radii up to 20 in a direction off every axis
        for mu in ((0.0, 0.0, 0.0), (0.3, 0.7, 0.2), (1.7, 0.2, 0.5)):
            mult = Multiplicity(mu)
            for radius in (0.0, 3.0, 20.0):
                x = radius * np.array([0.36, -0.48, 0.8])
                want = complex(radial_bessel(mult, radius))
                assert funk_hecke_radial(mult, x) == pytest.approx(want, abs=1e-13), (mu, radius)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_point_refused(self, bad):
        for mu in ([0.5], [0.3, 0.7]):
            x = np.zeros(len(mu))
            x[-1] = bad
            with pytest.raises(DomainError, match="points must be finite"):
                funk_hecke_radial(Multiplicity(mu), x)


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
        x = 20.0 * np.array([math.cos(1.1), math.sin(1.1)])
        got = circle_average(mult, x, 1 << 12)
        ref = complex(radial_bessel(mult, 20.0))
        assert got == pytest.approx(ref, abs=1e-10)
        assert funk_hecke_radial(mult, x) == pytest.approx(ref, abs=1e-13)

    def test_radius_twenty_weighted(self):
        mult = Multiplicity([0.3, 0.7])
        x = 20.0 * np.array([math.cos(0.3), math.sin(0.3)])
        got = circle_average(mult, x, 1 << 20)
        ref = complex(radial_bessel(mult, 20.0))
        assert got == pytest.approx(ref, abs=1e-8)
        assert funk_hecke_radial(mult, x) == pytest.approx(ref, abs=1e-13)


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
