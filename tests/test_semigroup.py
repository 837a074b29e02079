"""Operator layer: spectral projections, resolvent, generator realizations,
difference quotients and the eigen-decomposition."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from dunkl_frft import semigroup
from dunkl_frft.errors import DomainError, UsageError
from dunkl_frft.polyengine import (
    GaussPoly,
    HermiteExpansion,
    MultiPoly,
    RationalComplex,
)
from dunkl_frft.quadrature import build_grid
from dunkl_frft.semigroup import (
    GroupSampler,
    difference_quotient,
    expansion_generator,
    generator_exact,
    generator_integral,
    group_integral,
    observed_order,
    resolvent_apply,
    spectral_projection,
)
from dunkl_frft.specfun import Multiplicity
from dunkl_frft.transform import TransformPlan, fdt_integral_on_grid
from frft_helpers import eigen_decomposition_sum, inner_product


def grid_l2(grid, values):
    return math.sqrt(float(np.sum(grid.weights * np.abs(values) ** 2)))


@pytest.fixture(scope="module")
def context():
    mult = Multiplicity([0.5])
    plan = TransformPlan(mult, 0.0, M=8)
    sampler = GroupSampler(plan, q=64)
    return mult, plan, sampler


class TestSpectralProjection:
    def test_picks_matching_eigenindex(self, context):
        mult, plan, sampler = context
        f = plan.basis.function((3,))
        proj = spectral_projection(f, 3, sampler)
        assert proj.coefficient((3,)) == pytest.approx(1.0, abs=1e-12)

    def test_annihilates_other_indices(self, context):
        mult, plan, sampler = context
        f = plan.basis.function((3,))
        for n in (0, 1, 2, 4, 7):
            assert spectral_projection(f, n, sampler).norm_l2() <= 1e-12

    def test_negative_index_vanishes(self, context):
        mult, plan, sampler = context
        f = HermiteExpansion.from_terms(plan.basis, {(0,): 1.0, (2,): -1.0, (5,): 2.0j})
        assert spectral_projection(f, -3, sampler).norm_l2() <= 1e-12

    def test_projection_algebra(self, context):
        mult, plan, sampler = context
        f = HermiteExpansion.from_terms(plan.basis, {(1,): 1.0, (4,): 1.0})
        p4 = spectral_projection(f, 4, sampler)
        # idempotent and orthogonal to other projections
        assert (spectral_projection(p4, 4, sampler) - p4).norm_l2() <= 1e-12
        assert spectral_projection(p4, 1, sampler).norm_l2() <= 1e-12

    def test_group_phase_commutation(self, context):
        mult, plan, sampler = context
        f = HermiteExpansion.from_terms(plan.basis, {(2,): 1.0, (5,): -1.0j})
        s = 0.7
        lhs = spectral_projection(sampler.group_apply(f, s), 2, sampler)
        rhs = spectral_projection(f, 2, sampler) * cmath.exp(2j * s)
        assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) <= 1e-9

    def test_self_adjoint(self, context):
        mult, plan, sampler = context
        grid = plan.grid
        f = HermiteExpansion.from_terms(plan.basis, {(0,): 1.0, (2,): 0.5j})
        g = HermiteExpansion.from_terms(plan.basis, {(2,): 1.0, (3,): -2.0})
        for n in (0, 2, 3):
            lhs = inner_product(spectral_projection(f, n, sampler), g, grid)
            rhs = inner_product(f, spectral_projection(g, n, sampler), grid)
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_array_changed_in_place_is_expanded_again(self, context):
        # the sampler holds no expansion of its own, so a sample array that
        # changes in place is projected with its new values
        mult, plan, _ = context
        sampler = GroupSampler(plan, q=64)
        v = plan.grid.values(plan.basis.function((2,))).astype(complex)
        lam = 1.0 + 1.0j
        assert spectral_projection(v, 2, sampler).coefficient((2,)) == pytest.approx(1.0, abs=1e-10)
        assert resolvent_apply(v, lam, sampler).coefficient((2,)) == pytest.approx(
            1.0 / (lam - 2.0j), abs=1e-10
        )
        v[:] = plan.grid.values(plan.basis.function((3,)))
        assert spectral_projection(v, 2, sampler).norm_l2() <= 1e-10
        assert spectral_projection(v, 3, sampler).coefficient((3,)) == pytest.approx(1.0, abs=1e-10)
        res = resolvent_apply(v, lam, sampler)
        assert res.coefficient((2,)) == pytest.approx(0.0, abs=1e-10)
        assert res.coefficient((3,)) == pytest.approx(1.0 / (lam - 3.0j), abs=1e-10)

    def test_aliased_degrees_refused(self):
        # Q = 64 nodes at M = 24: e^{i(d-n)s} averages to 1 whenever d - n is a
        # multiple of 64, so only -40 < n < 64 leaves every degree d <= 24 alone
        plan = TransformPlan(Multiplicity([0.5]), 0.0)
        sampler = GroupSampler(plan, q=64)
        f = plan.basis.function((3,))
        for n in (63, -39):
            assert spectral_projection(f, n, sampler).norm_l2() <= 1e-12
        for n in (64, -40, 67, -61, 88, 10**30):
            with pytest.raises(DomainError, match=rf"n = {n} .*Q = 64, M = 24"):
                spectral_projection(f, n, sampler)

    def test_nyquist_guard(self, context):
        mult, plan, _ = context
        with pytest.raises(DomainError):
            GroupSampler(plan, q=10)


class TestResolvent:
    def test_ground_state(self, context):
        mult, plan, sampler = context
        h0 = plan.basis.function((0,))
        res = resolvent_apply(h0, 1.0 + 0.0j, sampler)
        assert res.coefficient((0,)) == pytest.approx(1.0, abs=1e-12)

    def test_eigenvalue_shift(self, context):
        mult, plan, sampler = context
        h2 = plan.basis.function((2,))
        res = resolvent_apply(h2, 1.0 + 1.0j, sampler)
        assert res.coefficient((2,)) == pytest.approx(1.0 / (1.0 - 1.0j), abs=1e-12)

    def test_resolvent_identity_via_exact_generator(self, context):
        mult, plan, sampler = context
        grid = plan.grid
        f = HermiteExpansion.from_terms(plan.basis, {(0,): 0.3, (1,): -1.0j, (4,): 0.7})
        for lam in (0.5 + 0.3j, -1.2 + 2.4j, 2.0 - 0.6j):
            res = resolvent_apply(f, lam, sampler)
            treated = expansion_generator(res, mult)
            back = lam * res(grid.nodes) - treated(grid.nodes)
            assert grid_l2(grid, back - f(grid.nodes)) <= 1e-8

    def test_refusal_near_spectrum(self, context):
        mult, plan, sampler = context
        f = plan.basis.function((0,))
        near = (0.05 + 1.0j, 2.0j + 0.0, 0.0 + 0.98j)
        for lam in near + (complex(math.inf, 0.5), complex(1.0, math.nan)):
            with pytest.raises(DomainError):
                resolvent_apply(f, lam, sampler)

    def test_non_invertibility_witness(self, context):
        # at lam = i n the operator (lam - T) kills the degree-n component
        mult, plan, sampler = context
        f = HermiteExpansion.from_terms(plan.basis, {(2,): 1.0, (3,): 1.0})
        lam = 2.0j
        killed = expansion_generator(f, mult) * (-1.0)
        shifted = killed.poly + (RationalComplex(Fraction(lam.real), Fraction(lam.imag)) * f.to_gauss_poly().poly)
        survivor = GaussPoly(shifted)
        grid = plan.grid
        proj = spectral_projection(
            lambda pts: survivor(pts), 2, GroupSampler(plan, q=64)
        )
        assert proj.norm_l2() <= 1e-10


class TestGeneratorExact:
    def test_ground_state_annihilated(self, context):
        mult, plan, _ = context
        h0 = plan.basis.function((0,))
        assert generator_exact(h0, mult).poly.is_zero

    def test_eigenvalue_two(self, context):
        mult, plan, _ = context
        h2 = plan.basis.function((2,))
        out = generator_exact(h2, mult)
        assert out == h2 * RationalComplex(0, 2)

    def test_first_degree_eigenspace(self):
        mult = Multiplicity([0.3, 0.7])
        f = GaussPoly(MultiPoly.variable(0, 2))
        out = generator_exact(f, mult)
        assert out == f * RationalComplex(0, 1)

    def test_skew_adjointness(self):
        mult = Multiplicity([0.5])
        grid = build_grid(mult, n=60)
        f = GaussPoly(MultiPoly(1, {(0,): 1, (2,): -2}))
        g = GaussPoly(MultiPoly(1, {(1,): 1, (3,): Fraction(1, 3)}))
        lhs = inner_product(generator_exact(f, mult), g, grid)
        rhs = inner_product(f, generator_exact(g, mult), grid)
        assert lhs == pytest.approx(-rhs, abs=1e-9)

    def test_usage_guard(self):
        mult = Multiplicity([0.5])
        with pytest.raises(UsageError):
            generator_exact(MultiPoly.constant(1, 1), mult)


class TestGeneratorIntegral:
    def test_ground_state(self, context):
        mult, plan, _ = context
        h0 = plan.basis.function((0,))
        xs = np.linspace(-2, 2, 9)[:, None]
        got = generator_integral(h0, mult, plan.grid, xs)
        assert np.max(np.abs(got)) <= 1e-7

    def test_degree_two_eigenvalue(self, context):
        mult, plan, _ = context
        h2 = plan.basis.function((2,))
        xs = np.linspace(-2, 2, 9)[:, None]
        got = generator_integral(h2, mult, plan.grid, xs)
        assert np.max(np.abs(got - 2j * h2(xs))) <= 1e-7

    def test_probe_shape_guard(self, context, monkeypatch):
        # a wrong-shaped probe is refused before either transform runs
        mult, plan, _ = context
        h0 = plan.basis.function((0,))

        def no_transform(*args):
            raise AssertionError("a transform ran before the shape check")

        monkeypatch.setattr(semigroup, "fdt_integral_on_grid", no_transform)
        with pytest.raises(UsageError, match="shape"):
            generator_integral(h0, mult, plan.grid, np.zeros((3, 2)))

    def test_classical_gaussian_polynomial(self):
        # mu = 0: matches the classical harmonic-oscillator action computed
        # by the exact route
        mult = Multiplicity([0.0])
        grid = build_grid(mult)
        f = GaussPoly(MultiPoly(1, {(0,): 1, (2,): 1}))
        xs = np.linspace(-2, 2, 7)[:, None]
        got = generator_integral(f, mult, grid, xs)
        want = generator_exact(f, mult)(xs)
        assert np.max(np.abs(got - want)) <= 1e-7


class TestDifferenceQuotient:
    def test_ground_state_quotient_vanishes(self, context):
        mult, plan, _ = context
        h0 = plan.basis.function((0,))
        residuals = difference_quotient(h0, [0.5, 0.25, 0.125], plan)
        assert all(r <= 1e-12 for _, r in residuals)

    def test_first_order_halving(self, context):
        mult, plan, _ = context
        h1 = plan.basis.function((1,))
        residuals = difference_quotient(h1, [0.2, 0.1], plan)
        ratio = residuals[0][1] / residuals[1][1]
        assert abs(ratio - 2.0) <= 0.3

    def test_mixed_combo_limit(self, context):
        # (D^a f - f)/a -> Tf = 3i * (h3 component) for f = h0 + h3
        mult, plan, _ = context
        f = HermiteExpansion.from_terms(plan.basis, {(0,): 1.0, (3,): 1.0})
        a = 1e-5
        quotient = f.scale_degrees([(cmath.exp(1j * n * a) - 1.0) / a for n in range(plan.M + 1)])
        assert quotient.coefficient((0,)) == pytest.approx(0.0, abs=1e-12)
        assert quotient.coefficient((3,)) == pytest.approx(3j, abs=1e-4)

    def test_observed_order(self, context):
        mult, plan, _ = context
        f = HermiteExpansion.from_terms(plan.basis, {(1,): 1.0, (4,): 0.5})
        residuals = difference_quotient(f, [0.4 * 2.0**-j for j in range(6)], plan)
        order = observed_order(residuals)
        assert abs(order - 1.0) <= 0.3

    def test_zero_order_rejected(self, context):
        mult, plan, _ = context
        for bad in (0.0, math.inf):
            with pytest.raises(DomainError):
                difference_quotient(plan.basis.function((0,)), [bad], plan)


class TestEigenDecomposition:
    def test_band_limited_reconstruction(self, context):
        mult, plan, sampler = context
        f = HermiteExpansion.from_terms(plan.basis, {(0,): 1.0, (2,): 1.0})
        total = eigen_decomposition_sum(f, sampler, 4)
        assert np.max(np.abs(total.coeffs - sampler.expand(f).coeffs)) <= 1e-12

    def test_generator_weighted_sum(self, context):
        mult, plan, sampler = context
        f = HermiteExpansion.from_terms(plan.basis, {(1,): 2.0, (3,): -1.0j})
        weighted = eigen_decomposition_sum(f, sampler, 6, apply_generator=True)
        exact = generator_exact(f.to_gauss_poly(), mult)
        xs = np.linspace(-2, 2, 9)[:, None]
        assert np.max(np.abs(weighted(xs) - exact(xs))) <= 1e-10

    def test_truncation_drops_documented_mass(self, context):
        mult, plan, sampler = context
        f = HermiteExpansion.from_terms(plan.basis, {(1,): 1.0, (6,): 2.0})
        total = eigen_decomposition_sum(f, sampler, 4)
        residual = (sampler.expand(f) - total).norm_l2()
        assert residual == pytest.approx(2.0, abs=1e-10)


class TestSemigroupCalculus:
    def test_integral_identity(self, context):
        # D^a f - f = T integral_0^a D^s f ds, lhs by the integral route
        mult, plan, sampler = context
        gen_plan = plan.with_alpha(math.pi / 3)
        f = HermiteExpansion.from_terms(plan.basis, {(0,): 0.5, (2,): 1.0, (5,): -0.5j})
        grid = plan.grid
        lhs = fdt_integral_on_grid(f, gen_plan) - f(grid.nodes)
        integral = group_integral(f, gen_plan.alpha, plan)
        rhs = expansion_generator(integral, mult)(grid.nodes)
        assert grid_l2(grid, lhs - rhs) <= 1e-8

    def test_group_integral_oracle(self, context):
        # integral_0^a e^{i n s} ds = (e^{i n a} - 1)/(i n) per coefficient
        mult, plan, _ = context
        f = HermiteExpansion.from_terms(plan.basis, {(2,): 1.0})
        a = 1.1
        out = group_integral(f, a, plan)
        expected = (cmath.exp(2j * a) - 1.0) / 2j
        assert out.coefficient((2,)) == pytest.approx(expected, abs=1e-13)


class TestGeneratorDiagnostics:
    def test_resolved_grid_reports_tiny_defect(self, context):
        mult, plan, _ = context
        h2 = plan.basis.function((2,))
        xs = np.array([[0.5]])
        _, report = generator_integral(h2, mult, plan.grid, xs, diagnostics=True)
        assert report["unitarity_defect"] <= 1e-9

    def test_underresolved_input_reports_large_defect(self):
        # the grid itself is calibrated, but a function whose tail escapes
        # the box cannot pass silently: the defect says so
        mult = Multiplicity([0.5])
        grid = build_grid(mult)
        slow = lambda pts: np.exp(-0.03 * pts[..., 0] ** 2)
        xs = np.array([[0.5]])
        _, report = generator_integral(slow, mult, grid, xs, diagnostics=True)
        assert report["unitarity_defect"] > 1e-4
