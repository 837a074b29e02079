"""Special-function layer: gamma, normalized Bessel series, Laguerre,
Dunkl kernels."""

import math
import re
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from dunkl_frft.errors import DomainError, RangeError, UsageError
from dunkl_frft.specfun import (
    BesselOrder,
    Multiplicity,
    dunkl_kernel_1d,
    dunkl_kernel_prod,
    gamma_fn,
    laguerre_eval,
    normalized_ibessel,
)


def mp_jhat(nu, u, terms=30):
    """Independent oracle: direct high-precision series with a fixed term
    count.  All arithmetic stays inside mpmath (a float64 slip in the
    gamma argument would be amplified ~1e16x by the series cancellation)."""
    with mpmath.workdps(60):
        q = (mpmath.mpc(u) / 2) ** 2
        nu_mp = mpmath.mpf(nu)
        term = mpmath.mpc(1)
        total = mpmath.mpc(1)
        for n in range(1, terms):
            term = term * q / (n * (n + nu_mp))
            total += term
        return complex(total)


def mp_hyp0f1_jhat(nu, u):
    """jhat_nu(u) = 0F1(; nu+1; u^2/4) by mpmath at 50 digits, for arguments
    too large for the fixed-length series of ``mp_jhat``."""
    with mpmath.workdps(50):
        u = mpmath.mpc(u)
        return complex(mpmath.hyp0f1(mpmath.mpf(nu) + 1, u * u / 4))


class TestGamma:
    def test_gamma_one(self):
        assert gamma_fn(1.0) == 1.0

    def test_gamma_half(self):
        assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-15)

    def test_gamma_recurrence_oracle(self):
        # Gamma(7.5) by the recurrence down from Gamma(0.5)
        expected = math.sqrt(math.pi)
        for k in range(7):
            expected *= 0.5 + k
        assert gamma_fn(7.5) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("bad", [0.0, -1.0, -7.3, math.nan])
    def test_domain_errors(self, bad):
        with pytest.raises(DomainError):
            gamma_fn(bad)

    def test_overflow_is_a_range_error(self):
        # Gamma(x) leaves double precision just above x = 171.62
        assert math.isfinite(gamma_fn(171.6))
        for x in (171.7, 200.5, 1e6):
            with pytest.raises(RangeError, match=re.escape(f"Gamma({x!r})")):
                gamma_fn(x)
        with pytest.raises(RangeError, match=re.escape("Gamma(200.5)")):
            Multiplicity([200.0]).mehta_constant

    def test_accuracy_across_contract_interval(self):
        xs = np.linspace(0.5, 50.0, 173)
        with mpmath.workdps(40):
            for x in xs:
                ref = float(mpmath.gamma(x))
                assert abs(gamma_fn(x) - ref) <= 1e-13 * abs(ref)


class TestNormalizedIBessel:
    def test_value_at_zero(self):
        assert normalized_ibessel(BesselOrder(0.5), 0.0) == 1.0 + 0.0j

    def test_half_order_closed_form(self):
        # jhat_{1/2}(i x) = sin(x)/x
        for x in (0.3, 1.0, 4.7, 19.0, 37.5):
            got = normalized_ibessel(BesselOrder(0.5), 1j * x)
            assert got == pytest.approx(math.sin(x) / x, abs=1e-14)

    def test_minus_half_order_closed_form(self):
        for u in (0.2, 2.0 + 1.0j, -3.0 + 0.5j, 11.0j):
            got = normalized_ibessel(BesselOrder(-0.5), u)
            assert got == pytest.approx(complex(np.cosh(u)), rel=1e-13)

    def test_evenness(self):
        rng = np.random.default_rng(7)
        pts = rng.uniform(-1, 1, size=(100, 2)) @ np.diag([40.0, 40.0])
        u = pts[:, 0] + 1j * pts[:, 1]
        u = u[np.abs(u) <= 40.0]
        for nu in (-0.5, -0.2, 0.5, 1.7):
            a = normalized_ibessel(BesselOrder(nu), u)
            b = normalized_ibessel(BesselOrder(nu), -u)
            scale = np.maximum(np.abs(a), 1.0)
            assert np.max(np.abs(a - b) / scale) <= 1e-14

    def test_against_independent_series(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            nu = rng.uniform(-0.5, 3.0)
            u = complex(rng.uniform(-30, 30), rng.uniform(-30, 30))
            ref = mp_jhat(nu, u, terms=200)
            got = normalized_ibessel(BesselOrder(nu), u)
            assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))
        # the imaginary axis below order 0, where 0F1 needs the contiguous
        # relation, down to an argument whose square underflows
        for nu in (-0.45, -0.2, -0.05):
            for t in [0.0, 1e-300, 12.0, *rng.uniform(0.0, 80.0, 8)]:
                ref = mp_jhat(nu, 1j * t, terms=200)
                got = normalized_ibessel(BesselOrder(nu), 1j * t)
                assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_series_scipy_crossover_consistent(self):
        # no internal switch at |u| = 8: values just inside and outside that
        # circle both match the series oracle
        for nu in (-0.5, 0.0, 0.8):
            for phase in np.linspace(0, 2 * math.pi, 9):
                lo = 7.9 * complex(math.cos(phase), math.sin(phase))
                hi = 8.1 * complex(math.cos(phase), math.sin(phase))
                ref_lo = mp_jhat(nu, lo, terms=60)
                ref_hi = mp_jhat(nu, hi, terms=60)
                assert abs(normalized_ibessel(BesselOrder(nu), lo) - ref_lo) <= 1e-12 * abs(ref_lo)
                assert abs(normalized_ibessel(BesselOrder(nu), hi) - ref_hi) <= 1e-12 * abs(ref_hi)

    def test_elementwise(self):
        # each value depends only on its own argument: an array call equals
        # per-element scalar calls bit for bit
        u = np.array(
            [0.0, 1e-9j, 3.0j, -3.0j, 7.9j, -7.9j, 8.1j, -8.1j, 30.0j, -30.0j,
             2.5, -9.0, 1.0 + 2.0j, -6.0 - 7.0j, 4.0 - 9.0j, 12.0 + 0.5j]
        )
        for nu in (-0.5, -0.2, 0.0, 0.5, 1.7):
            for fn, args in (
                (normalized_ibessel, lambda v: (BesselOrder(nu), v)),
                (dunkl_kernel_1d, lambda v: (BesselOrder(nu), v, 1.0)),
            ):
                whole = fn(*args(u))
                single = np.array([fn(*args(v)) for v in u])
                assert whole.view(float).tobytes() == single.view(float).tobytes()

    def test_no_ceiling_on_the_argument(self):
        # |K(ix, y)| <= 1 needs the Bessel values at every |u|: past |u| = 80
        # they match mpmath to |u| eps absolute on the imaginary axis and to
        # 1e-14 relative at real and complex u with |u| <= 300
        eps = np.finfo(float).eps
        for nu in (-0.5, -0.2, 0.0, 0.7, 2.5):
            for t in (81.0, 1e3, 1e5):
                got = normalized_ibessel(BesselOrder(nu), 1j * t)
                assert abs(got - mp_hyp0f1_jhat(nu, 1j * t)) <= t * eps, (nu, t)
            for u in (81.0, -200.0, 300.0, 0.5 + 85j, 150 + 100j, -90 + 200j, 60 - 280j, -290 - 50j):
                ref = mp_hyp0f1_jhat(nu, u)
                got = normalized_ibessel(BesselOrder(nu), u)
                assert abs(got - ref) <= 1e-14 * abs(ref), (nu, u)

    def test_range_error_and_override(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(RangeError, match="not finite"):
                normalized_ibessel(BesselOrder(0.5), bad)

    def test_array_shape(self):
        u = np.array([[0.0, 1.0j], [2.0, 5.0 + 1.0j]])
        out = normalized_ibessel(BesselOrder(0.3), u)
        assert out.shape == u.shape
        assert out[0, 0] == 1.0 + 0.0j
        assert normalized_ibessel(BesselOrder(0.3), np.zeros((0, 3))).shape == (0, 3)

    def test_bad_order(self):
        with pytest.raises(DomainError):
            BesselOrder(-0.6)


class TestLaguerre:
    def test_degree_zero(self):
        assert laguerre_eval(0, 1.3, 5.0) == 1.0

    def test_degree_one(self):
        for a, t in ((0.5, 2.0), (1.7, -0.3)):
            assert laguerre_eval(1, a, t) == pytest.approx(1.0 + a - t, rel=1e-15)

    def test_degree_three_exact_expansion(self):
        # L_3^(a)(t) expanded symbolically for a = 1/2, t = 2:
        # (a+1)(a+2)(a+3)/6 - (a+2)(a+3)/2 t + (a+3)/2 t^2 - t^3/6 = -43/48
        expected = Fraction(35, 16) - Fraction(35, 4) + 7 - Fraction(4, 3)
        assert expected == Fraction(-43, 48)
        assert laguerre_eval(3, 0.5, 2.0) == pytest.approx(float(expected), rel=1e-14)

    def test_against_scipy(self):
        from scipy.special import eval_genlaguerre

        rng = np.random.default_rng(3)
        for _ in range(50):
            m = int(rng.integers(0, 12))
            a = rng.uniform(-0.9, 4.0)
            t = rng.uniform(0.0, 30.0)
            ref = eval_genlaguerre(m, a, t)
            assert laguerre_eval(m, a, t) == pytest.approx(ref, rel=1e-10, abs=1e-12)

    def test_vectorized(self):
        t = np.linspace(0, 5, 7)
        out = laguerre_eval(2, 0.5, t)
        assert out.shape == t.shape

    def test_errors(self):
        with pytest.raises(DomainError):
            laguerre_eval(-1, 0.5, 1.0)
        with pytest.raises(DomainError):
            laguerre_eval(2, -1.0, 1.0)


class TestDunklKernel1d:
    def test_kernel_at_zero(self):
        for nu in (-0.5, 0.5, 2.0):
            assert dunkl_kernel_1d(BesselOrder(nu), 0.0, 3.0) == 1.0 + 0.0j

    def test_exponential_reduction(self):
        # nu = -1/2 is the multiplicity-zero case: K(z, y) = exp(z y)
        for z, y in ((1.2j, 0.7), (0.5 + 0.3j, -2.0), (2.0, 1.5)):
            got = dunkl_kernel_1d(BesselOrder(-0.5), z, y)
            assert got == pytest.approx(complex(np.exp(z * y)), rel=1e-13)

    def test_series_oracle(self):
        # K(i, 1) at nu = 1/2 equals j_{1/2}(1) + (i/3) j_{3/2}(1)
        ref = mp_jhat(0.5, 1j) + 1j / 3.0 * mp_jhat(1.5, 1j)
        got = dunkl_kernel_1d(BesselOrder(0.5), 1j, 1.0)
        assert got == pytest.approx(ref, abs=1e-14)

    def test_unit_modulus_bound(self):
        rng = np.random.default_rng(23)
        count = 0
        while count < 1000:
            x = rng.uniform(-8, 8)
            y = rng.uniform(-8, 8)
            if abs(x * y) > 40:
                continue
            count += 1
            nu = rng.uniform(-0.5, 2.5)
            assert abs(dunkl_kernel_1d(BesselOrder(nu), 1j * x, y)) <= 1.0 + 1e-12

    def test_homogeneity(self):
        rng = np.random.default_rng(29)
        for _ in range(60):
            nu = rng.uniform(-0.5, 2.0)
            z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            y = rng.uniform(-4, 4)
            a = dunkl_kernel_1d(BesselOrder(nu), z, y)
            b = dunkl_kernel_1d(BesselOrder(nu), z * y, 1.0)
            assert a == pytest.approx(b, abs=1e-13 * max(1.0, abs(a)))

    def test_exponential_growth_bound(self):
        rng = np.random.default_rng(31)
        for _ in range(500):
            nu = rng.uniform(-0.5, 2.0)
            z = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
            y = rng.uniform(-5, 5)
            if abs(z * y) > 40:
                continue
            val = abs(dunkl_kernel_1d(BesselOrder(nu), z, y))
            assert val <= math.exp(abs(z.real) * abs(y)) * (1.0 + 1e-10)

    def test_eigen_equation(self):
        # T_x K(x, y) = y K(x, y) with T the one-dimensional Dunkl operator
        mu = 0.8
        nu = BesselOrder(mu - 0.5)
        y = 1.3
        h = 1e-5
        for x in (0.4, 1.1, 2.6):
            k = lambda t: dunkl_kernel_1d(nu, t, y)
            deriv = (k(x + h) - k(x - h)) / (2 * h)
            reflect = mu * (k(x) - k(-x)) / x
            assert deriv + reflect == pytest.approx(y * k(x), abs=5e-9)


class TestDunklKernelProd:
    def test_exponential_reduction_2d(self):
        mult = Multiplicity([0, 0])
        x = np.array([0.7, -1.2])
        y = np.array([0.4, 2.0])
        got = dunkl_kernel_prod(mult, 1j * x, y)
        assert got == pytest.approx(complex(np.exp(1j * np.dot(x, y))), rel=1e-13)

    def test_at_zero(self):
        mult = Multiplicity([0.7, 0.3])
        assert dunkl_kernel_prod(mult, np.zeros(2), np.array([1.0, -2.0])) == 1.0 + 0.0j

    def test_factorization(self):
        mult = Multiplicity([0.7, 0.3])
        z = np.array([1j, 2j])
        y = np.array([0.5, -1.0])
        ref = dunkl_kernel_1d(BesselOrder(0.2), 1j, 0.5) * dunkl_kernel_1d(
            BesselOrder(-0.2), 2j, -1.0
        )
        assert dunkl_kernel_prod(mult, z, y) == pytest.approx(ref, rel=1e-14)

    def test_dimension_mismatch(self):
        mult = Multiplicity([0.7, 0.3])
        with pytest.raises(UsageError):
            dunkl_kernel_prod(mult, np.zeros(3), np.zeros(3))


class TestMultiplicity:
    def test_mehta_constant_mu_zero(self):
        for n in (1, 2, 3):
            mult = Multiplicity([0.0] * n)
            assert mult.mehta_constant == pytest.approx(math.pi ** (-n / 2.0), rel=1e-14)

    def test_derived_constants_consistent(self):
        mult = Multiplicity([0.3, 0.7, 1.1])
        assert mult.gamma_index == pytest.approx(sum(mult.mu), rel=1e-15)
        assert mult.lambda_index == pytest.approx(mult.gamma_index + 1.5 - 1.0, rel=1e-15)
        expected_ck = 1.0
        for m in mult.mu:
            expected_ck /= gamma_fn(m + 0.5)
        assert mult.mehta_constant == pytest.approx(expected_ck, rel=1e-14)
        assert [o.nu for o in mult.orders] == pytest.approx([m - 0.5 for m in mult.mu])

    def test_validation(self):
        with pytest.raises(DomainError):
            Multiplicity([])
        with pytest.raises(DomainError):
            Multiplicity([-0.1])
        with pytest.raises(DomainError):
            Multiplicity([0.5, math.inf])

    def test_weight(self):
        mult = Multiplicity([0.5, 1.0])
        pts = np.array([[2.0, 3.0]])
        assert mult.weight(pts)[0] == pytest.approx(2.0 * 9.0, rel=1e-14)
