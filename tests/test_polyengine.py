"""Exact Dunkl algebra: derivatives, Laplacian, heat exponential, Hermite
basis and the Hermite operator."""

import functools
import hashlib
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from dunkl_frft import polyengine
from dunkl_frft.errors import DomainError, RangeError, UsageError
from dunkl_frft.polyengine import (
    GaussPoly,
    HermiteBasis,
    HermiteExpansion,
    MultiPoly,
    RationalComplex,
    dunkl_derivative,
    dunkl_laplacian,
    heat_exp_poly,
    hermite_closed_form_1d,
    hermite_operator,
)
from dunkl_frft.quadrature import build_grid
from dunkl_frft.specfun import Multiplicity, gamma_fn
from frft_helpers import inner_product


def random_poly(rng, dim, degree):
    terms = {}
    for _ in range(rng.integers(2, 7)):
        exps = tuple(int(e) for e in rng.integers(0, degree + 1, size=dim))
        if sum(exps) > degree:
            continue
        terms[exps] = Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 5)))
    return MultiPoly(dim, terms)


class TestDunklDerivative:
    def test_even_exponent(self):
        mult = Multiplicity([0.5])
        out = dunkl_derivative(MultiPoly.monomial((2,)), 0, mult)
        assert out == MultiPoly(1, {(1,): 2})

    def test_degree_one(self):
        mult = Multiplicity([Fraction(3, 4)])
        out = dunkl_derivative(MultiPoly.monomial((1,)), 0, mult)
        assert out == MultiPoly(1, {(0,): 1 + Fraction(3, 2)})

    def test_odd_exponent(self):
        mult = Multiplicity([0.5])
        out = dunkl_derivative(MultiPoly.monomial((3,)), 0, mult)
        assert out == MultiPoly(1, {(2,): 4})

    def test_commutativity(self):
        rng = np.random.default_rng(101)
        for dim in (2, 3):
            mult = Multiplicity([Fraction(1, 3)] * (dim - 1) + [Fraction(7, 8)])
            for _ in range(25):
                p = random_poly(rng, dim, 6)
                i, j = rng.integers(0, dim, size=2)
                a = dunkl_derivative(dunkl_derivative(p, i, mult), j, mult)
                b = dunkl_derivative(dunkl_derivative(p, j, mult), i, mult)
                assert a == b


class TestDunklLaplacian:
    def test_degree_one_harmonic(self):
        mult = Multiplicity([0.4, 1.2])
        for j in range(2):
            assert dunkl_laplacian(MultiPoly.variable(j, 2), mult).is_zero

    def test_square(self):
        mu = Fraction(2, 5)
        mult = Multiplicity([mu])
        out = dunkl_laplacian(MultiPoly.monomial((2,)), mult)
        assert out == MultiPoly(1, {(0,): 2 + 4 * mu})

    def test_mixed_monomial(self):
        a, b = Fraction(1, 4), Fraction(5, 8)
        mult = Multiplicity([a, b])
        out = dunkl_laplacian(MultiPoly.monomial((2, 1)), mult)
        assert out == MultiPoly(2, {(0, 1): 2 + 4 * a})

    def test_nilpotence(self):
        rng = np.random.default_rng(55)
        mult = Multiplicity([Fraction(1, 2), Fraction(3, 10)])
        for degree in (2, 3, 5):
            terms = {}
            for _ in range(4):
                e0 = int(rng.integers(0, degree + 1))
                terms[(e0, degree - e0)] = int(rng.integers(1, 5))
            p = MultiPoly(2, terms)
            out = p
            for _ in range(degree // 2 + 1):
                out = dunkl_laplacian(out, mult)
            assert out.is_zero

    def test_homogeneity_drop(self):
        mult = Multiplicity([0.3, 0.7])
        p = MultiPoly.monomial((3, 1))
        assert dunkl_laplacian(p, mult).homogeneous_degree() == 2


class TestHeatExp:
    def test_zero_coefficient_is_identity(self):
        mult = Multiplicity([0.5])
        p = MultiPoly.monomial((4,))
        assert heat_exp_poly(p, 0, mult) == p

    def test_square_shift(self):
        mu = Fraction(1, 2)
        mult = Multiplicity([mu])
        out = heat_exp_poly(MultiPoly.monomial((2,)), Fraction(-1, 4), mult)
        assert out == MultiPoly(1, {(2,): 1, (0,): -(1 + 2 * mu) * Fraction(1, 2)})

    def test_inverse_pair_exact(self):
        mult = Multiplicity([Fraction(4, 7)])
        p = MultiPoly.monomial((4,))
        round_trip = heat_exp_poly(heat_exp_poly(p, Fraction(-1, 4), mult), Fraction(1, 4), mult)
        assert round_trip == p

    def test_complex_coefficient_exact(self):
        mult = Multiplicity([0.5])
        p = MultiPoly.monomial((2,))
        out = heat_exp_poly(p, 0.25j, mult)
        assert out == MultiPoly(1, {(2,): 1, (0,): RationalComplex(0, 1)})


def pairwise_norm_sq(poly_1d, mu_exact):
    """|p e^{-t^2/2}|^2 in L^2(|t|^(2 mu) dt) by the independent pair sum
    Gamma(mu + 1/2) sum_ab Re(c_a conj c_b) (mu + 1/2)_((a+b)/2) in exact
    rationals, each unordered pair taken once and doubled."""
    base = mu_exact + Fraction(1, 2)
    items = sorted((a, c) for (a,), c in poly_1d.terms.items())
    pochhammer = [Fraction(1)]
    for i in range(items[-1][0]):
        pochhammer.append(pochhammer[-1] * (base + i))
    total = Fraction(0)
    for i, (a, ca) in enumerate(items):
        for b, cb in items[i:]:
            if (a + b) % 2 == 0:
                term = (ca.re * cb.re + ca.im * cb.im) * pochhammer[(a + b) // 2]
                total += term if a == b else 2 * term
    return float(total) * gamma_fn(float(base))


def fraction_ladder_family(mu_exact, max_degree):
    """Independent reference for the 1-D family: the polynomials raised by
    the exact ladder p_(n+1) = t p_n - T p_n / 2 (for Z2, [Delta_k, t] = 2T
    and [Delta_k, T] = 0, so exp(-Delta_k/4) t exp(Delta_k/4) = t - T/2), and
    each norm from the moment sum <p_n, t^n>.  Returns (polynomials, norms)."""
    axis = Multiplicity([mu_exact])
    base = mu_exact + Fraction(1, 2)
    gamma_base = gamma_fn(float(base))
    pochhammer = [Fraction(1)]
    for i in range(max_degree):
        pochhammer.append(pochhammer[-1] * (base + i))
    poly = MultiPoly.constant(1, 1)
    polys, norms = [], []
    for n in range(max_degree + 1):
        if n:
            poly = poly.times_coordinate(0) - dunkl_derivative(poly, 0, axis) * Fraction(1, 2)
        moment = sum(c.re * pochhammer[(a + n) // 2] for (a,), c in poly.terms.items())
        polys.append(poly)
        norms.append(math.sqrt(float(moment) * gamma_base))
    return polys, norms


def family_poly(basis, n):
    """The unnormalized p_n of a 1-D basis, from the h_n that ``function``
    builds: its coefficients carry the exact factor 1 / norm."""
    return basis.function((n,)).poly * (1 / Fraction(basis.norms[n]))


class TestHermiteLadder:
    """The exact polynomials are the heat exponential exp(-Delta_k/4) t^n and
    the norms the recurrence product; both are checked against the ladder
    and moment sums of ``fraction_ladder_family``."""

    MUS = (0, 0.3, 0.5, 1.7, Fraction(4, 7))

    @pytest.mark.parametrize("mu", MUS)
    def test_ladder_equals_heat_exponential(self, mu):
        mult = Multiplicity([mu])
        ref_polys, _ = fraction_ladder_family(mult.mu_exact[0], 30)
        for n in range(31):
            want = heat_exp_poly(MultiPoly.monomial((n,)), Fraction(-1, 4), mult)
            assert ref_polys[n] == want, n

    @pytest.mark.parametrize("mu", MUS + (0.7, Fraction(1, 3)))
    def test_integer_ladder_equals_fraction_ladder(self, mu):
        # the name predates the recurrence-product norms; the basis is still
        # compared degree by degree with the exact ladder
        mu_exact = Multiplicity([mu]).mu_exact[0]
        norms = polyengine._hermite_norms_1d(mu_exact, 40)
        ref_polys, ref_norms = fraction_ladder_family(mu_exact, 40)
        basis = HermiteBasis(Multiplicity([mu]), 40)
        for n in range(41):
            assert norms[n] == ref_norms[n], n
            assert family_poly(basis, n) == ref_polys[n], n

    @pytest.mark.parametrize("mu", MUS)
    def test_norms_equal_pairwise_sum(self, mu):
        mu_exact = Multiplicity([mu]).mu_exact[0]
        basis = HermiteBasis(Multiplicity([mu]), 30)
        norms = polyengine._hermite_norms_1d(mu_exact, 30)
        for n, norm in enumerate(norms):
            poly = family_poly(basis, n)
            assert norm == math.sqrt(pairwise_norm_sq(poly, mu_exact)), n

    @pytest.mark.parametrize("mu, max_degree, prefix", [
        (0, 196, "03aa09f0322e"),
        (0.3, 196, "8dfc68460964"),
        (0.5, 196, "66203baefc91"),
        (Fraction(4, 7), 196, "e7c06b750b6b"),
        (1.7, 194, "78adf11406e6"),
    ])
    def test_norms_pinned_bitwise(self, mu, max_degree, prefix):
        # sha1 prefixes of the norms up to the last degree below the
        # overflow, fixed from the Pochhammer moment sums of the ladder:
        # the recurrence product must round to the same bits
        norms = np.asarray(HermiteBasis(Multiplicity([mu]), max_degree).norms)
        assert hashlib.sha1(norms.tobytes()).hexdigest()[:12] == prefix

    def test_exact_polynomials_are_built_on_request(self):
        basis = HermiteBasis(Multiplicity([0.3, 0.7]), 12)
        assert basis._functions == {}
        h = basis.function((2, 1))
        assert list(basis._functions) == [(2, 1)]
        assert basis.function((2, 1)) is h


class TestHermiteBasis:
    def test_ground_state_value(self):
        mult = Multiplicity([0.0])
        basis = HermiteBasis(mult, 2)
        h0 = basis.function((0,))
        x = np.array([[0.0]])
        assert h0(x)[0].real == pytest.approx(math.pi ** (-0.25), rel=1e-14)

    def test_ground_state_norm_from_mehta(self):
        # c_k * integral exp(-|x|^2) w_k = 1 forces |h_0| = 1
        mult = Multiplicity([0.3, 0.7])
        grid = build_grid(mult, n=40)
        basis = HermiteBasis(mult, 0)
        h0 = basis.function((0, 0))
        assert inner_product(h0, h0, grid).real == pytest.approx(1.0, abs=1e-10)

    def test_degree_one_normalization(self):
        # |x e^{-x^2/2}|^2 under |x|^(2 mu) is Gamma(mu + 3/2)
        mu = 0.8
        basis = HermiteBasis(Multiplicity([mu]), 1)
        t = np.linspace(-2, 2, 9)
        expected = t * np.exp(-0.5 * t * t) / math.sqrt(gamma_fn(mu + 1.5))
        assert basis.axis_matrix(0, t)[1] == pytest.approx(expected, abs=1e-14)

    def test_degree_whose_norm_overflows_refused(self):
        # the squared norm of degree n grows like a factorial and leaves
        # double precision at n = 197 (mu <= 1/2) or 195 (mu = 1.7)
        for mu in (0.0, 0.5):
            assert np.all(np.isfinite(HermiteBasis(Multiplicity([mu]), 196).norms))
            with pytest.raises(RangeError, match=rf"degree 197 at mu = {mu:g} overflows"):
                HermiteBasis(Multiplicity([mu]), 197)
        with pytest.raises(RangeError, match=r"degree 195 at mu = 1\.7 .*below 195$"):
            HermiteBasis(Multiplicity([0.5, 1.7]), 196)

    def test_norms_match_laguerre_form(self):
        # The monic p_n = exp(-Delta_k/4) t^n is (-1)^k k! t^[n odd] L_k^(mu-1/2+[n odd])(t^2)
        # with k = n // 2, so |p_n e^{-t^2/2}|^2 = k! Gamma(k + mu + 1/2 + [n odd]).
        for mu in (0.0, 0.3, 0.5, 1.5):
            basis = HermiteBasis(Multiplicity([mu]), 30)
            for (n,), inv_norm in zip(basis.indices, basis.norms):
                k, odd = divmod(n, 2)
                expected = math.factorial(k) * math.gamma(k + mu + 0.5 + odd)
                assert inv_norm**-2 == pytest.approx(expected, rel=1e-12), (mu, n)

    def test_one_family_per_distinct_mu(self, monkeypatch):
        builds = []
        original = polyengine._hermite_norms_1d

        def counting(mu_exact, max_degree):
            builds.append(mu_exact)
            return original(mu_exact, max_degree)

        monkeypatch.setattr(polyengine, "_hermite_norms_1d", counting)
        basis = HermiteBasis(Multiplicity([0.5, 0.5]), 16)
        assert len(builds) == 1
        HermiteBasis(Multiplicity([0.3, 0.7]), 4)
        assert len(builds) == 3
        monkeypatch.undo()
        single = HermiteBasis(Multiplicity([0.5]), 16)
        t = np.linspace(-6.0, 6.0, 25)
        for j in range(2):
            assert basis._axis_norms[j] == single._axis_norms[0]
            assert basis.axis_matrix(j, t).tobytes() == single.axis_matrix(0, t).tobytes()

    def test_even_degree_closed_form(self):
        # heat construction against the Laguerre closed form, degrees <= 8
        t = np.linspace(-3, 3, 21)
        for mu in (0.0, 0.5, 1.7):
            basis = HermiteBasis(Multiplicity([mu]), 8)
            for n in range(9):
                got = basis.axis_matrix(0, t)[n]
                ref = hermite_closed_form_1d(n, mu, t)
                assert np.max(np.abs(got - ref)) <= 1e-12

    def test_gram_residual_on_a_wide_box(self):
        # L = 12 holds the degree-32 functions (turning point sqrt(65)), so
        # the residual is rounding only
        mult = Multiplicity([0.5])
        assert HermiteBasis(mult, 32).gram_residual(build_grid(mult, L=12.0)) <= 1e-12

    def test_orthonormality_2d(self):
        mult = Multiplicity([0.5, 1.0])
        basis = HermiteBasis(mult, 8)
        grid = build_grid(mult, n=60)
        indices = basis.indices
        mats = [basis.axis_matrix(j, grid.axes_nodes[j]) * grid.axes_weights[j][None, :]
                for j in range(2)]
        raw = [basis.axis_matrix(j, grid.axes_nodes[j]) for j in range(2)]
        worst = 0.0
        gram0 = mats[0] @ raw[0].T
        gram1 = mats[1] @ raw[1].T
        for a in indices:
            for b in indices:
                val = gram0[a[0], b[0]] * gram1[a[1], b[1]]
                want = 1.0 if a == b else 0.0
                worst = max(worst, abs(val - want))
        assert worst <= 1e-9

    def test_parity_exact(self):
        # h_nu(-x) = (-1)^|nu| h_nu(x): every stored exponent matches |nu| mod 2
        basis = HermiteBasis(Multiplicity([0.3, 0.7]), 6)
        for nu in basis.indices:
            h = basis.function(nu)
            for exps in h.poly.terms:
                for e, n in zip(exps, nu):
                    assert (e - n) % 2 == 0

    def test_range_error(self):
        basis = HermiteBasis(Multiplicity([0.5]), 4)
        with pytest.raises(RangeError):
            basis.function((5,))

    def test_norms_recorded(self):
        basis = HermiteBasis(Multiplicity([0.5]), 3)
        assert len(basis.norms) == basis.size
        assert basis.norms[0] == pytest.approx(1.0, rel=1e-12)  # mu=0.5 ground norm is 1


class TestHermiteOperator:
    def test_ground_state(self):
        mult = Multiplicity([0.3, 0.7])
        basis = HermiteBasis(mult, 0)
        h0 = basis.function((0, 0))
        out = hermite_operator(h0, mult)
        expect = h0 * (-(2 * mult.gamma_exact + 2))
        assert out == expect

    def test_degree_three(self):
        mult = Multiplicity([0.5, 1.0])
        basis = HermiteBasis(mult, 3)
        for nu in ((3, 0), (1, 2), (0, 3)):
            h = basis.function(nu)
            out = hermite_operator(h, mult)
            expect = h * (-(6 + 2 * mult.gamma_exact + 2))
            assert out == expect

    def test_classical_ground_state(self):
        # (Delta - x^2) e^{-x^2/2} = -e^{-x^2/2} at mu = 0
        mult = Multiplicity([0.0])
        g = GaussPoly(MultiPoly.constant(1, 1))
        out = hermite_operator(g, mult)
        assert out == g * (-1)


class TestEval:
    def test_constant(self):
        p = MultiPoly.constant(1, 2)
        assert p(np.array([[4.0, 5.0]]))[0] == 1.0 + 0.0j

    def test_monomial(self):
        p = MultiPoly.monomial((2, 1))
        assert p(np.array([[2.0, 3.0]]))[0].real == pytest.approx(12.0)

    def test_gauss_poly_call(self):
        g = GaussPoly(MultiPoly.monomial((1,)))
        x = np.array([[1.5]])
        assert g(x)[0].real == pytest.approx(1.5 * math.exp(-1.125), rel=1e-14)

    def test_dimension_mismatch(self):
        p = MultiPoly.monomial((2, 1))
        with pytest.raises(UsageError):
            p(np.zeros((3, 3)))


class TestMultiPolySerialization:
    def test_roundtrip_rational_strings(self):
        p = MultiPoly(
            2,
            {
                (0, 0): RationalComplex(Fraction(1, 3), Fraction(-2, 7)),
                (2, 1): RationalComplex(Fraction(5), Fraction(0)),
            },
        )
        blob = p.to_json()
        assert blob["terms"][0]["re"] == "1/3"
        assert MultiPoly.from_json(blob) == p

    def test_no_zero_coefficients_stored(self):
        p = MultiPoly(1, {(0,): 1, (2,): 0})
        assert (2,) not in p.terms
        q = p - MultiPoly(1, {(0,): 1})
        assert q.is_zero and q.terms == {}

    def test_exact_arithmetic(self):
        a = MultiPoly(1, {(1,): Fraction(1, 3)})
        b = MultiPoly(1, {(1,): Fraction(1, 6)})
        assert a + b == MultiPoly(1, {(1,): Fraction(1, 2)})
        prod = a * b
        assert prod == MultiPoly(1, {(2,): Fraction(1, 18)})


class TestHermiteExpansion:
    def test_from_terms_and_eval(self):
        mult = Multiplicity([0.5])
        basis = HermiteBasis(mult, 4)
        f = HermiteExpansion.from_terms(basis, {(2,): 1.0})
        x = np.linspace(-2, 2, 7)[:, None]
        assert np.max(np.abs(f(x) - basis.axis_matrix(0, x[:, 0])[2])) <= 1e-14

    def test_norm_is_coefficient_norm(self):
        mult = Multiplicity([0.5])
        basis = HermiteBasis(mult, 4)
        f = HermiteExpansion.from_terms(basis, {(0,): 3.0, (3,): 4.0j})
        assert f.norm_l2() == pytest.approx(5.0, rel=1e-15)

    def test_to_gauss_poly_matches(self):
        mult = Multiplicity([0.5])
        basis = HermiteBasis(mult, 4)
        f = HermiteExpansion.from_terms(basis, {(1,): 0.5, (2,): -1.25j})
        g = f.to_gauss_poly()
        x = np.linspace(-2, 2, 9)[:, None]
        assert np.max(np.abs(f(x) - g(x))) <= 1e-13

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_points_refused(self, bad, monkeypatch):
        # a NaN used to give nan+nanj and an infinity 0; refused before any
        # table is built
        monkeypatch.setattr(HermiteBasis, "axis_matrix", None)
        for mu in ([0.5], [0.3, 0.7]):
            basis = HermiteBasis(Multiplicity(mu), 4)
            f = HermiteExpansion(basis, np.ones(basis.size))
            x = np.ones((3, len(mu)))
            x[1, -1] = bad
            with pytest.raises(DomainError, match="HermiteExpansion: points must be finite"):
                f(x)


def termwise_sum(expansion, x):
    """Reference for the factorized sum: sum_nu c_nu prod_j T_j[nu_j](x_j)
    with one full-length term per nonzero coefficient, as expansions were
    first evaluated."""
    basis = expansion.basis
    tables = [basis.axis_matrix(j, x[:, j]) for j in range(basis.dim)]
    out = np.zeros(len(x), dtype=complex)
    for c, nu in zip(expansion.coeffs, basis.indices):
        if c != 0:
            prod = tables[0][nu[0]]
            for j in range(1, basis.dim):
                prod = prod * tables[j][nu[j]]
            out += c * prod
    return out


@functools.lru_cache(maxsize=None)
def mpmath_recurrence(mu, max_degree=100):
    """Reference for ``axis_matrix``: its recurrence run in 60-digit mpmath
    at the points ``TestRecurrenceRows.MPMATH_POINTS``, rounded once."""
    import mpmath

    mu_exact = Multiplicity([mu]).mu_exact[0]
    with mpmath.workdps(60):
        m = mpmath.mpf(mu_exact.numerator) / mu_exact.denominator
        roots = [mpmath.sqrt(mpmath.mpf(n) / 2 + m * (n & 1)) for n in range(max_degree + 1)]
        out = np.empty((max_degree + 1, TestRecurrenceRows.MPMATH_POINTS.size))
        for i, x in enumerate(TestRecurrenceRows.MPMATH_POINTS):
            x = mpmath.mpf(float(x))
            rows = [mpmath.exp(-x * x / 2) / mpmath.sqrt(mpmath.gamma(m + mpmath.mpf(1) / 2))]
            rows.append(x * rows[0] / roots[1])
            for n in range(1, max_degree):
                rows.append((x * rows[n] - roots[n] * rows[n - 1]) / roots[n + 1])
            out[:, i] = [float(v) for v in rows]
    return out


class TestRecurrenceRows:
    """The rows of an axis come from the normalized three-term recurrence:
    within a few ulps of the same recurrence in 60 digits, each point's
    column made from that point alone, fewer rows giving the leading rows
    bit for bit, and exactly 0.0 where e^(-t^2/2) underflows."""

    TINY = np.nextafter(0.0, 1.0)
    POINTS = {
        "interior": np.linspace(-7.5, 7.5, 61),
        "zeros_and_subnormals": np.array([0.0, -0.0, TINY, -TINY, 1e-310, -3e-320, 1e-300,
                                          2.2250738585072014e-308, -1e-160]),
        "past_reach": np.array([-1e300, -45.0, -40.0, -39.999, 0.5, 39.5, 40.0, 41.0, 1e200]),
    }
    MPMATH_POINTS = np.concatenate([np.linspace(-12.0, 12.0, 97),
                                    np.random.default_rng(29).uniform(-12.0, 12.0, 32)])

    @pytest.mark.parametrize("mu", [0, 0.3, 0.5, 1.7])
    def test_matches_mpmath_recurrence(self, mu):
        # 1e-14 absolute where |h| <= 1 and relative above: at mu = 1.7 the
        # even rows reach 9.6 at t = 0 (worst measured error 4.1e-15)
        ref = mpmath_recurrence(mu)
        for max_degree in (24, 64, 100):
            got = HermiteBasis(Multiplicity([mu]), max_degree).axis_matrix(0, self.MPMATH_POINTS)
            want = ref[: max_degree + 1]
            assert np.all(np.abs(got - want) <= 1e-14 * np.maximum(1.0, np.abs(want))), max_degree

    @pytest.mark.parametrize("mu", [0, 0.3, 0.5, 0.7, 1.7, Fraction(4, 7), 2.5])
    @pytest.mark.parametrize("max_degree", [0, 1, 2, 7, 16, 40])
    def test_prefix_rows_and_far_points(self, mu, max_degree):
        basis = HermiteBasis(Multiplicity([mu]), max_degree)
        rows = max_degree // 2 + 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for name, t in self.POINTS.items():
                table = basis.axis_matrix(0, t)
                assert table.shape == (max_degree + 1, t.size) and np.all(np.isfinite(table)), name
                assert basis.axis_matrix(0, t, rows).tobytes() == table[:rows].tobytes(), name
                for i in range(t.size):
                    assert basis.axis_matrix(0, t[i:i + 1]).tobytes() == table[:, i:i + 1].tobytes()
            far = np.abs(self.POINTS["past_reach"]) >= 40.0
            assert np.all(basis.axis_matrix(0, self.POINTS["past_reach"])[:, far] == 0.0)
            assert np.all(basis.axis_matrix(0, np.array([-np.inf, np.inf])) == 0.0)


class TestFactorizedSum:
    """The axis-by-axis sum against the term-by-term reference: bitwise at
    N = 1, where the sums run in the same order, and within 1e-14 for
    unit-norm coefficients at N >= 2, where the order changes."""

    @staticmethod
    def unit(basis, terms):
        f = HermiteExpansion.from_terms(basis, terms)
        return f * (1.0 / f.norm_l2())

    def cases(self, basis):
        rng = np.random.default_rng(11)
        top = basis.max_degree
        dense = rng.standard_normal(basis.size) + 1j * rng.standard_normal(basis.size)
        yield "dense", HermiteExpansion(basis, dense / np.linalg.norm(dense))
        yield "top_first", self.unit(basis, {(top,) + (0,) * (basis.dim - 1): 1.0})
        yield "top_last", self.unit(basis, {(0,) * (basis.dim - 1) + (top,): -1.0j})
        if basis.dim > 1:
            half = (top // 2, top - top // 2) + (0,) * (basis.dim - 2)
            yield "top_mixed", self.unit(basis, {half: 0.6 - 0.8j})
            # rows 1..3 and column 1 of the trimmed 5 x 3 block are all zero
            yield "zero_rows", self.unit(basis, {(0, 0) + (0,) * (basis.dim - 2): 0.5,
                                                 (4, 2) + (0,) * (basis.dim - 2): 1j})

    @pytest.mark.parametrize("mu", [[0.5], [1.7], [0.3, 0.7], [0.0, 0.0], [0.3, 0.7, 0.5]])
    def test_matches_termwise_sum(self, mu):
        mult = Multiplicity(mu)
        basis = HermiteBasis(mult, 16 if len(mu) < 3 else 8)
        x = np.random.default_rng(3).uniform(-5.0, 5.0, size=(400, len(mu)))
        for name, f in self.cases(basis):
            want = termwise_sum(f, x)
            if len(mu) == 1:
                assert f(x).tobytes() == want.tobytes(), name
            else:
                assert np.max(np.abs(f(x) - want)) <= 1e-14, name

    @pytest.mark.parametrize("mu", [[0.5], [0.3, 0.7], [0.3, 0.7, 0.5]])
    def test_values_do_not_depend_on_the_passes(self, mu, monkeypatch):
        from dunkl_frft import polyengine

        basis = HermiteBasis(Multiplicity(mu), 8)
        x = np.random.default_rng(4).uniform(-5.0, 5.0, size=(5, 9, len(mu)))
        for name, f in self.cases(basis):
            want = f(x)
            for chunk in (1, 7, 45):
                monkeypatch.setattr(polyengine, "_EVAL_CHUNK", chunk)
                got = f(x)
                assert got.shape == (5, 9) and got.tobytes() == want.tobytes(), (name, chunk)
            monkeypatch.undo()

    def test_pointwise_memory_stays_near_output_size(self):
        # A degree-6 input on the M = 16 basis, at 25,600 points: the two
        # axis tables are trimmed to 7 rows, and beside them only a few
        # arrays of the output's size may be live (no (d, m) intermediate).
        import tracemalloc

        basis = HermiteBasis(Multiplicity([0.3, 0.7]), 16)
        rng = np.random.default_rng(5)
        low = np.array([sum(nu) <= 6 for nu in basis.indices])
        f = HermiteExpansion(basis, np.where(low, rng.standard_normal(basis.size), 0.0))
        x = rng.uniform(-6.0, 6.0, size=(25600, 2))
        f(x)
        tracemalloc.start()
        try:
            out = f(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        tables = 2 * 7 * x.shape[0] * 8
        assert peak <= tables + 6 * out.nbytes, peak / out.nbytes


class TestTensorValues:
    """``QuadGrid.values`` of an expansion is its pointwise ``__call__`` on
    the flattened nodes, bit for bit, on every grid shape; the routes read
    an expansion through its coefficients instead (see
    ``test_transform.TestExpansionInput``)."""

    @staticmethod
    def expansion(basis, seed):
        rng = np.random.default_rng(seed)
        coeffs = rng.standard_normal(basis.size) + 1j * rng.standard_normal(basis.size)
        coeffs[rng.random(basis.size) < 0.3] = 0.0
        coeffs[0] = 0.0
        return HermiteExpansion(basis, coeffs)

    @pytest.mark.parametrize("mu", [[0.5], [0.0], [1.5], [0.3, 0.7], [0.0, 0.0], [0.5, 1.0]])
    def test_bitwise_equal_to_pointwise(self, mu):
        mult = Multiplicity(mu)
        grid = build_grid(mult)
        for degree in (0, 8, 16):
            f = self.expansion(HermiteBasis(mult, degree), degree)
            got = grid.values(f)
            assert got.dtype == complex and got.shape == (grid.nodes.shape[0],)
            assert got.tobytes() == f(grid.nodes).tobytes()

    def test_bitwise_equal_to_pointwise_3d(self):
        mult = Multiplicity([0.3, 0.7, 0.5])
        grid = build_grid(mult, L=6.0, n=16)
        for degree in (0, 5, 10):
            f = self.expansion(HermiteBasis(mult, degree), degree + 1)
            got = grid.values(f)
            assert got.shape == (grid.nodes.shape[0],)
            assert got.tobytes() == f(grid.nodes).tobytes()

    def test_bitwise_equal_past_gauss_reach(self):
        # Nodes beyond |t| = 40, where e^(-t^2/2) and every row are 0.0.
        for mu in ([0.5], [0.3, 0.7]):
            mult = Multiplicity(mu)
            grid = build_grid(mult, L=48.0, n=64)
            assert max(np.max(np.abs(t)) for t in grid.axes_nodes) >= 40.0
            f = self.expansion(HermiteBasis(mult, 16), 3)
            assert grid.values(f).tobytes() == f(grid.nodes).tobytes()

    def test_all_zero_coefficients(self):
        mult = Multiplicity([0.3, 0.7])
        grid = build_grid(mult, n=32)
        f = HermiteExpansion(HermiteBasis(mult, 4), np.zeros(15))
        assert grid.values(f).tobytes() == f(grid.nodes).tobytes()

    def test_dimension_must_match(self):
        basis = HermiteBasis(Multiplicity([0.3, 0.7]), 2)
        f = HermiteExpansion.from_terms(basis, {(1, 0): 1.0})
        with pytest.raises(UsageError, match="dim"):
            f(np.array([[0.5, 0.2, 9.0]]))
