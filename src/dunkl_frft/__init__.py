"""Fractional Dunkl transform on L2(R^N, w_k dx) for the reflection group Z2^N.

Numerical library realizing the transform by three cross-validating routes
(spectral Hermite expansion, oscillatory integral kernel, smoothed Mehler
kernel), together with the fractional Hankel reduction, Bochner / Master /
Hecke identities, spectral projections, the resolvent and the group
generator.
"""

__version__ = "0.1.0"

from .errors import CalibrationError, DomainError, DunklError, RangeError, UsageError
from .specfun import (
    BesselOrder,
    Multiplicity,
    dunkl_kernel_1d,
    dunkl_kernel_prod,
    gamma_fn,
    laguerre_eval,
    normalized_ibessel,
)
from .quadrature import (
    QuadGrid,
    build_grid,
    circle_grid,
    gauss_legendre,
    jacobi_halfline,
)
from .polyengine import (
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
from .transform import (
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
    kernel_spectral,
    master_formula_rhs,
    normalize_alpha,
)
from .semigroup import (
    GroupSampler,
    difference_quotient,
    generator_exact,
    generator_integral,
    resolvent_apply,
    spectral_projection,
)
