"""Exact coefficients, Borel-plane models, and generalized summation for two
factorially divergent torus-knot series, with the modular identities that pin
their boundary values.

The package is organized bottom-up: exact series and characters feed the
Borel-plane models, which feed the summation routes; the modular layer
supplies the eta-function identities the summed values are tested against.
"""

from .borel import (
    SqrtBranched,
    poincare_borel,
    trefoil_borel,
)
from .characters import DirichletCharacter, chi12, chi60, l_series_partial, l_value_exact
from .errors import (
    ConvergenceError,
    DomainError,
    OnCutError,
    QuadratureError,
    RayGeometryError,
    ToleranceError,
)
from .invariants import (
    CoefficientTable,
    f_at_root_of_unity,
    phi,
    poincare_coeffs,
    trefoil_coeffs,
)
from .modular import eta, eta_tilde, eta_tilde_radial, zagier_g, zagier_g_taylor
from .series import FormalSeries, bernoulli_number, bernoulli_poly, borel_transform
from .specfun import dawson, dawson_deficit, e_mod_deficit, erfi
from .summation import (
    AverageKind,
    SummationResult,
    averaged_value,
    cross_routes,
    dirichlet_delta,
    median_boundary_sum,
    radial_limit,
    sum_erfi,
    sum_eta_integral,
    sum_median,
    sum_theta,
)
from .transseries import (
    TransseriesTable,
    exact_bn,
    extract_ckl,
    stirling_gammas,
)

__version__ = "0.1.0"

__all__ = [
    "AverageKind",
    "CoefficientTable",
    "ConvergenceError",
    "DirichletCharacter",
    "DomainError",
    "FormalSeries",
    "OnCutError",
    "QuadratureError",
    "RayGeometryError",
    "SqrtBranched",
    "SummationResult",
    "ToleranceError",
    "TransseriesTable",
    "averaged_value",
    "bernoulli_number",
    "bernoulli_poly",
    "borel_transform",
    "chi12",
    "chi60",
    "cross_routes",
    "dawson",
    "dawson_deficit",
    "dirichlet_delta",
    "e_mod_deficit",
    "erfi",
    "eta",
    "eta_tilde",
    "eta_tilde_radial",
    "exact_bn",
    "extract_ckl",
    "f_at_root_of_unity",
    "l_series_partial",
    "l_value_exact",
    "median_boundary_sum",
    "phi",
    "poincare_borel",
    "poincare_coeffs",
    "radial_limit",
    "stirling_gammas",
    "sum_erfi",
    "sum_eta_integral",
    "sum_median",
    "sum_theta",
    "trefoil_borel",
    "trefoil_coeffs",
    "zagier_g",
    "zagier_g_taylor",
]
