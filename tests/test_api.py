"""Package surface: exports and the exception taxonomy."""

import importlib
import inspect
import pkgutil

import pytest

import borelsum
from borelsum.errors import (
    ConvergenceError,
    DomainError,
    OnCutError,
    QuadratureError,
    RayGeometryError,
    ToleranceError,
)


def test_all_names_resolve():
    for name in borelsum.__all__:
        assert getattr(borelsum, name) is not None


@pytest.mark.parametrize(
    "module", [m.name for m in pkgutil.iter_modules(borelsum.__path__)]
)
def test_submodule_exports_resolve(module):
    """A name deleted from a module cannot stay in its __all__."""
    mod = importlib.import_module(f"borelsum.{module}")
    for name in mod.__all__:
        assert hasattr(mod, name), name


def test_key_entry_points_are_exported():
    for name in (
        "sum_median",
        "sum_erfi",
        "radial_limit",
        "trefoil_coeffs",
        "poincare_coeffs",
        "l_value_exact",
        "zagier_g",
        "extract_ckl",
    ):
        assert name in borelsum.__all__


def test_domain_errors_are_value_errors():
    assert issubclass(DomainError, ValueError)
    assert issubclass(OnCutError, DomainError)
    assert issubclass(RayGeometryError, DomainError)


def test_budget_errors_are_runtime_errors():
    for exc in (ToleranceError, QuadratureError, ConvergenceError):
        assert issubclass(exc, RuntimeError)


# every public entry point that takes a tolerance; test_summation, test_borel
# and test_modular check that each refuses a nan, infinite, zero or negative
# one with DomainError before any work
TOL_GATED = {
    "averaged_value",
    "cross_routes",
    "dirichlet_delta",
    "radial_limit",
    "sum_erfi",
    "sum_eta_integral",
    "sum_median",
    "sum_theta",
    "zagier_g",
    "SqrtBranched.eval",
}


def _takes_tol(fn) -> bool:
    return any(p == "tol" or p.endswith("_tol") for p in inspect.signature(fn).parameters)


def test_every_tolerance_entry_point_is_gated():
    """A new public function or method with a tolerance must join TOL_GATED
    and its gate test."""
    found = set()
    for name in borelsum.__all__:
        obj = getattr(borelsum, name)
        if inspect.isfunction(obj) and _takes_tol(obj):
            found.add(name)
        elif inspect.isclass(obj):
            found |= {f"{name}.{attr}" for attr, fn in inspect.getmembers(obj, inspect.isfunction)
                      if not attr.startswith("_") and _takes_tol(fn)}
    assert found == TOL_GATED
