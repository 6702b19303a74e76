"""Shared exception types, and the argument checks of the public surface."""

from __future__ import annotations

from mpmath import mp

__all__ = [
    "DomainError",
    "OnCutError",
    "RayGeometryError",
    "ToleranceError",
    "QuadratureError",
    "ConvergenceError",
    "require_finite",
    "require_tol",
]


class DomainError(ValueError):
    """Argument outside the mathematical domain of the operation."""


class OnCutError(DomainError):
    """Evaluation point lies on a branch cut (or exactly at a singularity)."""


class RayGeometryError(DomainError):
    """Integration ray is unusable (wrong sector, or passes too close to a pole)."""


class ToleranceError(RuntimeError):
    """Requested tolerance not reachable within the configured budget."""


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to converge within its panel budget."""


class ConvergenceError(RuntimeError):
    """An extrapolation ladder did not settle."""


def require_tol(tol):
    """tol as an mpf; DomainError unless it is finite and greater than 0,
    raised by every public entry point before it does any work."""
    tol = mp.mpf(tol)
    if not (mp.isfinite(tol) and tol > 0):
        raise DomainError(f"tolerance must be finite and greater than 0, not {tol}")
    return tol


def require_finite(value, name: str):
    """value as an mpf or mpc; DomainError naming the argument unless every
    part of it is finite, raised before any work."""
    value = mp.mpmathify(value)
    if not mp.isfinite(value):
        raise DomainError(f"{name} must be finite, not {value}")
    return value
