"""The benchmark's tracer finds every function it wraps, and puts each back."""

import importlib
import inspect
from pathlib import Path

import borelsum

ROOT = Path(__file__).resolve().parents[1]
MODULES = ("series", "characters", "invariants", "borel", "specfun",
           "summation", "modular", "transseries", "cli")


def _functions():
    """(module or class, name) -> object for every function in borelsum."""
    out = {}
    for module in [borelsum, *(importlib.import_module(f"borelsum.{sub}") for sub in MODULES)]:
        for name, value in vars(module).items():
            if inspect.isfunction(value):
                out[module, name] = value
            elif inspect.isclass(value) and value.__module__ == module.__name__:
                for attr, member in vars(value).items():
                    if inspect.isfunction(member):
                        out[value, attr] = member
    return out


def test_tracer_installs_and_restores_every_function(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracing = importlib.import_module("tracing")
    before = _functions()
    tracer = tracing.Tracer()
    tracer.install(borelsum)
    try:
        wrapped = {key for key, value in _functions().items() if before.get(key) is not value}
        for module, names in tracing.SPANS.values():
            for name in names:
                assert (importlib.import_module(f"borelsum.{module}"), name) in wrapped
    finally:
        tracer.uninstall()
    after = _functions()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_tracer_counts_the_quadrature_and_theta_layers(monkeypatch):
    """The per-layer counts of a traced eta ray equal those taken by
    wrapping the quadrature and theta functions directly, so a changed call
    shape cannot zero a benchmark metric unnoticed."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracing = importlib.import_module("tracing")
    from mpmath import mp

    from borelsum import modular, specfun

    def call():
        return borelsum.sum_eta_integral(mp.mpc(2, 1.5), "mul", tol="2.5e-10")

    metrics = tracing.traced(borelsum, call).metrics(1)

    counts = {"evals": 0, "panels": 0, "theta": 0}
    segment, adaptive, theta_sum = (specfun.integrate_segment, specfun._adaptive_segment,
                                    modular._theta_sum)

    def counted_segment(f, a, b, order=24):
        counts["evals"] += order
        return segment(f, a, b, order)

    def counted_adaptive(*args):
        counts["panels"] += 1
        return adaptive(*args)

    def counted_theta(*args):
        counts["theta"] += 1
        return theta_sum(*args)

    monkeypatch.setattr(specfun, "integrate_segment", counted_segment)
    monkeypatch.setattr(specfun, "_adaptive_segment", counted_adaptive)
    monkeypatch.setattr(modular, "_theta_sum", counted_theta)
    call()
    assert metrics["specfun.integrand_evals"] == counts["evals"] > 0
    assert metrics["specfun.panels"] == counts["panels"] > 0
    assert metrics["modular.theta_sum.calls"] == counts["theta"] > 0


def test_tracer_counts_the_theta_route_terms(monkeypatch):
    """A traced median on the theta route counts its terms: the route sizes
    its one theta sum by the shared cutoff specfun._gauss_cutoff, which the
    tracer wraps under modular's name, once per sum."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracing = importlib.import_module("tracing")
    from mpmath import mp

    from borelsum import summation
    from borelsum.borel import trefoil_borel

    def call():
        return borelsum.sum_median("trefoil", 2, tol="1e-12")

    metrics = tracing.traced(borelsum, call).metrics(1)
    assert call().route == "theta-series"
    n_terms, _ = summation._theta_terms(trefoil_borel(), mp.mpc(2), mp.mpf("1e-12"))
    assert metrics["modular.theta_terms"] == n_terms > 0
