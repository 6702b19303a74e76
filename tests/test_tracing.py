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
