"""Per-layer tracing from outside the program.

Tracer.install() replaces selected borelsum functions by wrappers, in every
borelsum module that binds them.  That covers names bound by
``from .x import y`` (summation._adaptive_segment, summation.eta,
summation._emodd_tail2, ...), intra-module calls and recursion, since Python
looks module globals up at call time.  Nothing inside the program changes.

Two kinds of wrapper:

- spans: [name, parent span, start, end, outermost-of-its-name] records kept
  in memory and written out at the end.  A span's self time is its duration
  minus the durations of its direct child spans.
- counters: call counts and argument or result tallies, with no span, so
  their time stays in the enclosing span's self time.
"""

from __future__ import annotations

import os
from collections import Counter
from fractions import Fraction
from time import perf_counter

from mpmath import mp

# span name -> (defining module, function names)
SPANS = {
    "summation.closed_value": ("summation", ("_closed_value",)),
    "summation.eta_integral": ("summation", ("_eta_integral_value",)),
    "summation.dirichlet_delta": ("summation", ("dirichlet_delta",)),
    "specfun.dawson": ("specfun", ("dawson",)),
    "specfun.dawson_deficit": ("specfun", ("dawson_deficit",)),
    "specfun.e_mod_deficit": ("specfun", ("e_mod_deficit",)),
    "specfun.emodd_tail2": ("specfun", ("_emodd_tail2",)),
    "specfun.ray_integrate": ("specfun", ("ray_integrate",)),
    "specfun.gl_nodes": ("specfun", ("_gl_nodes",)),
    "modular.theta_sum": ("modular", ("_theta_sum",)),
    "modular.eta": ("modular", ("eta",)),
    "modular.eta_tilde": ("modular", ("eta_tilde",)),
    "borel.periodic_power_sum": ("borel", ("periodic_power_sum",)),
    "invariants.coeff_tables": ("invariants", ("trefoil_coeffs", "poincare_coeffs")),
    "invariants.phi": ("invariants", ("phi",)),
    "series.bernoulli": ("series", ("bernoulli_number", "bernoulli_poly")),
    "series.quotient": ("series", ("series_quotient_even",)),
    "characters.l_value_exact": ("characters", ("l_value_exact",)),
    "transseries.bn": ("transseries", ("exact_bn", "closed_bn")),
    "cli.main": ("cli", ("main",)),
}

# spans whose work is mostly cache filling: their time during set-up (the
# warm-up calls) is reported as <name>.s, besides <name>.self_s in the loop
CACHE_FILLING = (
    "borel.periodic_power_sum",
    "specfun.gl_nodes",
    "invariants.coeff_tables",
    "invariants.phi",
    "series.bernoulli",
    "series.quotient",
    "characters.l_value_exact",
    "transseries.bn",
)

_SELF_TIME = (
    "summation.closed_value",
    "summation.eta_integral",
    "summation.dirichlet_delta",
    "specfun.dawson",
    "specfun.dawson_deficit",
    "specfun.e_mod_deficit",
    "specfun.emodd_tail2",
    "specfun.ray_integrate",
    "modular.theta_sum",
    "modular.eta",
    "modular.eta_tilde",
    "cli.main",
) + CACHE_FILLING

_CALLS = (
    "specfun.dawson",
    "specfun.dawson_deficit",
    "specfun.e_mod_deficit",
    "specfun.emodd_tail2",
    "modular.theta_sum",
)

_COUNTS = (
    "borel.terms",
    "specfun.panels",
    "specfun.bisections",
    "specfun.integrand_evals",
    "specfun.richardson.rungs",
    "modular.theta_terms",
)


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name in _SELF_TIME:
        units[f"{name}.self_s"] = "s/op"
    for name in _CALLS:
        units[f"{name}.calls"] = "count/op"
    for name in _COUNTS:
        units[name] = "count/op"
    for name in CACHE_FILLING:
        units[f"{name}.s"] = "s"
    units["specfun.peak_dps"] = "digits"
    units["specfun.accepted_panel_ratio"] = "ratio"
    return units


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.peak_dps = 0
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []
        self._loop_start = 0

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn):
        spans, stack, active = self.spans, self._stack, self._active

        def traced(*args, **kwargs):
            record = [name, stack[-1] if stack else -1, perf_counter(), 0.0, active[name] == 0]
            stack.append(len(spans))
            spans.append(record)
            active[name] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                record[3] = perf_counter()
                active[name] -= 1
                stack.pop()

        return traced

    def _counters(self, modules):
        counts = self.counts

        def adaptive_segment(fn):
            def counted(*args, **kwargs):
                counts["specfun.panels"] += 1
                before = counts["specfun.panels"]
                out = fn(*args, **kwargs)
                if counts["specfun.panels"] > before:
                    counts["specfun.bisections"] += 1
                return out
            return counted

        def integrate_segment(fn):
            def counted(f, a, b, order=24):
                counts["specfun.integrand_evals"] += order
                return fn(f, a, b, order)
            return counted

        def dawson_maclaurin(fn):
            def counted(z):
                self.peak_dps = max(self.peak_dps, mp.dps)
                return fn(z)
            return counted

        def richardson_limit(fn):
            def counted(hs, vals):
                counts["specfun.richardson.rungs"] += len(hs)
                return fn(hs, vals)
            return counted

        def gauss_cutoff(fn):
            def counted(*args):
                n = fn(*args)
                counts["modular.theta_terms"] += n
                return n
            return counted

        def coeff(fn):
            def counted(model, n):
                counts["borel.terms"] += 1
                return fn(model, n)
            return counted

        return [
            ("specfun", "_adaptive_segment", adaptive_segment),
            ("specfun", "integrate_segment", integrate_segment),
            ("specfun", "_dawson_maclaurin", dawson_maclaurin),
            ("specfun", "richardson_limit", richardson_limit),
            ("modular", "_gauss_cutoff", gauss_cutoff),
        ], (modules["borel"].SqrtBranched, "coeff", coeff)

    # -- installation -----------------------------------------------------

    def _patch_everywhere(self, modules, home, attr, wrapper) -> None:
        original = getattr(modules[home], attr)
        replacement = wrapper(original)
        for module in modules.values():
            if module.__dict__.get(attr) is original:
                self._patches.append((module, attr, original))
                setattr(module, attr, replacement)

    def install(self, package) -> None:
        """Wrap the traced functions in every module of the package."""
        import importlib

        modules = {"": package}
        for sub in ("series", "characters", "invariants", "borel", "specfun",
                    "summation", "modular", "transseries", "cli"):
            modules[sub] = importlib.import_module(f"{package.__name__}.{sub}")
        for name, (home, attrs) in SPANS.items():
            for attr in attrs:
                self._patch_everywhere(modules, home, attr,
                                       lambda fn, name=name: self._span(name, fn))
        functions, (cls, attr, wrapper) = self._counters(modules)
        for home, fn_name, counter in functions:
            self._patch_everywhere(modules, home, fn_name, counter)
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper(cls.__dict__[attr]))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def start_loop(self) -> None:
        """Close the set-up phase; later spans and counts belong to the loop."""
        self._loop_start = len(self.spans)
        self.counts.clear()
        self.peak_dps = 0

    # -- results ----------------------------------------------------------

    @staticmethod
    def _times(spans, offset: int):
        """Per span name: (calls, self time, time of outermost spans)."""
        child = [0.0] * len(spans)
        for record in spans:
            parent = record[1] - offset
            if parent >= 0:
                child[parent] += record[3] - record[2]
        calls: Counter = Counter()
        self_s: Counter = Counter()
        outer_s: Counter = Counter()
        for i, (name, _, start, end, outermost) in enumerate(spans):
            calls[name] += 1
            self_s[name] += end - start - child[i]
            if outermost:
                outer_s[name] += end - start
        return calls, self_s, outer_s

    def metrics(self, attempted: int) -> dict[str, float]:
        """Per-layer metrics, loop figures per attempted operation."""
        loop = self.spans[self._loop_start:]
        calls, self_s, _ = self._times(loop, self._loop_start)
        _, _, setup_s = self._times(self.spans[:self._loop_start], 0)
        per_op = 1 / attempted
        out = {}
        for name in _SELF_TIME:
            out[f"{name}.self_s"] = self_s[name] * per_op
        for name in _CALLS:
            out[f"{name}.calls"] = calls[name] * per_op
        for name in _COUNTS:
            out[name] = self.counts[name] * per_op
        for name in CACHE_FILLING:
            out[f"{name}.s"] = float(setup_s[name])
        out["specfun.peak_dps"] = self.peak_dps
        panels = self.counts["specfun.panels"]
        accepted = panels - self.counts["specfun.bisections"]
        out["specfun.accepted_panel_ratio"] = accepted / panels if panels else 0.0
        return out

    def write(self, path: str) -> None:
        """All spans, set-up and loop, as tab-separated lines."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("index\tname\tparent\tstart_s\tend_s\tphase\n")
            origin = self.spans[0][2] if self.spans else 0.0
            for i, (name, parent, start, end, _) in enumerate(self.spans):
                phase = "loop" if i >= self._loop_start else "setup"
                handle.write(f"{i}\t{name}\t{parent}\t{start - origin:.9f}\t"
                             f"{end - origin:.9f}\t{phase}\n")


def reference_calls(package) -> dict:
    """The single calls whose traced counts repeat exactly, by label."""
    return {
        "sum_eta_integral(2+1.5i, side=mul, tol=2.5e-10)":
            lambda: package.sum_eta_integral(mp.mpc(2, 1.5), side="mul", tol="2.5e-10"),
        "zagier_g(1, tol=1e-16)": lambda: package.zagier_g(1, tol="1e-16"),
        "radial_limit(1)": lambda: package.radial_limit(Fraction(1)),
    }


def traced(package, call) -> Tracer:
    """A Tracer that saw only call(), run once with the wrappers installed."""
    tracer = Tracer()
    tracer.install(package)
    try:
        tracer.start_loop()
        call()
    finally:
        tracer.uninstall()
    return tracer
