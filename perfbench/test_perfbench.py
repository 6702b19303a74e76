"""Tests of the benchmark itself: its checks, references, inputs and tracer.

    python3 -m pytest perfbench

One round of every workload is run once (about half a minute) and shared by
the tests that need program outputs.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from mpmath import mp  # noqa: E402

import borelsum  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 7
KNOWN_FAILURES = {("tight-tolerance", f"sum_median poincare x={x} tol=1e-28") for x in ("2", "0.6")}


@pytest.fixture(scope="module")
def first_rounds():
    """(workload, group, outputs or None if a call raised) for round 0 of
    every workload, each at its own working precision."""
    refs = workloads.References()
    out = []
    for name, workload in workloads.WORKLOADS.items():
        with mp.workdps(workload.dps):
            for group in workload.round(workloads.Inputs(SEED), 0, refs):
                try:
                    outputs = [call() for _, call in group.calls]
                except workloads.LIBRARY_ERRORS + (workloads.CliFailure,):
                    outputs = None
                out.append((name, workload.dps, group, outputs))
    return out


def test_only_the_known_tol_1e28_calls_fail(first_rounds):
    failed = {(name, group.label) for name, _, group, outputs in first_rounds if outputs is None}
    assert failed == KNOWN_FAILURES
    for name, dps, group, outputs in first_rounds:
        if outputs is not None:
            with mp.workdps(dps):
                bad = [c for c in group.check(outputs) if not c.passed]
            assert not bad, (name, group.label, bad)


def _shift(value, amount):
    """value moved by amount in both the real and the imaginary direction."""
    return value + amount * mp.mpc(1, 1)


def _moved(output, amount):
    """Copies of one output, each moved by more than amount."""
    if isinstance(output, borelsum.SummationResult):
        # along the real axis alone too, which a reality check cannot see
        return [dataclasses.replace(output, value=v)
                for v in (_shift(output.value, amount), output.value + 2 * amount)]
    if isinstance(output, borelsum.CoefficientTable):
        out = []
        for i in (1, -1):  # a_0 = 1 is enforced by CoefficientTable
            a = list(output.a)
            a[i] += Fraction(1, 10**9)
            out.append(dataclasses.replace(output, a=tuple(a)))
        return out
    if isinstance(output, Fraction):
        return [output + Fraction(1, 10**40)]
    if isinstance(output, dict):  # command-line report
        report = json.loads(json.dumps(output))
        entry = report["routes"]["erfi-series"]
        entry["re"] = mp.nstr(mp.mpf(entry["re"]) + amount, 30)
        return [report]
    if isinstance(output, tuple) and isinstance(output[0], Fraction):  # l_value_exact
        r, s = output
        return [(r * (1 + Fraction(float(amount))), s), (r, s + 2)]
    if isinstance(output, tuple):  # eta_tilde_radial
        return [(_shift(output[0], amount), output[1])]
    return [_shift(output, amount)]


def _perturbations(group, outputs, amount):
    """(outputs with one output moved, whether some check must reject it),
    and for zagier_g at +-a, +-1/a also a conjugate pair moved together,
    which keeps g(-u) = conj g(u) so that only the modular checks see it.
    A real median moved along the real axis can only be caught by the
    optimal-truncation check, which runs at large x alone."""
    truncation = any(c.name == "optimal-truncation" for c in group.check(outputs))
    for i, output in enumerate(outputs):
        for k, moved in enumerate(_moved(output, amount)):
            yield outputs[:i] + [moved] + outputs[i + 1:], k == 0 or truncation
    if group.label.startswith("zagier_g at +-"):
        delta = amount * mp.mpc(1, 1)
        for i in (0, 2):
            moved = list(outputs)
            moved[i] += delta
            moved[i + 1] += mp.conj(delta)
            yield moved, True


def test_each_check_rejects_an_output_moved_beyond_its_bound(first_rounds):
    for name, dps, group, outputs in first_rounds:
        if outputs is None:
            continue
        with mp.workdps(dps):
            checks = group.check(outputs)
            amount = 3 * max(mp.mpf(c.bound) for c in checks) + mp.mpf(10) ** (2 - dps)
            rejected = set()
            for moved, must_fail in _perturbations(group, outputs, amount):
                failing = {c.name for c in group.check(moved) if not c.passed}
                assert failing or not must_fail, (name, group.label)
                rejected |= failing
        # every check of the group rejected at least one of the moved outputs
        assert rejected == {c.name for c in checks}, (name, group.label, rejected)


def test_inputs_depend_on_the_seed_only():
    refs = workloads.References()
    for workload in workloads.WORKLOADS.values():
        labels = [[g.label for g in workload.round(workloads.Inputs(seed), 1, refs)]
                  for seed in (1, 1, 2)]
        assert labels[0] == labels[1]
        assert labels[0] != labels[2]


def test_reference_tables_match_printed_values():
    a = reference.trefoil_table(5)
    assert tuple(a[:4]) == reference.PRINTED_TREFOIL
    assert reference.poincare_table(3)[1] == reference.PRINTED_POINCARE_A1
    assert reference.trefoil_bn(a, 0) == Fraction(23, 24)
    assert reference.trefoil_bn(a, 1) == Fraction(1681, 1152)
    with mp.workdps(25):
        assert abs(reference.phi_direct(Fraction(1)) - mp.expjpi(mp.mpf(1) / 12)) < 1e-24
        assert abs(reference.l_value_chi12(2) - mp.pi**2 / (6 * mp.sqrt(3))) < 1e-24


def test_benchmark_json_lists_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    assert list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == list(tracing.metric_units())
    assert [m["unit"] for m in spec["per_layer"]] == list(tracing.metric_units().values())
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END_UNITS)


def test_traced_counts_repeat_exactly():
    with mp.workdps(25):
        mul, g_one, radial = (tracing.traced(borelsum, call)
                              for call in tracing.reference_calls(borelsum).values())
    assert (mul.counts["specfun.integrand_evals"], mul.counts["specfun.panels"]) == (1102, 19)
    assert (g_one.counts["specfun.integrand_evals"], g_one.counts["specfun.panels"]) == (2784, 48)
    assert radial.peak_dps == 167
    # uninstall restores the program
    assert borelsum.specfun.integrate_segment.__module__ == "borelsum.specfun"


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "interactive", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
