"""The exploratory scripts run to completion on small inputs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.parametrize(
    "script,args,last",
    [
        ("gamma_ladder.py", [], "# window verdict: ok"),
        ("radial_scan.py", ["--max-den", "2"], "# worst gap "),
        ("route_grid.py", ["--steps", "1", "--re", "2", "2", "--im", "0", "0",
                           "--tol", "1e-6"], "# worst gap "),
        ("route_grid.py", ["--model", "poincare", "--steps", "1", "--re", "2", "2",
                           "--im", "0", "0", "--tol", "1e-6"], "# worst gap "),
        ("route_breakeven.py", ["--steps", "2", "--x", "100", "200", "--repeat", "1"],
         "# break-even ratio "),
    ],
    ids=["gamma_ladder", "radial_scan", "route_grid", "route_grid_poincare", "route_breakeven"],
)
def test_script_runs(script, args, last):
    done = _run(script, args)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1].startswith(last), done.stdout


def test_radial_scan_eta_tilde_route_reports_its_gaps():
    """radial_scan --route eta-tilde on +-a/d, d <= 2: one row per angle, each
    gap to -2 phi within its err estimate, and a worst gap below 1e-21 at
    the default 25 digits; the Poincare sphere has no such route."""
    done = _run("radial_scan.py", ["--max-den", "2", "--route", "eta-tilde"])
    assert done.returncode == 0, done.stderr
    *rows, last = done.stdout.splitlines()[1:]
    assert [row.split()[0] for row in rows] == ["1", "-1", "1/2", "-1/2", "3/2", "-3/2"]
    for row in rows:
        gap, err = map(float, row.split()[1:3])
        assert gap <= err, row
    assert last.startswith("# worst gap ") and float(last.split()[-1]) <= 1e-21
    refused = _run("radial_scan.py", ["--route", "eta-tilde", "--object", "poincare"])
    assert refused.returncode == 2 and "eta-tilde" in refused.stderr
