"""The exploratory scripts run to completion on small inputs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script,args,last",
    [
        ("gamma_ladder.py", [], "# window verdict: ok"),
        ("radial_scan.py", ["--max-den", "2"], "# worst gap "),
        ("route_grid.py", ["--steps", "1", "--re", "2", "2", "--im", "0", "0",
                           "--tol", "1e-6"], "# worst gap "),
        ("route_grid.py", ["--model", "poincare", "--steps", "1", "--re", "2", "2",
                           "--im", "0", "0", "--tol", "1e-6"], "# worst gap "),
    ],
    ids=["gamma_ladder", "radial_scan", "route_grid", "route_grid_poincare"],
)
def test_script_runs(script, args, last):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1].startswith(last), done.stdout
