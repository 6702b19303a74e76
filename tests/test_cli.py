"""End-to-end runs of the command line interface in a subprocess, and of
its entry point main in process."""

import json
import subprocess
import sys
from fractions import Fraction

import pytest
from mpmath import mp

from borelsum import cli
from borelsum.summation import median_boundary_sum


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "borelsum.cli", *args],
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_coeffs_json_exact_fractions():
    proc = run_cli("coeffs", "--n", "4", "--output", "json")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["object"] == "trefoil"
    assert doc["route"] == "generating-function"
    scaled = [row["scaled"] for row in doc["rows"]]
    assert scaled == ["1", "23/24", "1681/1152", "257543/82944", "67637281/7962624"]
    assert [row["a_n"] for row in doc["rows"][:3]] == ["1", "23", "1681/2"]


def test_coeffs_poincare_plain():
    proc = run_cli("coeffs", "--n", "3", "--object", "poincare")
    assert proc.returncode == 0
    assert "119/120" in proc.stdout
    assert "129361/28800" in proc.stdout
    assert "353851559/10368000" in proc.stdout


@pytest.mark.parametrize("which", ["trefoil", "poincare"])
def test_coeffs_bernoulli_route_matches(which):
    a = run_cli("coeffs", "--n", "6", "--object", which, "--output", "json")
    b = run_cli("coeffs", "--n", "6", "--object", which, "--route", "bernoulli-closed-form",
                "--output", "json")
    assert a.returncode == b.returncode == 0, b.stderr
    assert json.loads(b.stdout)["route"] == "bernoulli-closed-form"
    assert json.loads(a.stdout)["rows"] == json.loads(b.stdout)["rows"]


def test_sum_json_value_and_csv_header():
    proc = run_cli("sum", "--x", "2", "--output", "json")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["model"] == "trefoil"
    assert doc["kind"] == "median"
    value = mp.mpc(mp.mpf(doc["value"]["re"]), mp.mpf(doc["value"]["im"]))
    target = mp.mpf("1.647573486032229842086266")
    assert abs(value - target) < mp.mpf("1e-9")
    assert doc["value"]["im"] == "0.0"

    csv_proc = run_cli("sum", "--x", "2", "--output", "csv")
    header = csv_proc.stdout.splitlines()[0]
    assert header == "model,kind,route,x_re,x_im,value_re,value_im,err_estimate"


def test_sum_median_takes_one_route_with_or_without_the_cross_check():
    """The median goes through sum_median either way, so --cross-check adds
    the independent routes but does not change the route or the value."""
    alone = json.loads(run_cli("sum", "--x", "2", "--output", "json").stdout)
    checked = json.loads(run_cli("sum", "--x", "2", "--cross-check", "--output", "json").stdout)
    assert alone["route"] == checked["route"] == "theta-series"
    assert alone["value"] == checked["value"]
    assert "routes" in checked and "routes" not in alone


def test_sum_complex_point_parses():
    proc = run_cli("sum", "--x", "1+0.8i", "--object", "poincare",
                   "--output", "json")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["model"] == "poincare"
    assert mp.mpf(doc["x"]["im"]) == mp.mpf("0.8")


def test_sum_left_half_plane_is_a_domain_error():
    proc = run_cli("sum", "--x", "-1")
    assert proc.returncode == 3
    assert proc.stderr.strip() != ""


def test_sum_unreachable_cross_tolerance():
    proc = run_cli("sum", "--x", "2", "--cross-check", "--cross-tol", "1e-30")
    assert proc.returncode == 4


def test_sum_cross_tolerance_alone_runs_the_cross_check():
    """A given --cross-tol runs and enforces the cross-check without
    --cross-check, as sum_median does with cross_tol alone."""
    proc = run_cli("sum", "--x", "2", "--cross-tol", "1e-30")
    assert proc.returncode == 4
    assert "tolerance" in proc.stderr


def test_sum_cross_tolerance_on_a_lateral_method_is_a_usage_error():
    proc = run_cli("sum", "--x", "2", "--method", "mul", "--cross-tol", "1e-8")
    assert proc.returncode == 2
    assert "median method" in proc.stderr


def test_sum_tolerance_below_roundoff_exits_four():
    proc = run_cli("sum", "--x", "2", "--tol", "1e-30")
    assert proc.returncode == 4
    assert "roundoff" in proc.stderr


def test_sum_cross_check_err_covers_the_route_gap():
    proc = run_cli("sum", "--x", "2+1.5i", "--cross-check", "--tol", "1e-12",
                   "--output", "json")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert mp.mpf(doc["err_estimate"]) >= mp.mpf(doc["max_discrepancy"])


def test_radial_csv_hits_the_boundary_target():
    proc = run_cli("radial", "--alpha", "1/2", "--output", "csv")
    assert proc.returncode == 0
    header, row = proc.stdout.splitlines()[:2]
    fields = dict(zip(header.split(","), row.split(",")))
    assert fields["alpha"] == "1/2"
    assert mp.mpf(fields["abs_diff"]) < mp.mpf("1e-8")


def test_radial_at_fifteen_digits():
    """The lowest precision the command line accepts still reaches the rungs'
    tolerance."""
    proc = run_cli("radial", "--alpha", "1/2", "--precision", "15", "--output", "csv")
    assert proc.returncode == 0, proc.stderr
    header, row = proc.stdout.splitlines()[:2]
    fields = dict(zip(header.split(","), row.split(",")))
    assert mp.mpf(fields["abs_diff"]) < mp.mpf("1e-8")


def test_radial_alpha_zero_is_a_usage_error():
    proc = run_cli("radial", "--alpha", "0")
    assert proc.returncode == 2
    assert "nonzero" in proc.stderr


def test_radial_of_the_poincare_sphere_hits_its_boundary_sum():
    """--object poincare takes the Poincare sphere's own radial limit, under
    its own name, against the finite sum of its median's theta series at the
    root of unity, not the trefoil's phi."""
    proc = run_cli("radial", "--alpha", "1/3", "--object", "poincare", "--output", "json")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["model"] == "poincare"
    target = median_boundary_sum(Fraction(1, 3), "poincare")
    assert abs(mp.mpf(doc["target"]["re"]) - target.real) < mp.mpf("1e-20")
    assert abs(mp.mpf(doc["target"]["im"]) - target.imag) < mp.mpf("1e-20")
    assert mp.mpf(doc["abs_diff"]) <= mp.mpf(doc["err_estimate"])
    trefoil = json.loads(run_cli("radial", "--alpha", "1/3", "--output", "json").stdout)
    assert trefoil["model"] == "trefoil" and trefoil["target"] != doc["target"]


def test_radial_tolerance_below_roundoff_exits_four():
    proc = run_cli("radial", "--alpha", "1/3", "--tol", "1e-30")
    assert proc.returncode == 4
    assert "roundoff" in proc.stderr


def test_usage_errors_exit_two():
    assert run_cli("sum").returncode == 2
    assert run_cli("verify", "--suite", "everything").returncode == 2
    assert run_cli().returncode == 2
    assert run_cli("sum", "--x", "2", "--eps-ray", "0.1").returncode == 2
    # the radial ladder is fixed by the library, not tuned from the command line
    assert run_cli("radial", "--alpha", "1/2", "--rungs", "5").returncode == 2


def test_main_builds_its_parser_once(capsys):
    """In one process two calls of main build one parser, and a usage error
    after a good call still exits 2."""
    cli._build_parser.cache_clear()
    assert cli.main(["coeffs", "--n", "2"]) == 0
    assert cli.main(["coeffs", "--n", "3", "--output", "json"]) == 0
    assert cli.main(["radial"]) == 2
    assert cli._build_parser.cache_info().misses == 1
    assert "--alpha" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ("radial", "--alpha", "abc"),
    ("radial", "--alpha", "1/0"),
    ("radial", "--alpha", "1/2", "--tol", "nan"),
    ("radial", "--alpha", "1/2", "--tol", "-1"),
    ("radial", "--alpha", "1/2", "--tol", "abc"),
    ("radial", "--alpha", "1/2", "--tol", "0"),
    ("radial", "--alpha", "1/2", "--tol", "inf"),
    ("radial", "--alpha", "1/2", "--precision", "5"),
    ("sum", "--x", "2", "--cross-check", "--cross-tol", "abc"),
    ("sum", "--x", "2", "--cross-check", "--cross-tol", "-1"),
    ("sum", "--x", "nan"),
    ("sum", "--x", "inf"),
    ("sum", "--x", "2+infi"),
    ("sum", "--x", "2", "--tol", "nan"),
    ("sum", "--x", "2", "--tol", "inf"),
    ("radial", "--alpha", "1/2", "--config", "/nonexistent/dir/borelsum.cfg"),
    ("coeffs", "--n", "2", "--out", "/nonexistent/dir/report.txt"),
])
def test_bad_ladder_and_tolerance_values_exit_two(args):
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert "usage error" in proc.stderr


def test_verify_exact_suite_passes():
    proc = run_cli("verify", "--suite", "exact")
    assert proc.returncode == 0
    assert "l2-closed-form" in proc.stdout
    assert "FAIL" not in proc.stdout


def test_python_dash_m_borelsum_runs_the_cli():
    proc = subprocess.run([sys.executable, "-m", "borelsum", "verify", "--suite", "exact"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "suite exact: pass" in proc.stdout


def test_verify_all_at_fifteen_digits():
    """The lowest precision the command line accepts: the closed-route checks
    ask for a tolerance the route reaches there."""
    proc = run_cli("verify", "--suite", "all", "--precision", "15", "--output", "json")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["passed"] is True
    assert len(doc["checks"]) == 39


def test_verify_exact_json_lists_its_checks_in_order():
    proc = run_cli("verify", "--suite", "exact", "--output", "json")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["passed"] is True
    assert [c["name"] for c in doc["checks"]] == [
        "trefoil-scaled-coefficients", "borel-taylor-first-values",
        "coefficient-route-agreement", "borel-route-agreement",
        "formal-borel-cross", "l-value-certified-partials", "l2-closed-form",
    ]
    assert doc["checks"][0]["residual"] == "0"


def test_out_file_and_config_merge(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tol = 1e-6\noutput = json\n")
    out = tmp_path / "report.json"
    proc = run_cli("sum", "--x", "2", "--config", str(cfg), "--out", str(out))
    assert proc.returncode == 0
    doc = json.loads(out.read_text())
    assert mp.mpf(doc["err_estimate"]) == mp.mpf("1e-6")

    # explicit flags win over the config file
    proc = run_cli("sum", "--x", "2", "--config", str(cfg), "--tol", "1e-8",
                   "--output", "json")
    doc = json.loads(proc.stdout)
    assert mp.mpf(doc["err_estimate"]) == mp.mpf("1e-8")
