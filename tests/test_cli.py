"""Command-line surface: exit codes, schemas, determinism."""

import json
import subprocess
import sys

import pytest

from skewtorsion.cli import main


def run_cli(*args):
    """Invoke the entry point in-process, capturing stdout."""
    import io
    from contextlib import redirect_stdout, redirect_stderr
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(args))
    return code, out.getvalue(), err.getvalue()


def test_verify_bonneau_passes():
    code, out, _ = run_cli("verify", "--chart", "bonneau", "--k", "0", "--grid", "64")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["ok"] is True
    assert payload["failing"] == []
    assert payload["residuals"]["curvature_cross"] <= 1e-9


def test_verify_random_chart_passes():
    code, out, _ = run_cli("verify", "--chart", "random", "--seed", "7", "--grid", "64")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_verify_exit_one_on_residual_failure():
    code, out, _ = run_cli("verify", "--chart", "random", "--seed", "7",
                           "--grid", "64", "--tol", "1e-30")
    assert code == 1
    payload = json.loads(out)
    assert payload["failing"]


def test_usage_errors_exit_two():
    code, _, err = run_cli("verify", "--chart", "round", "--grid", "8")
    assert code == 2 and "grid" in err
    code, _, err = run_cli("verify", "--chart", "round", "--tol", "-1")
    assert code == 2 and "tol" in err


def test_report_round_chart():
    code, out, _ = run_cli("report", "--chart", "round", "--grid", "64")
    assert code == 0
    payload = json.loads(out)
    assert payload["topology"]["chi"] == pytest.approx(2.0, abs=1e-8)
    assert payload["topology"]["tau"] == pytest.approx(0.0, abs=1e-10)
    assert payload["topology"]["margin"] == pytest.approx(4.0, abs=1e-7)
    assert payload["nijenhuis_radial"] <= 1e-9


def test_report_product_chart():
    code, out, _ = run_cli("report", "--chart", "product", "--b0", "1", "--L", "1",
                           "--grid", "64")
    payload = json.loads(out)
    assert code == 0
    assert payload["topology"]["chi"] == pytest.approx(0.0, abs=1e-10)
    assert payload["topology"]["margin"] == pytest.approx(0.0, abs=1e-10)


def test_scan_row_count_and_csv_shape():
    code, out, _ = run_cli("scan", "--k-min", "-1", "--k-max", "1",
                           "--k-step", "0.25", "--grid", "32", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1 + 9  # header + 9 rows
    assert lines[0].startswith("k,admissible,")
    assert all(",True," in ln for ln in lines[1:])


def test_scan_deterministic_output():
    args = ("scan", "--k-min", "0", "--k-max", "0.5", "--k-step", "0.5",
            "--grid", "32", "--format", "csv")
    _, out1, _ = run_cli(*args)
    _, out2, _ = run_cli(*args)
    assert out1 == out2


def test_probe_json():
    code, out, _ = run_cli("probe", "--chart", "bonneau", "--k", "0", "--grid", "64")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["verdict"] == "inequivalent"
    assert len(payload["singular_values"]) == 64


def test_out_file(tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run_cli("report", "--chart", "flat", "--grid", "32",
                           "--out", str(target))
    assert code == 0 and out == ""
    payload = json.loads(target.read_text())
    assert payload["command"] == "report"


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "skewtorsion.cli", "verify", "--chart", "flat",
         "--grid", "32"],
        capture_output=True, text=True)
    assert proc.returncode == 0


def test_scan_respects_thread_cap(monkeypatch):
    monkeypatch.setenv("SKEW_THREADS", "1")
    code, out, _ = run_cli("scan", "--k-min", "0", "--k-max", "0.25",
                           "--k-step", "0.25", "--grid", "32", "--format", "csv")
    assert code == 0
    assert len(out.strip().splitlines()) == 3


@pytest.mark.parametrize("k", ["-7.8e-05", "-1e-3"])
def test_negative_exponent_form_values(k):
    code, out, err = run_cli("verify", "--chart", "bonneau", "--k", k, "--grid", "16")
    assert code == 0, err
    assert json.loads(out)["chart"]["params"]["k"] == float(k)
