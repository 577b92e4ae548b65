"""Command-line surface: exit codes, schemas, determinism."""

import json
import subprocess
import sys

import numpy as np
import pytest

from skewtorsion import charts, cli
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


@pytest.mark.parametrize("arr", [
    np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1.7976931348623157e308, 0.1]),
    np.arange(12.0).reshape(3, 4) / 7.0 - 0.5,
    np.array([[-0.0, np.nan], [np.inf, 5e-324]]),
    np.zeros(0),
    np.zeros((2, 0)),
    np.zeros((0, 9)),
    np.array([[1, -2], [3, 4]]),
    np.array([True, False]),
], ids=["specials", "2d", "2d-specials", "empty", "2x0", "0x9", "int", "bool"])
def test_array_emission_matches_the_recursive_path(arr):
    """Arrays take a flat path; it must emit the bytes of the per-element
    recursion over nested lists."""
    assert cli._dump_json(cli._to_jsonable(arr)) == cli._dump_json(
        cli._to_jsonable(arr.tolist()))


def test_float_format_bytes():
    arr = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324,
                    1.7976931348623157e308, -2.5, 0.1])
    assert cli._dump_json(arr) == (
        '["nan", "inf", "-inf", -0, 0, 4.9406564584124654e-324, '
        '1.7976931348623157e+308, -2.5, 0.10000000000000001]')


def test_probe_emits_one_outermost_dump(monkeypatch):
    """cmd_probe makes two top-level _to_jsonable calls and one top-level
    _dump_json call, whose result is stdout without the newline."""
    calls = {"_to_jsonable": 0, "_dump_json": 0}
    results = []
    for name in calls:
        fn, depth = getattr(cli, name), [0]

        def outermost(*args, _fn=fn, _name=name, _depth=depth, **kwargs):
            _depth[0] += 1
            try:
                out = _fn(*args, **kwargs)
            finally:
                _depth[0] -= 1
            if _depth[0] == 0:
                calls[_name] += 1
                if _name == "_dump_json":
                    results.append(out)
            return out

        monkeypatch.setattr(cli, name, outermost)
    code, out, _ = run_cli("probe", "--chart", "bonneau", "--k", "0", "--grid", "16")
    assert code == 0
    assert calls == {"_to_jsonable": 2, "_dump_json": 1}
    assert out == results[0] + "\n"


def test_report_records_its_grids(monkeypatch):
    """The grids key of every JSON payload lists every grid the command
    evaluates the chart on, including the report's capped check grid, and
    the jet_order key the order of the profile jets."""
    batches = []
    at = charts.InvariantChart.at

    def recorded(self, x):
        pt = at(self, x)
        batches.append((pt.npoints, pt.seed.order))
        return pt

    monkeypatch.setattr(charts.InvariantChart, "at", recorded)
    for argv, expected in [
        (("report", "--chart", "round", "--grid", "300"),
         {"quadrature": [300, 600], "p1_sample": 300, "sample": 64, "check": 128}),
        (("verify", "--chart", "random", "--seed", "3", "--grid", "48"), {"check": 48}),
        (("probe", "--chart", "bonneau", "--k", "0", "--grid", "40"), {"probe": 40}),
        (("scan", "--k-min", "0", "--k-max", "0", "--k-step", "1", "--format", "json",
          "--grid", "32"),
         {"quadrature": [32, 64], "p1_sample": 32, "sample": 64}),
    ]:
        batches.clear()
        code, out, _ = run_cli(*argv)
        assert code == 0
        payload = json.loads(out)
        grids = payload["grids"]
        assert grids == expected
        flat = [n for v in grids.values() for n in (v if isinstance(v, list) else [v])]
        assert sorted(n for n, _ in batches) == sorted(flat)
        assert {order for _, order in batches} == {payload["jet_order"]} == {2}
