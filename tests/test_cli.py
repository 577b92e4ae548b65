"""Command-line surface: exit codes, schemas, determinism."""

import argparse
import json
import math
import os
import platform
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import skewtorsion
from skewtorsion import charts, cli
from skewtorsion.cli import main
from skewtorsion.connections import identity_suite
from skewtorsion.decomposition import decompose_point
from skewtorsion.evaluation import Evaluation, Grids, sup
from skewtorsion.instanton import gauge_equivalence_probe
from skewtorsion.topology import chern_weil_integrals


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


@pytest.mark.xfail(strict=True, reason="frame terms of size 1/x^2 cancel at the nodes nearest "
                                       "the poles, so residuals grow like n^2 (ROADMAP item 2)")
def test_verify_round_passes_on_a_fine_grid():
    # fails on bianchi, pair_swap, pair_swap_closed, jacobi, reconstruction
    # and block_isometry
    code, _, _ = run_cli("verify", "--chart", "round", "--grid", "4096")
    assert code == 0


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


@pytest.mark.parametrize("argv, message", [
    (("verify", "--chart", "round", "--tol", "nan"), "--tol"),
    (("verify", "--chart", "flat", "--L", "0"), "L must be finite and positive"),
    (("verify", "--chart", "flat", "--L", "-2"), "L must be finite and positive"),
    (("verify", "--chart", "product", "--b0", "nan"), "finite and positive"),
    (("probe", "--chart", "product", "--L", "inf"), "finite and positive"),
    (("verify", "--chart", "random", "--seed", "-1"), "seed must be non-negative"),
    (("scan", "--k-step", "0"), "--k-step"),
    (("scan", "--k-step", "nan"), "--k-step"),
    (("scan", "--k-step", "-0.25"), "--k-step"),
    (("scan", "--k-step", "inf"), "--k-step"),
    (("scan", "--k-min", "nan"), "--k-min and --k-max"),
    (("scan", "--k-max", "inf"), "--k-min and --k-max"),
    (("scan", "--k-min=-inf"), "--k-min and --k-max"),
    # negative non-finite values are values, not flags, in any case
    (("verify", "--chart", "bonneau", "--k", "-inf"), "parameter k must be finite"),
    (("verify", "--chart", "bonneau", "--k", "-NaN"), "parameter k must be finite"),
    (("scan", "--k-min", "-inf"), "--k-min and --k-max"),
    (("scan", "--k-max", "-Infinity"), "--k-min and --k-max"),
    (("scan", "--k-min", "0.5", "--k-max", "0.25"), "--k-min must not exceed --k-max"),
])
def test_bad_parameters_exit_two_without_output(argv, message):
    code, out, err = run_cli(*argv, "--grid", "16")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err


def test_verify_fails_on_a_nan_residual(monkeypatch):
    def suite(ev):
        res = identity_suite(ev)
        res["bianchi"][3] = math.nan  # one NaN entry makes the residual NaN
        return res

    monkeypatch.setattr(cli, "identity_suite", suite)
    code, out, _ = run_cli("verify", "--chart", "flat", "--grid", "16")
    payload = json.loads(out)
    assert code == 1
    assert payload["failing"] == ["bianchi"] and payload["ok"] is False
    assert payload["residuals"]["bianchi"] == "nan"


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


@pytest.mark.parametrize("k", [-1.0, 0.0, 0.3])
@pytest.mark.parametrize("grid", ["48", "300"])
def test_scan_row_topology_is_the_report_topology(k, grid):
    # a row integrates the rule of 2n nodes alone; at grid 300 its 600
    # nodes span two tiles
    _, out, _ = run_cli("report", "--chart", "bonneau", "--k", repr(k), "--grid", grid)
    top = json.loads(out)["topology"]
    _, out, _ = run_cli("scan", f"--k-min={k!r}", f"--k-max={k!r}", "--grid", grid)
    row, = json.loads(out)["rows"]
    assert [row[key].hex() for key in ("chi", "tau", "margin", "p1_lambda_plus")] == \
        [top[key].hex() for key in ("chi", "tau", "margin", "p1_lambda_plus")]


def _bits(row: dict) -> dict:
    """A scan row with its floats as hex strings, to compare bit for bit."""
    return {key: v.hex() if isinstance(v, float) else v for key, v in row.items()}


@pytest.mark.parametrize("grid", ["48", "300"])
@pytest.mark.parametrize("scan, admissible", [
    (("--k-min=-100000", "--k-max=0", "--k-step=100000"), [False, True]),
    (("--k-min=-1", "--k-max=0.5", "--k-step=0.5"), [True] * 4),
])
def test_scan_rows_are_the_one_row_scans_bitwise(scan, admissible, grid):
    # the rows of a scan share one evaluation of the chart on the grids of
    # all its admissible rows; each row has the bits of its k's one-row
    # scan, and a refused row the same reason; at grid 300 a row's 600
    # quadrature nodes span two tiles
    code, out, _ = run_cli("scan", *scan, "--grid", grid)
    rows = json.loads(out)["rows"]
    assert code == 0 and [row["admissible"] for row in rows] == admissible
    for row in rows:
        k = row["k"]
        code, out, _ = run_cli("scan", f"--k-min={k!r}", f"--k-max={k!r}", "--grid", grid)
        assert code == 0 and [_bits(r) for r in json.loads(out)["rows"]] == [_bits(row)]


def _own_row(k: float, grid: int) -> dict:
    """The scan row of k from the package's one-grid functions, on a context
    of its own chart: the decomposition and the probe on its sample grid,
    chi, tau and p1 on its rule of 2n nodes."""
    chart, H = charts.bonneau_chart(k)
    grids = Grids(chart, H, {"sample": chart.sample_grid(64),
                             "rule": chart.quadrature(2 * grid)})
    top = chern_weil_integrals(grids)
    dec = sup(decompose_point(grids["sample"]))
    probe = gauge_equivalence_probe(grids["sample"])
    return {"k": k, "admissible": True,
            "einstein_residual": dec["einstein_residual"],
            "reconstruction_residual": dec["reconstruction_residual"],
            "chi": top["chi"], "tau": top["tau"], "margin": top["margin"],
            "p1_lambda_plus": top["p1_lambda_plus"], "probe_verdict": probe.verdict}


@pytest.mark.parametrize("grid", [16, 256, 300])
def test_scan_block_rows_are_the_one_grid_functions_bitwise(grid):
    # a block reduces each row's slice of two shared contexts; each row has
    # the bits of decompose_point, gauge_equivalence_probe and
    # chern_weil_integrals on contexts of the row's own chart.  Ten
    # admissible rows put 640 sample points, two tiles, in one context; at
    # grid 300 a row's 600 quadrature nodes straddle tiles
    ks = [-1.0, -0.8, -0.5, -1e5, -0.2, 0.0, 0.1, 0.3, 0.5, 0.7, 0.9]
    rows = cli._scan_block(ks, grid)
    refused, = [row for row in rows if not row["admissible"]]
    with pytest.raises(charts.ChartError) as exc:
        charts.bonneau_chart(-1e5)
    assert refused == {"k": -1e5, "admissible": False, "reason": str(exc.value)}
    for row in rows:
        if row["admissible"]:
            own = _own_row(row["k"], grid)
            assert list(row) == list(own) and _bits(row) == _bits(own)


def test_long_scan_runs_in_blocks_with_the_same_bytes(monkeypatch):
    # a scan evaluates the grids of at most SCAN_BLOCK_NODES nodes at once,
    # so the memory it holds does not grow with its length; the blocks
    # change no byte
    argv = ("scan", "--k-min=-1", "--k-max=1", "--k-step=0.25", "--grid", "16",
            "--format", "csv")
    whole = run_cli(*argv)
    batches, at = [], charts.InvariantChart.at

    def recorded(self, x):
        pt = at(self, x)
        batches.append(pt.npoints)
        return pt

    monkeypatch.setattr(charts.InvariantChart, "at", recorded)
    monkeypatch.setattr(cli, "SCAN_BLOCK_NODES", 200)  # two rows of 64 + 32 nodes
    assert run_cli(*argv) == whole
    assert batches == [192, 192, 192, 192, 96]


def test_probe_json():
    code, out, _ = run_cli("probe", "--chart", "bonneau", "--k", "0", "--grid", "64")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["verdict"] == "inequivalent"
    # the in-memory spectrum's gap, bitwise through the %.17g emission
    chart, H = charts.chart_and_torsion({"type": "bonneau", "params": {"k": 0.0}})
    rep = gauge_equivalence_probe(Evaluation.on_grid(chart, H, 64))
    ratios = rep.singular_values[:, 7] / rep.singular_values[:, 0]
    assert payload["spectrum"] == {"kernel_gap": float(np.min(ratios)),
                                   "kernel_gap_x": float(rep.x[np.argmin(ratios)])}


def test_probe_kernel_gap_is_null_where_the_curvature_vanishes():
    code, out, _ = run_cli("probe", "--chart", "flat", "--grid", "64")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["verdict"] == "equivalent"
    assert payload["spectrum"] == {"kernel_gap": None, "kernel_gap_x": None}


def test_probe_payload_does_not_grow_with_the_grid():
    """No per-node array in the probe's payload: at 1100 points (tiles of
    512, 512 and 76) it has the keys of the 64-point payload, in under 4 KB."""
    payloads = {}
    for grid in ("64", "1100"):
        code, out, _ = run_cli("probe", "--chart", "bonneau", "--k", "0", "--grid", grid)
        assert code == 0
        payloads[grid] = out
    assert list(json.loads(payloads["1100"])) == list(json.loads(payloads["64"]))
    assert len(payloads["1100"].encode()) < 4096


def test_out_file(tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run_cli("report", "--chart", "flat", "--grid", "32",
                           "--out", str(target))
    assert code == 0 and out == ""
    payload = json.loads(target.read_text())
    assert payload["command"] == "report"


@pytest.mark.parametrize("command", [
    ("verify", "--chart", "bonneau"), ("report", "--chart", "bonneau"),
    ("probe", "--chart", "bonneau"),
    ("scan", "--k-min", "-1", "--k-max", "1", "--k-step", "0.02"),
])
@pytest.mark.parametrize("where", ["missing_dir", "directory"])
def test_unwritable_out_exits_two(tmp_path, monkeypatch, command, where):
    # refused before any chart is built
    calls = []
    bonneau_chart = charts.bonneau_chart
    monkeypatch.setattr(charts, "bonneau_chart",
                        lambda *a, **kw: calls.append(a) or bonneau_chart(*a, **kw))
    target = tmp_path / "missing" / "x.json" if where == "missing_dir" else tmp_path
    code, out, err = run_cli(*command, "--grid", "16", "--out", str(target))
    assert (code, out, calls) == (2, "", [])
    assert err.startswith(f"error: cannot write --out {target}: ")
    assert err.count("\n") == 1


def test_out_refused_at_write_exits_two(tmp_path, monkeypatch):
    # what only the write shows, here a permission error, is reported by _emit
    def refuse(*args, **kwargs):
        raise PermissionError(13, "Permission denied")
    monkeypatch.setattr(cli, "open", refuse, raising=False)
    target = tmp_path / "x.json"
    code, out, err = run_cli("report", "--chart", "flat", "--grid", "16", "--out", str(target))
    assert (code, out) == (2, "")
    assert err == f"error: cannot write --out {target}: Permission denied\n"
    assert not target.exists()


@pytest.mark.parametrize("argv", [
    ("report", "--chart", "product", "--b0", "1e-155", "--L", "2"),
    ("probe", "--chart", "product", "--b0", "1e-155", "--L", "2"),
    ("report", "--chart", "product", "--b0", "1e150"),
    ("verify", "--chart", "product", "--b0", "1e-155", "--L", "2"),
])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_geometry_exits_two(argv):
    code, out, err = run_cli(*argv, "--grid", "64")
    assert code == 2 and out == ""
    assert "Traceback" not in err
    assert err.splitlines()[-1] in ("error: integrand not finite at an interior node",
                                    "error: induced curvature not finite at a node",
                                    "error: frame brackets not finite at a node")


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "skewtorsion.cli", "verify", "--chart", "flat",
         "--grid", "32"],
        capture_output=True, text=True)
    assert proc.returncode == 0


def test_scan_starts_no_thread_pool(monkeypatch):
    # the rows of a block run on the calling thread, one after another
    def refuse(*args, **kwargs):
        raise AssertionError("a scan built a thread pool or started a thread")

    monkeypatch.setattr(cli, "ThreadPoolExecutor", refuse)
    monkeypatch.setattr(threading.Thread, "start", refuse)
    code, out, _ = run_cli("scan", "--k-min", "0", "--k-max", "0.25", "--k-step", "0.25",
                           "--grid", "16", "--format", "csv")
    assert code == 0 and len(out.strip().splitlines()) == 3


@pytest.mark.parametrize("k_step", ["5e-324", "1e-9"])
def test_scan_row_cap_exits_two_before_any_row(monkeypatch, k_step):
    def row(k, top, pt, sample):
        raise AssertionError("a row was evaluated")

    monkeypatch.setattr(cli, "_scan_row", row)
    code, out, err = run_cli("scan", "--k-min", "-1", "--k-max", "1",
                             "--k-step", k_step, "--grid", "16")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and f"{cli.MAX_SCAN_ROWS} or more steps" in err


def test_scan_stops_at_k_max():
    code, out, _ = run_cli("scan", "--k-min", "0", "--k-max", "0.36", "--k-step", "0.1",
                           "--grid", "16", "--format", "csv")
    assert code == 0
    ks = [float(line.split(",")[0]) for line in out.strip().splitlines()[1:]]
    assert ks == [0.0, 0.1, 0.2, 0.30000000000000004]


def _options(command):
    """The option strings of a subcommand of the CLI parser, help aside."""
    sub, = (a for a in cli._parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {s for a in sub.choices[command]._actions for s in a.option_strings} - {
        "-h", "--help"}


_CHART = {"--chart", "--k", "--b0", "--L", "--seed"}


@pytest.mark.parametrize("command, options", [
    ("verify", _CHART | {"--grid", "--out", "--tol"}),
    ("report", _CHART | {"--grid", "--out"}),
    ("probe", _CHART | {"--grid", "--out"}),
    ("scan", {"--k-min", "--k-max", "--k-step", "--grid", "--out", "--format"}),
])
def test_every_option_has_a_reader(command, options):
    # an option comes back only with code that reads it
    assert _options(command) == options


@pytest.mark.parametrize("argv", [
    ("verify", "--chart", "flat", "--format", "csv"),
    ("report", "--chart", "flat", "--tol", "1e-9"),
    ("report", "--chart", "flat", "--format", "json"),
    ("probe", "--chart", "flat", "--format", "csv"),
    ("scan", "--tol", "1e-9"),
])
def test_removed_options_exit_two(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(list(argv) + ["--grid", "16"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "unrecognized arguments" in err


_K = st.floats(-10, 10)
_STEP = st.floats(1e-3, 1)


@settings(max_examples=300, deadline=None)
@given(_K, _STEP, st.integers(0, 60), st.floats(0.01, 0.99))
def test_scan_values_reach_k_max_and_stop_there(k_min, step, m, frac):
    # k_max computed as k_min + m step, as a caller writes a window
    ks = cli._scan_values(k_min, k_min + m * step, step)
    assert ks == [k_min + i * step for i in range(m + 1)]
    # k_max strictly between two values: none passes it
    k_max = k_min + (m + frac) * step
    ks = cli._scan_values(k_min, k_max, step)
    assert len(ks) == m + 1 and ks[-1] <= k_max


@settings(max_examples=300, deadline=None)
@given(st.integers(-1000, 1000), st.integers(1, 100), st.integers(0, 60))
def test_scan_values_of_a_decimal_range(a, b, m):
    # --k-min a/100 --k-step b/100 --k-max (a + m b)/100, each read from its
    # decimal: the sums round differently from k_max, by a few ulps
    ks = cli._scan_values(a / 100, (a + m * b) / 100, b / 100)
    assert len(ks) == m + 1


@settings(max_examples=50, deadline=None)
@given(_K, _STEP, st.integers(1, 60))
def test_scan_with_k_min_above_k_max_exits_two(k_min, step, m):
    k_max = k_min - m * step
    code, out, err = run_cli("scan", f"--k-min={k_min!r}", f"--k-max={k_max!r}",
                             f"--k-step={step!r}", "--grid", "16")
    assert code == 2 and out == ""
    assert "--k-min must not exceed --k-max" in err


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
    """An array emits the bytes of the recursion over its nested lists,
    whatever its dtype and shape, empty axes included."""
    assert cli._dump_json(arr) == cli._dump_json(arr.tolist())


def test_float_format_bytes():
    arr = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324,
                    1.7976931348623157e308, -2.5, 0.1])
    assert cli._dump_json(arr) == (
        '["nan", "inf", "-inf", -0, 0, 4.9406564584124654e-324, '
        '1.7976931348623157e+308, -2.5, 0.10000000000000001]')


@pytest.mark.parametrize("argv", [
    ("verify", "--chart", "bonneau", "--k", "0"),
    ("report", "--chart", "bonneau", "--k", "0"),
    ("probe", "--chart", "bonneau", "--k", "0"),
    ("scan", "--k-min", "0", "--k-max", "0.25", "--format", "json"),
], ids=["verify", "report", "probe", "scan"])
def test_every_command_emits_one_outermost_dump(monkeypatch, argv):
    """A command makes one top-level _dump_json call, whose result is
    stdout without the newline."""
    results, depth = [], [0]
    dump = cli._dump_json

    def outermost(*args, **kwargs):
        depth[0] += 1
        try:
            out = dump(*args, **kwargs)
        finally:
            depth[0] -= 1
        if depth[0] == 0:
            results.append(out)
        return out

    monkeypatch.setattr(cli, "_dump_json", outermost)
    code, out, _ = run_cli(*argv, "--grid", "16")
    assert code == 0
    assert len(results) == 1 and out == results[0] + "\n"


def test_numpy_scalars_and_tuples_emit_as_python_values():
    as_numpy = {"flags": (np.bool_(True), np.bool_(False)), "n": np.int64(-3),
                "x": (np.float32(0.1), (np.float64(np.nan), np.float64(-0.0)))}
    as_python = {"flags": [True, False], "n": -3,
                 "x": [float(np.float32(0.1)), [math.nan, -0.0]]}
    assert cli._dump_json(as_numpy) == cli._dump_json(as_python)


def test_main_runs_the_command_bound_at_call_time(monkeypatch):
    # the benchmark tracer wraps cmd_* by patching the module attribute
    seen = []
    monkeypatch.setattr(cli, "cmd_probe", lambda args: seen.append(args.grid) or 0)
    assert run_cli("probe", "--chart", "flat", "--grid", "16") == (0, "", "")
    assert seen == [16]


def test_report_records_its_grids(monkeypatch):
    """The grids key of every JSON payload lists every grid the command
    evaluates the chart on, including the report's capped check grid, and
    the jet_order key the order of the profile jets.  A command evaluates
    every grid it reads as one batch: a report its sample grid, the rules
    of 2n and n nodes, the check grid and the n-point p1 sample grid, a
    scan the sample grid and the rule of 2n nodes of every admissible
    row."""
    batches = []
    at = charts.InvariantChart.at

    def recorded(self, x):
        pt = at(self, x)
        batches.append((pt.npoints, pt.seed.order))
        return pt

    monkeypatch.setattr(charts.InvariantChart, "at", recorded)
    for argv, expected, evaluated in [
        (("report", "--chart", "round", "--grid", "300"),
         {"quadrature": [300, 600], "p1_sample": 300, "sample": 64, "check": 128},
         [64 + 600 + 128 + 300 + 300]),
        (("verify", "--chart", "random", "--seed", "3", "--grid", "48"), {"check": 48}, [48]),
        (("probe", "--chart", "bonneau", "--k", "0", "--grid", "40"), {"probe": 40}, [40]),
        (("scan", "--k-min", "0", "--k-max", "0", "--k-step", "1", "--format", "json",
          "--grid", "32"),
         {"quadrature": [64], "sample": 64}, [64 + 64]),
    ]:
        batches.clear()
        code, out, _ = run_cli(*argv)
        assert code == 0
        payload = json.loads(out)
        grids = payload["grids"]
        assert grids == expected
        assert sorted(n for n, _ in batches) == sorted(evaluated)
        # every point evaluated belongs to a listed grid
        flat = [sum(v) if isinstance(v, list) else v for v in grids.values()]
        assert sum(flat) == sum(evaluated)
        assert {order for _, order in batches} == {payload["jet_order"]} == {2}
        assert payload["provenance"] == {"skewtorsion": skewtorsion.__version__,
                                         "numpy": np.__version__}


FAULTS = """
import contextlib, io, resource, sys
from skewtorsion import cli
if sys.argv[1] == "default":
    cli._keep_freed_memory = lambda: None
argv = ["verify", "--chart", "random", "--seed", "3", "--grid", "1100"]
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(argv)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    cli.main(argv)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt thresholds are glibc's")
def test_tiles_reuse_freed_memory_in_one_process():
    """With the malloc thresholds ``main`` sets, a second tiled verify in one
    process reuses the memory the first freed instead of faulting it in
    again: under a tenth of the minor faults of glibc's default thresholds."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(charts.__file__)))

    def faults(mode):
        out = subprocess.run([sys.executable, "-c", FAULTS, mode], env=env, check=True,
                             capture_output=True, text=True).stdout
        return int(out)

    default, kept = faults("default"), faults("kept")
    assert kept < default / 10, (kept, default)
