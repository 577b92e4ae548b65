"""Command-line surface: exit codes, schemas, determinism."""

import argparse
import json
import math
import os
import platform
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from skewtorsion import charts, cli
from skewtorsion.cli import main
from skewtorsion.connections import identity_suite


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
        res["bianchi"] = math.nan
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


@pytest.mark.parametrize("command", [
    ("verify", "--chart", "round"), ("report", "--chart", "flat"),
    ("probe", "--chart", "round"), ("scan", "--k-min", "0", "--k-max", "0"),
])
@pytest.mark.parametrize("where", ["missing_dir", "directory"])
def test_unwritable_out_exits_two(tmp_path, command, where):
    target = tmp_path / "missing" / "x.json" if where == "missing_dir" else tmp_path
    code, out, err = run_cli(*command, "--grid", "16", "--out", str(target))
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write --out {target}: ")
    assert err.count("\n") == 1


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "skewtorsion.cli", "verify", "--chart", "flat",
         "--grid", "32"],
        capture_output=True, text=True)
    assert proc.returncode == 0


def test_scan_ignores_skew_threads(monkeypatch):
    # the scan pool is min(8, CPUs) threads, whatever the environment says
    argv = ("scan", "--k-min", "0", "--k-max", "0.25", "--k-step", "0.25",
            "--grid", "16", "--format", "csv")
    monkeypatch.delenv("SKEW_THREADS", raising=False)
    unset = run_cli(*argv)
    monkeypatch.setenv("SKEW_THREADS", "abc")
    assert run_cli(*argv) == unset
    assert unset[0] == 0 and len(unset[1].strip().splitlines()) == 3


@pytest.mark.parametrize("k_step", ["5e-324", "1e-9"])
def test_scan_row_cap_exits_two_before_any_row(monkeypatch, k_step):
    def row(k, grid):
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
    """Arrays take a flat path; it must emit the bytes of the per-element
    recursion over nested lists."""
    assert cli._dump_json(cli._to_jsonable(arr)) == cli._dump_json(
        cli._to_jsonable(arr.tolist()))


_SPECIAL = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -2.2250738585072009e-308]
_FLOATS = st.one_of(
    st.floats(),  # any double, subnormals and non-finite values included
    st.sampled_from(_SPECIAL),
    st.builds(lambda m, e: m * 10.0 ** e, st.floats(-10, 10), st.integers(-300, 300)),
)


def _probe_sized_array():
    """A (4096, 9) array, the size of a fine-grid probe's singular values,
    mixing the special values into finite values over 600 decades."""
    rng = np.random.default_rng(0)
    arr = rng.normal(size=(4096, 9)) * 10.0 ** rng.integers(-300, 300, size=(4096, 9))
    pick = rng.random((4096, 9)) < 0.05
    arr[pick] = rng.choice(_SPECIAL, size=int(pick.sum()))
    return arr


@settings(max_examples=100, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=6),
                  elements=_FLOATS))
@example(_probe_sized_array())
def test_drawn_float_arrays_match_the_recursive_path(arr):
    got, want = cli._dump_json(arr), cli._dump_json(arr.tolist())
    if got != want:  # report where, not a diff of two 0.5 MB strings
        i = next(i for i, (p, q) in enumerate(zip(got + " ", want + " ")) if p != q)
        lo = max(i - 40, 0)
        pytest.fail(f"emitted {got[lo:i + 40]!r}, expected {want[lo:i + 40]!r}")


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
    the jet_order key the order of the profile jets.  A report evaluates
    the rule of 2n nodes as one batch, and the rule of n nodes with the
    n-point p1 sample grid as another; a scan row evaluates the rule of 2n
    nodes and the sample grid alone."""
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
         [600, 300 + 300, 64, 128]),
        (("verify", "--chart", "random", "--seed", "3", "--grid", "48"), {"check": 48}, [48]),
        (("probe", "--chart", "bonneau", "--k", "0", "--grid", "40"), {"probe": 40}, [40]),
        (("scan", "--k-min", "0", "--k-max", "0", "--k-step", "1", "--format", "json",
          "--grid", "32"),
         {"quadrature": [64], "sample": 64}, [64, 64]),
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
