"""Tests of the benchmark's tracer, checks and contract.

Run from the repository root:  python -m pytest -q benchmarks
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import shutil
import subprocess
import sys
import threading

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from skewtorsion import cli, connections, instanton, jets, topology  # noqa: E402


def _traced_cli(argv):
    tr = tracer.Tracer()
    buf = io.StringIO()
    with tr.installed(), contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue(), tr


def test_report_call_counts():
    # one report evaluates the curvature 19 times, the chart 14 times and
    # builds 6 Gauss-Legendre rules (n and 2n for chi, tau and p1)
    rc, _, tr = _traced_cli(["report", "--chart", "bonneau", "--k", "0"])
    assert rc == 0
    t = tr.totals()
    assert t["connections.curvature"]["calls"] == 19
    assert t["charts.at"]["calls"] == 14
    assert t["charts.quadrature"]["calls"] == 6


def test_every_binding_patched_and_restored():
    orig_curv = connections.curvature
    orig_add = jets.Jet.__add__
    with tracer.Tracer().installed():
        for space in (connections, topology, instanton):
            assert space.curvature is not orig_curv
            assert space.curvature.__wrapped__ is orig_curv
        assert jets.Jet.__add__.__wrapped__ is orig_add
        assert jets.Jet.__radd__.__wrapped__ is orig_add
    assert connections.curvature is topology.curvature is instanton.curvature is orig_curv
    assert jets.Jet.__add__ is orig_add and jets.Jet.__radd__ is orig_add


def test_emit_counts_outermost_call_only():
    rc, out, tr = _traced_cli(["probe", "--chart", "bonneau", "--k", "0", "--grid", "16"])
    assert rc == 0
    # cmd_probe: two _to_jsonable calls and one _dump_json call at top level
    assert tr.totals()["cli.emit"]["calls"] == 3
    assert tr.emitted_bytes() == len(out) - 1      # _emit adds the newline


def test_scan_pool_self_times_non_negative():
    rc, out, tr = _traced_cli(["scan", "--k-min", "0", "--k-max", "0.5", "--k-step", "0.5",
                               "--grid", "16", "--format", "csv"])
    assert rc == 0
    t = tr.totals()
    assert t["cli.scan_row"]["calls"] == 2
    assert all(rec["self_s"] >= 0.0 for rec in t.values())
    assert t["cli.scan_row"]["total_s"] <= 2 * t["cli.scan"]["total_s"]


def test_counters_lose_no_update_across_threads():
    threads, adds = 8, 3000
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        tr = tracer.Tracer()
        with tr.installed():
            def work():
                x = jets.Jet.variable(0.5, 2)
                for _ in range(adds):
                    x = x + 1.0
            pool = [threading.Thread(target=work) for _ in range(threads)]
            for th in pool:
                th.start()
            for th in pool:
                th.join(timeout=60)
            assert not any(th.is_alive() for th in pool)
    finally:
        sys.setswitchinterval(old)
    assert tr.totals()["jets.ops"]["calls"] == threads * adds


def test_observe_records_grids_and_pool():
    seen = {}
    buf = io.StringIO()
    with tracer.observe(seen), contextlib.redirect_stdout(buf):
        cli.main(["scan", "--k-min", "0", "--k-max", "0", "--grid", "16", "--format", "csv"])
    assert set(seen["batches"]) == {16, 32, 64}     # scan hard-codes 64
    assert len(seen["workers"]) == 1 and seen["workers"][0] >= 1


def _verify_op():
    return workloads.Op("verify", 1, "random", ["verify"], grid=64)


def test_checks_reject_bad_outputs():
    v = {}
    ok = json.dumps({"command": "verify", "ok": True, "failing": []})
    workloads.check(_verify_op(), 0, ok, v)
    with pytest.raises(workloads.CheckError):
        workloads.check(_verify_op(), 1, ok, v)
    with pytest.raises(workloads.CheckError):
        workloads.check(_verify_op(), 0, ok.replace("true", "false"), v)
    report = workloads.Op("report", 1, "bonneau", grid=256)
    top = {"chi": 2.0, "tau": 0.0, "p1_lambda_plus": 4.0, "satisfied": True}
    workloads.check(report, 0, json.dumps({"command": "report", "topology": top}), v)
    for key, bad in (("chi", 2.0 + 2e-6), ("tau", 2e-8), ("p1_lambda_plus", 4.001)):
        payload = {"command": "report", "topology": dict(top, **{key: bad})}
        with pytest.raises(workloads.CheckError):
            workloads.check(report, 0, json.dumps(payload), v)
    radial = workloads.Op("radial", 2, "bonneau", k=0.0)
    with pytest.raises(workloads.CheckError):
        workloads.check(radial, 0, {"slope_at_k": 1.02, "slope_at_minus_infinity": 1.0,
                                    "monotone": True}, v)
    probe = workloads.Op("probe", 2, "bonneau", grid=64)
    res = {"verdict": "inequivalent", "kernel_dim_one_fraction": 0.9}
    with pytest.raises(workloads.CheckError):
        workloads.check(probe, 0, json.dumps({"command": "probe", "result": res}), v)


def test_streams_reproducible_from_seed():
    def first(wl, seed):
        return list(itertools.islice(workloads.operations(wl, seed), 12))

    for wl in workloads.WORKLOADS:
        a, b, c = first(wl, 7), first(wl, 7), first(wl, 8)
        assert a == b and a != c
        assert {op.role for op in a} == {1, 2}


def test_drawn_arguments_parse():
    # a tiny negative k such as -7e-05 must not be read as a flag
    parser = cli._parser()
    for wl in workloads.WORKLOADS:
        for op in itertools.islice(workloads.operations(wl, 3), 400):
            if op.argv:
                parser.parse_args(op.argv)
    parser.parse_args(["verify", "--chart", "bonneau", workloads._opt("k", -7.8e-05)])


def test_benchmark_json_names_match_run():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["per_layer"]] == run.per_layer_names(tracer)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert sorted(run.COMMAND_OF_ROLE) == sorted(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == [
        "setup_s", "op1_s.p50", "op2_s.p50", "peak_rss_mb"]


def test_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "coarse", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
