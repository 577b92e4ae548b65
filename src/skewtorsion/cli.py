"""Command-line surface: verification suites, reports, parameter scans.

Subcommands:
  verify  run the identity and reconstruction suites on a chart; exit 0
          iff every residual is below tolerance, 1 on residual failure,
          2 on bad parameters.
  report  topological and decomposition report for a chart (JSON).
  scan    sweep the S^4 family parameter k and emit one row per value.
  probe   gauge-equivalence probe of the +-H pair (JSON).

Each command evaluates the chart once per grid it uses, and every check
on that grid shares one evaluation context.  Every JSON payload lists
those grids under ``grids`` and the jet order of the profiles under
``jet_order``: ``quadrature`` (the Gauss-Legendre node counts n and 2n of
chi, tau and p1), ``p1_sample`` (the n-point sample grid of the minimum
p1 integrand), ``sample`` (the 64-point grid of the Einstein residual,
the Nijenhuis tensor and, in a scan, the decomposition and the probe),
``check`` (the grid of the verify suites; in a report, of the
decomposition, Yang-Mills, self-duality, Killing and Weyl checks,
``--grid`` capped at 128) and ``probe`` (the grid of the probe command).

Floats are emitted with 17 significant digits and reductions use a fixed
summation order, so identical configurations produce identical bytes.
Float arrays are emitted row by row from ``tolist()``, with the same bytes
as element by element.
The environment variable SKEW_THREADS caps scan parallelism.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import os
import re
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import charts
from .charts import ChartError
from .connections import identity_suite
from .decomposition import decompose_point
from .evaluation import Evaluation
from .instanton import (
    gauge_equivalence_probe, killing_residual, self_duality_residual,
    yang_mills_density_check,
)
from .jets import DEFAULT_ORDER
from .moduli import acs_radial, nijenhuis_norm
from .topology import hitchin_thorpe_report
from .weyl import torsion_weyl_roundtrip

SCHEMA = 1
SAMPLE_GRID = 64  # grid of the report's sample checks and of the scan rows


def _fmt(x) -> str:
    x = float(x)
    if not math.isfinite(x):
        return '"' + repr(x) + '"'
    return format(x, ".17g")


def _to_jsonable(obj):
    """``obj`` with numpy scalars as Python numbers; arrays stay arrays, for
    :func:`_dump_json` to emit row by row."""
    if isinstance(obj, dict):
        return {str(k): _to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_to_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    return obj


def _dump_json(obj, indent: int = 0) -> str:
    """Deterministic JSON with fixed float formatting."""
    pad = " " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f'{pad}  "{k}": {_dump_json(v, indent + 2)}' for k, v in obj.items())
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, list):
        return "[" + ", ".join(_dump_json(v, indent) for v in obj) + "]"
    if isinstance(obj, np.ndarray):
        if obj.ndim == 1 and obj.dtype.kind == "f":
            return "[" + ", ".join(map(_fmt, obj.tolist())) + "]"
        if obj.ndim > 1:
            return "[" + ", ".join(_dump_json(row, indent) for row in obj) + "]"
        return _dump_json(obj.tolist(), indent)
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, float):
        return _fmt(obj)
    if isinstance(obj, int):
        return str(obj)
    return '"' + str(obj).replace("\\", "\\\\").replace('"', '\\"') + '"'


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _build_chart(args):
    """(chart, torsion 3-form) named by the chart options."""
    return charts.chart_and_torsion({"type": args.chart, "params": {
        "k": args.k, "b0": args.b0, "L": args.L, "seed": args.seed}})


def cmd_verify(args) -> int:
    chart, H = _build_chart(args)
    ev = Evaluation.on_grid(chart, H, args.grid)
    res = identity_suite(ev)
    rep = decompose_point(ev)
    res["reconstruction"] = rep.reconstruction_residual
    res["block_isometry"] = rep.block_residual
    failing = [k for k, v in res.items() if isinstance(v, float) and v > args.tol]
    payload = {
        "schema": SCHEMA,
        "command": "verify",
        "chart": chart.to_dict(),
        "grids": {"check": ev.pt.npoints},
        "jet_order": DEFAULT_ORDER,
        "tolerance": args.tol,
        "residuals": _to_jsonable(res),
        "failing": failing,
        "ok": not failing,
    }
    _emit(_dump_json(payload) + "\n", args.out)
    return 0 if not failing else 1


def cmd_report(args) -> int:
    chart, H = _build_chart(args)
    ev64 = Evaluation.on_grid(chart, H, SAMPLE_GRID)
    top = hitchin_thorpe_report(ev64, nodes=args.grid)
    ev = Evaluation.on_grid(chart, H, min(args.grid, 128))
    sd = {"plus": self_duality_residual(ev.plus.induced),
          "minus": self_duality_residual(ev.minus.induced)}
    payload = {
        "schema": SCHEMA,
        "command": "report",
        "chart": chart.to_dict(),
        "grids": {
            "quadrature": [args.grid, 2 * args.grid],
            "p1_sample": args.grid,
            "sample": ev64.pt.npoints,
            "check": ev.pt.npoints,
        },
        "jet_order": DEFAULT_ORDER,
        "topology": _to_jsonable(top.to_dict()),
        "decomposition": _to_jsonable(decompose_point(ev).summary()),
        "yang_mills": _to_jsonable({k: v for k, v in yang_mills_density_check(ev).items()
                                    if k != "density"}),
        "self_duality": _to_jsonable(sd),
        "killing": _to_jsonable(killing_residual(ev)),
        "weyl_roundtrip": _to_jsonable(torsion_weyl_roundtrip(ev)),
        "nijenhuis_radial": nijenhuis_norm(ev64.pt, acs_radial()),
    }
    _emit(_dump_json(payload) + "\n", args.out)
    return 0


def _scan_row(k: float, grid: int):
    try:
        chart, H = charts.bonneau_chart(k)
    except ChartError as exc:
        return {"k": k, "admissible": False, "reason": str(exc)}
    ev = Evaluation.on_grid(chart, H, SAMPLE_GRID)
    top = hitchin_thorpe_report(ev, nodes=grid)
    rep = decompose_point(ev)
    probe = gauge_equivalence_probe(ev)
    return {
        "k": k,
        "admissible": True,
        "einstein_residual": rep.einstein_residual,
        "reconstruction_residual": rep.reconstruction_residual,
        "chi": top.chi,
        "tau": top.tau,
        "margin": top.inequality_margin,
        "p1_lambda_plus": top.p1_lambda_plus,
        "probe_verdict": probe.verdict,
    }


def cmd_scan(args) -> int:
    ks = [args.k_min + i * args.k_step for i in
          range(int(round((args.k_max - args.k_min) / args.k_step)) + 1)]
    workers = os.environ.get("SKEW_THREADS")
    workers = max(1, int(workers)) if workers else min(8, os.cpu_count() or 1)
    with ThreadPoolExecutor(max_workers=workers) as ex:
        rows = list(ex.map(lambda k: _scan_row(k, args.grid), ks))
    rows.sort(key=lambda r: r["k"])

    if args.format == "json":
        grids = {"quadrature": [args.grid, 2 * args.grid], "p1_sample": args.grid,
                 "sample": SAMPLE_GRID}
        payload = {"schema": SCHEMA, "command": "scan", "grids": grids,
                   "jet_order": DEFAULT_ORDER, "rows": _to_jsonable(rows)}
        _emit(_dump_json(payload) + "\n", args.out)
    else:
        fields = ["k", "admissible", "einstein_residual", "reconstruction_residual",
                  "chi", "tau", "margin", "p1_lambda_plus", "probe_verdict", "reason"]
        buf = io.StringIO()
        w = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
        w.writeheader()
        for r in rows:
            w.writerow({f: (_fmt(v) if isinstance(v, float) else v)
                        for f, v in r.items()})
        _emit(buf.getvalue(), args.out)
    if not any(r["admissible"] for r in rows):
        sys.stderr.write("warning: no admissible k in the scanned range\n")
    return 0


def cmd_probe(args) -> int:
    chart, H = _build_chart(args)
    ev = Evaluation.on_grid(chart, H, args.grid)
    rep = gauge_equivalence_probe(ev)
    payload = {
        "schema": SCHEMA,
        "command": "probe",
        "chart": chart.to_dict(),
        "grids": {"probe": ev.pt.npoints},
        "jet_order": DEFAULT_ORDER,
        "result": _to_jsonable(rep.summary()),
        "singular_values": _to_jsonable(rep.singular_values),
    }
    _emit(_dump_json(payload) + "\n", args.out)
    return 0


class _Parser(argparse.ArgumentParser):
    """Reads negative values in exponent form (``--k -7.8e-05``) as values.

    argparse before Python 3.13 takes only ``-1`` and ``-.5`` shapes for
    negative numbers and reads ``-7.8e-05`` as an unknown flag.  No option
    of this parser looks like a number, so widening the pattern is safe;
    subparsers inherit the class.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def _parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="skewtorsion",
        description="verification and reports for skew-torsion geometry on "
                    "cohomogeneity-one 4-manifolds")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, chart=True):
        if chart:
            sp.add_argument("--chart", required=True,
                            choices=["bonneau", "round", "product", "flat", "random"])
            sp.add_argument("--k", type=float, default=0.0)
            sp.add_argument("--b0", type=float, default=1.0)
            sp.add_argument("--L", type=float, default=1.0)
            sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--grid", type=int, default=256)
        sp.add_argument("--tol", type=float, default=1e-9)
        sp.add_argument("--out", default=None)
        sp.add_argument("--format", choices=["json", "csv"], default="json")

    common(sub.add_parser("verify", help="run the identity suites"))
    common(sub.add_parser("report", help="topology and decomposition report"))
    sp = sub.add_parser("scan", help="sweep the S^4 family parameter")
    sp.add_argument("--k-min", type=float, default=-1.0)
    sp.add_argument("--k-max", type=float, default=1.0)
    sp.add_argument("--k-step", type=float, default=0.25)
    common(sp, chart=False)
    common(sub.add_parser("probe", help="gauge-equivalence probe for +-H"))
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.grid < 16:
        sys.stderr.write("error: --grid must be at least 16\n")
        return 2
    if args.tol <= 0:
        sys.stderr.write("error: --tol must be positive\n")
        return 2
    try:
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "report":
            return cmd_report(args)
        if args.command == "scan":
            return cmd_scan(args)
        if args.command == "probe":
            return cmd_probe(args)
    except ChartError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
