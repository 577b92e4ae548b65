"""Command-line surface: verification suites, reports, parameter scans.

Subcommands:
  verify  run the identity and reconstruction suites on a chart; exit 0
          iff every residual is below ``--tol``, 1 on residual failure,
          2 on bad parameters or an ``--out`` that cannot be written.
  report  topological and decomposition report for a chart (JSON).
  scan    sweep the S^4 family parameter k and emit one row per value,
          as JSON or, with ``--format csv``, as CSV.
  probe   gauge-equivalence probe of the +-H pair (JSON).

Every subcommand takes ``--grid`` and ``--out``; each other option
belongs to the subcommands that read it.  ``--grid`` is the grid of the
checks for ``verify`` and ``probe``, the quadrature node count n for
``report`` and ``scan``.

Each command evaluates the chart once per grid it uses, and every check
on that grid shares one evaluation context.  Every JSON payload lists
those grids under ``grids`` and the jet order of the profiles under
``jet_order``: ``quadrature`` (the Gauss-Legendre node counts: 2n for
chi, tau and p1, and in a report n for their error estimates),
``p1_sample`` (in a report, the n-point sample grid of the minimum p1
integrand, evaluated with the n nodes as one batch), ``sample`` (the
64-point grid of the Einstein residual, the Nijenhuis tensor and, in a
scan, the decomposition and the probe), ``check`` (the grid of the
verify suites; in a report, of the decomposition, Yang-Mills,
self-duality, Killing and Weyl checks, ``--grid`` capped at 128) and
``probe`` (the grid of the probe command).  A scan row reads chi, tau
and p1 alone, so it evaluates neither the n nodes nor the p1 sample grid.

The checks that work point by point run on a grid of more than
``evaluation.TILE`` (512) points tile by tile, each tile a context of its
own cut from the one evaluation of the grid: ``verify`` merges the tiles'
residuals by max, the probe and the report's quadrature join the tiles'
per-point arrays before they reduce them.  So the output is that of one
context on the whole grid, in the memory of one tile.

``scan`` emits k = k_min + i k_step up to ``--k-max``, which a value may
pass by a few ulps, so that ``--k-max`` written as k_min + m k_step gives
m + 1 rows; ``--k-min`` above ``--k-max``, or a range of MAX_SCAN_ROWS
steps or more, exits 2.  The rows run on a pool of min(8, CPUs) threads.

Floats are emitted with 17 significant digits and reductions use a fixed
summation order, so identical configurations produce identical bytes.
A float array is emitted in one pass: one ``%`` applies a template of
``%.17g`` fields, shaped like the array, to its flattened ``tolist()``, and
the non-finite fields are then quoted, so the bytes are those of the
element-by-element format of scalars.  ``main`` raises glibc's malloc
trim and mmap thresholds once per process, so that the memory one tile
frees serves the next (:func:`_keep_freed_memory`).
"""

from __future__ import annotations

import argparse
import csv
import functools
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
MAX_SCAN_ROWS = 10_000  # a longer scan exits 2 before any row runs


def _fmt(x) -> str:
    x = float(x)
    if not math.isfinite(x):
        return '"' + repr(x) + '"'
    return format(x, ".17g")


_NON_FINITE = re.compile(r"-?(?:nan|inf)")


def _float_array(arr: np.ndarray) -> str:
    """A float array as nested JSON lists, with the bytes of :func:`_fmt`
    per element: one ``%`` over a template of ``%.17g`` fields shaped like
    the array.  A finite field never holds an ``n``, so the non-finite
    ones are found in the text and quoted there."""
    template = "%.17g"
    for size in reversed(arr.shape):
        template = "[" + ", ".join([template] * size) + "]"
    text = template % tuple(arr.ravel().tolist())
    if "n" in text:
        text = _NON_FINITE.sub(r'"\g<0>"', text)
    return text


def _to_jsonable(obj):
    """``obj`` with numpy scalars as Python numbers; arrays stay arrays, for
    :func:`_dump_json` to emit in one pass."""
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
        if obj.dtype.kind == "f":
            return _float_array(obj)
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


class _OutError(Exception):
    """``--out`` names a path that cannot be written."""


def _emit(text: str, out_path: str | None):
    if not out_path:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise _OutError(f"cannot write --out {out_path}: {exc.strerror}") from None


def _build_chart(args):
    """(chart, torsion 3-form) named by the chart options."""
    return charts.chart_and_torsion({"type": args.chart, "params": {
        "k": args.k, "b0": args.b0, "L": args.L, "seed": args.seed}})


def _verify_residuals(ev: Evaluation) -> dict:
    """The identity suite's and the decomposition's residuals, run tile by
    tile and merged by max.  A key is kept only if every tile reports it:
    ``pair_swap_closed`` needs sup |dH| <= 1e-10, which holds on the grid
    exactly when it holds on every tile."""
    per_tile = []
    for tile in ev.tiles():
        res = identity_suite(tile)
        rep = decompose_point(tile)
        res["reconstruction"] = rep.reconstruction_residual
        res["block_isometry"] = rep.block_residual
        per_tile.append(res)
    return {k: float(np.max([r[k] for r in per_tile])) for k in per_tile[0]
            if all(k in r for r in per_tile)}


def cmd_verify(args) -> int:
    chart, H = _build_chart(args)
    ev = Evaluation.on_grid(chart, H, args.grid)
    res = _verify_residuals(ev)
    # a NaN residual is not below tolerance
    failing = [k for k, v in res.items() if not v <= args.tol]
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


def _scan_values(k_min: float, k_max: float, k_step: float) -> list:
    """k_min + i k_step for i = 0, 1, ... while the value is at most k_max.

    A value may pass k_max by four ulps of max(|k_min|, |k_max|), so that
    a range whose k_max is written as k_min + m k_step has m + 1 values
    however the sums round.
    """
    limit = k_max + 4.0 * math.ulp(max(abs(k_min), abs(k_max)))
    ks = (k_min + i * k_step for i in range(math.floor((k_max - k_min) / k_step) + 2))
    return [k for k in ks if k <= limit]


def cmd_scan(args) -> int:
    ks = _scan_values(args.k_min, args.k_max, args.k_step)
    with ThreadPoolExecutor(max_workers=min(8, os.cpu_count() or 1)) as ex:
        rows = list(ex.map(lambda k: _scan_row(k, args.grid), ks))
    rows.sort(key=lambda r: r["k"])

    if args.format == "json":
        # a row reads chi, tau and p1 alone, which the rule of 2n nodes gives
        grids = {"quadrature": [2 * args.grid], "sample": SAMPLE_GRID}
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
    """Reads negative values in exponent form (``--k -7.8e-05``) and the
    negative non-finite floats (``-inf``, ``-infinity``, ``-nan`` in any
    case) as values, so that the parameter checks reject them by name.

    argparse before Python 3.13 takes only ``-1`` and ``-.5`` shapes for
    negative numbers and reads ``-7.8e-05`` or ``-inf`` as an unknown flag.
    No option of this parser looks like a number, so widening the pattern
    is safe; subparsers inherit the class.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-((\d+\.?\d*|\.\d+)([eE][-+]?\d+)?|(?i:inf|infinity|nan))$")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every
    later call; callers parse with it and do not change it."""
    p = _Parser(
        prog="skewtorsion",
        description="verification and reports for skew-torsion geometry on "
                    "cohomogeneity-one 4-manifolds")
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, help, chart=True):
        sp = sub.add_parser(name, help=help)
        if chart:
            sp.add_argument("--chart", required=True,
                            choices=["bonneau", "round", "product", "flat", "random"])
            sp.add_argument("--k", type=float, default=0.0)
            sp.add_argument("--b0", type=float, default=1.0)
            sp.add_argument("--L", type=float, default=1.0)
            sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--grid", type=int, default=256)
        sp.add_argument("--out", default=None)
        return sp

    command("verify", "run the identity suites").add_argument(
        "--tol", type=float, default=1e-9)
    command("report", "topology and decomposition report")
    sp = command("scan", "sweep the S^4 family parameter", chart=False)
    sp.add_argument("--k-min", type=float, default=-1.0)
    sp.add_argument("--k-max", type=float, default=1.0)
    sp.add_argument("--k-step", type=float, default=0.25)
    sp.add_argument("--format", choices=["json", "csv"], default="json")
    command("probe", "gauge-equivalence probe for +-H")
    return p


# mallopt(3) parameters of glibc
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


@functools.cache
def _keep_freed_memory() -> None:
    """Let malloc keep the memory a fine grid's tiles free for the next tile.

    Each tile of ``evaluation.TILE`` points frees about 11 MB, which glibc
    by default trims back to the system or unmaps, so the next tile
    faults the same pages in again.  Both thresholds are set, because
    setting one turns off glibc's dynamic thresholds.  Where libc has no
    ``mallopt`` nothing changes.  Runs once per process.
    """
    import ctypes
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(_M_TRIM_THRESHOLD, 256 << 20)
        mallopt(_M_MMAP_THRESHOLD, 32 << 20)


def main(argv=None) -> int:
    _keep_freed_memory()
    args = _parser().parse_args(argv)
    if args.grid < 16:
        sys.stderr.write("error: --grid must be at least 16\n")
        return 2
    if args.command == "verify" and not args.tol > 0:  # NaN too
        sys.stderr.write("error: --tol must be positive\n")
        return 2
    if args.command == "scan":
        if not (math.isfinite(args.k_step) and args.k_step > 0):
            sys.stderr.write("error: --k-step must be finite and positive\n")
            return 2
        if not (math.isfinite(args.k_min) and math.isfinite(args.k_max)):
            sys.stderr.write("error: --k-min and --k-max must be finite\n")
            return 2
        if args.k_min > args.k_max:
            sys.stderr.write("error: --k-min must not exceed --k-max\n")
            return 2
        # a tiny step, or a range near the float limit, gives inf here
        if (args.k_max - args.k_min) / args.k_step >= MAX_SCAN_ROWS:
            sys.stderr.write(f"error: the scan range spans {MAX_SCAN_ROWS} or more "
                             "steps; raise --k-step\n")
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
    except (ChartError, _OutError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
