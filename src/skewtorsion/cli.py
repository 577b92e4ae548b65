"""Command-line surface: verification suites, reports, parameter scans.

Subcommands:
  verify  run the identity and reconstruction suites on a chart; exit 0
          iff every residual is below ``--tol``, 1 on residual failure.
  report  topological and decomposition report for a chart (JSON).
  scan    sweep the S^4 family parameter k and emit one row per value,
          as JSON or, with ``--format csv``, as CSV.
  probe   gauge-equivalence probe of the +-H pair (JSON).

Every subcommand takes ``--grid`` and ``--out``; each other option
belongs to the subcommands that read it.  ``--grid`` is the grid of the
checks for ``verify`` and ``probe``, the quadrature node count n for
``report`` and ``scan``.

Every command exits 2, with one ``error: ...`` line on stderr and nothing
on stdout, on a bad option value, a chart it cannot build or whose
brackets or integrands overflow, and an ``--out`` it cannot write.

Each command evaluates the chart and H once, on the concatenation of
every grid it reads (``evaluation.Grids``), and cuts each grid's
evaluation context from it when a check reads it; every check on a grid
shares that grid's context.  Every JSON payload starts with one header
(:func:`_emit_json`): ``schema``, ``command``, ``chart`` (not in a scan),
the grids under ``grids``, the jet order of the profiles under
``jet_order`` and the package and numpy versions under ``provenance``.
The grids are ``quadrature`` (the Gauss-Legendre node counts: 2n for chi,
tau and p1, and in a report n for their error estimates), ``p1_sample``
(in a report, the n-point sample grid of the minimum p1 integrand),
``sample`` (the 64-point grid of the Einstein residual, the Nijenhuis
tensor and, in a scan, the decomposition and the probe), ``check`` (the
grid of the verify suites; in a report, of the decomposition,
Yang-Mills, self-duality, Killing and Weyl checks, ``--grid`` capped at
128) and ``probe`` (the grid of the probe command).  A scan row reads
chi, tau, p1 and the margin alone (``topology.chern_weil_rows``), so it
evaluates neither the n nodes nor the p1 sample grid, and reads its
Einstein residual from the per-point Einstein norm that its
reconstruction residual's context builds.

Every check returns per-point arrays, the grid axis last.  The checks
that work point by point run tile by tile, on slices of at most
``evaluation.TILE`` (512) points, each tile a context of its own cut from
the one evaluation of the grids, and their arrays are joined over the
tiles (``Evaluation.per_point``).  Each payload reduces an array to the
number it prints by ``evaluation.sup``, and decides whether H is closed
by ``evaluation.closed``.  So the output is that of one context on the
whole grid, in the memory of one tile.

``scan`` emits k = k_min + i k_step up to ``--k-max``, which a value may
pass by a few ulps, so that ``--k-max`` written as k_min + m k_step gives
m + 1 rows; ``--k-min`` above ``--k-max``, or a range of MAX_SCAN_ROWS
steps or more, exits 2.  A scan runs in blocks of rows of at most
``SCAN_BLOCK_NODES`` nodes (14 rows at ``--grid 256``), so its memory does
not grow with its length.  A block runs one positivity scan of the
conformal factor W, for all its k at once (``charts.bonneau_charts``);
a k that fails it is refused with the text ``bonneau_chart`` gives for
that k alone.  The grids of the admissible rows are evaluated together
by one chart over the rows' parameters (``charts.bonneau_rows``) and
read, tile by tile, as two contexts: one on every row's sample grid, one
on every row's rule of 2n nodes.  Each row then reduces its own slice
``a[..., s]`` of their per-point arrays, serially, with the bits of
contexts of its own; its probe verdict reads the row's points, cut from
the sample context (``FramePoint.__getitem__``), with its slice of the
probe's spectrum and orbit terms.

Floats are emitted with 17 significant digits and reductions use a fixed
summation order, so identical configurations produce identical bytes.
No payload holds a per-node array: the probe prints its verdict's
``result`` and a two-key ``spectrum`` summary
(:meth:`~skewtorsion.instanton.GaugeProbeReport.spectrum`), and an array
anywhere is emitted as its ``tolist()``.  ``main`` raises glibc's malloc
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
# no command starts a thread: the benchmark harness's observe() patches this
# binding by name, until ROADMAP items 5a and 5b remove it
from concurrent.futures import ThreadPoolExecutor  # noqa: F401

import numpy as np

from . import __version__, charts
from .charts import ChartError, FramePoint
from .connections import identity_suite
from .decomposition import decompose_point
from .evaluation import Evaluation, Grids, closed, sup
from .instanton import (
    _intertwiner_spectrum, gauge_equivalence_probe, killing_residual,
    probe_verdict, self_duality_residual, yang_mills_density_check,
)
from .jets import DEFAULT_ORDER
from .moduli import J_RADIAL, nijenhuis_norm
from .topology import SAMPLE_GRID, chern_weil_rows, hitchin_thorpe_report, report_grids
from .weyl import CLOSING_SIGN, torsion_weyl_roundtrip

SCHEMA = 1
MAX_SCAN_ROWS = 10_000  # a longer scan exits 2 before any row runs
# most nodes in one evaluation of scan rows: a longer scan runs in blocks
# of rows, so that the memory it holds does not grow with its length.  A
# 201-row scan at --grid 256 (576 nodes a row) peaks at 41 MB RSS in
# blocks of 2 to 4 rows, 48.7 MB in blocks of 14 and 51 MB in blocks of
# 28 (x86_64, numpy 2.4); a smaller block pays the per-context cost that
# the two contexts of a block share out, and 14 rows hold a 9-row scan
SCAN_BLOCK_NODES = 8192


def _fmt(x) -> str:
    x = float(x)
    if not math.isfinite(x):
        return '"' + repr(x) + '"'
    return format(x, ".17g")


def _to_jsonable(obj):
    """``obj`` as a Python value if it is a numpy bool, integer or floating
    value, else as it is: the leaf step of :func:`_dump_json`."""
    if isinstance(obj, np.floating):  # float(), as item() keeps a longdouble
        return float(obj)
    if isinstance(obj, (np.bool_, np.integer)):
        return obj.item()
    return obj


def _dump_json(obj, indent: int = 0) -> str:
    """Deterministic JSON with fixed float formatting, in one walk: tuples
    are lists, and every other leaf passes :func:`_to_jsonable`."""
    pad = " " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f'{pad}  "{k}": {_dump_json(v, indent + 2)}' for k, v in obj.items())
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_dump_json(v, indent) for v in obj) + "]"
    if isinstance(obj, np.ndarray):
        return _dump_json(obj.tolist(), indent)
    obj = _to_jsonable(obj)
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, float):
        return _fmt(obj)
    if isinstance(obj, int):
        return str(obj)
    return '"' + str(obj).replace("\\", "\\\\").replace('"', '\\"') + '"'


class _UsageError(Exception):
    """A bad option value, or an ``--out`` that cannot be written: exit 2."""


def _emit(text: str, out_path: str | None):
    if not out_path:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise _UsageError(f"cannot write --out {out_path}: {exc.strerror}") from None


def _emit_json(args, command: str, grids: dict, chart=None, **body):
    """Emit one JSON payload: the header every command shares, then ``body``
    in order."""
    payload = {"schema": SCHEMA, "command": command}
    if chart is not None:
        payload["chart"] = chart.to_dict()
    payload.update(grids=grids, jet_order=DEFAULT_ORDER,
                   provenance={"skewtorsion": __version__, "numpy": np.__version__},
                   **body)
    _emit(_dump_json(payload) + "\n", args.out)


def _build_chart(args):
    """(chart, torsion 3-form) named by the chart options."""
    return charts.chart_and_torsion({"type": args.chart, "params": {
        "k": args.k, "b0": args.b0, "L": args.L, "seed": args.seed}})


def _verify_residuals(ev: Evaluation) -> dict:
    """The identity suite's and the decomposition's residuals: their
    per-point arrays on the whole grid, reduced.  ``pair_swap_closed`` is
    kept only if H is closed on the grid."""
    def arrays(tile):
        res = identity_suite(tile)  # first: its peak holds none of the decomposition
        dec = decompose_point(tile)
        return {**res, "reconstruction": dec["reconstruction_residual"],
                "block_isometry": dec["block_residual"], "dH": killing_residual(tile)["dH_sup"]}

    res = ev.per_point(arrays)
    if not closed(res.pop("dH")):
        del res["pair_swap_closed"]
    return sup(res)


def cmd_verify(args) -> int:
    chart, H = _build_chart(args)
    ev = Evaluation.on_grid(chart, H, args.grid)
    res = _verify_residuals(ev)
    # a NaN residual is not below tolerance
    failing = [k for k, v in res.items() if not v <= args.tol]
    _emit_json(args, "verify", {"check": ev.pt.npoints}, chart, tolerance=args.tol,
               residuals=res, failing=failing, ok=not failing)
    return 1 if failing else 0


def cmd_report(args) -> int:
    chart, H = _build_chart(args)
    check = min(args.grid, 128)  # at --grid 64, the sample grid's context
    grids = report_grids(chart, H, args.grid, None if check == SAMPLE_GRID else check)
    ev64 = grids["sample"]
    top = hitchin_thorpe_report(ev64, grids)
    ev = ev64 if check == SAMPLE_GRID else grids["check"]
    s, killing = ev.plus.scalar, killing_residual(ev)
    _emit_json(
        args, "report", {"quadrature": [args.grid, 2 * args.grid], "p1_sample": args.grid,
                         "sample": ev64.pt.npoints, "check": ev.pt.npoints}, chart,
        topology=top,
        decomposition={**sup(decompose_point(ev)),
                       "s_nabla_range": [float(s.min()), float(s.max())]},
        yang_mills=sup(yang_mills_density_check(ev)),
        self_duality=sup({"plus": self_duality_residual(ev.plus.induced),
                          "minus": self_duality_residual(ev.minus.induced)}),
        killing={**sup(killing), "closed": closed(killing["dH_sup"])},
        weyl_roundtrip={"closing_sign": CLOSING_SIGN, **sup(torsion_weyl_roundtrip(ev))},
        nijenhuis_radial=nijenhuis_norm(ev64.pt, J_RADIAL))
    return 0


def _scan_row(k: float, top: dict, pt: FramePoint, sample: tuple) -> dict:
    """The row of an admissible k, from its chi, tau, p1 and margin ``top``,
    its sample grid's points ``pt`` and its slice ``sample`` of the block's
    per-point Einstein norm, reconstruction residual and probe arrays
    (``instanton._intertwiner_spectrum``)."""
    t_norm, recon, *spectrum = sample
    return {
        "k": k,
        "admissible": True,
        "einstein_residual": sup(t_norm),
        "reconstruction_residual": sup(recon),
        "chi": top["chi"],
        "tau": top["tau"],
        "margin": top["margin"],
        "p1_lambda_plus": top["p1_lambda_plus"],
        "probe_verdict": probe_verdict(pt, *spectrum).verdict,
    }


def _scan_block(ks: list, grid: int) -> list:
    """The rows of ``ks``: each k's chart, from one positivity scan of
    every k (``charts.bonneau_charts``), refuses its row or gives its
    grids.  The grids of the admissible rows are evaluated together, every
    sample grid first and every rule of 2n nodes after, so that each kind
    is one context."""
    rows, admitted = {}, {}
    for i, (k, built) in enumerate(zip(ks, charts.bonneau_charts(ks))):
        if isinstance(built, ChartError):
            rows[i] = {"k": k, "admissible": False, "reason": str(built)}
        else:
            admitted[i], _ = built
    if admitted:
        m = len(admitted)
        points = {(i, "sample"): chart.sample_grid(SAMPLE_GRID) for i, chart in admitted.items()}
        points.update({(i, "rule"): chart.quadrature(2 * grid) for i, chart in admitted.items()})
        grids = Grids(*charts.bonneau_rows(2 * [ks[i] for i in admitted],
                                           [SAMPLE_GRID] * m + [2 * grid] * m), points)
        split = m * SAMPLE_GRID
        tops = chern_weil_rows(grids.union[split:],
                               np.concatenate([grids.weights[i, "rule"] for i in admitted]), m)
        sample = grids.union[:split]
        arrays = sample.per_point(lambda tile: (
            tile.einstein_norm(), decompose_point(tile)["reconstruction_residual"],
            *_intertwiner_spectrum(tile)))
        for j, i in enumerate(admitted):
            s = slice(j * SAMPLE_GRID, (j + 1) * SAMPLE_GRID)
            rows[i] = _scan_row(ks[i], tops[j], sample.pt[s], tuple(a[..., s] for a in arrays))
    return [rows[i] for i in range(len(ks))]


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
    per_block = max(1, SCAN_BLOCK_NODES // (SAMPLE_GRID + 2 * args.grid))
    rows = []
    for start in range(0, len(ks), per_block):
        rows += _scan_block(ks[start:start + per_block], args.grid)

    if args.format == "json":
        # a row reads chi, tau and p1 alone, which the rule of 2n nodes gives
        _emit_json(args, "scan", {"quadrature": [2 * args.grid], "sample": SAMPLE_GRID},
                   rows=rows)
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
    _emit_json(args, "probe", {"probe": ev.pt.npoints}, chart,
               result=rep.summary(), spectrum=rep.spectrum())
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

    Each tile of ``evaluation.TILE`` points frees 4 to 7 MB, which glibc
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
    try:
        if args.grid < 16:
            raise _UsageError("--grid must be at least 16")
        if args.command == "verify" and not args.tol > 0:  # NaN too
            raise _UsageError("--tol must be positive")
        if args.command == "scan":
            if not (math.isfinite(args.k_step) and args.k_step > 0):
                raise _UsageError("--k-step must be finite and positive")
            if not (math.isfinite(args.k_min) and math.isfinite(args.k_max)):
                raise _UsageError("--k-min and --k-max must be finite")
            if args.k_min > args.k_max:
                raise _UsageError("--k-min must not exceed --k-max")
            # a tiny step, or a range near the float limit, gives inf here
            if (args.k_max - args.k_min) / args.k_step >= MAX_SCAN_ROWS:
                raise _UsageError(f"the scan range spans {MAX_SCAN_ROWS} or more "
                                  "steps; raise --k-step")
        # before any work; _emit reports what only the write shows
        if args.out and (os.path.isdir(args.out)
                         or not os.path.isdir(os.path.dirname(args.out) or ".")):
            raise _UsageError(f"cannot write --out {args.out}: "
                              "it is a directory or its directory does not exist")
        # looked up at call time, so that a patched cmd_* is the one run
        return globals()["cmd_" + args.command](args)
    except (ChartError, _UsageError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
