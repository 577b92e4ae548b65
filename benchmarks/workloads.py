"""Workload definitions: operation streams drawn from a seed, and checks.

Each workload is an endless stream of operations for one closed-loop
client.  Parameters are drawn by stratified sampling (a random permutation
of equal-width strata, one uniform draw inside each), so every run covers
the parameter range evenly and run medians do not depend on which corner
of the range a seed happens to favour.

Every operation gets a freshly drawn chart, so caching results across
operations gains nothing; grids repeat, as they do for real users, so
caching what depends only on the grid can help.  The parameter-free round
S^4 is the one chart that repeats (one coarse operation in eight, one
analysis report in six); ``fine`` leaves it out (see ``FINE_MIX``).

Roles: each workload reports two latency metrics, ``op1`` and ``op2``.

=========  ======================  ====================================
workload   op1                     op2
=========  ======================  ====================================
coarse     ``verify --grid 64``    ``probe --grid 64``
fine       ``verify --grid 4096``  ``probe --grid 4096``
analysis   ``report`` (grid 256)   ``moduli.asymptotic_check(k)``
scan       9-row ``scan`` window   1-row ``scan`` (serial baseline, 2 per window)
=========  ======================  ====================================
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("coarse", "fine", "analysis", "scan")

K_RANGE = (-2.0, 2.0)
STRATA = 8

# acceptance tolerances of the package's own test suite
CHI_S4, TAU_TOL, P1_S4 = 2.0, 1e-8, 4.0
CHI_TOL_S4, P1_TOL_S4, ZERO_TOL = 1e-6, 1e-4, 1e-8
SLOPE_TOL = 0.01
EINSTEIN_TOL = 1e-8
KERNEL_ONE_MIN = 0.95
SCAN_PROBE_GRID = 64    # scan probes at 64 nodes whatever --grid says
VERDICTS = ("equivalent", "inequivalent", "inconclusive")

# charts whose manifold is S^4; the periodic charts are S^1 x S^3 or T^4
S4_CHARTS = ("bonneau", "round")


@dataclass
class Op:
    """One operation of a workload: a CLI call or an asymptotic check."""

    command: str            # verify | probe | report | radial | scan
    role: int               # 1 or 2: which latency metric it feeds
    chart: str              # chart type, "bonneau" for radial and scan
    argv: list = field(default_factory=list)
    k: float = 0.0          # Bonneau parameter of a radial check
    rows: int = 0           # expected rows of a scan
    grid: int = 0           # grid requested


class _Stratified:
    """Uniform draws on [lo, hi), one per stratum in shuffled blocks."""

    def __init__(self, rng, lo, hi, strata=STRATA):
        self.rng, self.lo, self.hi, self.strata = rng, lo, hi, strata
        self._block = []

    def __call__(self) -> float:
        if not self._block:
            w = (self.hi - self.lo) / self.strata
            self._block = [self.lo + w * (s + self.rng.uniform())
                           for s in self.rng.permutation(self.strata)]
        return float(self._block.pop())


def _opt(name: str, value) -> str:
    """``--name=value``: argparse reads "-7e-05" after a space as a flag."""
    return f"--{name}={value!r}"


def _chart_args(kind: str, draw: dict) -> list:
    if kind == "bonneau":
        return ["--chart", "bonneau", _opt("k", draw["k"]())]
    if kind == "random":
        return ["--chart", "random", _opt("seed", int(draw["rng"].integers(1 << 31)))]
    if kind == "product":
        return ["--chart", "product", _opt("b0", draw["b0"]()), _opt("L", draw["L"]())]
    if kind == "flat":
        return ["--chart", "flat", _opt("L", draw["L"]())]
    return ["--chart", "round"]


# chart types cycled by coarse and fine, each drawn afresh for verify and
# again for probe; Bonneau (the paper's family) and random charts dominate
MIX = ("bonneau", "random", "product", "bonneau", "random", "flat", "bonneau", "round")
# fine leaves out the round S^4: there `verify --grid 4096` exits 1, since
# its residuals are absolute and the frame curvature near the poles grows
# like the inverse square of the node spacing (2e-9 to 6e-9 against 1e-9)
FINE_MIX = tuple(kind for kind in MIX if kind != "round")


def operations(workload: str, seed: int):
    """Endless stream of :class:`Op` for ``workload``, reproducible from seed."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    draw = {"rng": rng, "k": _Stratified(rng, *K_RANGE),
            "b0": _Stratified(rng, 0.5, 2.0), "L": _Stratified(rng, 0.5, 5.0)}
    i = 0
    if workload in ("coarse", "fine"):
        grid, mix = (64, MIX) if workload == "coarse" else (4096, FINE_MIX)
        while True:
            kind = mix[i % len(mix)]
            i += 1
            for role, command in ((1, "verify"), (2, "probe")):
                yield Op(command, role, kind,
                         [command] + _chart_args(kind, draw) + [_opt("grid", grid)],
                         grid=grid)
    elif workload == "analysis":
        while True:
            k = draw["k"]()
            yield Op("report", 1, "bonneau", ["report", "--chart", "bonneau", _opt("k", k)],
                     grid=256)
            yield Op("radial", 2, "bonneau", k=k)
            i += 1
            if i % 2 == 0:
                kind = "round" if i % 4 == 0 else "random"
                yield Op("report", 1, kind, ["report"] + _chart_args(kind, draw), grid=256)
    elif workload == "scan":
        lo, hi = K_RANGE
        while True:
            for _ in range(2):
                k = draw["k"]()
                yield Op("scan", 2, "bonneau",
                         ["scan", _opt("k-min", k), _opt("k-max", k), _opt("k-step", 1.0),
                          "--format", "csv"], rows=1, grid=256)
            step = float(rng.uniform(0.1, 0.5))
            k_min = float(rng.uniform(lo, hi - 8 * step))
            yield Op("scan", 1, "bonneau",
                     ["scan", _opt("k-min", k_min), _opt("k-max", k_min + 8 * step),
                      _opt("k-step", step), "--format", "csv"], rows=9, grid=256)
    else:
        raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# output checks (run outside the timed region)
# ---------------------------------------------------------------------------


class CheckError(Exception):
    """An operation's output violates an acceptance tolerance."""


def _require(cond: bool, what: str):
    if not cond:
        raise CheckError(what)


def check(op: Op, rc, out: str, verdicts: dict):
    """Raise :class:`CheckError` unless the output of ``op`` is correct.

    Probe verdicts are tallied into ``verdicts[grid][chart][verdict]``;
    they are recorded, not checked (the verdict depends on the grid).
    """
    if op.command == "radial":
        for key in ("slope_at_k", "slope_at_minus_infinity"):
            _require(abs(out[key] - 1.0) <= SLOPE_TOL, f"{key} = {out[key]!r}")
        _require(out["monotone"] is True, "R not monotone")
        return
    _require(rc == 0, f"exit code {rc}")
    if op.command == "scan":
        rows = list(csv.DictReader(io.StringIO(out)))
        _require(len(rows) == op.rows, f"{len(rows)} rows, expected {op.rows}")
        for r in rows:
            _require(r["admissible"] == "True", f"k={r['k']} not admissible")
            _require(float(r["einstein_residual"]) <= EINSTEIN_TOL,
                     f"k={r['k']} Einstein residual {r['einstein_residual']}")
            _tally(verdicts, SCAN_PROBE_GRID, "bonneau", r["probe_verdict"])
        return
    payload = json.loads(out)
    _require(payload["command"] == op.command, "wrong command in payload")
    if op.command == "verify":
        _require(payload["ok"] is True, f"failing residuals {payload['failing']}")
    elif op.command == "probe":
        res = payload["result"]
        _require(res["verdict"] in VERDICTS, f"verdict {res['verdict']!r}")
        if op.chart == "bonneau":
            _require(res["kernel_dim_one_fraction"] >= KERNEL_ONE_MIN,
                     f"kernel-dim-1 fraction {res['kernel_dim_one_fraction']}")
        _tally(verdicts, op.grid, op.chart, res["verdict"])
    elif op.command == "report":
        top = payload["topology"]
        chi, tau, p1 = top["chi"], top["tau"], top["p1_lambda_plus"]
        if op.chart in S4_CHARTS:
            _require(abs(chi - CHI_S4) <= CHI_TOL_S4, f"chi = {chi!r}")
            _require(abs(tau) <= TAU_TOL, f"tau = {tau!r}")
            _require(abs(p1 - P1_S4) <= P1_TOL_S4, f"p1 = {p1!r}")
            _require(top["satisfied"] is True, "2 chi >= 3 |tau| not satisfied")
        else:
            for name, v in (("chi", chi), ("tau", tau), ("p1", p1)):
                _require(abs(v) <= ZERO_TOL, f"{name} = {v!r}")


def _tally(verdicts: dict, grid: int, chart: str, verdict: str):
    by_chart = verdicts.setdefault(str(grid), {}).setdefault(chart, {})
    by_chart[verdict] = by_chart.get(verdict, 0) + 1
