"""Per-command counts of the pipeline stages.

Each command evaluates the chart once, on every grid it reads, and cuts
one evaluation context per grid from it; a context builds each connection
and curvature once, so these counts are fixed by the commands' grids: a
recomputation shows up as a larger count.  A curvature is built on its six
index pairs (``structure``), from which the operator, the Ricci tensor
(hence the scalar and Z) and the identity suite read; no command scatters
the 4-index tensor (``curvature``), whose count is 0 throughout.
"""

import contextlib
import io
import sys

import numpy as np
import pytest

from skewtorsion import charts, cli, connections, decomposition, frame, jets
from skewtorsion.evaluation import Evaluation
from skewtorsion.moduli import asymptotic_check
from skewtorsion.weyl import einstein_weyl_residual

STAGES = {
    # the structure equation, once per curvature tensor and once per induced
    # Lambda+ connection
    "structure": (connections, "_structure_equation"),
    "curvature": (connections, "curvature"),
    "operator": (frame, "operator_from_tensor"),
    "levi_civita": (connections, "levi_civita"),
    "chart.at": (charts.InvariantChart, "at"),
    "quadrature": (charts.InvariantChart, "quadrature"),
    # the Bonneau conformal factor W and the sin/cos series recurrences,
    # evaluated once per point batch
    "omega2": (charts.BonneauFamily, "omega2"),
    "sincos": (jets, "sincos"),
    # the probe's spectrum: one QR of the 54x9 systems and one SVD of their
    # 9x9 triangular factors per chunk of at most 128 nodes of a tile
    # (``instanton._CHUNK``), and no other caller
    "qr": (np.linalg, "qr"),
    "svd": (np.linalg, "svd"),
    # the Einstein-with-torsion tensor, either sign
    "einstein": (decomposition, "einstein_tensor_point"),
}


@pytest.fixture
def stage_counts(monkeypatch):
    """Counts calls of each stage, through every name the package binds it to."""
    counts = dict.fromkeys(STAGES, 0)
    spaces = [m for n, m in list(sys.modules.items())
              if n == "skewtorsion" or n.startswith("skewtorsion.")]
    for name, (owner, attr) in STAGES.items():
        fn = getattr(owner, attr)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        for space in [owner] + spaces:
            for key, value in list(vars(space).items()):
                if value is fn:
                    monkeypatch.setattr(space, key, counted)
    return counts


@pytest.mark.parametrize("argv, expected", [
    # operators for the quadrature grids and the report grid's
    # decomposition and Yang-Mills check; the chart once, on all five grids
    # together, and W once for that evaluation and once for the chart's
    # positivity scan; the structure equation once per curvature and once
    # per induced connection: +H on the 2n nodes, the n nodes and the p1
    # sample, +-H on the report grid; the Einstein tensor once per context
    # and sign: +H for the Einstein residual on the sample grid, +H for the
    # decomposition and the Weyl round trip and -H for the round trip on
    # the report grid
    (["report", "--chart", "bonneau", "--k", "0"],
     {"structure": 12, "curvature": 0, "operator": 5, "levi_civita": 5, "chart.at": 1,
      "quadrature": 2, "omega2": 2, "sincos": 0, "qr": 0, "svd": 0, "einstein": 3}),
    # identity suite (+-H, Levi-Civita, on their pairs) and decomposition
    # (operators of +H and Levi-Civita) share one context; one sin/cos pass
    # for the chart's profiles and one for the torsion; no induced
    # connection
    (["verify", "--chart", "random", "--seed", "3", "--grid", "64"],
     {"structure": 3, "curvature": 0, "operator": 2, "levi_civita": 1, "chart.at": 1,
      "quadrature": 0, "omega2": 0, "sincos": 2, "qr": 0, "svd": 0, "einstein": 1}),
    # the induced +-H connections are built from the connections alone, one
    # structure equation each
    (["probe", "--chart", "bonneau", "--k", "0", "--grid", "64"],
     {"structure": 2, "curvature": 0, "operator": 0, "levi_civita": 1, "chart.at": 1,
      "quadrature": 0, "omega2": 2, "sincos": 0, "qr": 1, "svd": 1, "einstein": 0}),
    # the quadrature grid 2n alone (+H), as a row reads no error estimate
    # and no p1 sample, and one 64-point context shared by the
    # decomposition's per-point residuals (+H, Levi-Civita, one Einstein
    # tensor) and the probe (no curvature, two induced connections);
    # the chart once on both grids, and W once for that evaluation and once
    # for the positivity scan
    (["scan", "--k-min", "0", "--k-max", "0", "--k-step", "1"],
     {"structure": 6, "curvature": 0, "operator": 3, "levi_civita": 2, "chart.at": 1,
      "quadrature": 1, "omega2": 2, "sincos": 0, "qr": 1, "svd": 1, "einstein": 1}),
    # three rows: one quadrature map per row, W once for one positivity
    # scan of all three k together and once for one evaluation of the
    # chart on the grids of all three rows together, and two contexts on
    # them: the three rules of 2n nodes (3 tiles of 512, each as the one
    # row's rule above) and the three sample grids (one tile of 192, as
    # the one row's sample context above, whose systems are factored in
    # chunks of 128 and 64 nodes)
    (["scan", "--k-min", "-0.5", "--k-max", "0.5", "--k-step", "0.5"],
     {"structure": 10, "curvature": 0, "operator": 5, "levi_civita": 4, "chart.at": 1,
      "quadrature": 3, "omega2": 2, "sincos": 0, "qr": 2, "svd": 2, "einstein": 1}),
    (["verify", "--chart", "bonneau", "--k", "0", "--grid", "64"],
     {"structure": 3, "curvature": 0, "operator": 2, "levi_civita": 1, "chart.at": 1,
      "quadrature": 0, "omega2": 2, "sincos": 0, "qr": 0, "svd": 0, "einstein": 1}),
    # one sin/cos pass for the profiles and one for the torsion, on all
    # five grids together
    (["report", "--chart", "random", "--seed", "3"],
     {"structure": 12, "curvature": 0, "operator": 5, "levi_civita": 5, "chart.at": 1,
      "quadrature": 2, "omega2": 0, "sincos": 2, "qr": 0, "svd": 0, "einstein": 3}),
    # a fine grid runs the suites on 8 tiles of 512 points, each a context
    # of its own, cut from one evaluation of the chart and the torsion; the
    # probe factors each tile's systems in 4 chunks of 128 nodes
    (["verify", "--chart", "random", "--seed", "3", "--grid", "4096"],
     {"structure": 24, "curvature": 0, "operator": 16, "levi_civita": 8, "chart.at": 1,
      "quadrature": 0, "omega2": 0, "sincos": 2, "qr": 0, "svd": 0, "einstein": 8}),
    (["probe", "--chart", "bonneau", "--k", "0", "--grid", "4096"],
     {"structure": 16, "curvature": 0, "operator": 0, "levi_civita": 8, "chart.at": 1,
      "quadrature": 0, "omega2": 2, "sincos": 0, "qr": 32, "svd": 32, "einstein": 0}),
    # at --grid 64 the report grid is the sample grid, and one context
    # serves both: Levi-Civita, +H curvature and +H Einstein tensor fewer
    (["report", "--chart", "bonneau", "--k", "0", "--grid", "64"],
     {"structure": 11, "curvature": 0, "operator": 5, "levi_civita": 4, "chart.at": 1,
      "quadrature": 2, "omega2": 2, "sincos": 0, "qr": 0, "svd": 0, "einstein": 2}),
])
def test_stage_counts_per_command(stage_counts, argv, expected):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    assert stage_counts == expected


def test_asymptotic_check_evaluates_w_once(stage_counts):
    # the two slope fits and the monotonicity check share one evaluation of
    # W on the panel nodes of all three integrals; no chart is evaluated
    asymptotic_check(0.3)
    assert stage_counts == {**dict.fromkeys(STAGES, 0), "omega2": 1}


def test_einstein_weyl_residual_reads_the_context(stage_counts):
    # after the identity suite the context holds the points, the
    # Levi-Civita connection and its Ricci data: the residual builds only
    # the Weyl connection's curvature, on its pairs
    chart, H = charts.bonneau_chart(0.0)
    ev = Evaluation.on_grid(chart, H, 64)
    connections.identity_suite(ev)
    before = dict(stage_counts)
    omega = charts.InvariantForm(1, [(3,)], lambda pt: [2.0 * pt.c])  # *H along e4
    einstein_weyl_residual(ev, omega)
    added = {k: stage_counts[k] - before[k]
             for k in ("levi_civita", "chart.at", "curvature", "structure")}
    assert added == {"levi_civita": 0, "chart.at": 0, "curvature": 0, "structure": 1}
