"""Per-command counts of the pipeline stages.

Each command builds one evaluation context per grid it evaluates, and a
context builds each connection and curvature once, so these counts are
fixed by the commands' grids: a recomputation shows up as a larger count.
"""

import contextlib
import io
import sys

import pytest

from skewtorsion import charts, cli, connections, frame, jets
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
    # curvature on the quadrature grids n and 2n (+H), the 64-point grid
    # of the Einstein residual and the Nijenhuis tensor (+H), and the
    # report grid (128: Levi-Civita, +-H and Weyl), but not on the p1
    # sample grid, whose induced connection needs none; operators for the
    # quadrature grids and the report grid's decomposition and Yang-Mills
    # check; the chart once on the 2n nodes, once on the n nodes and the
    # p1 sample grid together, once per other grid, and W once per chart
    # evaluation and once for the chart's positivity scan; the structure
    # equation once per curvature and once per induced connection: +H on
    # the 2n nodes, the n nodes and the p1 sample, +-H on the report grid
    (["report", "--chart", "bonneau", "--k", "0"],
     {"structure": 12, "curvature": 7, "operator": 5, "levi_civita": 5, "chart.at": 4,
      "quadrature": 2, "omega2": 5, "sincos": 0}),
    # identity suite (+-H, Levi-Civita) and decomposition (operators of +H
    # and Levi-Civita) share one context; one sin/cos pass for the chart's
    # profiles and one for the torsion; no induced connection
    (["verify", "--chart", "random", "--seed", "3", "--grid", "64"],
     {"structure": 3, "curvature": 3, "operator": 2, "levi_civita": 1, "chart.at": 1,
      "quadrature": 0, "omega2": 0, "sincos": 2}),
    # the induced +-H connections are built from the connections alone, one
    # structure equation each
    (["probe", "--chart", "bonneau", "--k", "0", "--grid", "64"],
     {"structure": 2, "curvature": 0, "operator": 0, "levi_civita": 1, "chart.at": 1,
      "quadrature": 0, "omega2": 2, "sincos": 0}),
    # the quadrature grid 2n alone (+H), as a row reads no error estimate
    # and no p1 sample, and one 64-point context shared by the Einstein
    # residual, the decomposition (+H, Levi-Civita) and the probe (no
    # curvature, two induced connections)
    (["scan", "--k-min", "0", "--k-max", "0", "--k-step", "1"],
     {"structure": 6, "curvature": 3, "operator": 3, "levi_civita": 2, "chart.at": 2,
      "quadrature": 1, "omega2": 3, "sincos": 0}),
    (["verify", "--chart", "bonneau", "--k", "0", "--grid", "64"],
     {"structure": 3, "curvature": 3, "operator": 2, "levi_civita": 1, "chart.at": 1,
      "quadrature": 0, "omega2": 2, "sincos": 0}),
    # one sin/cos pass for the profiles and one for the torsion per chart
    # evaluation, the quadrature grid n and the p1 sample grid sharing one
    (["report", "--chart", "random", "--seed", "3"],
     {"structure": 12, "curvature": 7, "operator": 5, "levi_civita": 5, "chart.at": 4,
      "quadrature": 2, "omega2": 0, "sincos": 8}),
    # a fine grid runs the suites on 8 tiles of 512 points, each a context
    # of its own, cut from one evaluation of the chart and the torsion
    (["verify", "--chart", "random", "--seed", "3", "--grid", "4096"],
     {"structure": 24, "curvature": 24, "operator": 16, "levi_civita": 8, "chart.at": 1,
      "quadrature": 0, "omega2": 0, "sincos": 2}),
    (["probe", "--chart", "bonneau", "--k", "0", "--grid", "4096"],
     {"structure": 16, "curvature": 0, "operator": 0, "levi_civita": 8, "chart.at": 1,
      "quadrature": 0, "omega2": 2, "sincos": 0}),
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
    # the Weyl connection's curvature
    chart, H = charts.bonneau_chart(0.0)
    ev = Evaluation.on_grid(chart, H, 64)
    connections.identity_suite(ev)
    before = dict(stage_counts)
    omega = charts.InvariantForm(1, [(3,)], lambda pt: [2.0 * pt.c])  # *H along e4
    einstein_weyl_residual(ev, omega)
    added = {k: stage_counts[k] - before[k]
             for k in ("levi_civita", "chart.at", "curvature", "structure")}
    assert added == {"levi_civita": 0, "chart.at": 0, "curvature": 1, "structure": 1}
