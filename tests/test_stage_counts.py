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
from skewtorsion.weyl import einstein_weyl_residual

STAGES = {
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
    # check; W once per grid and once for the chart's positivity scan
    (["report", "--chart", "bonneau", "--k", "0"],
     {"curvature": 7, "operator": 5, "levi_civita": 5, "chart.at": 5,
      "quadrature": 2, "omega2": 6, "sincos": 0}),
    # identity suite (+-H, Levi-Civita) and decomposition (operators of +H
    # and Levi-Civita) share one context; one sin/cos pass for the chart's
    # profiles and one for the torsion
    (["verify", "--chart", "random", "--seed", "3", "--grid", "64"],
     {"curvature": 3, "operator": 2, "levi_civita": 1, "chart.at": 1,
      "quadrature": 0, "omega2": 0, "sincos": 2}),
    # the induced +-H connections are built from the connections alone
    (["probe", "--chart", "bonneau", "--k", "0", "--grid", "64"],
     {"curvature": 0, "operator": 0, "levi_civita": 1, "chart.at": 1,
      "quadrature": 0, "omega2": 2, "sincos": 0}),
    # quadrature grids n and 2n (+H), the p1 sample grid (no curvature) and
    # one 64-point context shared by the Einstein residual, the
    # decomposition (+H, Levi-Civita) and the probe (no curvature)
    (["scan", "--k-min", "0", "--k-max", "0", "--k-step", "1"],
     {"curvature": 4, "operator": 4, "levi_civita": 4, "chart.at": 4,
      "quadrature": 2, "omega2": 5, "sincos": 0}),
    (["verify", "--chart", "bonneau", "--k", "0", "--grid", "64"],
     {"curvature": 3, "operator": 2, "levi_civita": 1, "chart.at": 1,
      "quadrature": 0, "omega2": 2, "sincos": 0}),
    (["report", "--chart", "random", "--seed", "3"],
     {"curvature": 7, "operator": 5, "levi_civita": 5, "chart.at": 5,
      "quadrature": 2, "omega2": 0, "sincos": 10}),
])
def test_stage_counts_per_command(stage_counts, argv, expected):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    assert stage_counts == expected


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
    added = {k: stage_counts[k] - before[k] for k in ("levi_civita", "chart.at", "curvature")}
    assert added == {"levi_civita": 0, "chart.at": 0, "curvature": 1}
