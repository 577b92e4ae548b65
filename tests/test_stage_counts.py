"""Per-command counts of the pipeline stages.

Each command builds one evaluation context per grid it evaluates, and a
context builds each connection and curvature once, so these counts are
fixed by the commands' grids: a recomputation shows up as a larger count.
"""

import contextlib
import io
import sys

import pytest

from skewtorsion import charts, cli, connections

STAGES = {
    "curvature": (connections, "curvature"),
    "levi_civita": (connections, "levi_civita"),
    "chart.at": (charts.InvariantChart, "at"),
    "quadrature": (charts.InvariantChart, "quadrature"),
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
    # quadrature grids n and 2n, the p1 sample grid, the Einstein grid (64),
    # the report grid (128: Levi-Civita, +-H and Weyl curvature) and the
    # Nijenhuis grid, which needs no connection
    (["report", "--chart", "bonneau", "--k", "0"],
     {"curvature": 8, "levi_civita": 5, "chart.at": 6, "quadrature": 2}),
    # identity suite and decomposition share one context
    (["verify", "--chart", "random", "--seed", "3", "--grid", "64"],
     {"curvature": 3, "levi_civita": 1, "chart.at": 1, "quadrature": 0}),
    (["probe", "--chart", "bonneau", "--k", "0", "--grid", "64"],
     {"curvature": 2, "levi_civita": 1, "chart.at": 1, "quadrature": 0}),
    # quadrature grids n and 2n (+H), the p1 sample grid (+H) and one
    # 64-point context shared by the Einstein residual, the decomposition
    # (+H, Levi-Civita) and the probe (+-H)
    (["scan", "--k-min", "0", "--k-max", "0", "--k-step", "1"],
     {"curvature": 6, "levi_civita": 4, "chart.at": 4, "quadrature": 2}),
])
def test_stage_counts_per_command(stage_counts, argv, expected):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    assert stage_counts == expected
