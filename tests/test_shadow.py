"""Rounding against defect: the verify residuals in float64 against the
same chart evaluated in np.longdouble (``shadow.py``).

A residual that is rounding shrinks with the precision's eps; one that is
a defect of the formulas does not.  Each pin below needs a long double
wider than float64, and is skipped where it is not.
"""

import numpy as np
import pytest

from skewtorsion import cli
from skewtorsion.charts import chart_and_torsion
from skewtorsion.evaluation import Evaluation

from shadow import LONGDOUBLE_IS_WIDER, shadow_point

pytestmark = pytest.mark.skipif(
    not LONGDOUBLE_IS_WIDER,
    reason="np.finfo(np.longdouble).eps >= 1e-18: long double is no wider than "
           "float64 here, so a shadow would repeat the float64 residuals")

CHARTS = {
    "round": {"type": "round"},
    "bonneau k=0": {"type": "bonneau", "params": {"k": 0.0}},
    "bonneau k=0.3": {"type": "bonneau", "params": {"k": 0.3}},
    "product": {"type": "product"},
    "flat": {"type": "flat"},
    "random 0": {"type": "random", "params": {"seed": 0}},
    "random 3": {"type": "random", "params": {"seed": 3}},
}


def _residuals(descriptor: dict, n: int):
    """The verify residuals at the chart's n-point sample grid, in float64
    and in the shadow, and the shadow's curvature dtype."""
    chart, H = chart_and_torsion(descriptor)
    x = chart.sample_grid(n)
    ev = Evaluation(shadow_point(chart, x), H)
    shadow = cli._verify_residuals(ev)
    return cli._verify_residuals(Evaluation(chart.at(x), H)), shadow, ev[:1].riemann.R.dtype


@pytest.mark.parametrize("name", CHARTS)
def test_float64_residuals_above_1e_13_are_rounding(name):
    # each residual the float64 run leaves above 1e-13 falls at least 100
    # times in the shadow (measured: 512 to 2731 times), so it is rounding
    f64, shadow, dtype = _residuals(CHARTS[name], 256)
    assert dtype == np.longdouble and list(shadow) == list(f64)
    for key, value in f64.items():
        if value > 1e-13:
            assert shadow[key] * 100.0 <= value, (key, value, shadow[key])


def test_round_chart_shadow_residuals_stay_small_on_a_fine_grid():
    # float64 reads up to 5.9e-9 on the round chart at n=4096; the shadow
    # reads every residual below 1e-9 (measured: 1.8e-12)
    _, shadow, _ = _residuals(CHARTS["round"], 4096)
    assert all(value < 1e-9 for value in shadow.values()), shadow
