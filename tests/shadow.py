"""The shadow of a float64 evaluation: the same chart evaluated in
``np.longdouble``.

``shadow_point`` evaluates the chart at long double points, so the seed
jet, and every jet operation, contraction and allocation downstream, runs
in that precision, where the package keeps its input's dtype; the chart
checks the points and profiles as it checks float64 ones.  Comparing a
residual with its shadow tells rounding from a real defect: rounding
shrinks with the precision's eps (2048 times smaller on x86-64 Linux), a
defect does not.
"""

from __future__ import annotations

import numpy as np

from skewtorsion.charts import FramePoint, InvariantChart

# below this eps np.longdouble is wider than float64; it is 1.08e-19 on
# x86-64 Linux and 2.2e-16 where long double is double
LONGDOUBLE_IS_WIDER = np.finfo(np.longdouble).eps < 1e-18


def shadow_point(chart: InvariantChart, x) -> FramePoint:
    """The chart's frame data at the points x, evaluated in long double."""
    return chart.at(np.asarray(x, dtype=np.longdouble))
