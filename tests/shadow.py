"""The shadow of a float64 evaluation: the same chart evaluated in
``np.longdouble``.

``shadow_point`` seeds the chart's profiles with a long double jet of the
points, so every jet operation, contraction and allocation downstream
runs in the seed's precision, where the package keeps its input's dtype.
``chart.at`` is not used, as it reads the points as float64; its checks
are the caller's, on the float64 points.  Comparing a residual with its
shadow tells rounding from a real defect: rounding shrinks with the
precision's eps (2048 times smaller on x86-64 Linux), a defect does not.
"""

from __future__ import annotations

import numpy as np

from skewtorsion.charts import FramePoint, InvariantChart
from skewtorsion.jets import DEFAULT_ORDER, Jet

# below this eps np.longdouble is wider than float64; it is 1.08e-19 on
# x86-64 Linux and 2.2e-16 where long double is double
LONGDOUBLE_IS_WIDER = np.finfo(np.longdouble).eps < 1e-18


def shadow_point(chart: InvariantChart, x) -> FramePoint:
    """The chart's frame data at the points x, evaluated from a long
    double seed jet of order ``DEFAULT_ORDER``."""
    seed = Jet.variable(np.asarray(x, dtype=np.longdouble), DEFAULT_ORDER)
    return FramePoint(chart, seed, *chart.profiles(seed))
