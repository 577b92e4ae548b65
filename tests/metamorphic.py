"""Maps of a chart and its torsion that leave the geometry unchanged, or
scale it: the metamorphic relations of ``test_metamorphic.py``.

``scaled`` is the homothety g -> lam^2 g with the same connection: the
profiles times lam and the frame components of H times 1/lam, so that
frame curvature components scale by 1/lam^2 and chi, tau and p1 do not
move.  ``reparametrized`` is the same geometry in the coordinate y of
x = phi(y) = k - g(k - y), g(t) = t + s t^2/(1 + t), on a chart over
(-inf, k) whose orbit collapses at k: phi fixes both ends, and g'(0) = 1
keeps the closing behaviour at k.  Frame components there are those of
the chart at phi(y).
"""

from __future__ import annotations

import math

from skewtorsion.charts import FramePoint, InvariantChart, InvariantForm


def scaled(chart: InvariantChart, H: InvariantForm, lam: float):
    """(chart, H) of the homothety by lam."""
    def profiles(x):
        return tuple(lam * p for p in chart.profiles(x))

    def comps(pt):
        # H reads the point of the original chart
        orig = FramePoint(chart, pt.seed, *(p / lam for p in (pt.a, pt.b, pt.c)))
        return [f / lam for f in H.comps(orig)]

    return (InvariantChart(chart.name, profiles, chart.domain, chart.structure_mode,
                           {**chart.params, "lam": lam}),
            InvariantForm(H.degree, H.indices, comps))


def reparametrization(k: float, s: float, y):
    """(phi(y), phi'(y)) for x = phi(y) = k - g(k - y), g(t) = t + s t^2/(1 + t),
    at a float, an array or a jet y."""
    t = k - y
    return k - (t + s * (t * t) / (1.0 + t)), 1.0 + s * (t * (t + 2.0)) / ((1.0 + t) * (1.0 + t))


def reparametrized(chart: InvariantChart, H: InvariantForm, s: float):
    """(chart, H) in the coordinate y of x = phi(y), with profiles
    (a(phi) phi', b(phi), c(phi)) and H read at phi(y)."""
    k = chart.domain.hi
    assert chart.domain.lo == -math.inf and math.isfinite(k), "a chart over (-inf, k)"

    def profiles(y):
        x, dx = reparametrization(k, s, y)
        a, b, c = chart.profiles(x)
        return a * dx, b, c

    def comps(pt):
        # H reads the point of the original chart at phi(y)
        x, dx = reparametrization(k, s, pt.seed)
        return H.comps(FramePoint(chart, x, pt.a / dx, pt.b, pt.c))

    return (InvariantChart(chart.name, profiles, chart.domain, chart.structure_mode,
                           {**chart.params, "s": s}),
            InvariantForm(H.degree, H.indices, comps))
