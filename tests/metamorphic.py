"""Maps of a chart and its torsion that leave the geometry unchanged, or
scale it: the metamorphic relations of ``test_metamorphic.py``.

``scaled`` is the homothety g -> lam^2 g with the same connection: the
profiles times lam and the frame components of H times 1/lam, so that
frame curvature components scale by 1/lam^2 and chi, tau and p1 do not
move.  ``reparametrized`` is the same geometry in the coordinate y of x = phi(y):
on a chart over (-inf, k) whose orbit collapses at k, phi(y) = k - g(k - y),
g(t) = t + s t^2/(1 + t), which fixes both ends, and g'(0) = 1 keeps the
closing behaviour at k; on a chart whose two ends lo and hi are finite,
phi(y) = y + s L/(2 pi) sin(2 pi (y - lo)/L), L = hi - lo (on the round
chart over (0, pi), y + (s/2) sin 2y; on the periodic random chart over
(0, 2 pi), y + s sin y), which fixes both ends, commutes with the shift
by L and is monotone exactly for s in [0, 1).  Frame components there are
those of the chart at phi(y).
"""

from __future__ import annotations

import math

import numpy as np

from skewtorsion import jets
from skewtorsion.charts import Domain, FramePoint, InvariantChart, InvariantForm


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


def reparametrization(domain: Domain, s: float, y):
    """(phi(y), phi'(y)) of the map on ``domain``, (-inf, k) or one with two
    finite ends, at a float, an array or a jet y."""
    lo, hi = domain.lo, domain.hi
    assert math.isfinite(hi), "a domain (-inf, k) or one with two finite ends"
    if lo == -math.inf:
        t = hi - y
        return (hi - (t + s * (t * t) / (1.0 + t)),
                1.0 + s * (t * (t + 2.0)) / ((1.0 + t) * (1.0 + t)))
    w = 2.0 * math.pi / (hi - lo)
    u = w * (y - lo)
    sin, cos = jets.sincos(u) if isinstance(u, jets.Jet) else (np.sin(u), np.cos(u))
    return y + (s / w) * sin, 1.0 + s * cos


def reparametrized(chart: InvariantChart, H: InvariantForm, s: float):
    """(chart, H) in the coordinate y of x = phi(y), with profiles
    (a(phi) phi', b(phi), c(phi)) and H read at phi(y)."""
    def profiles(y):
        x, dx = reparametrization(chart.domain, s, y)
        a, b, c = chart.profiles(x)
        return a * dx, b, c

    def comps(pt):
        # H reads the point of the original chart at phi(y)
        x, dx = reparametrization(chart.domain, s, pt.seed)
        return H.comps(FramePoint(chart, x, pt.a / dx, pt.b, pt.c))

    return (InvariantChart(chart.name, profiles, chart.domain, chart.structure_mode,
                           {**chart.params, "s": s}),
            InvariantForm(H.degree, H.indices, comps))
