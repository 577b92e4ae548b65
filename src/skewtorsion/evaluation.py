"""One evaluation context per (chart, H, point batch).

Every single-grid check of the package reads its geometry from an
:class:`Evaluation`: the torsion 3-form at the points, the Levi-Civita
connection, the metric connections with torsion +H and -H, and for each
connection (a :class:`ConnectionData`) its curvature tensor, 6x6 operator,
Ricci data, trace-free Ricci tensor, induced connection on Lambda+ and
the residual of that connection against the operator, plus the exterior
data of H.  Each object is built at most once, on first use, so checks
that share a context share the work:

    ev = Evaluation.on_grid(chart, H, 64)
    identity_suite(ev), decompose_point(ev), gauge_equivalence_probe(ev)

Nor is an object built that no check reads: the induced connection needs
only the connection, so the probe and the Pontryagin density build no
curvature tensor or operator; the residual, which needs both, is built
only by the checks that report it.  Both curvatures come from one
structure equation (``connections._structure_equation``), and a check of
-H, such as ``einstein_tensor_point(ev, -1)``, reads ``minus``.

A context keeps what it has built until it is dropped: about 21 kB per
point once every object is built.  So a check that works point by point
runs on :meth:`Evaluation.tiles`, consecutive slices of at most ``TILE``
points, each a fresh context that is dropped before the next is built;
the slices cut the grid's profile jets and H components, so the chart
and the form are evaluated once per grid.  A context of at most ``TILE``
points is its own one tile, and keeps what its checks build.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .charts import FramePoint, InvariantChart, InvariantForm, _grid_slice
from .connections import (
    AffineConnection, CurvatureTensor, ExteriorData, RicciData,
    cov_deriv, curvature, exterior_ops, full_components,
    levi_civita, ricci_and_scalar, with_skew_torsion,
)
from .frame import FULL_SIGNS, KForm, operator_from_tensor
from .instanton import InducedConnection, induced_lambda_plus, lambda_plus_block_residual

__all__ = ["ConnectionData", "Evaluation", "TILE"]

# most points in one tile: a fully built tile holds about 11 MB
TILE = 512


class ConnectionData:
    """A connection at a batch of points and its curvature data, each built once."""

    def __init__(self, conn: AffineConnection):
        self.conn = conn

    @cached_property
    def R(self) -> CurvatureTensor:
        return curvature(self.conn)

    @cached_property
    def M(self) -> np.ndarray:
        """6x6 curvature operator in the +- basis, shape (6, 6, n)."""
        return operator_from_tensor(self.R.components)

    @cached_property
    def ricci(self) -> RicciData:
        return ricci_and_scalar(self.R)

    @cached_property
    def Z(self) -> np.ndarray:
        """Trace-free symmetric Ricci tensor, shape (4, 4, n)."""
        return self.ricci.traceless()

    @cached_property
    def induced(self) -> InducedConnection:
        """Induced so(3) connection on Lambda+ (metric connections only),
        built from the connection alone."""
        return induced_lambda_plus(self.conn)

    @cached_property
    def lambda_plus_residual(self) -> float:
        """sup |rows - (A|C)^T| of the induced connection against the operator."""
        return lambda_plus_block_residual(self.induced, self.M)


class Evaluation:
    """Geometry of a chart with torsion 3-form H at one batch of points."""

    def __init__(self, pt: FramePoint, H: InvariantForm | KForm):
        self.pt = pt
        self.H = H

    @classmethod
    def on_grid(cls, chart: InvariantChart, H: InvariantForm, nodes: int) -> "Evaluation":
        """Context on the chart's uniform sample grid of ``nodes`` points."""
        return cls(chart.at(chart.sample_grid(nodes)), H)

    @cached_property
    def Hf(self) -> KForm:
        """H at the points, with jet components."""
        return self.H.at(self.pt) if isinstance(self.H, InvariantForm) else self.H

    @cached_property
    def lc(self) -> AffineConnection:
        return levi_civita(self.pt)

    @cached_property
    def riemann(self) -> ConnectionData:
        return ConnectionData(self.lc)

    @cached_property
    def plus(self) -> ConnectionData:
        """The metric connection with torsion +H."""
        return ConnectionData(with_skew_torsion(self.lc, self.Hf))

    @cached_property
    def minus(self) -> ConnectionData:
        """The metric connection with torsion -H."""
        return ConnectionData(with_skew_torsion(self.lc, -1.0 * self.Hf))

    @cached_property
    def ext(self) -> ExteriorData:
        return exterior_ops(self.lc, self.Hf)

    @cached_property
    def Hv(self) -> np.ndarray:
        """Fully antisymmetric values of H, shape (4, 4, 4, n)."""
        return full_components(self.Hf, self.pt)

    @cached_property
    def DH(self) -> np.ndarray:
        """(D^g_i H)_jkl, antisymmetric in (jkl), shape (4, 4, 4, 4, n)."""
        D = cov_deriv(self.pt, self.lc, self.Hf).value
        return np.einsum("iP...,Pjkl->ijkl...", D, FULL_SIGNS[3])

    def __getitem__(self, s: slice) -> "Evaluation":
        """A fresh context on the points of the slice ``s``, with the points'
        profile jets and the components of H cut rather than evaluated
        again."""
        Hf = self.Hf
        return Evaluation(self.pt[s], KForm(Hf.degree, _grid_slice(Hf.comps, s)))

    def tiles(self):
        """Consecutive contexts on slices of at most ``TILE`` points, each
        built when asked for; a context of at most ``TILE`` points yields
        itself."""
        n = self.pt.npoints
        if n <= TILE:
            yield self
            return
        for start in range(0, n, TILE):
            yield self[start:start + TILE]
