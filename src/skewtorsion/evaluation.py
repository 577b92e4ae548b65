"""One evaluation context per (chart, H, point batch).

Every single-grid check of the package reads its geometry from an
:class:`Evaluation`: the torsion 3-form at the points, the Levi-Civita
connection, the metric connections with torsion +H and -H, and for each
connection (a :class:`ConnectionData`) its curvature tensor, 6x6 operator,
Ricci data, trace-free Ricci tensor and induced connection on Lambda+,
plus the exterior data of H.  Each object is built at most once, on first
use, so checks that share a context share the work:

    ev = Evaluation.on_grid(chart, H, 64)
    identity_suite(ev), decompose_point(ev), gauge_equivalence_probe(ev)

A context keeps what it has built until it is dropped: about 21 kB per
point once every object is built (85 MB at 4096 points), so callers drop
a context when its checks have run.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .charts import FramePoint, InvariantChart, InvariantForm
from .connections import (
    AffineConnection, CurvatureTensor, ExteriorData, RicciData,
    cov_deriv_three_form_values, curvature, exterior_ops, full_components,
    levi_civita, ricci_and_scalar, with_skew_torsion,
)
from .frame import KForm, operator_from_tensor
from .instanton import InducedConnection, induced_lambda_plus

__all__ = ["ConnectionData", "Evaluation"]


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
        """Induced so(3) connection on Lambda+ (metric connections only)."""
        return induced_lambda_plus(self.conn, self.M)


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
        return cov_deriv_three_form_values(self.pt, self.lc, self.Hf)

    def reversed(self) -> "Evaluation":
        """Context for torsion -H on the same points.

        It shares the Levi-Civita data, and its +H connection is this
        context's -H connection.
        """
        rev = Evaluation(self.pt, -1.0 * self.Hf)
        rev.lc, rev.riemann, rev.plus = self.lc, self.riemann, self.minus
        return rev
