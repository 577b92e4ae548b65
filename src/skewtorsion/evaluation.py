"""One evaluation context per (chart, H, point batch).

Every single-grid check of the package reads its geometry from an
:class:`Evaluation`: the torsion 3-form at the points, the Levi-Civita
connection, the metric connections with torsion +H and -H, and for each
connection (a :class:`ConnectionData`, the one owner of each of these)
its curvature tensor, 6x6 operator and its blocks, W+-, Ricci tensor,
scalar and trace-free Ricci tensor Z, induced connection on Lambda+ and
the residual of that connection against the operator, plus the exterior
data of H and the norms of the Einstein tensors.  Each object is built
at most once, on first use, so checks that share a context share the
work:

    ev = Evaluation.on_grid(chart, H, 64)
    identity_suite(ev), decompose_point(ev), gauge_equivalence_probe(ev)

Nor is an object built that no check reads: the induced connection needs
only the connection, so the probe and the Pontryagin density build no
curvature tensor or operator; the residual, which needs both, is built
only by the checks that report it.  Both curvatures come from one
structure equation (``connections._structure_equation``), and a check of
-H, such as ``einstein_tensor_point(ev, -1)``, reads ``minus``.  A
curvature is kept on its six index pairs i < j, off which the operator is
read; the 4-index tensor ``R`` is scattered from them only for the Ricci
tensor and the identity suite, and replaces them.

Nor is a jet coefficient computed that no check reads (``jets``): the
profiles carry order 2; the brackets and the three connections order 1,
as the curvature differentiates them once; H order 1, evaluated on the
seed and profiles cut to order 1; the curvature tensors, ``DH`` and the
other covariant derivatives read as values, the torsion forms and the
exterior data of H (``ext``) order 0.  The one contraction of H with
itself over one index, ``HH``, serves both the Bianchi identity and the
assembled curvature of ``connections.curvature_via_eq1``.

A context keeps what it has built until it is dropped: about 19 kB per
point once every object is built.  So a check that works point by point
runs on :meth:`Evaluation.tiles`, consecutive slices of at most ``TILE``
points, each a fresh context that is dropped before the next is built;
the slices cut the grid's profile jets and H components.  A grid of at
most ``TILE`` points is one such tile, so a tiled check builds nothing on
the caller's context.  Every per-point array keeps the grid axis last,
and :meth:`per_point` is its one join over the tiles; only ``verify``
merges the tiles' sups.

A command that reads several grids evaluates the chart and the form once
for all of them (:class:`Grids`): on the concatenation of its grids,
from which it cuts each grid's context in the same way when a check reads
it, so a context lives only as long as its reader holds it.  A scan block
cuts one context per kind of grid, each spanning every row's grid.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .charts import FramePoint, InvariantChart, InvariantForm, _grid_slice
from .connections import (
    AffineConnection, ExteriorData, _fro, _tf_sym,
    cov_deriv, curvature, curvature_pairs, exterior_ops, full_components,
    levi_civita, with_skew_torsion,
)
from .decomposition import einstein_tensor_point
from .frame import KForm, _FULL, operator_from_tensor
from .instanton import InducedConnection, induced_lambda_plus, lambda_plus_block_residual

__all__ = ["ConnectionData", "Evaluation", "Grids", "TILE"]

# most points in one tile: a fully built tile holds about 10 MB
TILE = 512


class ConnectionData:
    """A connection at a batch of points and its curvature data, each built once."""

    def __init__(self, conn: AffineConnection):
        self.conn = conn

    @cached_property
    def pairs(self) -> np.ndarray:
        """Curvature on the six pairs i < j of its first index pair,
        shape (6, 4, 4, n): the structure equation's own form."""
        return curvature_pairs(self.conn)

    @cached_property
    def R(self) -> np.ndarray:
        """Curvature tensor R_ijkl, shape (4, 4, 4, 4, n), scattered from
        ``pairs``, which it replaces: a context holds one form of each
        curvature."""
        return curvature(self.conn, vars(self).pop("pairs", None))

    @cached_property
    def M(self) -> np.ndarray:
        """6x6 curvature operator in the +- basis, shape (6, 6, n), read off
        ``pairs``, or off ``R`` once that is built: the same bits."""
        R = vars(self).get("R")
        return operator_from_tensor(self.pairs if R is None else R)

    @cached_property
    def blocks(self) -> tuple:
        """(A, B, C, D): the 3x3 block views of ``M``."""
        return self.M[:3, :3], self.M[:3, 3:], self.M[3:, :3], self.M[3:, 3:]

    @cached_property
    def W(self) -> tuple:
        """(W+, W-) = trace-free symmetric A and D: Weyl blocks for ``riemann``."""
        A, _, _, D = self.blocks
        return _tf_sym(A), _tf_sym(D)

    @cached_property
    def ric(self) -> np.ndarray:
        """Ric_ij = sum_k R_kikj, shape (4, 4, n) (round S^4 gives Ric = 3g)."""
        return np.einsum("kikj...->ij...", self.R)

    @cached_property
    def scalar(self) -> np.ndarray:
        """Scalar curvature, the trace of ``ric``, shape (n,)."""
        return np.einsum("ii...->...", self.ric)

    @cached_property
    def Z(self) -> np.ndarray:
        """Trace-free symmetric Ricci tensor, shape (4, 4, n)."""
        return _tf_sym(self.ric)

    @cached_property
    def induced(self) -> InducedConnection:
        """Induced so(3) connection on Lambda+ (metric connections only),
        built from the connection alone."""
        return induced_lambda_plus(self.conn)

    @cached_property
    def lambda_plus_residual(self) -> float:
        """sup |rows - (A|C)^T| of the induced connection against the operator."""
        return lambda_plus_block_residual(self.induced, self.blocks)


class Evaluation:
    """Geometry of a chart with torsion 3-form H at one batch of points."""

    def __init__(self, pt: FramePoint, H: InvariantForm | KForm):
        self.pt = pt
        self.H = H
        self._einstein = {}  # sign -> einstein_norm(sign)

    @classmethod
    def on_grid(cls, chart: InvariantChart, H: InvariantForm, nodes: int) -> "Evaluation":
        """Context on the chart's uniform sample grid of ``nodes`` points."""
        return cls(chart.at(chart.sample_grid(nodes)), H)

    @cached_property
    def Hf(self) -> KForm:
        """H at the points, with order-1 jet components: no reader takes its
        second derivative, so an invariant form is evaluated on the seed and
        profiles cut to order 1."""
        if isinstance(self.H, InvariantForm):
            return self.H.at(self.pt.truncated(1))
        return self.H.truncated(1)

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
    def HH(self) -> np.ndarray:
        """sum_m H_abm H_cdm, shape (4, 4, 4, 4, n); a product of two H's
        contracted on one index is an index permutation of it."""
        return np.einsum("abm...,cdm...->abcd...", self.Hv, self.Hv)

    @cached_property
    def DH(self) -> np.ndarray:
        """(D^g_i H)_jkl, antisymmetric in (jkl), shape (4, 4, 4, 4, n)."""
        return _FULL[3](cov_deriv(self.pt, self.lc.truncated(0), self.Hf).value, lead=1)

    def einstein_norm(self, sign: int = +1) -> np.ndarray:
        """Per-point Frobenius norm of the Einstein tensor of the connection
        with torsion sign * H (``decomposition.einstein_tensor_point``),
        shape (n,): built once per sign, as no check reads the tensor."""
        if sign not in self._einstein:
            self._einstein[sign] = _fro(einstein_tensor_point(self, sign))
        return self._einstein[sign]

    def __getitem__(self, s: slice) -> "Evaluation":
        """A fresh context on the points of the slice ``s``, with the points'
        profile jets and the components of H cut rather than evaluated
        again."""
        Hf = self.Hf
        return Evaluation(self.pt[s], KForm(Hf.degree, _grid_slice(Hf.comps, s)))

    def tiles(self):
        """Consecutive contexts on slices of at most ``TILE`` points, each
        cut when asked for.  No tile of a longer grid has one point: the
        last two share a one-point tail, since ``np.einsum`` sums a
        one-point batch in another order than a longer one."""
        n = self.pt.npoints
        bounds = list(range(0, n, TILE)) + [n]
        if n > TILE and n % TILE == 1:
            bounds[-2] -= TILE // 2
        for start, stop in zip(bounds, bounds[1:]):
            yield self[start:stop]

    def per_point(self, f):
        """``f`` of each of :meth:`tiles`, every array it returns (one, or a
        tuple) joined along its last axis, the grid axis: the arrays of one
        context on the whole grid, in the memory of one tile."""
        parts = [f(tile) for tile in self.tiles()]
        if isinstance(parts[0], tuple):
            return tuple(np.concatenate(p, axis=-1) for p in zip(*parts))
        return np.concatenate(parts, axis=-1)


class Grids:
    """One evaluation of a chart and a torsion 3-form on several grids.

    ``grids`` maps a name to an array of points, or to a quadrature rule
    ``(points, weights)`` whose weights ``weights[name]`` keeps.  The
    profiles and H are evaluated once, on the concatenation of the grids in
    the order given, by one ``chart.at`` that checks each grid as if it were
    evaluated alone.  ``grids[name]`` cuts a fresh context on one grid each
    time it is read; the union keeps the profile jets and H only, so what a
    context builds is dropped with the context.

    So the chart's refusals of every grid (a point not finite or outside
    the domain, a profile value outside (0, inf)) come when the union is
    built, before any check reads a context: where a command would refuse
    two grids, a chart refusal of a later grid comes before a check's
    refusal (brackets or an integrand not finite) of an earlier one.
    """

    def __init__(self, chart: InvariantChart, H: InvariantForm, grids: dict):
        self.slices, self.weights, points, start = {}, {}, [], 0
        for name, grid in grids.items():
            x, w = grid if isinstance(grid, tuple) else (grid, None)
            if w is not None:
                self.weights[name] = w
            self.slices[name] = slice(start, start + len(x))
            start += len(x)
            points.append(x)
        self.union = Evaluation(chart.at(tuple(points)), H)

    def __getitem__(self, name) -> Evaluation:
        return self.union[self.slices[name]]
