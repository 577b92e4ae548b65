"""One evaluation context per (chart, H, point batch).

Every single-grid check of the package reads its geometry from an
:class:`Evaluation`: the torsion 3-form at the points, the Levi-Civita
connection ``lc``, the metric connections with torsion +H and -H
(``plus``, ``minus``), and through each connection (an
``AffineConnection``, the one owner of each of these) its curvature, 6x6
operator and its blocks, W+-, Ricci tensor, scalar and trace-free Ricci
tensor Z and induced connection on Lambda+, plus the exterior data of H
and the norms of the Einstein tensors.  Each object is built at most
once, on first use, so checks that share a context share the work:

    ev = Evaluation.on_grid(chart, H, 64)
    identity_suite(ev), decompose_point(ev), gauge_equivalence_probe(ev)

Nor is an object built that no check reads: the induced connection needs
only the connection, so the probe and the Pontryagin density build no
curvature tensor or operator; the residual, which needs both, is built
only by the checks that report it.  Both curvatures come from one
structure equation (``connections._structure_equation``), and a check of
-H, such as ``einstein_tensor_point(ev, -1)``, reads ``minus``.  A
curvature is kept on its six index pairs i < j, off which the operator,
the Ricci tensor and the identity suite read it: no context builds a
(4, 4, 4, 4, n) tensor.

Nor is a jet coefficient computed that no check reads (``jets``): the
profiles carry order 2; the brackets and the three connections order 1,
as the curvature differentiates them once; H order 1, evaluated on the
seed and profiles cut to order 1; the curvatures, ``grad_H`` (D^g H on
the increasing triples) and the other covariant derivatives read as
values, the torsion forms and the exterior data of H (``ext``) order 0.
The Bianchi identity and the assembled curvature of
``connections.curvature_via_eq1`` read H (x) H and D^g H entry by entry,
off ``Hv`` and ``grad_H``.

A context keeps what it has built until it is dropped: about 13 kB per
point once every object is built, 9 kB once verify's are; beyond those a
check forms its terms one block of entries at a time on a whole tile
(``connections._BLOCK_FROM``), so a verify tile of 512 points peaks at
4.6 MiB.  So a check that works point by point
runs on :meth:`Evaluation.tiles`, consecutive slices of at most ``TILE``
points, each a fresh context that is dropped before the next is built;
the slices cut the grid's profile jets and H components.  A grid of at
most ``TILE`` points is one such tile, so a tiled check builds nothing on
the caller's context.  Every check returns per-point arrays, the grid
axis last, and :meth:`per_point` is their one join over the tiles; a
command turns an array into the number it prints by :func:`sup`, the one
reducer, and decides whether H is closed by :func:`closed`, the one rule.

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
    AffineConnection, ExteriorData, _fro, cov_deriv, exterior_ops, full_components,
    levi_civita, with_skew_torsion,
)
from .decomposition import einstein_tensor_point
from .frame import KForm

__all__ = ["Evaluation", "Grids", "TILE", "sup", "closed"]

# most points in one tile: a fully built tile holds about 7 MB (6.5 MiB),
# a verify tile 4.4 MiB and one block of transients
TILE = 512

CLOSED_TOL = 1e-10  # H counts as closed when sup |dH| is at most this


def sup(a):
    """The number a payload prints for an array ``a`` (a dict of them for a
    dict): max |a| by two reductions without the array |a|.  A NaN entry
    gives NaN, and + 0.0 turns a maximum of -0.0 into 0.0."""
    if isinstance(a, dict):
        return {k: sup(v) for k, v in a.items()}
    return float(np.maximum(np.max(a), -np.min(a))) + 0.0


def closed(dH) -> bool:
    """Whether H is closed on a grid, from |dH| at each of its points
    (``instanton.killing_residual``'s ``dH_sup``): sup |dH| <= CLOSED_TOL."""
    return sup(dH) <= CLOSED_TOL


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
        """The Levi-Civita connection D^g."""
        return levi_civita(self.pt)

    @cached_property
    def plus(self) -> AffineConnection:
        """The metric connection with torsion +H."""
        return with_skew_torsion(self.lc, self.Hf)

    @cached_property
    def minus(self) -> AffineConnection:
        """The metric connection with torsion -H."""
        return with_skew_torsion(self.lc, -1.0 * self.Hf)

    @cached_property
    def ext(self) -> ExteriorData:
        return exterior_ops(self.lc, self.Hf)

    @cached_property
    def Hv(self) -> np.ndarray:
        """Fully antisymmetric values of H, shape (4, 4, 4, n)."""
        return full_components(self.Hf, self.pt)

    @cached_property
    def grad_H(self) -> np.ndarray:
        """(D^g_i H)_J on the increasing triples J, shape (4, 4, n): the
        values the curvature identities read D^g H off."""
        return cov_deriv(self.pt, self.lc.truncated(0), self.Hf).value

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
        """``f`` of each of :meth:`tiles`, every array it returns (one, a
        tuple or a dict of them) joined along its last axis, the grid axis:
        the arrays of one context on the whole grid, in the memory of one
        tile."""
        parts = [f(tile) for tile in self.tiles()]
        if isinstance(parts[0], dict):
            return {k: np.concatenate([p[k] for p in parts], axis=-1) for k in parts[0]}
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
