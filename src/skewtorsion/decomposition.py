"""Curvature operator blocks in the self-dual splitting.

With entry (P, Q) = R(E_P, E_Q) (first index pair of R against the row),
the 6x6 operator of a metric connection with torsion 3-form H decomposes
into 3x3 blocks [[A, B], [C, D]] with, writing h = *H and s for the scalar
curvature of the torsion connection,

    A = W+ + (s/12 - *dH/4) Id + (1/4) Phi+((d*H)+)
    D = W- + (s/12 + *dH/4) Id - (1/4) Phi-((d*H)-)
    B = (1/2) contr(Z - S(D^g h))
    C = [(1/2) contr(Z + S(D^g h))]^T

where W+- are the (torsion-independent) Weyl blocks, Z the trace-free
symmetric Ricci of the torsion connection, Phi+- the antisymmetric action
of a (anti-)self-dual 2-form, and contr the trace-free pairing of
frame.ricci_contraction.  Every coefficient here is validated entrywise
against the directly computed operator by the reconstruction test.

The connection is Einstein with skew torsion when the symmetric tensor

    T = Z + S(D^g h) + (*dH/4) g

vanishes; T is trace-free because the trace of S(D^g h) cancels *dH.

Every function here reads the exterior data of H from an evaluation
context (:class:`skewtorsion.evaluation.Evaluation`), and the blocks,
Weyl blocks, scalar curvature and Z from the ``ConnectionData`` of its
connections, which own them.  :func:`decompose_point` returns numbers
only: the residuals and sup norms that ``report`` prints under
``decomposition``, in that order; a caller that needs an array reads it
from its owner, the per-point Einstein norm from the context and the
per-point reconstruction residual from :func:`reconstruction_residuals`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from . import frame as F
from .connections import _EYE3, _EYE4, _fro, _tf_sym

if TYPE_CHECKING:
    from .evaluation import Evaluation

__all__ = ["decompose_point", "reconstruction_residuals", "einstein_tensor_point",
           "einstein_residual"]


def decompose_point(ev: Evaluation) -> dict:
    """Residuals of the closed block formulas and the Einstein condition at
    the grid points, with the sup norms of B, Z and W+- and the range of s.
    The Einstein and reconstruction residuals are the sups of the per-point
    arrays that a scan row reduces over its own slice."""
    _, B, C, _ = ev.plus.blocks
    Wp, Wm = ev.riemann.W  # the Weyl blocks, torsion independent
    s = ev.plus.scalar
    t_norm = ev.einstein_norm()
    return {
        "einstein_residual": float(np.max(t_norm)),
        "block_residual": float(np.max(np.abs(2.0 * _fro(C) - t_norm))),
        "reconstruction_residual": float(np.max(reconstruction_residuals(ev))),
        "sup_B": float(np.max(_fro(B))),
        "sup_Z": float(np.max(_fro(ev.plus.Z))),
        "sup_W_plus": float(np.max(_fro(Wp))),
        "sup_W_minus": float(np.max(_fro(Wm))),
        "s_nabla_range": [float(s.min()), float(s.max())],
    }


def reconstruction_residuals(ev: Evaluation) -> np.ndarray:
    """Per point, the largest entry of |X - X_f| over the blocks X of the +H
    operator and their closed formulas X_f, shape (n,)."""
    ext = ev.ext
    A, B, C, D = ev.plus.blocks
    Wp, Wm = ev.riemann.W
    s = ev.plus.scalar
    Z = ev.plus.Z

    dsH = F.components_in_sd_basis(ext.dstar_H)
    phi_p, phi_m = dsH[:3], dsH[3:]
    eps = F._EPS3
    phi_op_p = -np.sqrt(2.0) * np.einsum("pqr,r...->pq...", eps, phi_p)
    phi_op_m = -np.sqrt(2.0) * np.einsum("pqr,r...->pq...", eps, phi_m)
    A_f = Wp + (s / 12.0 - ext.star_dH / 4.0) * _EYE3[..., None] + 0.25 * phi_op_p
    D_f = Wm + (s / 12.0 + ext.star_dH / 4.0) * _EYE3[..., None] - 0.25 * phi_op_m
    S0 = _tf_sym(ext.grad_h)
    B_f = 0.5 * np.einsum("ij...,pqij->pq...", Z - S0, F._T_BASIS)
    C_f = 0.5 * np.einsum("ij...,pqij->qp...", Z + S0, F._T_BASIS)
    return np.max(np.abs([A - A_f, B - B_f, C - C_f, D - D_f]), axis=(0, 1, 2))


def einstein_tensor_point(ev: Evaluation, sign: int = +1) -> np.ndarray:
    """The Einstein-with-torsion tensor T = Z +- (S(D^g h) + (*dH/4) g) of
    the connection with torsion sign * H, Z its trace-free symmetric Ricci
    tensor and h = *H.  Summed term by term, so that it equals bitwise the
    +1 tensor of a context built on -H."""
    Z = (ev.plus if sign > 0 else ev.minus).Z
    return Z + sign * ev.ext.sym_grad_h + sign * 0.25 * ev.ext.star_dH * _EYE4[..., None]


def einstein_residual(ev: Evaluation, sign: int = +1) -> float:
    """Sup over the grid of the Frobenius norm of the Einstein tensor of the
    connection with torsion sign * H, read from the context's one
    tensor of that sign (``Evaluation.einstein_norm``)."""
    return float(np.max(ev.einstein_norm(sign)))
