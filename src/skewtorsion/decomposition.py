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
of a (anti-)self-dual 2-form, and contr the trace-free pairing, the
contraction with frame._T_BASIS.  Every coefficient here is validated
entrywise against the directly computed operator by the reconstruction
test.

The connection is Einstein with skew torsion when the symmetric tensor

    T = Z + S(D^g h) + (*dH/4) g

vanishes; T is trace-free because the trace of S(D^g h) cancels *dH.

Every function here reads the exterior data of H from an evaluation
context (:class:`skewtorsion.evaluation.Evaluation`), and the blocks,
Weyl blocks, scalar curvature and Z from its connections, which own
them.  :func:`decompose_point` returns per-point
arrays, the grid axis last: the residuals and norms that ``report``
prints under ``decomposition``, in that order, each reduced there by
``evaluation.sup``; the range of s comes from its owner.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from . import frame as F
from .charts import _abs_max
from .connections import _EYE3, _EYE4, _fro, _tf

if TYPE_CHECKING:
    from .evaluation import Evaluation

__all__ = ["decompose_point", "einstein_tensor_point"]


def _phi_op(phi):
    """The action -sqrt2 eps_pqr phi_r on Lambda+- of a (anti-)self-dual
    2-form with components phi, shape (3, 3, n)."""
    return -np.sqrt(2.0) * np.einsum("pqr,r...->pq...", F._EPS3, phi)


def _reconstruction(ev: Evaluation):
    """max |X - X_f| at each point for the blocks X = A, B, C, D of the +H
    operator and their closed formulas X_f, one block at a time, so that
    no more than one formula is alive."""
    ext = ev.ext
    A, B, C, D = ev.plus.blocks
    s, Z = ev.plus.scalar, ev.plus.Z
    Wp, Wm = ev.lc.W  # the Weyl blocks, torsion independent
    dsH = F.components_in_sd_basis(ext.dstar_H)
    yield _abs_max(A - (Wp + (s / 12.0 - ext.star_dH / 4.0) * _EYE3[..., None]
                        + 0.25 * _phi_op(dsH[:3])))
    S0 = _tf(ext.sym_grad_h, 4)  # S(D^g h): ext keeps the symmetric part
    yield _abs_max(B - 0.5 * np.einsum("ij...,pqij->pq...", Z - S0, F._T_BASIS))
    yield _abs_max(C - 0.5 * np.einsum("ij...,pqij->qp...", Z + S0, F._T_BASIS))
    yield _abs_max(D - (Wm + (s / 12.0 + ext.star_dH / 4.0) * _EYE3[..., None]
                        - 0.25 * _phi_op(dsH[3:])))


def decompose_point(ev: Evaluation) -> dict:
    """Residuals of the closed block formulas and the Einstein condition at
    each grid point, with the norms of B, Z and W+- there, arrays of shape
    (n,).  The reconstruction residual is the largest entry of |X - X_f|
    over the blocks X of the +H operator and their closed formulas X_f,
    the largest of :func:`_reconstruction`'s: a maximum is exact and keeps
    a NaN."""
    _, B, C, _ = ev.plus.blocks
    Wp, Wm = ev.lc.W
    t_norm = ev.einstein_norm()
    return {
        "einstein_residual": t_norm,
        "block_residual": np.abs(2.0 * _fro(C) - t_norm),
        "reconstruction_residual": np.max(list(_reconstruction(ev)), axis=0),
        "sup_B": _fro(B),
        "sup_Z": _fro(ev.plus.Z),
        "sup_W_plus": _fro(Wp),
        "sup_W_minus": _fro(Wm),
    }


def einstein_tensor_point(ev: Evaluation, sign: int = +1) -> np.ndarray:
    """The Einstein-with-torsion tensor T = Z +- (S(D^g h) + (*dH/4) g) of
    the connection with torsion sign * H, Z its trace-free symmetric Ricci
    tensor and h = *H.  Summed term by term, so that it equals bitwise the
    +1 tensor of a context built on -H."""
    Z = (ev.plus if sign > 0 else ev.minus).Z
    return Z + sign * ev.ext.sym_grad_h + sign * 0.25 * ev.ext.star_dH * _EYE4[..., None]
