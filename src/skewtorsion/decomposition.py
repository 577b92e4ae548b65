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

Every function here reads the connections, curvature operators and
exterior data of H from an evaluation context
(:class:`skewtorsion.evaluation.Evaluation`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import frame as F
from .connections import _EYE3, _EYE4, _fro, _sym, _tf

if TYPE_CHECKING:
    from .evaluation import Evaluation

__all__ = [
    "DecompositionReport", "decompose_point",
    "einstein_tensor_point", "einstein_residual", "operator_blocks",
]

def operator_blocks(M: np.ndarray):
    """(A, B, C, D) views of a 6x6 operator matrix."""
    return M[:3, :3], M[:3, 3:], M[3:, :3], M[3:, 3:]


@dataclass
class DecompositionReport:
    """Blocks, irreducible pieces and residuals of one decomposition run."""

    x: np.ndarray
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    Wplus: np.ndarray
    Wminus: np.ndarray
    s_nabla: np.ndarray
    star_dH: np.ndarray
    dstarH_plus: np.ndarray       # components in the + basis, shape (3, n)
    dstarH_minus: np.ndarray
    Z_nabla: np.ndarray           # (4, 4, n)
    einstein_tensor: np.ndarray   # (4, 4, n)
    einstein_residual: float      # sup_x |T|_F
    block_residual: float         # sup_x |2 ||C||_F - ||T||_F|
    reconstruction_residual: float

    def summary(self) -> dict:
        return {
            "einstein_residual": self.einstein_residual,
            "block_residual": self.block_residual,
            "reconstruction_residual": self.reconstruction_residual,
            "sup_B": float(np.max(_fro(self.B))),
            "sup_Z": float(np.max(_fro(self.Z_nabla))),
            "sup_W_plus": float(np.max(_fro(self.Wplus))),
            "sup_W_minus": float(np.max(_fro(self.Wminus))),
            "s_nabla_range": [float(self.s_nabla.min()), float(self.s_nabla.max())],
        }


def decompose_point(ev: Evaluation) -> DecompositionReport:
    """Operator blocks and the closed-formula reconstruction at grid points."""
    pt, ext = ev.pt, ev.ext
    A, B, C, D = operator_blocks(ev.plus.M)
    Ag, _, _, Dg = operator_blocks(ev.riemann.M)
    s = ev.plus.ricci.scalar
    Z = ev.plus.Z

    dsH = F.components_in_sd_basis(ext.dstar_H)
    phi_p, phi_m = dsH[:3], dsH[3:]

    # Weyl blocks from the Riemannian operator (torsion independent)
    Wp = _tf(_sym(Ag), 3)
    Wm = _tf(_sym(Dg), 3)

    T = einstein_tensor_point(ev)

    # closed block formulas
    eps = F._EPS3
    phi_op_p = -np.sqrt(2.0) * np.einsum("pqr,r...->pq...", eps, phi_p)
    phi_op_m = -np.sqrt(2.0) * np.einsum("pqr,r...->pq...", eps, phi_m)
    A_f = Wp + (s / 12.0 - ext.star_dH / 4.0) * _EYE3[..., None] + 0.25 * phi_op_p
    D_f = Wm + (s / 12.0 + ext.star_dH / 4.0) * _EYE3[..., None] - 0.25 * phi_op_m
    S0 = _tf(ext.sym_grad_h, 4)
    B_f = 0.5 * np.einsum("ij...,pqij->pq...", Z - S0, F._T_BASIS)
    C_f = 0.5 * np.einsum("ij...,pqij->qp...", Z + S0, F._T_BASIS)

    recon = max(float(np.max(np.abs(A - A_f))), float(np.max(np.abs(B - B_f))),
                float(np.max(np.abs(C - C_f))), float(np.max(np.abs(D - D_f))))

    t_norm = _fro(T)
    return DecompositionReport(
        x=pt.x, A=A, B=B, C=C, D=D, Wplus=Wp, Wminus=Wm,
        s_nabla=s, star_dH=ext.star_dH, dstarH_plus=phi_p, dstarH_minus=phi_m,
        Z_nabla=Z, einstein_tensor=T,
        einstein_residual=float(np.max(t_norm)),
        block_residual=float(np.max(np.abs(2.0 * _fro(C) - t_norm))),
        reconstruction_residual=recon,
    )


def einstein_tensor_point(ev: Evaluation, sign: int = +1) -> np.ndarray:
    """The Einstein-with-torsion tensor T = Z +- (S(D^g h) + (*dH/4) g) of
    the connection with torsion sign * H, Z its trace-free symmetric Ricci
    tensor and h = *H.  Summed term by term, so that it equals bitwise the
    +1 tensor of a context built on -H."""
    Z = (ev.plus if sign > 0 else ev.minus).Z
    return Z + sign * ev.ext.sym_grad_h + sign * 0.25 * ev.ext.star_dH * _EYE4[..., None]


def einstein_residual(ev: Evaluation, sign: int = +1) -> float:
    """Sup over the grid of the Frobenius norm of the Einstein tensor of the
    connection with torsion sign * H."""
    return float(np.max(_fro(einstein_tensor_point(ev, sign))))
