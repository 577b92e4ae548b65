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

if TYPE_CHECKING:
    from .evaluation import Evaluation

__all__ = [
    "DecompositionReport", "decompose_point",
    "einstein_tensor_point", "einstein_residual", "operator_blocks",
]

_EYE3 = np.eye(3)
_EYE4 = np.eye(4)


def _sym(m):
    return 0.5 * (m + np.einsum("pq...->qp...", m))


def _asym(m):
    return 0.5 * (m - np.einsum("pq...->qp...", m))


def _tf(m, dim):
    eye = _EYE3 if dim == 3 else _EYE4
    return m - (np.einsum("pp...->...", m) / dim) * eye[..., None] if m.ndim > 2 \
        else m - (np.trace(m) / dim) * eye


def _fro(m):
    return np.sqrt(np.einsum("ij...,ij...->...", m, m))


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

    def per_node_norms(self) -> dict:
        """JSON-ready per-node block norms alongside the sup residuals."""
        out = {"x": self.x.tolist()}
        for name, m in (("A", self.A), ("B", self.B), ("C", self.C),
                        ("D", self.D), ("W_plus", self.Wplus),
                        ("W_minus", self.Wminus), ("Z", self.Z_nabla),
                        ("einstein_tensor", self.einstein_tensor)):
            out[name] = _fro(m).tolist()
        out["s_nabla"] = self.s_nabla.tolist()
        out["star_dH"] = self.star_dH.tolist()
        return out


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


def einstein_tensor_point(ev: Evaluation) -> np.ndarray:
    """The Einstein-with-torsion tensor T = Z + S(D^g h) + (*dH/4) g."""
    return ev.plus.Z + ev.ext.sym_grad_h + 0.25 * ev.ext.star_dH * _EYE4[..., None]


def einstein_residual(ev: Evaluation) -> float:
    """Sup over the grid of the Frobenius norm of the Einstein tensor."""
    return float(np.max(_fro(einstein_tensor_point(ev))))
