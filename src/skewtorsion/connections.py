"""Affine connections in a moving frame and their curvature.

Connection coefficients gamma[i, j, k] = g(D_{e_i} e_j, e_k) are one jet
of shape (4, 4, 4, n), so the radial derivative entering the curvature is
exact; the constructions and covariant derivatives below are contractions
of that jet and the bracket jet with fixed sign tensors, as gathers
(``frame._Gather``); every sign tensor is read off ``frame.FULL_SIGNS``
through the wedge tables.  The curvature sign convention is fixed by

    R(X, Y, Z, W) = g([D_X, D_Y] W - D_{[X,Y]} W, Z),

under which the unit round sphere has R_1212 = +1, Ric = 3 g, s = 12, and
the curvature of the connection with torsion H decomposes into the
Riemannian part, terms quadratic in H with coefficient 1/4, and first
derivatives of H with coefficient 1/2.

The codifferential is d* = -*d* on every degree (the 4-dimensional
Riemannian adjoint), equal to minus the divergence contraction.

The structure equation F_ij = e_i(w_j) - e_j(w_i) + [w_i, w_j] - C_ij^m w_m
of matrix-valued connection forms w is written once, in
:func:`_structure_equation`, for :func:`curvature_pairs` and for the
induced connection on Lambda+ (``instanton.InducedConnection.from_forms``),
on the six pairs i < j with their one bracket index.  The pairs are the
one stored form of a curvature: the 6x6 operator and the Lambda+
curvature read their terms off them, and only :func:`curvature`, for the
readers of R itself, scatters them into the 4-index tensor with
F_ji = 0 - F_ij.

The trace-free symmetric part is written once too, in :func:`_tf_sym`.

The curvature routes, the exterior data of H and the identity suite read
their connections, curvature tensors and Ricci tensors from an evaluation
context (:class:`skewtorsion.evaluation.Evaluation`), which builds each once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from . import jets
from .jets import Jet
from .frame import (
    FULL_SIGNS, KForm, MULTI_INDICES, _Gather, _WEDGE, hodge_star, norm_sq,
)
from .charts import FramePoint, _BRACKET_PAIRS

if TYPE_CHECKING:
    from .evaluation import Evaluation

__all__ = [
    "AffineConnection",
    "levi_civita", "with_skew_torsion",
    "curvature", "curvature_pairs", "curvature_via_eq1",
    "d_form", "codifferential", "cov_deriv",
    "ExteriorData", "exterior_ops", "identity_suite", "full_components",
]

# H counts as closed when sup |dH| is at most this; it gates the closed-torsion
# identities (``identity_suite``'s pair swap, ``instanton.killing_residual``)
CLOSED_TOL = 1e-10

_EYE3 = np.eye(3)
_EYE4 = np.eye(4)


def _sym(m):
    return 0.5 * (m + np.einsum("pq...->qp...", m))


def _tf(m, dim):
    """Trace-free part of a (dim, dim, n) field of matrices."""
    eye = _EYE3 if dim == 3 else _EYE4
    return m - (np.einsum("pp...->...", m) / dim) * eye[..., None]


def _tf_sym(m):
    """Trace-free symmetric part of a (dim, dim, n) field of matrices."""
    return _tf(_sym(m), len(m))


def _fro(m):
    return np.sqrt(np.einsum("ij...,ij...->...", m, m))


# indices of the increasing triples, selecting 3-form components from a tensor
_TRIPLES = tuple(np.array(col) for col in zip(*MULTI_INDICES[3]))
# the 4-index Levi-Civita symbol with a grid axis: a 4-form's full
# components are its one component times these signs
_EPS4 = FULL_SIGNS[4][0, ..., None]


@dataclass
class AffineConnection:
    """Frame connection at a batch of points; gamma[i, j, k] = Gamma^k_ij,
    one jet of shape (4, 4, 4, n)."""

    pt: FramePoint
    gamma: Jet
    metric_compatible: bool = True

    def truncated(self, order: int) -> "AffineConnection":
        """The connection with its coefficients cut to ``order``."""
        return AffineConnection(self.pt, jets.truncate(self.gamma, order),
                                self.metric_compatible)

    def torsion_form(self) -> KForm:
        """Torsion lowered to a 3-form: T(e_i,e_j,e_k) = g(T(e_i,e_j), e_k),
        values only (an order-0 jet), on the increasing triples alone."""
        G, C = self.gamma.value, self.pt.structure.value
        i, j, k = _TRIPLES
        return KForm(3, G[i, j, k] - G[j, i, k] - C[i, j, k])

    @cached_property
    def torsion_free(self) -> bool:
        """No torsion component above 1e-10 of the coefficient scale; checked
        once per connection, however many torsions are added to it."""
        scale = max(1.0, float(np.max(np.abs(self.gamma.value))))
        return not np.max(np.abs(self.torsion_form().comps.value)) > 1e-10 * scale


def full_components(form: KForm, pt: FramePoint) -> np.ndarray:
    """Fully antisymmetric value array of a frame k-form, grid axis last."""
    v = form.truncated(0).full().value
    return np.broadcast_to(v, v.shape[:form.degree] + pt.x.shape)


# ---------------------------------------------------------------------------
# connections
# ---------------------------------------------------------------------------


def levi_civita(pt: FramePoint) -> AffineConnection:
    """Torsion-free metric connection from the frame Koszul formula."""
    C = pt.structure
    gamma = 0.5 * (C - jets.einsum("jki...->ijk...", C) + jets.einsum("kij...->ijk...", C))
    return AffineConnection(pt, gamma, metric_compatible=True)


def with_skew_torsion(lc: AffineConnection, H: KForm) -> AffineConnection:
    """Metric connection with torsion 3-form H: Gamma'_kij = Gamma + H_ijk/2."""
    if not lc.metric_compatible:
        raise ValueError("base connection must be metric")
    if H.degree != 3:
        raise ValueError("torsion must be a 3-form")
    if not lc.torsion_free:
        raise ValueError("base connection must be torsion-free")
    gamma = lc.gamma + 0.5 * H.truncated(lc.gamma.order).full()
    return AffineConnection(lc.pt, gamma, metric_compatible=True)


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------


def _structure_equation(pt: FramePoint, omega: Jet) -> np.ndarray:
    """Curvature values F[s, p, q] on the six pairs s = (i, j), i < j, of
    ``MULTI_INDICES[2]``, shape (6, P, Q, n), of the connection forms
    ``omega[i, p, q]``, one jet of shape (4, P, Q, n); each step is odd
    under i <-> j, so F_ji = 0 - F_ij, and F on the pairs is bitwise the
    sum over all (i, j, m)."""
    w = omega.value
    i, j, m = _BRACKET_PAIRS
    Fp = np.zeros((6,) + w.shape[1:], w.dtype)
    # e_i(w_j) - e_j(w_i): only the radial direction acts, on the pairs (0, j)
    Fp[:3] += pt.e1(omega.map(lambda c: c[1:])).value
    # [w_i, w_j], then in the same buffer the bracket term; Fp, summed from
    # +0.0, never holds -0.0, so the sign of a zero term cannot reach it
    term = np.einsum("ipr...,irq...->ipq...", w[i], w[j])
    term -= np.einsum("ipr...,irq...->ipq...", w[j], w[i])
    Fp += term
    np.multiply(pt.brackets[i, j, m][:, None, None], w[m], out=term)
    Fp -= term
    return Fp


def curvature_pairs(conn: AffineConnection) -> np.ndarray:
    """Frame curvature of any connection (metric or not) on the six pairs
    i < j of its first index pair, values of shape (6, 4, 4, n): the
    structure equation of the forms (w_i)^k_l = Gamma^k_il."""
    return _structure_equation(conn.pt, jets.einsum("ilk...->ikl...", conn.gamma))


def curvature(conn: AffineConnection, pairs: np.ndarray | None = None) -> np.ndarray:
    """Frame curvature R_ijkl of any connection (metric or not), values of
    shape (4, 4, 4, 4, n): its pairs (:func:`curvature_pairs`, or ``pairs``
    when they are at hand) scattered, with R_jikl = 0 - R_ijkl."""
    if pairs is None:
        pairs = curvature_pairs(conn)
    i, j, _ = _BRACKET_PAIRS
    R = np.zeros((4, 4) + pairs.shape[1:], pairs.dtype)
    R[i, j] = pairs
    R[j, i] = 0.0 - pairs  # +0.0 where a pair is zero, as in the sum
    return R


def curvature_via_eq1(ev: Evaluation) -> np.ndarray:
    """Curvature of the +H connection assembled from the Riemannian one.

    Independent route from :func:`curvature`: the context's Riemannian
    curvature plus the quadratic torsion terms (coefficient 1/4) and the
    first covariant derivatives of H (coefficient 1/2).
    """
    HH, DH = ev.HH, ev.DH
    # sum_m H_ilm H_jkm - H_jlm H_ikm, read off the context's H (x) H
    quad = 0.25 * (np.einsum("iljk...->ijkl...", HH) - np.einsum("jlik...->ijkl...", HH))
    dterm = -0.5 * DH + 0.5 * np.einsum("ijkl...->jikl...", DH)
    return ev.riemann.R + quad + dterm


# ---------------------------------------------------------------------------
# invariant exterior calculus
# ---------------------------------------------------------------------------


def _d_signs(k):
    """Gathers of d on k-forms, over increasing multi-indices I of degree
    k + 1: the derivative term sum_r (-1)^r e_{i_r}(w_{I - i_r}) along e1,
    the one direction invariant forms vary in, the wedge table of e1 ^ w;
    and the bracket term sum_{r<s} (-1)^(r+s) w([e_{i_r}, e_{i_s}], I - i_r - i_s),
    minus the sign of e^ij ^ e^R in e^I times that of e^m ^ e^R in e^P,
    summed over the (k-1)-forms R, for the bracket component m of [e_i, e_j]
    against the component P of w."""
    if k == 0:
        bracket = np.zeros((4, 1, 4, 4, 4))
    else:  # 0.0 - keeps the zero entries +0.0
        bracket = 0.0 - np.einsum("qaR,PmR,aij->qPijm", _WEDGE[2, k - 1], _WEDGE[1, k - 1],
                                  np.maximum(FULL_SIGNS[2], 0.0))
    return _Gather(_WEDGE[1, k][:, 0], 1), _Gather(bracket, 2)


_D_SIGNS = {k: _d_signs(k) for k in range(4)}


def d_form(pt: FramePoint, form: KForm) -> KForm:
    """Exterior derivative of an invariant frame form via brackets.

    The result carries one order less than the form: the brackets are cut
    to that order, and an order-0 form, which carries no derivative, raises
    ``ValueError``.
    """
    k = form.degree
    if k >= 4:
        raise ValueError("cannot differentiate a 4-form in dimension 4")
    deriv, bracket = _D_SIGNS[k]
    w = form.comps
    dw = deriv(pt.e1(w))  # an order-0 form raises here
    C = jets.truncate(pt.structure, dw.order)
    out = jets.einsum("qp...,p...->q...", bracket(C), jets.truncate(w, C.order))
    return KForm(k + 1, out + dw)


def codifferential(pt: FramePoint, form: KForm) -> KForm:
    """d* = -*d* (4-dimensional Riemannian adjoint of d, all degrees)."""
    return -1.0 * hodge_star(d_form(pt, hodge_star(form)))


def _derivation_signs(k):
    """Gather of S, (ncomp, ncomp, 4, 4): a connection acts on a k-form as
    sum_r Gamma_{i J_r m} w_{J_r -> m} = sum Gamma_ixm S[J, P, x, m] w_P,
    where S pairs e^x ^ e^R = e^J with e^m ^ e^R = e^P over (k-1)-forms R."""
    return _Gather(np.einsum("JxR,PmR->JPxm", _WEDGE[1, k - 1], _WEDGE[1, k - 1]), 2)


_DERIVATION_SIGNS = {k: _derivation_signs(k) for k in range(1, 4)}


def cov_deriv(pt: FramePoint, conn: AffineConnection, form: KForm) -> Jet:
    """(D_i w)_J = e_i(w_J) - sum_r Gamma_{i J_r m} w_{J_r -> m} on the
    increasing multi-indices J of a k-form, one jet of shape (4, ncomp, n).

    The result has the order of ``conn``, which must be one less than the
    form's: a caller that reads values passes ``conn.truncated(0)`` and
    the form at order 1."""
    G = _DERIVATION_SIGNS[form.degree](conn.gamma, lead=1)
    w = jets.truncate(form.comps, G.order)
    return pt.frame_derivative(form.comps) - jets.einsum("iJP...,P...->iJ...", G, w)


@dataclass
class ExteriorData:
    """Derived invariants of a torsion 3-form at the grid points."""

    H: KForm              # order-1 jets
    dH: KForm             # order-0 jets, as are dstar_H and dh
    star_dH: np.ndarray   # scalar (n,)
    dstar_H: KForm        # 2-form
    h: KForm              # torsion 1-form *H, order-1 jets
    dh: KForm
    grad_h: np.ndarray    # (D^g_i h)_j values, (4,4,n)
    sym_grad_h: np.ndarray
    norm_sq_H: np.ndarray


def exterior_ops(lc: AffineConnection, H: KForm) -> ExteriorData:
    """Exterior data of the torsion 3-form H, with D^g the connection ``lc``.

    It reads the values and first derivatives of H, so H is cut to order 1
    and every derived field holds values only."""
    pt = lc.pt
    H = H.truncated(1)
    dH = d_form(pt, H)
    star_dH = hodge_star(dH).comps.value[0]
    h = hodge_star(H)
    dh = d_form(pt, h)
    dstar_H = -1.0 * hodge_star(dh)  # the codifferential -*d*H
    grad = cov_deriv(pt, lc.truncated(0), h).value
    return ExteriorData(
        H=H, dH=dH, star_dH=star_dH, dstar_H=dstar_H, h=h, dh=dh,
        grad_h=grad, sym_grad_h=_sym(grad),
        norm_sq_H=norm_sq(H.truncated(0)).value,
    )


# ---------------------------------------------------------------------------
# identity suite
# ---------------------------------------------------------------------------


def _sup(arr) -> float:
    """max |arr| by two reductions, without the array |arr|; a NaN entry
    gives NaN, and + 0.0 turns a maximum of -0.0 into 0.0."""
    return float(np.maximum(np.max(arr), -np.min(arr))) + 0.0


def _cyclic(T):
    """Cyclic sum of a 4-tensor over its first three indices."""
    return T + np.einsum("ijkl...->jkil...", T) + np.einsum("ijkl...->kijl...", T)


def identity_suite(ev: Evaluation) -> dict:
    """Residuals of the curvature, Ricci and Bianchi identities on a grid.

    All identities are exact for smooth invariant data, so every residual
    is float noise; the suite reports sup norms over the grid.  The two
    orientation-sensitive identities are checked with their pinned signs
    (+dH in the Bianchi identity, +*dh/2 in the four-dimensional Ricci
    formula), so a sign regression shows as a large residual.
    """
    pt, ext, Hv, DHg = ev.pt, ev.ext, ev.Hv, ev.DH
    R = ev.plus.R
    Rm = ev.minus.R
    dstarHv = full_components(ext.dstar_H, pt)

    out = {}
    out["curvature_cross"] = _sup(R - curvature_via_eq1(ev))

    # the full tensor of dH, built after the cross check so that it is not
    # alive at the suite's peak; every reader takes sup |.|, so the sign of
    # a zero entry is immaterial
    dH = ext.dH.comps.value[0]
    dHv = _EPS4 * dH

    # first Bianchi with torsion: cyclic sum vs dH, grad H and quadratic terms;
    # its (4, 4, 4, 4, n) temporaries are dropped at once, since what the
    # suite holds at one time sets the peak memory of a large grid
    rhs = -dHv - np.einsum("lijk...->ijkl...", DHg) + 0.5 * _cyclic(ev.HH)
    out["bianchi"] = _sup(_cyclic(R) - rhs)
    del rhs

    # pair swap against the opposite-torsion connection, general and closed
    diff = R - np.einsum("klij...->ijkl...", Rm)
    out["pair_swap"] = _sup(diff + 0.5 * dHv)
    del dHv
    if _sup(dH) <= CLOSED_TOL:
        out["pair_swap_closed"] = _sup(diff)
    del diff

    # Ricci of the torsion connection vs the divergence formula
    rd, rg = ev.plus, ev.riemann
    quad_ric = 0.25 * np.einsum("ikm...,jkm...->ij...", Hv, Hv)
    out["ricci_formula"] = _sup(rd.ric - (rg.ric - quad_ric - 0.5 * dstarHv))
    out["ricci_antisym"] = _sup(0.5 * (rd.ric - np.einsum("ij...->ji...", rd.ric))
                                + 0.5 * dstarHv)

    # scalar curvature shift by the torsion norm
    out["scalar_relation"] = _sup(rd.scalar - rg.scalar + 1.5 * ext.norm_sq_H)

    # four-dimensional Ricci formula through the torsion 1-form h = *H.
    hv = full_components(ext.h, pt)
    h2 = np.einsum("i...,i...->...", hv, hv)
    star_dh = full_components(hodge_star(ext.dh), pt)
    eye = _EYE4[..., None]
    base = rg.ric - 0.5 * h2 * eye + 0.5 * np.einsum("i...,j...->ij...", hv, hv)
    out["ricci_four_dim"] = _sup(rd.ric - (base + 0.5 * star_dh))

    # the torsion 1-form is parallel for both connections simultaneously
    d_skew = cov_deriv(pt, ev.plus.conn.truncated(0), ext.h).value
    out["torsion_form_parallel"] = _sup(d_skew - ext.grad_h)

    # trace-free symmetric Ricci shift
    shift = 0.5 * np.einsum("i...,j...->ij...", hv, hv) - 0.125 * h2 * eye
    out["traceless_shift"] = _sup(ev.plus.Z - (ev.riemann.Z + shift))

    # torsion recovery from the connection difference
    tor = ev.plus.conn.torsion_form()
    out["torsion_recovery"] = _sup(tor.comps.value - ev.Hf.comps.value)

    out["jacobi"] = pt.jacobi_residual()
    return out
