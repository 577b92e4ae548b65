"""Affine connections in a moving frame and their curvature.

Connection coefficients gamma[i, j, k] = g(D_{e_i} e_j, e_k) are one jet
of shape (4, 4, 4, n), so the radial derivative entering the curvature is
exact; the constructions and covariant derivatives below are contractions
of that jet and the bracket jet with fixed sign tensors.  The
curvature sign convention is fixed by

    R(X, Y, Z, W) = g([D_X, D_Y] W - D_{[X,Y]} W, Z),

under which the unit round sphere has R_1212 = +1, Ric = 3 g, s = 12, and
the curvature of the connection with torsion H decomposes into the
Riemannian part, terms quadratic in H with coefficient 1/4, and first
derivatives of H with coefficient 1/2.

The codifferential is d* = -*d* on every degree (the 4-dimensional
Riemannian adjoint), equal to minus the divergence contraction.

The structure equation F_ij = e_i(w_j) - e_j(w_i) + [w_i, w_j] - C_ij^m w_m
of matrix-valued connection forms w is written once, in
:func:`_structure_equation`, for :func:`curvature` and for the induced
connection on Lambda+ (``instanton.InducedConnection.from_forms``).

The curvature routes, the exterior data of H and the identity suite read
their connections and curvature tensors from an evaluation context
(:class:`skewtorsion.evaluation.Evaluation`), which builds each once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from . import jets
from .jets import Jet
from .frame import KForm, MULTI_INDICES, _INDEX_POS, _sort_index, hodge_star, norm_sq
from .charts import FramePoint

if TYPE_CHECKING:
    from .evaluation import Evaluation

__all__ = [
    "AffineConnection", "CurvatureTensor", "RicciData",
    "levi_civita", "with_skew_torsion",
    "curvature", "curvature_via_eq1", "ricci_and_scalar",
    "d_form", "codifferential", "cov_deriv",
    "ExteriorData", "exterior_ops", "identity_suite", "full_components",
]

_EYE3 = np.eye(3)
_EYE4 = np.eye(4)


def _sym(m):
    return 0.5 * (m + np.einsum("pq...->qp...", m))


def _tf(m, dim):
    """Trace-free part of a (dim, dim, n) field of matrices."""
    eye = _EYE3 if dim == 3 else _EYE4
    return m - (np.einsum("pp...->...", m) / dim) * eye[..., None]


def _fro(m):
    return np.sqrt(np.einsum("ij...,ij...->...", m, m))


# indices of the increasing triples, selecting 3-form components from a tensor
_TRIPLES = tuple(np.array(col) for col in zip(*MULTI_INDICES[3]))


@dataclass
class AffineConnection:
    """Frame connection at a batch of points; gamma[i, j, k] = Gamma^k_ij,
    one jet of shape (4, 4, 4, n)."""

    pt: FramePoint
    gamma: Jet
    metric_compatible: bool = True

    def torsion_form(self) -> KForm:
        """Torsion lowered to a 3-form: T(e_i,e_j,e_k) = g(T(e_i,e_j), e_k)."""
        G = self.gamma
        T = G - jets.einsum("jik...->ijk...", G) - self.pt.structure_functions()
        return KForm(3, T.map(lambda c: c[_TRIPLES]))

    @cached_property
    def torsion_free(self) -> bool:
        """No torsion component above 1e-10 of the coefficient scale; checked
        once per connection, however many torsions are added to it."""
        scale = max(1.0, float(np.max(np.abs(self.gamma.value))))
        return not np.max(np.abs(self.torsion_form().comps.value)) > 1e-10 * scale


@dataclass
class CurvatureTensor:
    """R_ijkl values on the grid, shape (4, 4, 4, 4, n)."""

    components: np.ndarray


@dataclass
class RicciData:
    ric: np.ndarray       # (4, 4, n)
    scalar: np.ndarray    # (n,)

    def traceless(self) -> np.ndarray:
        """Trace-free symmetric Ricci tensor sym Ric - (s/4) g, (4, 4, n)."""
        return _tf(_sym(self.ric), 4)


def full_components(form: KForm, pt: FramePoint) -> np.ndarray:
    """Fully antisymmetric value array of a frame k-form, grid axis last."""
    v = form.values().full()
    return np.broadcast_to(v, v.shape[:form.degree] + pt.x.shape)


# ---------------------------------------------------------------------------
# connections
# ---------------------------------------------------------------------------


def levi_civita(pt: FramePoint) -> AffineConnection:
    """Torsion-free metric connection from the frame Koszul formula."""
    C = pt.structure_functions()
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
    # gamma carries one order less than the profiles H is built from
    gamma = lc.gamma + 0.5 * jets.truncate(H.full(), lc.gamma.order)
    return AffineConnection(lc.pt, gamma, metric_compatible=True)


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------


def _structure_equation(pt: FramePoint, omega: Jet) -> np.ndarray:
    """Curvature values F[i, j, p, q], shape (4, 4, P, Q, n), of the
    connection forms ``omega[i, p, q]``, one jet of shape (4, P, Q, n)."""
    w = omega.value
    dw = pt.e1(omega).value
    F = np.zeros((4, 4) + w.shape[1:])
    # e_i(w_j) - e_j(w_i): only the radial direction acts
    F[0] += dw
    F[:, 0] -= dw
    comm = np.einsum("ipr...,jrq...->ijpq...", w, w)
    F += comm - np.einsum("ijpq...->jipq...", comm)
    F -= np.einsum("ijm...,mpq...->ijpq...", pt.brackets, w)
    return F


def curvature(conn: AffineConnection) -> CurvatureTensor:
    """Frame curvature of any connection (metric or not): the structure
    equation of the forms (w_i)^k_l = Gamma^k_il."""
    return CurvatureTensor(_structure_equation(
        conn.pt, jets.einsum("ilk...->ikl...", conn.gamma)))


def curvature_via_eq1(ev: Evaluation) -> CurvatureTensor:
    """Curvature of the +H connection assembled from the Riemannian one.

    Independent route from :func:`curvature`: the context's Riemannian
    curvature plus the quadratic torsion terms (coefficient 1/4) and the
    first covariant derivatives of H (coefficient 1/2).
    """
    Hv, DH = ev.Hv, ev.DH
    quad = 0.25 * (np.einsum("ilm...,jkm...->ijkl...", Hv, Hv)
                   - np.einsum("jlm...,ikm...->ijkl...", Hv, Hv))
    dterm = -0.5 * DH + 0.5 * np.einsum("ijkl...->jikl...", DH)
    return CurvatureTensor(ev.riemann.R.components + quad + dterm)


def ricci_and_scalar(R: CurvatureTensor) -> RicciData:
    """Ricci contraction Ric_ij = sum_k R_kikj (round S^4 gives Ric = 3g)."""
    ric = np.einsum("kikj...->ij...", R.components)
    return RicciData(ric=ric, scalar=np.einsum("ii...->...", ric))


# ---------------------------------------------------------------------------
# invariant exterior calculus
# ---------------------------------------------------------------------------


def _summed_axes_inner(signs: np.ndarray, kept) -> np.ndarray:
    """``signs`` with its values and shape, laid out in memory with the
    axes in ``kept`` outermost.  np.einsum then loops over the summed axes
    inside each output entry, in the same order, which on a few hundred
    points is about three times faster than the C layout."""
    perm = list(kept) + [ax for ax in range(signs.ndim) if ax not in kept]
    return np.ascontiguousarray(signs.transpose(perm)).transpose(np.argsort(perm))


def _d_signs(k):
    """Sign tensors of d on k-forms, over increasing multi-indices I of
    degree k + 1: the derivative term sum_r (-1)^r e_{i_r}(w_{I - i_r}),
    shape (ncomp_{k+1}, 4, ncomp_k), and the bracket term sum_{r<s}
    (-1)^(r+s) w([e_{i_r}, e_{i_s}], I - i_r - i_s), shape
    (ncomp_{k+1}, 4, 4, 4, ncomp_k)."""
    deriv = np.zeros((len(MULTI_INDICES[k + 1]), 4, len(MULTI_INDICES[k])))
    bracket = np.zeros((len(MULTI_INDICES[k + 1]), 4, 4, 4, len(MULTI_INDICES[k])))
    for q, idx in enumerate(MULTI_INDICES[k + 1]):
        for r, ir in enumerate(idx):
            deriv[q, ir, _INDEX_POS[k][idx[:r] + idx[r + 1:]]] = (-1) ** r
            for s in range(r + 1, len(idx)):
                rest = tuple(t for p, t in enumerate(idx) if p not in (r, s))
                for m in range(4):
                    sign, key = _sort_index((m,) + rest)
                    if sign:
                        bracket[q, ir, idx[s], m, _INDEX_POS[k][key]] += (-1) ** (r + s) * sign
    return deriv, _summed_axes_inner(bracket, (0, 4))


_D_SIGNS = {k: _d_signs(k) for k in range(4)}


def d_form(pt: FramePoint, form: KForm) -> KForm:
    """Exterior derivative of an invariant frame form via brackets.

    A form with array components is constant along the grid, so only its
    bracket term contributes.
    """
    k = form.degree
    if k >= 4:
        raise ValueError("cannot differentiate a 4-form in dimension 4")
    deriv, bracket = _D_SIGNS[k]
    w = form.comps
    C = jets.einsum("qabmp,abm...->qp...", bracket, pt.structure_functions())
    # the brackets carry one order less than the form's profiles
    out = jets.einsum("qp...,p...->q...", C, jets.truncate(w, C.order))
    if isinstance(w, Jet):
        out = out + jets.einsum("qip,ip...->q...", deriv, pt.frame_derivative(w))
    return KForm(k + 1, out)


def codifferential(pt: FramePoint, form: KForm) -> KForm:
    """d* = -*d* (4-dimensional Riemannian adjoint of d, all degrees)."""
    return -1.0 * hodge_star(d_form(pt, hodge_star(form)))


def _derivation_signs(k):
    """(ncomp, 4, 4, ncomp): a connection acts on the increasing components
    of a k-form as sum_r Gamma_{i J_r m} w_{J_r -> m} = sum Gamma_ixm
    S[J, x, m, P] w_P, replacing each index J_r = x by m."""
    n = len(MULTI_INDICES[k])
    out = np.zeros((n, 4, 4, n))
    for q, idx in enumerate(MULTI_INDICES[k]):
        for r, x in enumerate(idx):
            for m in range(4):
                sign, key = _sort_index(idx[:r] + (m,) + idx[r + 1:])
                if sign:
                    out[q, x, m, _INDEX_POS[k][key]] += sign
    return _summed_axes_inner(out, (0, 3))


_DERIVATION_SIGNS = {k: _derivation_signs(k) for k in range(1, 4)}


def cov_deriv(pt: FramePoint, conn: AffineConnection, form: KForm) -> Jet:
    """(D_i w)_J = e_i(w_J) - sum_r Gamma_{i J_r m} w_{J_r -> m} on the
    increasing multi-indices J of a k-form, one jet of shape (4, ncomp, n)."""
    G = jets.einsum("ixm...,JxmP->iJP...", conn.gamma, _DERIVATION_SIGNS[form.degree])
    # gamma carries one order less than the form's profiles
    w = jets.truncate(form.comps, G.order)
    return pt.frame_derivative(form.comps) - jets.einsum("iJP...,P...->iJ...", G, w)


@dataclass
class ExteriorData:
    """Derived invariants of a torsion 3-form at the grid points."""

    H: KForm              # jets
    dH: KForm
    star_dH: np.ndarray   # scalar (n,)
    dstar_H: KForm        # 2-form, jets
    h: KForm              # torsion 1-form *H, jets
    dh: KForm
    grad_h: np.ndarray    # (D^g_i h)_j values, (4,4,n)
    sym_grad_h: np.ndarray
    norm_sq_H: np.ndarray


def exterior_ops(lc: AffineConnection, H: KForm) -> ExteriorData:
    """Exterior data of the torsion 3-form H, with D^g the connection ``lc``."""
    pt = lc.pt
    dH = d_form(pt, H)
    star_dH = hodge_star(dH).comps.value[0]
    h = hodge_star(H)
    dh = d_form(pt, h)
    dstar_H = -1.0 * hodge_star(dh)  # the codifferential -*d*H
    grad = cov_deriv(pt, lc, h).value
    return ExteriorData(
        H=H, dH=dH, star_dH=star_dH, dstar_H=dstar_H, h=h, dh=dh,
        grad_h=grad, sym_grad_h=_sym(grad),
        norm_sq_H=norm_sq(H).value,
    )


# ---------------------------------------------------------------------------
# identity suite
# ---------------------------------------------------------------------------


def _sup(arr) -> float:
    return float(np.max(np.abs(arr)))


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
    R = ev.plus.R.components
    Rm = ev.minus.R.components
    dHv = full_components(ext.dH, pt)
    dstarHv = full_components(ext.dstar_H, pt)

    out = {}
    out["curvature_cross"] = _sup(R - curvature_via_eq1(ev).components)

    # first Bianchi with torsion: cyclic sum vs dH, grad H and quadratic terms;
    # its (4, 4, 4, 4, n) temporaries are dropped at once, since what the
    # suite holds at one time sets the peak memory of a large grid
    quad = np.einsum("ijm...,klm...->ijkl...", Hv, Hv)
    rhs = -dHv - np.einsum("lijk...->ijkl...", DHg) + 0.5 * _cyclic(quad)
    del quad
    out["bianchi"] = _sup(_cyclic(R) - rhs)
    del rhs

    # pair swap against the opposite-torsion connection, general and closed
    swap = np.einsum("klij...->ijkl...", Rm)
    out["pair_swap"] = _sup(R - swap + 0.5 * dHv)
    if _sup(dHv) <= 1e-10:
        out["pair_swap_closed"] = _sup(R - swap)

    # Ricci of the torsion connection vs the divergence formula
    rd, rg = ev.plus.ricci, ev.riemann.ricci
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
    d_skew = cov_deriv(pt, ev.plus.conn, ext.h).value
    out["torsion_form_parallel"] = _sup(d_skew - ext.grad_h)

    # trace-free symmetric Ricci shift
    shift = 0.5 * np.einsum("i...,j...->ij...", hv, hv) - 0.125 * h2 * eye
    out["traceless_shift"] = _sup(ev.plus.Z - (ev.riemann.Z + shift))

    # torsion recovery from the connection difference
    tor = ev.plus.conn.torsion_form()
    out["torsion_recovery"] = _sup(tor.comps.value - jets.value_of(ev.Hf.comps))

    out["jacobi"] = pt.jacobi_residual()
    return out
