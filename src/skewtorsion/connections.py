"""Affine connections in a moving frame and their curvature.

Connection coefficients are stored as gamma[i][j][k] = g(D_{e_i} e_j, e_k),
jet-valued so the radial derivative entering the curvature is exact.  The
curvature sign convention is fixed by

    R(X, Y, Z, W) = g([D_X, D_Y] W - D_{[X,Y]} W, Z),

under which the unit round sphere has R_1212 = +1, Ric = 3 g, s = 12, and
the curvature of the connection with torsion H decomposes into the
Riemannian part, terms quadratic in H with coefficient 1/4, and first
derivatives of H with coefficient 1/2.

The codifferential is d* = -*d* on every degree (the 4-dimensional
Riemannian adjoint), equal to minus the divergence contraction.

The curvature routes, the exterior data of H and the identity suite read
their connections and curvature tensors from an evaluation context
(:class:`skewtorsion.evaluation.Evaluation`), which builds each once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .jets import Jet
from .frame import KForm, MULTI_INDICES, hodge_star, norm_sq
from .charts import FramePoint

if TYPE_CHECKING:
    from .evaluation import Evaluation

__all__ = [
    "AffineConnection", "CurvatureTensor", "RicciData",
    "levi_civita", "with_skew_torsion",
    "curvature", "curvature_via_eq1", "ricci_and_scalar",
    "d_form", "codifferential", "cov_deriv_one_form", "cov_deriv_three_form",
    "ExteriorData", "exterior_ops", "identity_suite", "full_components",
]

_EYE4 = np.eye(4)


@dataclass
class AffineConnection:
    """Frame connection at a batch of points; gamma[i][j][k] = Gamma^k_ij."""

    pt: FramePoint
    gamma: list
    metric_compatible: bool = True

    def gamma_values(self) -> np.ndarray:
        """Coefficients as an array of shape (4, 4, 4, n)."""
        return self.pt.values(self.gamma)

    def gamma_radial_derivatives(self) -> np.ndarray:
        """e1(Gamma^k_ij) as an array of shape (4, 4, 4, n)."""
        pt = self.pt
        return pt.values([[[pt.e1(g) for g in row] for row in mat] for mat in self.gamma])

    def torsion_form(self) -> KForm:
        """Torsion lowered to a 3-form: T(e_i,e_j,e_k) = g(T(e_i,e_j), e_k)."""
        cs = self.pt.structure_functions()
        out = KForm(3)
        for pos, (i, j, k) in enumerate(MULTI_INDICES[3]):
            out.comps[pos] = (self.gamma[i][j][k] - self.gamma[j][i][k] - cs[i][j][k])
        return out


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
        sym = 0.5 * (self.ric + np.einsum("ij...->ji...", self.ric))
        return sym - 0.25 * self.scalar * _EYE4[..., None]


def full_components(form: KForm, pt: FramePoint) -> np.ndarray:
    """Fully antisymmetric value array of a frame k-form, grid axis last."""
    k = form.degree
    shape = (4,) * k + pt.x.shape
    out = np.zeros(shape)
    if k == 0:
        return pt.values(form.comps[0])
    from itertools import permutations
    from .frame import _perm_sign
    for idx, c in zip(MULTI_INDICES[k], form.comps):
        v = pt.values(c)
        for perm in permutations(idx):
            out[perm] = _perm_sign(perm) * v
    return out


# ---------------------------------------------------------------------------
# connections
# ---------------------------------------------------------------------------


def levi_civita(pt: FramePoint) -> AffineConnection:
    """Torsion-free metric connection from the frame Koszul formula."""
    cs = pt.structure_functions()
    gamma = [[[0.5 * (cs[i][j][k] - cs[j][k][i] + cs[k][i][j])
               for k in range(4)] for j in range(4)] for i in range(4)]
    return AffineConnection(pt, gamma, metric_compatible=True)


def with_skew_torsion(lc: AffineConnection, H: KForm) -> AffineConnection:
    """Metric connection with torsion 3-form H: Gamma'_kij = Gamma + H_ijk/2."""
    if not lc.metric_compatible:
        raise ValueError("base connection must be metric")
    if H.degree != 3:
        raise ValueError("torsion must be a 3-form")
    tor = lc.torsion_form()
    scale = max(1.0, float(np.max(np.abs(lc.gamma_values()))))
    if np.max(np.abs([lc.pt.values(c) for c in tor.comps])) > 1e-10 * scale:
        raise ValueError("base connection must be torsion-free")
    gamma = [[[lc.gamma[i][j][k] + 0.5 * H[(i, j, k)]
               for k in range(4)] for j in range(4)] for i in range(4)]
    return AffineConnection(lc.pt, gamma, metric_compatible=True)


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------


def curvature(conn: AffineConnection) -> CurvatureTensor:
    """Frame curvature of any connection (metric or not)."""
    pt = conn.pt
    G = conn.gamma_values()
    dG = conn.gamma_radial_derivatives()
    Cs = pt.brackets
    n = pt.npoints

    R = np.zeros((4, 4, 4, 4, n))
    # e_i(Gamma^k_jl) - e_j(Gamma^k_il): only the radial direction acts
    R[0] += np.einsum("jlk...->jkl...", dG)
    R[:, 0] -= np.einsum("ilk...->ikl...", dG)
    quad = np.einsum("jlm...,imk...->ijkl...", G, G)
    R += quad - np.einsum("ijkl...->jikl...", quad)
    R -= np.einsum("ijm...,mlk...->ijkl...", Cs, G)
    return CurvatureTensor(R)


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


def d_form(pt: FramePoint, form: KForm) -> KForm:
    """Exterior derivative of an invariant frame form via brackets."""
    k = form.degree
    if k >= 4:
        raise ValueError("cannot differentiate a 4-form in dimension 4")
    cs = pt.structure_functions()
    out = KForm(k + 1)
    for pos, idx in enumerate(MULTI_INDICES[k + 1]):
        acc = None
        for r, ir in enumerate(idx):
            rest = idx[:r] + idx[r + 1:]
            if ir == 0:
                term = ((-1) ** r) * pt.e1(_as_jet_comp(form[rest], pt))
                acc = term if acc is None else acc + term
        for r in range(len(idx)):
            for s in range(r + 1, len(idx)):
                rest = tuple(t for q, t in enumerate(idx) if q not in (r, s))
                sgn = (-1) ** (r + s)
                for m in range(4):
                    cm = cs[idx[r]][idx[s]][m]
                    comp = form[(m,) + rest]
                    if isinstance(comp, float) and comp == 0.0:
                        continue
                    term = sgn * (cm * comp)
                    acc = term if acc is None else acc + term
        out.comps[pos] = acc if acc is not None else 0.0
    return out


def _as_jet_comp(c, pt: FramePoint):
    if isinstance(c, Jet):
        return c
    return Jet.constant(np.broadcast_to(np.asarray(c, float), pt.x.shape).copy(), 2)


def codifferential(pt: FramePoint, form: KForm) -> KForm:
    """d* = -*d* (4-dimensional Riemannian adjoint of d, all degrees)."""
    return -1.0 * hodge_star(d_form(pt, hodge_star(form)))


def cov_deriv_one_form(pt: FramePoint, conn: AffineConnection, h: KForm):
    """(D_i h)_j as a 4x4 nested list of jets."""
    if h.degree != 1:
        raise ValueError("need a 1-form")
    out = [[None] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(4):
            acc = pt.frame_derivative(i, _as_jet_comp(h[(j,)], pt))
            for m in range(4):
                acc = acc - conn.gamma[i][j][m] * h[(m,)]
            out[i][j] = acc
    return out


def cov_deriv_three_form(pt: FramePoint, conn: AffineConnection, H: KForm):
    """(D_i H)_jkl on increasing (j,k,l), as a dict {(i, idx): jet}."""
    if H.degree != 3:
        raise ValueError("need a 3-form")
    out = {}
    for i in range(4):
        for idx in MULTI_INDICES[3]:
            j, k, l = idx
            acc = pt.frame_derivative(i, _as_jet_comp(H[idx], pt))
            for m in range(4):
                acc = acc - conn.gamma[i][j][m] * H[(m, k, l)]
                acc = acc - conn.gamma[i][k][m] * H[(j, m, l)]
                acc = acc - conn.gamma[i][l][m] * H[(j, k, m)]
            out[(i, idx)] = acc
    return out


def cov_deriv_three_form_values(pt, conn, H: KForm) -> np.ndarray:
    """(D_i H)_jkl fully antisymmetrized in (jkl), shape (4,4,4,4,n)."""
    from itertools import permutations
    from .frame import _perm_sign
    d = cov_deriv_three_form(pt, conn, H)
    n = pt.npoints
    out = np.zeros((4, 4, 4, 4, n))
    for (i, idx), v in d.items():
        val = pt.values(v)
        for perm in permutations(idx):
            out[(i,) + perm] = _perm_sign(perm) * val
    return out


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
    star_dH = pt.values(hodge_star(dH).comps[0])
    dstar_H = codifferential(pt, H)
    h = hodge_star(H)
    dh = d_form(pt, h)
    grad = pt.values(cov_deriv_one_form(pt, lc, h))
    sym = 0.5 * (grad + np.einsum("ij...->ji...", grad))
    return ExteriorData(
        H=H, dH=dH, star_dH=star_dH, dstar_H=dstar_H, h=h, dh=dh,
        grad_h=grad, sym_grad_h=sym,
        norm_sq_H=pt.values(norm_sq(H)),
    )


# ---------------------------------------------------------------------------
# identity suite
# ---------------------------------------------------------------------------


def _sup(arr) -> float:
    return float(np.max(np.abs(arr)))


def identity_suite(ev: Evaluation) -> dict:
    """Residuals of the curvature, Ricci and Bianchi identities on a grid.

    All identities are exact for smooth invariant data, so every residual
    is float noise; the suite reports sup norms over the grid together
    with the sign conventions that close the two orientation-sensitive
    identities.
    """
    pt, ext, Hv, DHg = ev.pt, ev.ext, ev.Hv, ev.DH
    R = ev.plus.R.components
    Rm = ev.minus.R.components
    R1 = curvature_via_eq1(ev).components
    dHv = full_components(ext.dH.values(), pt)
    dstarHv = full_components(ext.dstar_H.values(), pt)

    out = {}
    out["curvature_cross"] = _sup(R - R1)

    # first Bianchi with torsion: cyclic sum vs dH, grad H and quadratic terms
    cyc = (R + np.einsum("ijkl...->jkil...", R) + np.einsum("ijkl...->kijl...", R))
    quad = np.einsum("ijm...,klm...->ijkl...", Hv, Hv)
    cyc_quad = (quad + np.einsum("ijkl...->jkil...", quad)
                + np.einsum("ijkl...->kijl...", quad))
    rhs = -dHv - np.einsum("lijk...->ijkl...", DHg) + 0.5 * cyc_quad
    res_plus = _sup(cyc - rhs)
    res_minus = _sup(cyc - (rhs + 2.0 * dHv))  # opposite dH sign
    out["bianchi"] = min(res_plus, res_minus)
    out["bianchi_dH_sign"] = +1 if res_plus <= res_minus else -1

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
    hv = full_components(ext.h.values(), pt)
    h2 = np.einsum("i...,i...->...", hv, hv)
    star_dh = full_components(hodge_star(ext.dh).values(), pt)
    eye = np.eye(4)[..., None]
    base = rg.ric - 0.5 * h2 * eye + 0.5 * np.einsum("i...,j...->ij...", hv, hv)
    res_p = _sup(rd.ric - (base + 0.5 * star_dh))
    res_m = _sup(rd.ric - (base - 0.5 * star_dh))
    out["ricci_four_dim"] = min(res_p, res_m)
    out["ricci_four_dim_sign"] = +1 if res_p <= res_m else -1

    # the torsion 1-form is parallel for both connections simultaneously
    d_skew = pt.values(cov_deriv_one_form(pt, ev.plus.conn, ext.h))
    out["torsion_form_parallel"] = _sup(d_skew - ext.grad_h)

    # trace-free symmetric Ricci shift
    shift = 0.5 * np.einsum("i...,j...->ij...", hv, hv) - 0.125 * h2 * eye
    out["traceless_shift"] = _sup(ev.plus.Z - (ev.riemann.Z + shift))

    # torsion recovery from the connection difference
    tor = ev.plus.conn.torsion_form()
    out["torsion_recovery"] = max(
        _sup(pt.values(tc) - pt.values(hc))
        for tc, hc in zip(tor.comps, ev.Hf.comps))

    out["jacobi"] = pt.jacobi_residual()
    return out
