"""Weyl connections: torsion-free, conformally metric, from a 1-form.

The connection attached to a 1-form w is

    D_X Y = D^g_X Y - w(X) Y / 2 - w(Y) X / 2 + g(X, Y) w# / 2,

torsion-free with Dg = w (x) g.  Its Ricci tensor is computed with the
shared frame curvature routine (no metric-compatibility assumption) and
compared against the closed formulas

    S(Ric^D) = Ric^g - (|w|^2 g - w (x) w)/2 + S(D^g w) - (d*w/2) g,
    s^D      = s^g - (3/2)|w|^2 - 3 d*w,

so the Einstein-Weyl residual (the trace-free symmetric Ricci) comes out
of two independent routes.  With h = *H this trace-free tensor equals the
Einstein-with-skew-torsion tensor of the metric pair, which is the
correspondence the round trip below exercises.

Every check here reads its geometry from an evaluation context
(:class:`skewtorsion.evaluation.Evaluation`): the frame points, the
Levi-Civita connection and its Ricci tensor and scalar, and for the
round trip H and the norms of both Einstein tensors
(``Evaluation.einstein_norm``); it builds only the Weyl connection
itself, whose ``ConnectionData`` gives its Z and scalar.
:func:`weyl_connection` takes the 1-form already evaluated at the
connection's points.
"""

from __future__ import annotations

import numpy as np

from . import jets
from .frame import KForm, hodge_star, norm_sq
from .charts import InvariantForm
from .connections import (
    _EYE4, _fro, _sym, _tf, AffineConnection, cov_deriv, codifferential, full_components,
)
from .decomposition import einstein_residual
from .evaluation import ConnectionData, Evaluation

__all__ = ["weyl_connection", "einstein_weyl_residual", "torsion_weyl_roundtrip"]

# Gamma_ijk - Gamma^g_ijk = sum_m w_m S[m, i, j, k]
# = -(w_i delta_jk + w_j delta_ik - w_k delta_ij) / 2
_WEYL_SIGNS = -0.5 * (np.einsum("mi,jk->mijk", _EYE4, _EYE4)
                      + np.einsum("mj,ik->mijk", _EYE4, _EYE4)
                      - np.einsum("mk,ij->mijk", _EYE4, _EYE4))


def weyl_connection(lc: AffineConnection, w: KForm) -> AffineConnection:
    """Torsion-free connection with Dg = w (x) g, built on D^g = ``lc``;
    ``w`` is a 1-form evaluated at the points of ``lc``."""
    if w.degree != 1:
        raise ValueError("need a 1-form")
    wc = jets.truncate(w.comps, lc.gamma.order)  # gamma is one order lower
    gamma = lc.gamma + jets.einsum("m...,mijk->ijk...", wc, _WEYL_SIGNS)
    return AffineConnection(lc.pt, gamma, metric_compatible=False)


def einstein_weyl_residual(ev: Evaluation, omega: InvariantForm) -> dict:
    """Trace-free symmetric Ricci of the Weyl connection, two routes.

    Route (i) contracts the directly computed curvature of D; route (ii)
    evaluates the closed Ricci/scalar formulas.  Returns the two sups and
    their mutual difference.
    """
    pt, lc = ev.pt, ev.lc
    w = omega.at(pt)
    weyl = ConnectionData(weyl_connection(lc, w))
    s0_direct = weyl.Z

    rg = ev.riemann
    wv = full_components(w, pt)
    w2 = np.einsum("i...,i...->...", wv, wv)
    # D^g w and d*w are read as values: w at order 1, gamma at order 0
    w1 = w.truncated(1)
    Sw = _sym(cov_deriv(pt, lc.truncated(0), w1).value)
    dstar_w = codifferential(pt, w1).comps.value[0]

    sym_formula = (rg.ric - 0.5 * (w2[None, None] * _EYE4[..., None]
                                   - np.einsum("i...,j...->ij...", wv, wv))
                   + Sw - 0.5 * dstar_w * _EYE4[..., None])
    s_formula = rg.scalar - 1.5 * w2 - 3.0 * dstar_w
    s0_formula = _tf(sym_formula, 4)
    return {
        "residual_direct": float(np.max(_fro(s0_direct))),
        "residual_formula": float(np.max(_fro(s0_formula))),
        "route_difference": float(np.max(np.abs(s0_direct - s0_formula))),
        "scalar_difference": float(np.max(np.abs(weyl.scalar - s_formula))),
    }


def torsion_weyl_roundtrip(ev: Evaluation) -> dict:
    """Round trip torsion -> 1-form -> torsion and the Einstein pairing.

    Maps H to w = *H and back to H' = -*w; in this star convention
    ** = -1 on odd degrees, so H' = +H: the closing sign is pinned to +1
    and the residual is sup |H' - H|, so a star of the wrong sign reads
    2 sup |H|.  Both torsion signs are checked to give the same Einstein
    residual, and the Einstein-Weyl residual of w is reported alongside.
    """
    Hf = ev.Hf
    w = hodge_star(Hf)
    H_back = -1.0 * hodge_star(w)

    s0 = ConnectionData(weyl_connection(ev.lc, w)).Z

    norm_h = float(np.max(np.abs(norm_sq(Hf).value - norm_sq(H_back).value)))
    return {
        "closing_sign": 1,
        "roundtrip_residual": float(np.max(np.abs((H_back - Hf).comps.value))),
        "norm_preserved": norm_h,
        "einstein_residual_plus": einstein_residual(ev),
        "einstein_residual_minus": einstein_residual(ev, -1),
        "einstein_weyl_residual": float(np.max(_fro(s0))),
    }
