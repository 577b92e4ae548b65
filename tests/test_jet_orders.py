"""Each object of an evaluation context is built at the lowest jet order its
readers use: H at order 1, value-only derivatives and the exterior data at
order 0.  Coefficient k of a jet operation reads operand coefficients up to
k only (``test_jets``), so the pruned stages give the bits of the same
formulas on the full-order jets, recomputed here."""

import numpy as np
import pytest

from skewtorsion import charts, jets
from skewtorsion.connections import (
    _EYE4, _TRIPLES, _sym, AffineConnection, cov_deriv, curvature, d_form,
    full_components, identity_suite,
)
from skewtorsion.evaluation import Evaluation
from skewtorsion.frame import _FULL, hodge_star, norm_sq

CHARTS = {
    "random": {"type": "random", "params": {"seed": 3}},
    "bonneau_k-1": {"type": "bonneau", "params": {"k": -1.0}},
    "bonneau_k0.3": {"type": "bonneau", "params": {"k": 0.3}},
    "product": {"type": "product", "params": {"b0": 1.3, "L": 2.0}},
    "flat": {"type": "flat", "params": {"L": 2.0}},
    "round": {"type": "round"},
}


def _same(got, want):
    """Bitwise equality of two jets (every coefficient) or two arrays."""
    if isinstance(want, jets.Jet):
        assert got.order == want.order
        for p, q in zip(got.coeffs, want.coeffs):
            _same(p, q)
        return
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _cyclic(T):
    return T + np.einsum("ijkl...->jkil...", T) + np.einsum("ijkl...->kijl...", T)


def _torsion_values(conn: AffineConnection):
    """The torsion 3-form of a connection on its full-order coefficients."""
    G = conn.gamma
    T = G - jets.einsum("jik...->ijk...", G) - conn.pt.structure
    return T.value[_TRIPLES]


def _suite(ev: Evaluation, H2, plus: AffineConnection) -> dict:
    """The identity suite on the full-order H jets ``H2`` and +H connection
    ``plus``: every (4, 4, 4, 4, n) tensor built in full, each product of
    two H's contracted on its own."""
    pt, lc = ev.pt, ev.lc
    R, Rm, Rg = ev.plus.R, ev.minus.R, ev.riemann.R
    Hv = full_components(H2, pt)
    DH = _FULL[3](cov_deriv(pt, lc, H2).value, lead=1)
    h = hodge_star(H2)
    dh = d_form(pt, h)
    dHv = full_components(d_form(pt, H2), pt)
    dstarHv = full_components(-1.0 * hodge_star(dh), pt)
    grad_h = cov_deriv(pt, lc, h).value

    out = {}
    quad = 0.25 * (np.einsum("ilm...,jkm...->ijkl...", Hv, Hv)
                   - np.einsum("jlm...,ikm...->ijkl...", Hv, Hv))
    dterm = -0.5 * DH + 0.5 * np.einsum("ijkl...->jikl...", DH)
    out["curvature_cross"] = np.max(np.abs(R - (Rg + quad + dterm)))
    quad = np.einsum("ijm...,klm...->ijkl...", Hv, Hv)
    rhs = -dHv - np.einsum("lijk...->ijkl...", DH) + 0.5 * _cyclic(quad)
    out["bianchi"] = np.max(np.abs(_cyclic(R) - rhs))
    swap = np.einsum("klij...->ijkl...", Rm)
    out["pair_swap"] = np.max(np.abs(R - swap + 0.5 * dHv))
    if np.max(np.abs(dHv)) <= 1e-10:
        out["pair_swap_closed"] = np.max(np.abs(R - swap))
    rd, rg = ev.plus, ev.riemann
    quad_ric = 0.25 * np.einsum("ikm...,jkm...->ij...", Hv, Hv)
    out["ricci_formula"] = np.max(np.abs(rd.ric - (rg.ric - quad_ric - 0.5 * dstarHv)))
    out["ricci_antisym"] = np.max(np.abs(0.5 * (rd.ric - np.einsum("ij...->ji...", rd.ric))
                                         + 0.5 * dstarHv))
    out["scalar_relation"] = np.max(np.abs(rd.scalar - rg.scalar + 1.5 * norm_sq(H2).value))
    hv = full_components(h, pt)
    h2 = np.einsum("i...,i...->...", hv, hv)
    star_dh = full_components(hodge_star(dh), pt)
    eye = _EYE4[..., None]
    base = rg.ric - 0.5 * h2 * eye + 0.5 * np.einsum("i...,j...->ij...", hv, hv)
    out["ricci_four_dim"] = np.max(np.abs(rd.ric - (base + 0.5 * star_dh)))
    d_skew = cov_deriv(pt, plus, h).value
    out["torsion_form_parallel"] = np.max(np.abs(d_skew - grad_h))
    shift = 0.5 * np.einsum("i...,j...->ij...", hv, hv) - 0.125 * h2 * eye
    out["traceless_shift"] = np.max(np.abs(ev.plus.Z - (ev.riemann.Z + shift)))
    out["torsion_recovery"] = np.max(np.abs(_torsion_values(plus) - H2.comps.value))
    out["jacobi"] = pt.jacobi_residual()
    return {k: float(v) for k, v in out.items()}


@pytest.mark.parametrize("nodes", [7, 64])
@pytest.mark.parametrize("name", list(CHARTS))
def test_pruned_stages_equal_the_full_order_formulas(name, nodes):
    chart, H = charts.chart_and_torsion(CHARTS[name])
    ev = Evaluation.on_grid(chart, H, nodes)
    pt, lc = ev.pt, ev.lc
    H2 = H.at(pt)
    assert H2.comps.order == 2
    # H at order 1: its second derivative has no reader
    assert ev.Hf.comps.order == 1
    _same(ev.Hf.comps, jets.truncate(H2.comps, 1))

    # the connections with torsion +-H
    full = {}
    for sign, cd in ((1.0, ev.plus), (-1.0, ev.minus)):
        full[sign] = AffineConnection(
            pt, lc.gamma + 0.5 * jets.truncate((sign * H2).full(), lc.gamma.order))
        _same(cd.conn.gamma, full[sign].gamma)
        _same(cd.R, curvature(full[sign]))

    # torsion forms, values only
    for conn, ref in ((lc, lc), (ev.plus.conn, full[1.0])):
        tor = conn.torsion_form().comps
        assert tor.order == 0
        _same(tor.value, _torsion_values(ref))

    # the Levi-Civita derivative of H and the exterior data of H
    _same(ev.DH, _FULL[3](cov_deriv(pt, lc, H2).value, lead=1))
    ext = ev.ext
    h = hodge_star(H2)
    dH, dh = d_form(pt, H2), d_form(pt, h)
    grad = cov_deriv(pt, lc, h).value
    _same(ext.H.comps, jets.truncate(H2.comps, 1))
    _same(ext.h.comps, jets.truncate(h.comps, 1))
    for got, want in ((ext.dH, dH), (ext.dh, dh), (ext.dstar_H, -1.0 * hodge_star(dh))):
        assert got.comps.order == 0
        _same(got.comps.value, want.comps.value)
    _same(ext.star_dH, hodge_star(dH).comps.value[0])
    _same(ext.grad_h, grad)
    _same(ext.sym_grad_h, _sym(grad))
    _same(ext.norm_sq_H, norm_sq(H2).value)

    # every residual of the identity suite
    got = identity_suite(ev)
    want = _suite(ev, H2, full[1.0])
    assert {k: float(v).hex() for k, v in got.items()} == {k: v.hex() for k, v in want.items()}
