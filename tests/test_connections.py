"""Connection constructors, curvature routes, and the identity suite."""

import numpy as np
import pytest

from skewtorsion import jets
from skewtorsion.charts import (
    InvariantForm, bonneau_chart, flat_torsion, flat_torus_chart,
    product_chart, random_chart, random_torsion, round_s4_chart,
)
from skewtorsion.connections import (
    CurvatureTensor, codifferential, curvature, curvature_via_eq1, d_form,
    exterior_ops, full_components, identity_suite, levi_civita,
    ricci_and_scalar, with_skew_torsion,
)
from skewtorsion.evaluation import Evaluation
from skewtorsion.frame import KForm, hodge_star


def _val(c, pt):
    return np.broadcast_to(np.asarray(jets.value_of(c)), pt.x.shape)


def test_levi_civita_flat_torus_vanishes():
    pt = flat_torus_chart().at(np.array([0.1, 0.6]))
    lc = levi_civita(pt)
    assert np.max(np.abs(lc.gamma.value)) == 0.0


def test_levi_civita_biinvariant_half_bracket():
    pt = product_chart(1.0, 1.0).at(np.array([0.2]))
    lc = levi_civita(pt)
    # g(D_{e2} e3, e4) = -1/2 on the unit-profile orbit
    assert _val(lc.gamma.value[1][2][3], pt)[0] == pytest.approx(-0.5)
    cs = pt.structure_functions().value
    for i in range(1, 4):
        for j in range(1, 4):
            for k in range(1, 4):
                assert _val(lc.gamma.value[i][j][k], pt)[0] == pytest.approx(
                    0.5 * _val(cs[i][j][k], pt)[0], abs=1e-15)


def test_round_sphere_constant_curvature():
    chart = round_s4_chart()
    pt = chart.at(chart.sample_grid(16))
    R = curvature(levi_civita(pt)).components
    expected = (np.einsum("ik,jl->ijkl", np.eye(4), np.eye(4))
                - np.einsum("il,jk->ijkl", np.eye(4), np.eye(4)))[..., None]
    assert np.max(np.abs(R - expected)) < 1e-12
    rd = ricci_and_scalar(CurvatureTensor(R))
    assert np.max(np.abs(rd.ric - 3.0 * np.eye(4)[..., None])) < 1e-12
    assert np.max(np.abs(rd.scalar - 12.0)) < 1e-12


def test_metric_curvature_antisymmetries():
    chart = random_chart(9)
    H = random_torsion(9)
    pt = chart.at(chart.sample_grid(8))
    conn = with_skew_torsion(levi_civita(pt), H.at(pt))
    R = curvature(conn).components
    assert np.max(np.abs(R + np.einsum("ijkl...->jikl...", R))) < 1e-12
    assert np.max(np.abs(R + np.einsum("ijkl...->ijlk...", R))) < 1e-12


def test_skew_torsion_recovery_and_zero_case():
    chart = random_chart(12)
    pt = chart.at(chart.sample_grid(8))
    lc = levi_civita(pt)
    H = random_torsion(12).at(pt)
    conn = with_skew_torsion(lc, H)
    tor = conn.torsion_form()
    for tc, hc in zip(tor.comps.value, H.comps.value):
        assert np.max(np.abs(_val(tc, pt) - _val(hc, pt))) < 1e-12
    conn0 = with_skew_torsion(lc, KForm(3))
    assert np.max(np.abs(conn0.gamma.value - lc.gamma.value)) == 0.0


def test_with_skew_torsion_validates_input():
    chart = random_chart(1)
    pt = chart.at(chart.sample_grid(4))
    lc = levi_civita(pt)
    with pytest.raises(ValueError):
        with_skew_torsion(lc, KForm(2))
    skew = with_skew_torsion(lc, random_torsion(1).at(pt))
    with pytest.raises(ValueError):
        with_skew_torsion(skew, KForm(3))  # base must be torsion-free


def test_flat_connection_on_group_both_signs():
    ch = product_chart(1.0, 1.0)
    pt = ch.at(ch.sample_grid(8))
    lc = levi_civita(pt)
    for sign in (+1, -1):
        H = flat_torsion(ch, sign).at(pt)
        R = curvature(with_skew_torsion(lc, H)).components
        assert np.max(np.abs(R)) <= 1e-12
    # without torsion the curvature does not vanish
    Rg = curvature(lc).components
    assert np.max(np.abs(Rg)) > 0.1


def test_scalar_relation_on_group_charts():
    for b0 in (1.0, 2.0):
        ch = product_chart(b0, 1.0)
        pt = ch.at(ch.sample_grid(4))
        lc = levi_civita(pt)
        rg = ricci_and_scalar(curvature(lc))
        assert np.max(np.abs(rg.scalar - 1.5 / b0 ** 2)) < 1e-12
        H = flat_torsion(ch).at(pt)
        rn = ricci_and_scalar(curvature(with_skew_torsion(lc, H)))
        assert np.max(np.abs(rn.scalar)) < 1e-12
        ext = exterior_ops(lc, H)
        assert np.max(np.abs(ext.norm_sq_H - 1.0 / b0 ** 2)) < 1e-14


def test_curvature_two_routes_agree():
    for seed in range(5):
        chart = random_chart(seed)
        H = random_torsion(seed)
        pt = chart.at(chart.sample_grid(16))
        Hf = H.at(pt)
        direct = curvature(with_skew_torsion(levi_civita(pt), Hf)).components
        assembled = curvature_via_eq1(Evaluation(pt, Hf)).components
        assert np.max(np.abs(direct - assembled)) <= 1e-10


def test_exterior_derivative_matches_invariant_structure():
    ch = product_chart(1.0, 1.0)
    pt = ch.at(np.array([0.4]))
    # d e2 = -c^2_ij e^i ^ e^j/2: for unit profiles d(s1) = s2 ^ s3
    de2 = d_form(pt, KForm.basis(1, (1,)))
    assert jets.value_of(de2[(2, 3)])[0] == pytest.approx(1.0)
    assert jets.value_of(de2[(0, 1)])[0] == pytest.approx(0.0)


def test_codifferential_is_adjoint_sign_convention():
    # flat torus, H = f(x) e^{123}: d*H has only the (1,2) component -f'/a
    ch = flat_torus_chart(2 * np.pi)
    H = InvariantForm(3, [(0, 1, 2)], lambda pt: [jets.sin(pt.seed)])
    pt = ch.at(np.array([0.7]))
    Hf = H.at(pt)
    ds = codifferential(pt, Hf)
    assert ds.degree == 2
    assert jets.value_of(ds[(0, 1)])[0] == pytest.approx(0.0, abs=1e-15)
    # nonzero component pairs against e^{12}: -d/dx applied through the dual
    dh = d_form(pt, hodge_star(Hf))
    assert jets.value_of(hodge_star(dh)[(0, 1)])[0] == pytest.approx(
        -jets.value_of(ds[(0, 1)])[0], abs=1e-15)


def test_bonneau_torsion_is_closed_with_nonclosed_dual():
    chart, H = bonneau_chart(0.0)
    pt = chart.at(chart.sample_grid(32))
    ext = exterior_ops(levi_civita(pt), H.at(pt))
    assert np.max(np.abs(full_components(ext.dH, pt))) <= 1e-12
    # the torsion 1-form points along e4 and is not closed
    hv = full_components(ext.h.values(), pt)
    assert np.max(np.abs(hv[:3])) <= 1e-14
    assert np.max(np.abs(hv[3])) > 0.1
    assert np.max(np.abs(full_components(ext.dh.values(), pt))) > 0.1


def test_flat_torus_constant_torsion_closed_and_coclosed():
    ch = flat_torus_chart()
    H = InvariantForm(3, [(1, 2, 3)], lambda pt: [1.0 + 0.0 * pt.seed])
    pt = ch.at(ch.sample_grid(4))
    ext = exterior_ops(levi_civita(pt), H.at(pt))
    assert np.max(np.abs(full_components(ext.dH, pt))) == 0.0
    assert np.max(np.abs(full_components(ext.dstar_H.values(), pt))) == 0.0


@pytest.mark.parametrize("seed", [0, 3, 8])
def test_identity_suite_random_draws(seed):
    chart = random_chart(seed)
    H = random_torsion(seed)
    res = identity_suite(Evaluation.on_grid(chart, H, 64))
    for key, val in res.items():
        assert val <= 1e-9, f"{key} = {val}"


def test_identity_suite_closed_torsion_swap():
    chart, H = bonneau_chart(0.5)
    res = identity_suite(Evaluation.on_grid(chart, H, 32))
    assert "pair_swap_closed" in res
    assert res["pair_swap_closed"] <= 1e-9


def test_identity_suite_zero_torsion_reduces_to_classical():
    chart = random_chart(2)
    res = identity_suite(Evaluation.on_grid(chart, InvariantForm.zero(3), 16))
    assert res["bianchi"] <= 1e-12
    assert res["scalar_relation"] <= 1e-12
    assert res["ricci_antisym"] <= 1e-12


def test_divergence_trace_consistency():
    # trace of S(grad h) equals minus the codifferential of h
    chart = random_chart(6)
    H = random_torsion(6)
    pt = chart.at(chart.sample_grid(16))
    ext = exterior_ops(levi_civita(pt), H.at(pt))
    tr = np.einsum("ii...->...", ext.sym_grad_h)
    dstar_h = _val(codifferential(pt, ext.h).comps.value[0], pt)
    assert np.max(np.abs(tr + dstar_h)) <= 1e-12
    # and the 4-form dual of dH equals that same codifferential
    assert np.max(np.abs(ext.star_dH - dstar_h)) <= 1e-12


def test_curvature_radial_derivative_against_finite_differences():
    # end-to-end oracle: the jet-backed e1(Gamma) terms inside the curvature
    # agree with central finite differences of the connection coefficients
    chart = random_chart(21)
    H = random_torsion(21)
    x0 = 1.1
    h = 1e-5

    def gamma_at(x):
        pt = chart.at(np.array([x]))
        conn = with_skew_torsion(levi_civita(pt), H.at(pt))
        return conn.gamma.value[..., 0], pt

    gp, _ = gamma_at(x0 + h)
    gm, _ = gamma_at(x0 - h)
    g0, pt0 = gamma_at(x0)
    a0 = float(np.asarray(jets.value_of(pt0.a)).reshape(-1)[0])
    fd = (gp - gm) / (2 * h) / a0

    conn0 = with_skew_torsion(levi_civita(pt0), H.at(pt0))
    exact = pt0.e1(conn0.gamma).value[..., 0]  # e1 includes the 1/a
    assert np.max(np.abs(exact - fd)) < 1e-7


def test_named_residual_checks():
    chart = random_chart(14)
    H = random_torsion(14)
    res = identity_suite(Evaluation.on_grid(chart, H, 16))
    assert res["ricci_formula"] <= 1e-9
    assert res["scalar_relation"] <= 1e-9


def test_tensors_are_single_jets():
    chart = random_chart(4)
    pt = chart.at(chart.sample_grid(8))
    lc = levi_civita(pt)
    for t, shape in ((pt.structure_functions(), (4, 4, 4, 8)), (lc.gamma, (4, 4, 4, 8)),
                     (random_torsion(4).at(pt).comps, (4, 8))):
        assert isinstance(t, jets.Jet)
        assert t.value.shape == shape
