"""Weyl connections: compatibility, Ricci formulas, the torsion pairing."""

import numpy as np
import pytest

from skewtorsion.charts import (
    InvariantForm, bonneau_chart, random_chart,
    random_one_form, random_torsion, round_s4_chart,
)
from skewtorsion.connections import full_components, levi_civita
from skewtorsion import weyl
from skewtorsion.evaluation import Evaluation, sup
from skewtorsion.weyl import einstein_weyl_residual, torsion_weyl_roundtrip, weyl_connection


def test_zero_one_form_reduces_to_levi_civita():
    chart = random_chart(0)
    pt = chart.at(chart.sample_grid(8))
    lc = levi_civita(pt)
    D = weyl_connection(lc, InvariantForm.zero(1).at(pt))
    assert np.max(np.abs(D.gamma.value - lc.gamma.value)) == 0.0


def test_weyl_connection_is_torsion_free_and_conformally_metric():
    chart = random_chart(4)
    om = random_one_form(4)
    ev = Evaluation.on_grid(chart, InvariantForm.zero(3), 16)
    w = om.at(ev.pt)
    D = weyl_connection(ev.lc, w)
    # (D_i g)(e_j, e_k) = -Gamma_kij - Gamma_jik for the constant frame metric
    G = D.gamma.value
    dg = -(G + np.einsum("ijk...->ikj...", G))
    target = np.einsum("i...,jk->ijk...", full_components(w, ev.pt), np.eye(4))
    assert np.max(np.abs(D.torsion_form().comps.value)) <= 1e-12
    assert np.max(np.abs(dg - target)) <= 1e-10
    assert not D.metric_compatible


def test_weyl_connection_rejects_higher_degree():
    chart = random_chart(4)
    pt = chart.at(chart.sample_grid(4))
    with pytest.raises(ValueError):
        weyl_connection(levi_civita(pt), InvariantForm.zero(2).at(pt))


@pytest.mark.parametrize("seed", [1, 5, 9])
def test_ricci_routes_agree_for_arbitrary_one_forms(seed):
    chart = random_chart(seed)
    om = random_one_form(seed)
    res = sup(einstein_weyl_residual(Evaluation.on_grid(chart, InvariantForm.zero(3), 32), om))
    assert res["route_difference"] <= 1e-9
    assert res["scalar_difference"] <= 1e-9


def test_round_sphere_with_zero_form_is_einstein_weyl():
    ev = Evaluation.on_grid(round_s4_chart(), InvariantForm.zero(3), 16)
    res = sup(einstein_weyl_residual(ev, InvariantForm.zero(1)))
    assert res["residual_direct"] <= 1e-12
    assert res["residual_formula"] <= 1e-12


@pytest.mark.parametrize("k", [0.0, 1.0])
def test_bonneau_torsion_dual_is_einstein_weyl(k):
    chart, H = bonneau_chart(k)
    omega = InvariantForm(1, [(3,)], lambda pt: [2.0 * pt.c])  # *H along e4
    res = sup(einstein_weyl_residual(Evaluation.on_grid(chart, H, 64), omega))
    assert res["residual_direct"] <= 1e-8
    assert res["residual_formula"] <= 1e-8
    assert res["route_difference"] <= 1e-9


def test_roundtrip_involution_and_sign():
    chart, H = bonneau_chart(0.0)
    res = sup(torsion_weyl_roundtrip(Evaluation.on_grid(chart, H, 32)))
    assert weyl.CLOSING_SIGN == 1
    assert res["roundtrip_residual"] <= 1e-14
    assert res["norm_preserved"] <= 1e-14
    assert res["einstein_residual_plus"] <= 1e-8
    assert res["einstein_residual_minus"] <= 1e-8
    assert res["einstein_weyl_residual"] <= 1e-8


def test_roundtrip_residual_sees_a_star_of_the_wrong_sign(monkeypatch):
    """The closing sign is pinned, so a Hodge star negated on 1-forms reads
    as a round-trip residual of 2 sup |H|, not absorbed by the other sign."""
    star = weyl.hodge_star
    monkeypatch.setattr(weyl, "hodge_star",
                        lambda a: -1.0 * star(a) if a.degree == 1 else star(a))
    chart, H = bonneau_chart(0.0)
    ev = Evaluation.on_grid(chart, H, 32)
    res = sup(torsion_weyl_roundtrip(ev))
    assert weyl.CLOSING_SIGN == 1
    assert res["roundtrip_residual"] >= np.max(np.abs(ev.Hf.comps.value)) > 0.0


def test_roundtrip_zero_and_random_norm_preservation():
    chart = random_chart(2)
    res0 = sup(torsion_weyl_roundtrip(Evaluation.on_grid(chart, InvariantForm.zero(3), 8)))
    assert res0["roundtrip_residual"] == 0.0
    res = sup(torsion_weyl_roundtrip(Evaluation.on_grid(chart, random_torsion(2), 8)))
    assert res["norm_preserved"] <= 1e-12
