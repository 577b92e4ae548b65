"""Weyl connections: compatibility, Ricci formulas, the torsion pairing."""

import numpy as np
import pytest

from skewtorsion.charts import (
    InvariantForm, bonneau_chart, random_chart,
    random_one_form, random_torsion, round_s4_chart, BonneauFamily,
)
from skewtorsion.connections import levi_civita
from skewtorsion.evaluation import Evaluation
from skewtorsion.weyl import (
    einstein_weyl_residual, torsion_weyl_roundtrip, weyl_connection,
    weyl_structure,
)


def test_zero_one_form_reduces_to_levi_civita():
    chart = random_chart(0)
    pt = chart.at(chart.sample_grid(8))
    lc = levi_civita(pt)
    D = weyl_connection(lc, InvariantForm.zero(1))
    assert np.max(np.abs(D.gamma.value - lc.gamma.value)) == 0.0


def test_weyl_connection_is_torsion_free_and_conformally_metric():
    chart = random_chart(4)
    om = random_one_form(4)
    pt = chart.at(chart.sample_grid(16))
    ws = weyl_structure(pt, om)
    assert ws.torsion_residual <= 1e-12
    assert ws.dg_residual <= 1e-10
    assert not ws.D.metric_compatible


def test_weyl_connection_rejects_higher_degree():
    chart = random_chart(4)
    pt = chart.at(chart.sample_grid(4))
    with pytest.raises(ValueError):
        weyl_connection(levi_civita(pt), InvariantForm.zero(2))


@pytest.mark.parametrize("seed", [1, 5, 9])
def test_ricci_routes_agree_for_arbitrary_one_forms(seed):
    chart = random_chart(seed)
    om = random_one_form(seed)
    res = einstein_weyl_residual(chart, om, nodes=32)
    assert res["route_difference"] <= 1e-9
    assert res["scalar_difference"] <= 1e-9


def test_round_sphere_with_zero_form_is_einstein_weyl():
    res = einstein_weyl_residual(round_s4_chart(), InvariantForm.zero(1), nodes=16)
    assert res["residual_direct"] <= 1e-12
    assert res["residual_formula"] <= 1e-12


@pytest.mark.parametrize("k", [0.0, 1.0])
def test_bonneau_torsion_dual_is_einstein_weyl(k):
    chart, _ = bonneau_chart(k)
    fam = BonneauFamily(k)
    omega = InvariantForm(1, {(3,): fam.torsion_coefficient})  # *H along e4
    res = einstein_weyl_residual(chart, omega, nodes=64)
    assert res["residual_direct"] <= 1e-8
    assert res["residual_formula"] <= 1e-8
    assert res["route_difference"] <= 1e-9


def test_roundtrip_involution_and_sign():
    chart, H = bonneau_chart(0.0)
    res = torsion_weyl_roundtrip(Evaluation.on_grid(chart, H, 32))
    assert res["closing_sign"] == 1
    assert res["roundtrip_residual"] <= 1e-14
    assert res["norm_preserved"] <= 1e-14
    assert res["einstein_residual_plus"] <= 1e-8
    assert res["einstein_residual_minus"] <= 1e-8
    assert res["einstein_weyl_residual"] <= 1e-8


def test_roundtrip_zero_and_random_norm_preservation():
    chart = random_chart(2)
    res0 = torsion_weyl_roundtrip(Evaluation.on_grid(chart, InvariantForm.zero(3), 8))
    assert res0["roundtrip_residual"] == 0.0
    res = torsion_weyl_roundtrip(Evaluation.on_grid(chart, random_torsion(2), 8))
    assert res["norm_preserved"] <= 1e-12
