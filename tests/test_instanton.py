"""Induced connection on the self-dual bundle and the gauge probe."""

import numpy as np
import pytest

from skewtorsion.charts import (
    InvariantForm, bonneau_chart, flat_torsion, flat_torus_chart,
    product_chart, random_chart, random_torsion, round_s4_chart,
)
from skewtorsion.connections import levi_civita, with_skew_torsion
from skewtorsion.decomposition import decompose_point
from skewtorsion.evaluation import ConnectionData, Evaluation
from skewtorsion.instanton import (
    gauge_equivalence_probe, killing_residual, self_duality_residual,
    yang_mills_density_check,
)


def _induced(chart, H, nodes=16):
    pt = chart.at(chart.sample_grid(nodes))
    return ConnectionData(with_skew_torsion(levi_civita(pt), H.at(pt))).induced


def test_flat_torus_has_zero_induced_connection():
    ch = flat_torus_chart()
    pt = ch.at(ch.sample_grid(4))
    ic = ConnectionData(levi_civita(pt)).induced
    assert np.max(np.abs(ic.F_mats)) == 0.0
    from skewtorsion import jets
    for i in range(4):
        for p in range(3):
            for q in range(3):
                assert np.max(np.abs(np.asarray(jets.value_of(ic.omega[i][p][q])))) == 0.0


def test_round_sphere_induced_curvature_is_self_dual_constant_norm():
    ch = round_s4_chart()
    pt = ch.at(ch.sample_grid(8))
    ic = ConnectionData(levi_civita(pt)).induced
    assert ic.block_residual <= 1e-12
    assert self_duality_residual(ic) <= 1e-12
    norms = np.einsum("sm...,sm...->...", ic.rows, ic.rows)
    assert np.max(np.abs(norms - 3.0)) <= 1e-12


def test_induced_rejects_non_metric_connection():
    from skewtorsion.weyl import weyl_connection
    from skewtorsion.charts import random_one_form
    chart = random_chart(0)
    pt = chart.at(chart.sample_grid(4))
    D = weyl_connection(levi_civita(pt), random_one_form(0))
    with pytest.raises(ValueError):
        ConnectionData(D).induced


@pytest.mark.parametrize("sign", [+1.0, -1.0])
def test_s4_family_connections_are_instantons(sign):
    chart, H = bonneau_chart(0.0)
    ic = _induced(chart, H.scaled(sign), nodes=32)
    assert ic.block_residual <= 1e-9
    assert self_duality_residual(ic) <= 1e-8


def test_self_duality_residual_matches_einstein_block():
    chart = random_chart(10)
    H = random_torsion(10)
    ic = _induced(chart, H, nodes=16)
    rep = decompose_point(Evaluation.on_grid(chart, H, 16))
    # same quantity through two code paths
    sd = self_duality_residual(ic)
    blk = float(np.max(np.sqrt(np.einsum("pq...,pq...->...", rep.C, rep.C))))
    assert sd == pytest.approx(blk, rel=1e-9)
    assert sd > 1e-3  # generic torsion is nowhere near an instanton


def test_yang_mills_density_for_the_s4_family():
    chart, H = bonneau_chart(0.0)
    res = yang_mills_density_check(Evaluation.on_grid(chart, H, 64))
    assert res["pair_residual"] <= 1e-9
    assert res["formula_residual_plus"] <= 1e-9
    assert res["formula_residual_minus"] <= 1e-9


def test_yang_mills_density_round_sphere_value():
    res = yang_mills_density_check(Evaluation.on_grid(round_s4_chart(), InvariantForm.zero(3), 16))
    assert np.max(np.abs(res["density"] - 3.0)) <= 1e-12
    assert res["pair_residual"] == 0.0


def test_yang_mills_density_flat_group():
    ch = product_chart(1.0, 1.0)
    res = yang_mills_density_check(Evaluation.on_grid(ch, flat_torsion(ch), 8))
    assert np.max(np.abs(res["density"])) <= 1e-12


def test_killing_residual_cases():
    chart, H = bonneau_chart(0.0)
    res = killing_residual(Evaluation.on_grid(chart, H, 64))
    assert res["closed"]
    assert res["killing_residual"] <= 1e-8
    ch = product_chart(1.0, 1.0)
    res = killing_residual(Evaluation.on_grid(ch, flat_torsion(ch), 8))
    assert res["killing_residual"] <= 1e-14
    res = killing_residual(Evaluation.on_grid(random_chart(3), random_torsion(3), 16))
    assert res["killing_residual"] > 1e-3


def test_probe_s4_family_detects_inequivalence():
    chart, H = bonneau_chart(0.0)
    rep = gauge_equivalence_probe(Evaluation.on_grid(chart, H, 128))
    assert rep.verdict == "inequivalent"
    s = rep.summary()
    assert s["kernel_dim_one_fraction"] >= 0.95
    assert s["min_gap"] >= 1e3
    assert rep.inf_nabla_g_mid > 10.0 * 0.0 + rep.threshold


def test_probe_zero_torsion_is_equivalent():
    chart, H = bonneau_chart(0.0)
    rep = gauge_equivalence_probe(Evaluation.on_grid(chart, InvariantForm.zero(3), 64))
    assert rep.verdict == "equivalent"
    assert rep.sup_nabla_g <= rep.threshold
    # the parallel section is the identity, up to normalization
    sec = rep.section
    eye = np.eye(3) / np.sqrt(3.0)
    dev = min(np.max(np.abs(sec - eye)), np.max(np.abs(sec + eye)))
    assert dev <= 1e-9


def test_probe_flat_pair_reports_full_kernel():
    ch = product_chart(1.0, 1.0)
    rep = gauge_equivalence_probe(Evaluation.on_grid(ch, flat_torsion(ch), 32))
    assert rep.verdict == "equivalent"
    assert np.all(rep.kernel_dims == 9)


def test_probe_verdict_stable_under_refinement():
    chart, H = bonneau_chart(0.0)
    r1 = gauge_equivalence_probe(Evaluation.on_grid(chart, H, 96))
    r2 = gauge_equivalence_probe(Evaluation.on_grid(chart, H, 192))
    assert r1.verdict == r2.verdict == "inequivalent"


def test_yang_mills_action_consistent_with_pontryagin():
    from skewtorsion.topology import integrate_invariant, pontryagin_lambda_plus
    chart, H = bonneau_chart(0.0)

    def action(sign):
        def dens(pt):
            ic = ConnectionData(
                with_skew_torsion(levi_civita(pt), sign * H.at(pt))).induced
            return np.einsum("sm...,sm...->...", ic.rows, ic.rows)
        return integrate_invariant(chart, dens, nodes=128)[0]

    s_plus, s_minus = action(+1.0), action(-1.0)
    assert s_plus == pytest.approx(s_minus, rel=1e-10)
    p1, _, _ = pontryagin_lambda_plus(chart, H, nodes=128)
    # for a self-dual induced connection the action is 2 pi^2 p1
    assert s_plus == pytest.approx(2.0 * np.pi ** 2 * p1, rel=1e-8)


@pytest.mark.parametrize("k", [0.0, 1.0])
def test_probe_inequivalent_along_the_family(k):
    chart, H = bonneau_chart(k)
    rep = gauge_equivalence_probe(Evaluation.on_grid(chart, H, 96))
    assert rep.verdict == "inequivalent"
