"""Induced connection on the self-dual bundle and the gauge probe."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from skewtorsion.charts import (
    InvariantForm, bonneau_chart, flat_torsion, flat_torus_chart,
    product_chart, random_chart, random_torsion, round_s4_chart,
)
from skewtorsion.connections import levi_civita, with_skew_torsion
from skewtorsion.decomposition import decompose_point
from skewtorsion.evaluation import ConnectionData, Evaluation
from skewtorsion.instanton import (
    _align_signs, _intertwiner_system, gauge_equivalence_probe, killing_residual, self_duality_residual,
    yang_mills_density_check,
)


def _connection_data(chart, H, nodes=16):
    pt = chart.at(chart.sample_grid(nodes))
    return ConnectionData(with_skew_torsion(levi_civita(pt), H.at(pt)))


def test_flat_torus_has_zero_induced_connection():
    ch = flat_torus_chart()
    pt = ch.at(ch.sample_grid(4))
    ic = ConnectionData(levi_civita(pt)).induced
    assert np.max(np.abs(ic.F_mats)) == 0.0
    for i in range(4):
        for p in range(3):
            for q in range(3):
                assert np.max(np.abs(ic.omega.value[i, p, q])) == 0.0


def test_round_sphere_induced_curvature_is_self_dual_constant_norm():
    ch = round_s4_chart()
    pt = ch.at(ch.sample_grid(8))
    cd = ConnectionData(levi_civita(pt))
    ic = cd.induced
    assert cd.lambda_plus_residual <= 1e-12
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
    cd = _connection_data(chart, H.scaled(sign), nodes=32)
    assert cd.lambda_plus_residual <= 1e-9
    assert self_duality_residual(cd.induced) <= 1e-8


def test_self_duality_residual_matches_einstein_block():
    chart = random_chart(10)
    H = random_torsion(10)
    ic = _connection_data(chart, H, nodes=16).induced
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


def _bits(a):
    return a.shape, a.view(np.int64).tolist()


def _random_with_zeros(rng, shape):
    a = rng.normal(size=shape) * 10.0 ** rng.uniform(-4, 4, size=shape)
    a[rng.random(shape) < 0.3] = 0.0
    a[rng.random(shape) < 0.3] = -0.0
    return a


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 20))
def test_intertwiner_system_is_the_einsum_pair_bitwise(seed, n):
    """L equals the two einsums against the identity, zero signs included."""
    rng = np.random.default_rng(seed)
    # the probe's (n, 6, 3, 3) views of F_sd, shape (3, 3, 6, n)
    Fp = np.einsum("pqm...->...mpq", _random_with_zeros(rng, (3, 3, 6, n)))
    Fm = np.einsum("pqm...->...mpq", _random_with_zeros(rng, (3, 3, 6, n)))
    eye = np.eye(3)
    ref = (np.einsum("nmpa,qb->nmpqab", Fp, eye)
           - np.einsum("pa,nmbq->nmpqab", eye, Fm)).reshape(n, 54, 9)
    assert _bits(_intertwiner_system(Fp, Fm)) == _bits(ref)


def _align_signs_loop(g):
    g = g.copy()
    for i in range(1, len(g)):
        if np.sum(g[i] * g[i - 1]) < 0.0:
            g[i] = -g[i]
    return g


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 40), st.integers(0, 3))
def test_sign_continuation_matches_the_loop(seed, n, zero_dots):
    rng = np.random.default_rng(seed)
    g = _random_with_zeros(rng, (n, 3, 3))
    for i in rng.integers(1, n, size=zero_dots):
        # nodes i - 1 and i with disjoint supports: their dot is exactly 0
        g[i - 1, 1:] = 0.0
        g[i, 0] = 0.0
    assert _bits(_align_signs(g.copy())) == _bits(_align_signs_loop(g))


def test_zero_dot_restarts_the_sign():
    a, b = np.zeros((3, 3)), np.zeros((3, 3))
    a[0, 0], b[1, 1] = 1.0, 2.0
    g = np.stack([a, -a, b, b, -b])
    out = _align_signs(g.copy())
    # node 1 flips; node 2 is orthogonal to node 1, so it keeps its sign
    # rather than inheriting the flip; node 4 flips against node 3
    assert _bits(out) == _bits(np.stack([a, a, b, b, b]))
    assert _bits(out) == _bits(_align_signs_loop(g))
