"""Operator blocks, closed-formula reconstruction, Einstein residuals."""

import math

import numpy as np
import pytest

from skewtorsion import jets
from skewtorsion.charts import (
    InvariantChart, InvariantForm, bonneau_chart, chart_and_torsion, random_chart,
    random_torsion, round_s4_chart, Domain,
)
from skewtorsion.connections import identity_suite
from skewtorsion.decomposition import decompose_point, einstein_residual, einstein_tensor_point
from skewtorsion.evaluation import Evaluation
from skewtorsion.frame import _EPS3, components_in_sd_basis
from skewtorsion.jets import Jet


def test_round_sphere_blocks_are_identity():
    ev = Evaluation.on_grid(round_s4_chart(), InvariantForm.zero(3), 16)
    A, B, C, D = ev.plus.blocks
    Wplus, Wminus = ev.riemann.W
    assert np.max(np.abs(A - np.eye(3)[..., None])) < 1e-12
    assert np.max(np.abs(D - np.eye(3)[..., None])) < 1e-12
    assert np.max(np.abs(B)) < 1e-12
    assert np.max(np.abs(C)) < 1e-12
    assert np.max(np.abs(ev.plus.scalar - 12.0)) < 1e-12
    assert np.max(np.abs(Wplus)) < 1e-12
    assert np.max(np.abs(Wminus)) < 1e-12


@pytest.mark.parametrize("seed", range(6))
def test_reconstruction_matches_direct_blocks(seed):
    chart = random_chart(seed)
    H = random_torsion(seed)
    rep = decompose_point(Evaluation.on_grid(chart, H, 32))
    assert rep["reconstruction_residual"] <= 1e-9


def test_block_isometry_scale(seed=4):
    rep = decompose_point(Evaluation.on_grid(random_chart(seed), random_torsion(seed), 32))
    assert rep["block_residual"] <= 1e-12


@pytest.mark.parametrize("k", [-1.0, 0.0, 0.5, 1.0])
def test_bonneau_is_einstein_with_skew_torsion(k):
    chart, H = bonneau_chart(k)
    ev = Evaluation.on_grid(chart, H, 64)
    _, B, C, _ = ev.plus.blocks
    assert decompose_point(ev)["einstein_residual"] <= 1e-8
    assert np.max(np.abs(B)) <= 1e-8
    assert np.max(np.abs(C)) <= 1e-8
    assert einstein_residual(Evaluation.on_grid(chart, H.scaled(-1.0), 64)) <= 1e-8


@pytest.mark.xfail(strict=True, reason="W loses digits for large negative k (ROADMAP item 3)")
@pytest.mark.parametrize("k", [-30.0, -100.0])
def test_bonneau_einstein_residual_for_negative_k(k):
    # 4.6e-8 at k=-30 and 2.8e-6 at k=-100 (1.5e-9 and 2.8e-8 of sup |M+|)
    assert einstein_residual(Evaluation.on_grid(*bonneau_chart(k), 64)) <= 1e-8


def test_perturbed_round_profile_is_detected():
    chart = InvariantChart(
        name="random",
        profiles=lambda x: (Jet.constant(1.0, x.order) + 0.0 * x,
                            jets.sin(x) * 0.5 * (1.0 + 0.05 * jets.sin(2.0 * x)),
                            jets.sin(x) * 0.5),
        domain=Domain(0.0, math.pi),
        params={"seed": -1},
    )
    assert einstein_residual(Evaluation.on_grid(chart, InvariantForm.zero(3), 64)) > 1e-3


def test_z_nabla_for_bonneau_and_shift_identity():
    chart, H = bonneau_chart(0.0)
    ev = Evaluation.on_grid(chart, H, 64)
    assert decompose_point(ev)["sup_Z"] <= 1e-8
    assert identity_suite(ev)["traceless_shift"] <= 1e-9
    # for H = 0 the two trace-free tensors coincide
    chart2 = random_chart(3)
    res2 = identity_suite(Evaluation.on_grid(chart2, InvariantForm.zero(3), 16))
    assert res2["traceless_shift"] <= 1e-12


def test_z_nabla_shift_on_random_data():
    res = identity_suite(Evaluation.on_grid(random_chart(8), random_torsion(8), 32))
    assert res["traceless_shift"] <= 1e-9


def test_closed_torsion_block_symmetry_after_removing_codifferential_part():
    chart, H = bonneau_chart(0.5)
    ev = Evaluation.on_grid(chart, H, 32)
    A, _, _, D = ev.plus.blocks
    dsH = components_in_sd_basis(ev.ext.dstar_H)
    phi_op = -np.sqrt(2.0) * np.einsum("pqr,r...->pq...", _EPS3, dsH[:3])
    psi_op = -np.sqrt(2.0) * np.einsum("pqr,r...->pq...", _EPS3, dsH[3:])
    A_sym = A - 0.25 * phi_op
    D_sym = D + 0.25 * psi_op
    assert np.max(np.abs(A_sym - np.einsum("pq...->qp...", A_sym))) <= 1e-10
    assert np.max(np.abs(D_sym - np.einsum("pq...->qp...", D_sym))) <= 1e-10


def test_trace_of_a_block():
    chart = random_chart(5)
    H = random_torsion(5)
    ev = Evaluation.on_grid(chart, H, 32)
    A, _, _, D = ev.plus.blocks
    s, star_dH = ev.plus.scalar, ev.ext.star_dH
    tr = np.einsum("pp...->...", A)
    assert np.max(np.abs(tr - 3.0 * (s / 12.0 - star_dH / 4.0))) <= 1e-9
    trd = np.einsum("pp...->...", D)
    assert np.max(np.abs(trd - 3.0 * (s / 12.0 + star_dH / 4.0))) <= 1e-9


def test_einstein_tensor_is_trace_free():
    T = einstein_tensor_point(Evaluation.on_grid(random_chart(6), random_torsion(6), 16))
    tr = np.einsum("ii...->...", T)
    assert np.max(np.abs(tr)) <= 1e-12


@pytest.mark.parametrize("descriptor", [
    {"type": "bonneau", "params": {"k": 0.3}},
    {"type": "random", "params": {"seed": 3}},
    {"type": "product", "params": {"b0": 1.3, "L": 2.0}},
])
def test_minus_sign_einstein_tensor_is_that_of_the_reversed_torsion(descriptor):
    # the -H tensor read from one context equals, bit for bit, the +H tensor
    # of a context built on the torsion -H
    chart, H = chart_and_torsion(descriptor)
    T = einstein_tensor_point(Evaluation.on_grid(chart, H, 64), -1)
    T_rev = einstein_tensor_point(Evaluation.on_grid(chart, H.scaled(-1.0), 64))
    assert np.array_equal(T, T_rev)


def test_einstein_residual_stable_under_grid_refinement():
    chart, H = bonneau_chart(0.0)
    vals = [einstein_residual(Evaluation.on_grid(chart, H, n)) for n in (32, 64, 128, 256)]
    assert all(v <= 1e-8 for v in vals)


def test_weyl_blocks_are_torsion_independent():
    chart = random_chart(7)
    W0 = Evaluation.on_grid(chart, InvariantForm.zero(3), 16).riemann.W
    W1 = Evaluation.on_grid(chart, random_torsion(7), 16).riemann.W
    assert np.max(np.abs(W0[0] - W1[0])) <= 1e-10
    assert np.max(np.abs(W0[1] - W1[1])) <= 1e-10
