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
from skewtorsion.jets import Jet


def test_round_sphere_blocks_are_identity():
    rep = decompose_point(Evaluation.on_grid(round_s4_chart(), InvariantForm.zero(3), 16))
    assert np.max(np.abs(rep.A - np.eye(3)[..., None])) < 1e-12
    assert np.max(np.abs(rep.D - np.eye(3)[..., None])) < 1e-12
    assert np.max(np.abs(rep.B)) < 1e-12
    assert np.max(np.abs(rep.C)) < 1e-12
    assert np.max(np.abs(rep.s_nabla - 12.0)) < 1e-12
    assert np.max(np.abs(rep.Wplus)) < 1e-12
    assert np.max(np.abs(rep.Wminus)) < 1e-12


@pytest.mark.parametrize("seed", range(6))
def test_reconstruction_matches_direct_blocks(seed):
    chart = random_chart(seed)
    H = random_torsion(seed)
    rep = decompose_point(Evaluation.on_grid(chart, H, 32))
    assert rep.reconstruction_residual <= 1e-9


def test_block_isometry_scale(seed=4):
    rep = decompose_point(Evaluation.on_grid(random_chart(seed), random_torsion(seed), 32))
    assert rep.block_residual <= 1e-12


@pytest.mark.parametrize("k", [-1.0, 0.0, 0.5, 1.0])
def test_bonneau_is_einstein_with_skew_torsion(k):
    chart, H = bonneau_chart(k)
    rep = decompose_point(Evaluation.on_grid(chart, H, 64))
    assert rep.einstein_residual <= 1e-8
    assert np.max(np.abs(rep.B)) <= 1e-8
    assert np.max(np.abs(rep.C)) <= 1e-8
    assert einstein_residual(Evaluation.on_grid(chart, H.scaled(-1.0), 64)) <= 1e-8


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
    assert decompose_point(ev).summary()["sup_Z"] <= 1e-8
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
    rep = decompose_point(Evaluation.on_grid(chart, H, 32))
    from skewtorsion.frame import _EPS3
    phi_op = -np.sqrt(2.0) * np.einsum("pqr,r...->pq...", _EPS3, rep.dstarH_plus)
    psi_op = -np.sqrt(2.0) * np.einsum("pqr,r...->pq...", _EPS3, rep.dstarH_minus)
    A_sym = rep.A - 0.25 * phi_op
    D_sym = rep.D + 0.25 * psi_op
    assert np.max(np.abs(A_sym - np.einsum("pq...->qp...", A_sym))) <= 1e-10
    assert np.max(np.abs(D_sym - np.einsum("pq...->qp...", D_sym))) <= 1e-10


def test_trace_of_a_block():
    chart = random_chart(5)
    H = random_torsion(5)
    rep = decompose_point(Evaluation.on_grid(chart, H, 32))
    tr = np.einsum("pp...->...", rep.A)
    assert np.max(np.abs(tr - 3.0 * (rep.s_nabla / 12.0 - rep.star_dH / 4.0))) <= 1e-9
    trd = np.einsum("pp...->...", rep.D)
    assert np.max(np.abs(trd - 3.0 * (rep.s_nabla / 12.0 + rep.star_dH / 4.0))) <= 1e-9


def test_einstein_tensor_is_trace_free():
    rep = decompose_point(Evaluation.on_grid(random_chart(6), random_torsion(6), 16))
    tr = np.einsum("ii...->...", rep.einstein_tensor)
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
    rep0 = decompose_point(Evaluation.on_grid(chart, InvariantForm.zero(3), 16))
    rep1 = decompose_point(Evaluation.on_grid(chart, random_torsion(7), 16))
    assert np.max(np.abs(rep0.Wplus - rep1.Wplus)) <= 1e-10
    assert np.max(np.abs(rep0.Wminus - rep1.Wminus)) <= 1e-10
