"""Quadrature oracles and the curvature-integral invariants."""

import math

import numpy as np
import pytest

from skewtorsion.charts import (
    InvariantForm, bonneau_chart, flat_torsion, flat_torus_chart,
    product_chart, random_chart, round_s4_chart,
)
from skewtorsion.evaluation import Evaluation
from skewtorsion.topology import (
    euler_and_signature, hitchin_thorpe_report, integrate_invariant,
    pontryagin_lambda_plus,
)


def _const_one(pt):
    return np.ones(pt.npoints)


def test_volume_oracles():
    v, err = integrate_invariant(round_s4_chart(), _const_one, nodes=64)
    assert v == pytest.approx(8 * math.pi ** 2 / 3, abs=1e-8)
    v, _ = integrate_invariant(product_chart(1.0, 1.0), _const_one, nodes=16)
    assert v == pytest.approx(16 * math.pi ** 2, rel=1e-12)
    # closed form: vol = 8 pi^2 (1 + k (pi/2 + arctan k)) for the S^4 family,
    # by direct integration of the density (k - x)/(1 + x^2)^2
    for k in (0.0, 1.0):
        v, verr = integrate_invariant(bonneau_chart(k)[0], _const_one, nodes=128)
        exact = 8 * math.pi ** 2 * (1 + k * (math.pi / 2 + math.atan(k)))
        assert v == pytest.approx(exact, rel=1e-10)
        assert verr < 1e-8
    v, _ = integrate_invariant(round_s4_chart(), lambda pt: np.zeros(pt.npoints), nodes=16)
    assert v == 0.0


def test_integrand_must_be_finite():
    with pytest.raises(ValueError):
        integrate_invariant(round_s4_chart(),
                            lambda pt: np.full(pt.npoints, np.nan), nodes=16)


def test_round_sphere_euler_and_signature():
    (chi, tau), (chi_err, _) = euler_and_signature(
        round_s4_chart(), InvariantForm.zero(3), nodes=64)
    assert chi == pytest.approx(2.0, abs=1e-8)
    assert tau == pytest.approx(0.0, abs=1e-10)


@pytest.mark.parametrize("k", [0.0, 1.0])
def test_s4_family_euler_and_signature(k):
    chart, H = bonneau_chart(k)
    (chi, tau), _ = euler_and_signature(chart, H, nodes=256)
    assert chi == pytest.approx(2.0, abs=1e-6)
    assert tau == pytest.approx(0.0, abs=1e-8)


def test_flat_group_chart_saturates_the_inequality():
    ch = product_chart(1.0, 1.0)
    H = flat_torsion(ch)
    (chi, tau), _ = euler_and_signature(ch, H, nodes=32)
    assert chi == pytest.approx(0.0, abs=1e-12)
    assert tau == pytest.approx(0.0, abs=1e-12)
    rep = hitchin_thorpe_report(Evaluation.on_grid(ch, H, 64), nodes=32)
    assert rep.inequality_margin == pytest.approx(0.0, abs=1e-10)
    assert rep.satisfied
    assert not rep.einstein_warning


def test_orientation_reversal_flips_signature():
    chart, H = bonneau_chart(0.5)
    (chi_p, tau_p), _ = euler_and_signature(chart, H, nodes=64)
    (chi_m, tau_m), _ = euler_and_signature(chart, H, nodes=64, orientation=-1)
    assert chi_m == pytest.approx(chi_p, rel=1e-12)
    assert tau_m == pytest.approx(-tau_p, abs=1e-12)


def test_pontryagin_of_self_dual_bundle():
    p1, err, mn = pontryagin_lambda_plus(round_s4_chart(), InvariantForm.zero(3), nodes=64)
    assert p1 == pytest.approx(4.0, abs=1e-8)
    assert mn >= -1e-10
    chart, H = bonneau_chart(0.0)
    p1, err, mn = pontryagin_lambda_plus(chart, H, nodes=256)
    assert p1 == pytest.approx(4.0, abs=1e-4)
    assert mn >= -1e-10
    ch = product_chart(1.0, 1.0)
    p1, _, _ = pontryagin_lambda_plus(ch, flat_torsion(ch), nodes=16)
    assert p1 == pytest.approx(0.0, abs=1e-12)


def test_hitchin_thorpe_report_for_the_s4_family():
    chart, H = bonneau_chart(0.0)
    rep = hitchin_thorpe_report(Evaluation.on_grid(chart, H, 64), nodes=256)
    assert rep.inequality_margin == pytest.approx(4.0, abs=1e-5)
    assert rep.satisfied
    assert not rep.einstein_warning
    assert rep.p1_lambda_plus == pytest.approx(2 * rep.chi + 3 * rep.tau, abs=1e-4)
    # chi and tau sit near integers
    assert abs(rep.chi - round(rep.chi)) < 1e-6
    assert abs(rep.tau - round(rep.tau)) < 1e-8


def test_non_einstein_data_is_flagged():
    chart = random_chart(1)
    from skewtorsion.charts import random_torsion
    rep = hitchin_thorpe_report(Evaluation.on_grid(chart, random_torsion(1), 64), nodes=32)
    assert rep.einstein_warning


def test_quadrature_refinement_reduces_euler_error():
    chart, H = bonneau_chart(0.0)

    def chi_at(n):
        (chi, _), _ = euler_and_signature(chart, H, nodes=n)
        return chi

    # convergence is exponential; at 8 nodes the error already sits at the
    # floating-point floor, so the ratio test uses the coarsest grids
    e_coarse = abs(chi_at(2) - 2.0)
    e_fine = abs(chi_at(4) - 2.0)
    assert e_coarse > 1e-6
    assert e_fine <= e_coarse / 4.0


def test_flat_torus_everything_vanishes():
    ch = flat_torus_chart()
    (chi, tau), _ = euler_and_signature(ch, InvariantForm.zero(3), nodes=16)
    assert chi == 0.0 and tau == 0.0


def test_invariants_do_not_depend_on_the_torsion():
    # the Euler and signature densities are Chern-Weil forms of the chosen
    # connection, so the integrals must not move when the torsion does
    chart, H = bonneau_chart(0.0)
    vals = []
    for form in (H, InvariantForm.zero(3), H.scaled(0.5), H.scaled(3.0)):
        (chi, tau), _ = euler_and_signature(chart, form, nodes=128)
        vals.append((chi, tau))
        assert chi == pytest.approx(2.0, abs=1e-10)
        assert tau == pytest.approx(0.0, abs=1e-12)


def test_random_group_charts_have_vanishing_invariants():
    from skewtorsion.charts import random_torsion
    for seed in (1, 4):
        chart = random_chart(seed)
        (chi, tau), _ = euler_and_signature(chart, random_torsion(seed), nodes=96)
        assert chi == pytest.approx(0.0, abs=1e-12)
        assert tau == pytest.approx(0.0, abs=1e-12)
