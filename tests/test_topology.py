"""Quadrature oracles and the curvature-integral invariants."""

import math

import numpy as np
import pytest

from skewtorsion import jets
from skewtorsion.charts import (
    ChartError, Domain, InvariantChart, InvariantForm, _constant, bonneau_chart, flat_torsion,
    flat_torus_chart, product_chart, random_chart, round_s4_chart,
)
from skewtorsion.connections import _fro
from skewtorsion.evaluation import Evaluation
from skewtorsion.topology import (
    curvature_integrands, hitchin_thorpe_report, integrate_invariant, pontryagin_density,
    report_grids,
)


def _const_one(pt):
    return np.ones(pt.npoints)


def _report(chart, H, nodes):
    """The constraint report on the 64-point sample grid, integrated on n and 2n nodes."""
    grids = report_grids(chart, H, nodes)
    return hitchin_thorpe_report(grids["sample"], grids)


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
    rep = _report(round_s4_chart(), InvariantForm.zero(3), 64)
    chi, tau = rep.chi, rep.tau
    assert chi == pytest.approx(2.0, abs=1e-8)
    assert tau == pytest.approx(0.0, abs=1e-10)


@pytest.mark.parametrize("k", [0.0, 1.0])
def test_s4_family_euler_and_signature(k):
    rep = _report(*bonneau_chart(k), 256)
    chi, tau = rep.chi, rep.tau
    assert chi == pytest.approx(2.0, abs=1e-6)
    assert tau == pytest.approx(0.0, abs=1e-8)


def test_flat_group_chart_saturates_the_inequality():
    ch = product_chart(1.0, 1.0)
    rep = _report(ch, flat_torsion(ch), 32)
    assert rep.chi == pytest.approx(0.0, abs=1e-12)
    assert rep.tau == pytest.approx(0.0, abs=1e-12)
    assert rep.inequality_margin == pytest.approx(0.0, abs=1e-10)
    assert rep.satisfied
    assert not rep.einstein_warning


def test_pontryagin_of_self_dual_bundle():
    rep = _report(round_s4_chart(), InvariantForm.zero(3), 64)
    assert rep.p1_lambda_plus == pytest.approx(4.0, abs=1e-8)
    assert rep.quadrature["p1_min_integrand"] >= -1e-10
    rep = _report(*bonneau_chart(0.0), 256)
    assert rep.p1_lambda_plus == pytest.approx(4.0, abs=1e-4)
    assert rep.quadrature["p1_min_integrand"] >= -1e-10
    ch = product_chart(1.0, 1.0)
    rep = _report(ch, flat_torsion(ch), 16)
    assert rep.p1_lambda_plus == pytest.approx(0.0, abs=1e-12)


def test_hitchin_thorpe_report_for_the_s4_family():
    rep = _report(*bonneau_chart(0.0), 256)
    assert rep.inequality_margin == pytest.approx(4.0, abs=1e-5)
    assert rep.satisfied
    assert not rep.einstein_warning
    assert rep.p1_lambda_plus == pytest.approx(2 * rep.chi + 3 * rep.tau, abs=1e-4)
    # chi and tau sit near integers
    assert abs(rep.chi - round(rep.chi)) < 1e-6
    assert abs(rep.tau - round(rep.tau)) < 1e-8


def _fubini_study_profiles(x):
    s, c = jets.sincos(x)
    return _constant(1.0, x), 0.5 * s, 0.5 * s * c


def test_complex_projective_plane_pins_the_sign_of_tau():
    """Fubini-Study CP^2 (a = 1, b = sin x / 2, c = sin x cos x / 2 on
    (0, pi/2), H = 0), the one chart here with a signature: chi = 3,
    tau = +1 for the orientation e1234, p1(Lambda+) = 2 chi + 3 tau = 9,
    and the metric is self-dual, W- = 0."""
    chart = InvariantChart("fubini_study", _fubini_study_profiles,
                           Domain(0.0, 0.5 * math.pi))
    grids = report_grids(chart, InvariantForm.zero(3), 64)
    ev = grids["sample"]
    rep = hitchin_thorpe_report(ev, grids)
    assert rep.chi == pytest.approx(3.0, abs=1e-10)
    assert rep.tau == pytest.approx(1.0, abs=1e-10)
    assert rep.p1_lambda_plus == pytest.approx(9.0, abs=1e-10)
    assert np.max(_fro(ev.riemann.W[1])) <= 1e-10


def test_non_einstein_data_is_flagged():
    chart = random_chart(1)
    from skewtorsion.charts import random_torsion
    rep = _report(chart, random_torsion(1), 32)
    assert rep.einstein_warning


def test_quadrature_refinement_reduces_euler_error():
    chart, H = bonneau_chart(0.0)

    def chi_at(n):
        return _report(chart, H, n).chi

    # convergence is exponential; at 8 nodes the error already sits at the
    # floating-point floor, so the ratio test uses the coarsest grids
    e_coarse = abs(chi_at(2) - 2.0)
    e_fine = abs(chi_at(4) - 2.0)
    assert e_coarse > 1e-6
    assert e_fine <= e_coarse / 4.0


def test_flat_torus_everything_vanishes():
    ch = flat_torus_chart()
    rep = _report(ch, InvariantForm.zero(3), 16)
    assert rep.chi == 0.0 and rep.tau == 0.0


def test_invariants_do_not_depend_on_the_torsion():
    # the Euler and signature densities are Chern-Weil forms of the chosen
    # connection, so the integrals must not move when the torsion does
    chart, H = bonneau_chart(0.0)
    vals = []
    for form in (H, InvariantForm.zero(3), H.scaled(0.5), H.scaled(3.0)):
        rep = _report(chart, form, 128)
        chi, tau = rep.chi, rep.tau
        vals.append((chi, tau))
        assert chi == pytest.approx(2.0, abs=1e-10)
        assert tau == pytest.approx(0.0, abs=1e-12)


def test_random_group_charts_have_vanishing_invariants():
    from skewtorsion.charts import random_torsion
    for seed in (1, 4):
        chart = random_chart(seed)
        rep = _report(chart, random_torsion(seed), 96)
        assert rep.chi == pytest.approx(0.0, abs=1e-12)
        assert rep.tau == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("nodes", [32, 300])
def test_quadrature_is_integrate_invariant_and_the_sample_minimum(nodes):
    # the report builds its error estimates and p1 sample on first read,
    # from one batch of the n nodes and the n sample points; they agree to
    # the bit with the two rules integrated apart and the sample grid alone
    chart, H = bonneau_chart(0.3)
    rep = _report(chart, H, nodes)
    assert "quadrature" not in vars(rep)

    def densities(pt):
        ev = Evaluation(pt, H)
        return np.array([*curvature_integrands(ev), pontryagin_density(ev)])

    values, errors = integrate_invariant(chart, densities, nodes)
    q = rep.quadrature
    assert values == [rep.chi, rep.tau, rep.p1_lambda_plus]
    assert errors == [q["chi_error"], q["tau_error"], q["p1_error"]]
    p1_sample = pontryagin_density(Evaluation.on_grid(chart, H, nodes))
    assert q["p1_min_integrand"] == float(np.min(p1_sample) * 4.0 * math.pi ** 2)
    assert q["nodes"] == nodes


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_later_grids_chart_refusal_comes_before_an_integrand_refusal(monkeypatch):
    # the union runs the chart checks of every grid when it is built, before
    # any context is read: the rule of 2n nodes overflows its integrand, yet
    # a later check grid that is not finite is the refusal
    chart = product_chart(b0=1e150)
    H = flat_torsion(chart)
    grids = report_grids(chart, H, 16)
    with pytest.raises(ChartError, match="^integrand not finite at an interior node$"):
        hitchin_thorpe_report(grids["sample"], grids)
    sample_grid = chart.sample_grid
    monkeypatch.setattr(chart, "sample_grid",
                        lambda n: np.full(n, np.nan) if n == 100 else sample_grid(n))
    with pytest.raises(ChartError, match=r"^x not finite: \[nan nan nan\]$"):
        report_grids(chart, H, 16, check=100)
