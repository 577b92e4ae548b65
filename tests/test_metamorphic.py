"""Chart independence: a homothety scales the geometry by a fixed power
and a reparametrization leaves it unchanged, so every frame-invariant
number must follow, and every verdict must stay.  The maps are those of
``metamorphic.py``."""

import contextlib
import io

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from skewtorsion import cli
from skewtorsion.charts import bonneau_chart, chart_and_torsion
from skewtorsion.connections import curvature, identity_suite
from skewtorsion.decomposition import einstein_tensor_point
from skewtorsion.evaluation import Evaluation, Grids, closed, sup
from skewtorsion.instanton import gauge_equivalence_probe, killing_residual
from skewtorsion.topology import chern_weil_integrals

from metamorphic import reparametrization, reparametrized, scaled

KS = [-1.0, 0.0, 0.3]
INTEGRALS = ("chi", "tau", "p1_lambda_plus")


def _against(a, b, scale):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(scale)))


def _relative(a, b):
    return _against(a, b, b)


def _einstein(ev):
    """The Einstein tensors of the connections with torsion +H and -H."""
    return einstein_tensor_point(ev, +1), einstein_tensor_point(ev, -1)


def _integrals(chart, H, nodes=128):
    """chi, tau and p1 on the chart's rule of 2n nodes."""
    top = chern_weil_integrals(Grids(chart, H, {"rule": chart.quadrature(2 * nodes)}))
    return np.array([top[key] for key in INTEGRALS])


def _reparametrized_contexts(chart, H, s):
    """(chart, H, ev, ev_new): the reparametrized pair, a context of the old
    chart at the points phi(y) and one of the new chart on its sample grid y."""
    new_chart, new_H = reparametrized(chart, H, s)
    y = new_chart.sample_grid(64)
    x, _ = reparametrization(chart.domain, s, y)
    return new_chart, new_H, Evaluation(chart.at(x), H), Evaluation(new_chart.at(y), new_H)


@settings(max_examples=10, deadline=None)
@given(st.sampled_from(KS), st.floats(-3.0, 3.0))
@example(k=0.0, log_lam=-3.0)
@example(k=0.0, log_lam=3.0)
def test_homothety_scales_the_curvature_and_keeps_the_integrals(k, log_lam):
    # frame components of R, W+- and the Einstein tensors scale by 1/lam^2;
    # chi, tau and p1 do not move
    lam = 10.0 ** log_lam
    chart, H = bonneau_chart(k)
    lam_chart, lam_H = scaled(chart, H, lam)
    ev, ev_lam = Evaluation.on_grid(chart, H, 64), Evaluation.on_grid(lam_chart, lam_H, 64)
    R = curvature(ev.plus)
    assert _relative(lam ** 2 * curvature(ev_lam.plus), R) <= 1e-12
    for W_lam, W in zip(ev_lam.lc.W, ev.lc.W):
        assert _relative(lam ** 2 * W_lam, W) <= 1e-12
    # the Einstein tensors vanish on Bonneau, so they are measured against R
    for T_lam, T in zip(_einstein(ev_lam), _einstein(ev)):
        assert _against(lam ** 2 * T_lam, T, R) <= 1e-12
    assert np.max(np.abs(_integrals(lam_chart, lam_H) - _integrals(chart, H))) <= 1e-12


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2 ** 16), st.floats(-3.0, 3.0))
def test_homothety_scales_the_einstein_tensor_of_a_random_chart(seed, log_lam):
    # away from Bonneau the Einstein tensors do not vanish: each scales by
    # 1/lam^2 against itself
    lam = 10.0 ** log_lam
    chart, H = chart_and_torsion({"type": "random", "params": {"seed": seed}})
    ev = Evaluation.on_grid(chart, H, 64)
    ev_lam = Evaluation.on_grid(*scaled(chart, H, lam), 64)
    for T_lam, T in zip(_einstein(ev_lam), _einstein(ev)):
        assert _relative(lam ** 2 * T_lam, T) <= 1e-12


@settings(max_examples=10, deadline=None)
@given(st.sampled_from(KS), st.floats(0.0, 5.0))
@example(k=-1.0, s=0.5)
@example(k=0.3, s=5.0)
def test_reparametrization_keeps_the_curvature_and_the_integrals(k, s):
    # the points y of the new chart are the points phi(y) of the old one;
    # the integrals come from different nodes of the same geometry
    chart, H = bonneau_chart(k)
    new_chart, new_H, ev, ev_new = _reparametrized_contexts(chart, H, s)
    R = curvature(ev.plus)
    assert _relative(curvature(ev_new.plus), R) <= 1e-12
    # W+- and the Einstein tensors against R: at k = -1, where max |W+| is
    # a quarter of max |R|, W+ against itself reads up to 1.2e-12
    for new, old in zip((*ev_new.lc.W, *_einstein(ev_new)), (*ev.lc.W, *_einstein(ev))):
        assert _against(new, old, R) <= 1e-12
    assert np.max(np.abs(_integrals(new_chart, new_H) - _integrals(chart, H))) <= 1e-12


# on a domain with two finite ends the map is monotone exactly for s in [0, 1);
# at grid 64 over 44 values of s in [0, 0.99] the suite residuals of the new
# chart read at most 1.4e-12 and chi, tau and p1 move by at most 1.0e-13
@settings(max_examples=10, deadline=None)
@given(st.floats(0.0, 0.99))
@example(s=0.99)
def test_reparametrization_keeps_the_round_sphere(s):
    # W+- and the Einstein tensors vanish on the round sphere, so they are
    # measured against max |R| (at most 3.8e-13 and 2.1e-12); R against
    # itself reads at most 9.1e-13
    chart, H = chart_and_torsion({"type": "round"})
    new_chart, new_H, ev, ev_new = _reparametrized_contexts(chart, H, s)
    R = curvature(ev.plus)
    assert _relative(curvature(ev_new.plus), R) <= 5e-12
    for new, old in zip(ev_new.lc.W, ev.lc.W):
        assert _against(new, old, R) <= 2e-12
    for new, old in zip(_einstein(ev_new), _einstein(ev)):
        assert _against(new, old, R) <= 1e-11
    assert max(sup(identity_suite(ev_new)).values()) <= 7e-12
    assert np.max(np.abs(_integrals(new_chart, new_H) - _integrals(chart, H))) <= 5e-13


@settings(max_examples=10, deadline=None)
@given(st.sampled_from([3, 11]), st.floats(0.0, 0.99))
@example(seed=3, s=0.99)
@example(seed=11, s=0.99)
def test_reparametrization_keeps_the_random_chart(seed, s):
    # R, W+- and the Einstein tensors against themselves read at most 3.1e-14
    chart, H = chart_and_torsion({"type": "random", "params": {"seed": seed}})
    new_chart, new_H, ev, ev_new = _reparametrized_contexts(chart, H, s)
    for new, old in zip((curvature(ev_new.plus), *ev_new.lc.W, *_einstein(ev_new)),
                        (curvature(ev.plus), *ev.lc.W, *_einstein(ev))):
        assert _relative(new, old) <= 1.5e-13
    res = sup(identity_suite(ev_new))
    # the pair swap without its dH term is an identity only for closed H
    assert not closed(killing_residual(ev_new)["dH_sup"])
    del res["pair_swap_closed"]
    assert max(res.values()) <= 7e-12
    assert np.max(np.abs(_integrals(new_chart, new_H) - _integrals(chart, H))) <= 5e-13


@pytest.mark.xfail(strict=True, reason="verify reads an absolute tolerance, so its verdict "
                                       "depends on the scale of the geometry (ROADMAP item 2)")
def test_verify_passes_on_a_scaled_bonneau_chart(monkeypatch):
    # 11 of 14 residuals exceed the default tolerance 1e-9 at lam = 1e-3
    monkeypatch.setattr(cli, "_build_chart", lambda args: scaled(*bonneau_chart(0.0), 1e-3))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["verify", "--chart", "bonneau", "--k", "0", "--grid", "64"]) == 0


@pytest.mark.xfail(strict=True, reason="the probe differentiates its kernel section on the "
                                       "grid, so its verdict depends on the chart "
                                       "(ROADMAP item 1)")
def test_probe_verdict_survives_a_reparametrization():
    # k = -1, n = 512: inconclusive on the chart, inequivalent at s = 5
    chart, H = bonneau_chart(-1.0)
    verdicts = [gauge_equivalence_probe(Evaluation.on_grid(*pair, 512)).verdict
                for pair in ((chart, H), reparametrized(chart, H, 5.0))]
    assert verdicts[0] == verdicts[1]


def _reparametrized_probes():
    """The probe on Bonneau k = 0 at n = 64, at s = 0, 0.25, 0.5 and 1."""
    chart, H = bonneau_chart(0.0)
    return [gauge_equivalence_probe(Evaluation.on_grid(*reparametrized(chart, H, s), 64))
            for s in (0.0, 0.25, 0.5, 1.0)]


def _spread(values):
    return max(values) / min(values) - 1.0


@pytest.mark.xfail(strict=True, reason="min_gap = sigma_8 / sigma_9 is a ratio of rounding "
                                       "noise, so it moves with the chart (ROADMAP item 1)")
def test_probe_min_gap_survives_a_reparametrization():
    # 1.04e14, 6.5e13, 4.5e13 and 1.4e13 today
    assert _spread([rep.min_gap for rep in _reparametrized_probes()]) <= 0.1


def test_probe_kernel_gap_survives_a_reparametrization():
    # the report's kernel_gap, min over nodes of sigma_8 / sigma_1, the
    # kernel's gap to the spectrum: 0.4869 to 0.4862 today
    gaps = [rep.spectrum()["kernel_gap"] for rep in _reparametrized_probes()]
    assert _spread(gaps) <= 0.01
