"""Acceptance gate: every headline claim at its stated tolerance.

Each test prints one PASS line with the measured numbers once its
assertions hold, so `pytest -s tests/test_acceptance.py` reads as a
checklist of the verification suite.
"""

import numpy as np
import pytest

from skewtorsion import jets
from skewtorsion.charts import (
    InvariantForm, bonneau_chart, flat_torsion, product_chart,
    random_chart, random_torsion, round_s4_chart,
)
from skewtorsion.connections import (
    curvature, identity_suite, levi_civita, with_skew_torsion,
)
from skewtorsion.decomposition import decompose_point, einstein_residual
from skewtorsion.evaluation import ConnectionData, Evaluation
from skewtorsion.instanton import (
    gauge_equivalence_probe, killing_residual, self_duality_residual,
    yang_mills_density_check,
)
from skewtorsion.jets import Jet
from skewtorsion.moduli import acs_radial, asymptotic_check, nijenhuis_norm
from skewtorsion.topology import hitchin_thorpe_report, report_grids
from skewtorsion.weyl import einstein_weyl_residual

N_DRAWS = 100
IDENTITY_KEYS = [
    "curvature_cross", "bianchi", "pair_swap", "ricci_formula",
    "ricci_antisym", "scalar_relation", "ricci_four_dim",
    "torsion_form_parallel", "traceless_shift",
]


def _ok(num, text):
    print(f"[criterion {num:2}] PASS  {text}")


def _report(chart, H, nodes):
    """The constraint report on the 64-point sample grid, integrated on n and 2n nodes."""
    grids = report_grids(chart, H, nodes)
    return hitchin_thorpe_report(grids["sample"], grids)


def test_criterion_01_identity_suite_on_random_draws():
    """Curvature/Bianchi/Ricci identities <= 1e-9 on 100 random pairs."""
    worst = {k: 0.0 for k in IDENTITY_KEYS}
    for seed in range(N_DRAWS):
        res = identity_suite(Evaluation.on_grid(random_chart(seed), random_torsion(seed), 64))
        for k in IDENTITY_KEYS:
            worst[k] = max(worst[k], res[k])
            assert res[k] <= 1e-9, f"draw {seed}: {k} = {res[k]}"
    # the pure pair-swap form of the exchange identity needs closed torsion
    closed = identity_suite(Evaluation.on_grid(*bonneau_chart(0.5), 64))
    assert closed["pair_swap_closed"] <= 1e-9
    _ok(1, "identity suite on 100 draws, worst residual "
           f"{max(worst.values()):.2e} (all <= 1e-9); closed-torsion swap "
           f"{closed['pair_swap_closed']:.2e}")


def test_criterion_02_block_reconstruction_on_random_draws():
    """Direct 6x6 operator equals the closed block formulas entrywise."""
    worst = 0.0
    for seed in range(N_DRAWS):
        rep = decompose_point(Evaluation.on_grid(random_chart(seed), random_torsion(seed), 64))
        worst = max(worst, rep["reconstruction_residual"])
        assert rep["reconstruction_residual"] <= 1e-9, f"draw {seed}"
    _ok(2, f"block reconstruction on 100 draws, worst {worst:.2e} (<= 1e-9)")


def test_criterion_03_s4_family_einstein_both_signs():
    """Einstein residual <= 1e-8 for k in {-1, 0, 0.5, 1} and +-H."""
    worst = 0.0
    for k in (-1.0, 0.0, 0.5, 1.0):
        chart, H = bonneau_chart(k)
        for sign in (+1.0, -1.0):
            r = einstein_residual(Evaluation.on_grid(chart, H.scaled(sign), 64))
            worst = max(worst, r)
            assert r <= 1e-8, f"k={k}, sign={sign}: {r}"
    _ok(3, f"Einstein residual over 4 parameters x 2 signs, worst {worst:.2e} (<= 1e-8)")


def test_criterion_04_topology_of_the_s4_family():
    """chi = 2, tau = 0, p1(L+) = 4 with non-negative integrand, margin 4."""
    rep = _report(*bonneau_chart(0.0), 256)
    chi, tau = rep.chi, rep.tau
    assert chi == pytest.approx(2.0, abs=1e-6)
    assert tau == pytest.approx(0.0, abs=1e-8)
    p1, p1_min = rep.p1_lambda_plus, rep.quadrature["p1_min_integrand"]
    assert p1 == pytest.approx(4.0, abs=1e-4)
    assert p1_min >= -1e-10
    margin = 2 * chi - 3 * abs(tau)
    assert margin == pytest.approx(4.0, abs=1e-5)
    chi_r = _report(round_s4_chart(), InvariantForm.zero(3), 256).chi
    assert chi_r == pytest.approx(2.0, abs=1e-8)
    _ok(4, f"chi={chi:.12f}, tau={tau:.2e}, p1={p1:.10f} "
           f"(min integrand {p1_min:.2e}), margin={margin:.10f}, round chi={chi_r:.12f}")


def test_criterion_05_flat_group_chart_equality_case():
    """S1 x S3 flat pair: |R| <= 1e-12, chi = tau = 0, s^g = 3/(2 b0^2)."""
    for b0 in (1.0, 1.7):
        ch = product_chart(b0, 1.0)
        pt = ch.at(ch.sample_grid(32))
        H = flat_torsion(ch).at(pt)
        R = curvature(with_skew_torsion(levi_civita(pt), H))
        assert np.max(np.abs(R)) <= 1e-12
        rg = ConnectionData(levi_civita(pt))
        assert np.max(np.abs(rg.scalar - 1.5 / b0 ** 2)) <= 1e-12
    ch = product_chart(1.0, 1.0)
    rep = _report(ch, flat_torsion(ch), 32)
    chi, tau = rep.chi, rep.tau
    assert abs(chi) <= 1e-12 and abs(tau) <= 1e-12
    assert 2 * chi == pytest.approx(3 * abs(tau), abs=1e-12)
    _ok(5, f"flat pair |R| <= 1e-12, chi={chi:.1e}, tau={tau:.1e}, "
           "scalar curvature matches 3/(2 b0^2)")


def test_criterion_06_einstein_weyl_correspondence():
    """Trace-free Weyl Ricci <= 1e-8 for w = *H, routes agree <= 1e-9."""
    chart, H = bonneau_chart(0.0)
    omega = InvariantForm(1, [(3,)], lambda pt: [2.0 * pt.c])  # *H along e4
    res = einstein_weyl_residual(Evaluation.on_grid(chart, H, 64), omega)
    assert res["residual_direct"] <= 1e-8
    assert res["residual_formula"] <= 1e-8
    assert res["route_difference"] <= 1e-9
    _ok(6, f"Einstein-Weyl residual {res['residual_direct']:.2e} (<= 1e-8), "
           f"routes differ by {res['route_difference']:.2e} (<= 1e-9)")


def test_criterion_07_instanton_diagnostics():
    """Self-duality, Yang-Mills density identities, Killing residual at k=0."""
    chart, H = bonneau_chart(0.0)
    pt = chart.at(chart.sample_grid(64))
    sd = {}
    for sign in (+1.0, -1.0):
        conn = with_skew_torsion(levi_civita(pt), sign * H.at(pt))
        sd[sign] = self_duality_residual(ConnectionData(conn).induced)
        assert sd[sign] <= 1e-8
    ev = Evaluation(pt, H)
    ym = yang_mills_density_check(ev)
    assert ym["pair_residual"] <= 1e-9
    assert ym["formula_residual_plus"] <= 1e-9
    assert ym["formula_residual_minus"] <= 1e-9
    kil = killing_residual(ev)
    assert kil["closed"]
    assert kil["killing_residual"] <= 1e-8
    _ok(7, f"self-duality {max(sd.values()):.2e} (<= 1e-8), Yang-Mills pair "
           f"{ym['pair_residual']:.2e} / formula {ym['formula_residual_plus']:.2e} "
           f"(<= 1e-9), Killing {kil['killing_residual']:.2e} (<= 1e-8)")


def test_criterion_08_gauge_probe_verdict():
    """Kernel dim 1 on >= 95% of nodes, gap >= 1e3, verdict inequivalent."""
    chart, H = bonneau_chart(0.0)
    rep = gauge_equivalence_probe(Evaluation.on_grid(chart, H, 128))
    s = rep.summary()
    assert s["kernel_dim_one_fraction"] >= 0.95
    assert s["min_gap"] >= 1e3
    assert rep.inf_nabla_g_mid > rep.threshold  # threshold = 10x SVD cutoff
    assert rep.verdict == "inequivalent"
    _ok(8, f"kernel dim 1 at {100 * s['kernel_dim_one_fraction']:.0f}% of nodes, "
           f"min gap {s['min_gap']:.1e}, inf |nabla g| {rep.inf_nabla_g_mid:.2e} "
           f"> threshold {rep.threshold:.2e}; verdict {rep.verdict}")


def test_criterion_09_complex_structures_and_radial_coordinate():
    """Nijenhuis <= 1e-9 for both charts; asymptotic slopes 1.00 +- 0.01."""
    chartB, _ = bonneau_chart(0.0)
    nB = nijenhuis_norm(chartB.at(chartB.sample_grid(64)), acs_radial())
    chartR = round_s4_chart()
    nR = nijenhuis_norm(chartR.at(chartR.sample_grid(64)), acs_radial())
    assert nB <= 1e-9 and nR <= 1e-9
    slopes = {}
    for k in (0.0, 1.0):
        res = asymptotic_check(k)
        slopes[k] = (res["slope_at_k"], res["slope_at_minus_infinity"])
        assert res["slope_at_k"] == pytest.approx(1.0, abs=0.01)
        assert res["slope_at_minus_infinity"] == pytest.approx(1.0, abs=0.01)
    _ok(9, f"Nijenhuis {max(nB, nR):.2e} (<= 1e-9); slopes "
           + ", ".join(f"k={k}: {a:.4f}/{b:.4f}" for k, (a, b) in slopes.items()))


def test_criterion_10_oracles():
    """Jets match O(h^2) central differences; quadrature refinement >= 4x."""
    rng = np.random.default_rng(42)
    ratios = []
    for _ in range(20):
        w1, w2, ph = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0), rng.uniform(0, 6)
        f = (lambda x, w1=w1, w2=w2, ph=ph:
             jets.exp(0.3 * jets.sin(w1 * x + ph)) / jets.sqrt(2.0 + jets.cos(w2 * x)))
        x0 = float(rng.uniform(-1, 1))
        d1 = f(Jet.variable(x0, 2)).d1
        fd = lambda h: (float(f(Jet.variable(x0 + h, 0)))
                        - float(f(Jet.variable(x0 - h, 0)))) / (2 * h)
        e1, e2 = abs(d1 - fd(2e-2)), abs(d1 - fd(1e-2))
        assert e1 <= 1e-3
        if e2 > 1e-12:
            ratios.append(e1 / e2)
    assert np.median(ratios) == pytest.approx(4.0, rel=0.5)

    chart, H = bonneau_chart(0.0)
    errs = {}
    for n in (2, 4):
        errs[n] = abs(_report(chart, H, n).chi - 2.0)
    assert errs[4] <= errs[2] / 4.0
    _ok(10, f"jet/finite-difference ratio {np.median(ratios):.2f} (~4); "
            f"chi error {errs[2]:.2e} -> {errs[4]:.2e} under node doubling")
