"""Induced connection on the self-dual bundle and the gauge probe."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from skewtorsion import jets
from skewtorsion.charts import (
    InvariantForm, bonneau_chart, chart_and_torsion, flat_torsion, flat_torus_chart,
    product_chart, random_chart, random_torsion, round_s4_chart,
)
from skewtorsion.connections import levi_civita, with_skew_torsion
from skewtorsion.evaluation import Evaluation, closed, sup
from skewtorsion.instanton import (
    GaugeProbeReport, InducedConnection, _align_signs, _intertwiner_spectrum,
    _intertwiner_system, gauge_equivalence_probe, killing_residual, lambda_plus_block_residual,
    self_duality_residual, yang_mills_density_check,
)


def _connection(chart, H, nodes=16):
    pt = chart.at(chart.sample_grid(nodes))
    return with_skew_torsion(levi_civita(pt), H.at(pt))


def test_flat_torus_has_zero_induced_connection():
    ch = flat_torus_chart()
    pt = ch.at(ch.sample_grid(4))
    ic = levi_civita(pt).induced
    assert np.max(np.abs(ic.F_sd)) == 0.0
    for i in range(4):
        for p in range(3):
            for q in range(3):
                assert np.max(np.abs(ic.omega.value[i, p, q])) == 0.0


def test_round_sphere_induced_curvature_is_self_dual_constant_norm():
    ch = round_s4_chart()
    pt = ch.at(ch.sample_grid(8))
    cd = levi_civita(pt)
    ic = cd.induced
    assert sup(lambda_plus_block_residual(ic, cd.blocks)) <= 1e-12
    assert sup(self_duality_residual(ic)) <= 1e-12
    norms = np.einsum("sm...,sm...->...", ic.rows, ic.rows)
    assert np.max(np.abs(norms - 3.0)) <= 1e-12


def test_induced_rejects_non_metric_connection():
    from skewtorsion.weyl import weyl_connection
    from skewtorsion.charts import random_one_form
    chart = random_chart(0)
    pt = chart.at(chart.sample_grid(4))
    D = weyl_connection(levi_civita(pt), random_one_form(0).at(pt))
    with pytest.raises(ValueError):
        D.induced


# rotations about the third axis of Lambda+: g = c P + s J + K
_P = np.diag([1.0, 1.0, 0.0])
_J = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
_K = np.diag([0.0, 0.0, 1.0])


def _rotation(theta):
    """SO(3) jet of shape (3, 3, n): the rotation by the jet angle theta."""
    s, c = jets.sincos(theta)
    return (jets.einsum("pq,...->pq...", _P, c) + jets.einsum("pq,...->pq...", _J, s)
            + _K[..., None])


@pytest.mark.parametrize("chart, H", [bonneau_chart(0.3), (random_chart(3), random_torsion(3))])
def test_induced_curvature_is_gauge_covariant(chart, H):
    # the radial gauge g(x) takes the forms w to g^-1 w g + g^-1 e(g) and
    # the curvature F to g^-1 F g
    ic = _connection(chart, H, nodes=32).induced
    pt, omega, F0 = ic.pt, ic.omega, ic.F_sd
    g = _rotation(1.3 * jets.arctan(pt.seed))
    g1 = jets.truncate(g, omega.order)
    conj = jets.einsum("qp...,iqs...->ips...", g1,
                       jets.einsum("iqr...,rs...->iqs...", omega, g1))
    maurer_cartan = jets.einsum("qp...,iqs...->ips...", g1, pt.frame_derivative(g))
    F1 = InducedConnection.from_forms(pt, conj + maurer_cartan).F_sd
    gv = g.value
    expected = np.einsum("qp...,qrQ...,rs...->psQ...", gv, F0, gv)
    assert np.max(np.abs(F1 - expected)) <= 1e-12 * max(1.0, np.max(np.abs(F0)))
    assert np.max(np.abs(F1 - F0)) > 0.1  # the gauge moves the curvature


@pytest.mark.parametrize("sign", [+1.0, -1.0])
def test_s4_family_connections_are_instantons(sign):
    chart, H = bonneau_chart(0.0)
    cd = _connection(chart, H.scaled(sign), nodes=32)
    assert sup(lambda_plus_block_residual(cd.induced, cd.blocks)) <= 1e-9
    assert sup(self_duality_residual(cd.induced)) <= 1e-8


def test_self_duality_residual_matches_einstein_block():
    chart = random_chart(10)
    H = random_torsion(10)
    ic = _connection(chart, H, nodes=16).induced
    C = Evaluation.on_grid(chart, H, 16).plus.blocks[2]
    # same quantity through two code paths
    sd = sup(self_duality_residual(ic))
    blk = float(np.max(np.sqrt(np.einsum("pq...,pq...->...", C, C))))
    assert sd == pytest.approx(blk, rel=1e-9)
    assert sd > 1e-3  # generic torsion is nowhere near an instanton


def test_yang_mills_density_for_the_s4_family():
    chart, H = bonneau_chart(0.0)
    res = sup(yang_mills_density_check(Evaluation.on_grid(chart, H, 64)))
    assert res["pair_residual"] <= 1e-9
    assert res["formula_residual_plus"] <= 1e-9
    assert res["formula_residual_minus"] <= 1e-9


def _density(ev):
    """The Yang-Mills density of the +H induced connection, per point."""
    rows = ev.plus.induced.rows
    return np.einsum("sm...,sm...->...", rows, rows)


def test_yang_mills_density_round_sphere_value():
    ev = Evaluation.on_grid(round_s4_chart(), InvariantForm.zero(3), 16)
    assert np.max(np.abs(_density(ev) - 3.0)) <= 1e-12
    assert sup(yang_mills_density_check(ev)["pair_residual"]) == 0.0


def test_yang_mills_density_flat_group():
    ch = product_chart(1.0, 1.0)
    assert np.max(np.abs(_density(Evaluation.on_grid(ch, flat_torsion(ch), 8)))) <= 1e-12


def test_killing_residual_cases():
    chart, H = bonneau_chart(0.0)
    res = sup(killing_residual(Evaluation.on_grid(chart, H, 64)))
    assert closed(res["dH_sup"])
    assert res["killing_residual"] <= 1e-8
    ch = product_chart(1.0, 1.0)
    res = sup(killing_residual(Evaluation.on_grid(ch, flat_torsion(ch), 8)))
    assert res["killing_residual"] <= 1e-14
    res = sup(killing_residual(Evaluation.on_grid(random_chart(3), random_torsion(3), 16)))
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


@pytest.mark.xfail(strict=True, reason="the probe differentiates its kernel section on the "
                                       "grid, so its verdict depends on n (ROADMAP item 1)")
@pytest.mark.parametrize("k", [-1.0, 0.0, 0.3])
def test_probe_verdict_converges_under_refinement(k):
    # inequivalent at n = 128 and inconclusive at n = 2048, for each k
    chart, H = bonneau_chart(k)
    coarse, fine = (gauge_equivalence_probe(Evaluation.on_grid(chart, H, n)).verdict
                    for n in (128, 2048))
    assert coarse == fine


def test_yang_mills_action_consistent_with_pontryagin():
    from skewtorsion.topology import hitchin_thorpe_report, integrate_invariant, report_grids
    chart, H = bonneau_chart(0.0)

    def action(sign):
        def dens(pt):
            ic = with_skew_torsion(levi_civita(pt), sign * H.at(pt)).induced
            return np.einsum("sm...,sm...->...", ic.rows, ic.rows)
        return integrate_invariant(chart, dens, nodes=128)[0]

    s_plus, s_minus = action(+1.0), action(-1.0)
    assert s_plus == pytest.approx(s_minus, rel=1e-10)
    grids = report_grids(chart, H, 128)
    p1 = hitchin_thorpe_report(grids["sample"], grids)["p1_lambda_plus"]
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
    out, flip = _align_signs(g.copy())
    assert _bits(out) == _bits(_align_signs_loop(g))
    # the mask names the negated nodes
    assert _bits(out[flip]) == _bits(-g[flip]) and _bits(out[~flip]) == _bits(g[~flip])


def test_zero_dot_restarts_the_sign():
    a, b = np.zeros((3, 3)), np.zeros((3, 3))
    a[0, 0], b[1, 1] = 1.0, 2.0
    g = np.stack([a, -a, b, b, -b])
    out, flip = _align_signs(g.copy())
    # node 1 flips; node 2 is orthogonal to node 1, so it keeps its sign
    # rather than inheriting the flip; node 4 flips against node 3
    assert _bits(out) == _bits(np.stack([a, a, b, b, b]))
    assert flip.tolist() == [False, True, False, False, True]
    assert _bits(out) == _bits(_align_signs_loop(g))


def _spectrum_context(Fp_sd, Fm_sd):
    """The fields of a context that ``_intertwiner_spectrum`` reads, for
    given F_sd of the +-H induced connections, shape (3, 3, 6, n)."""
    n = Fp_sd.shape[-1]

    def induced(F_sd):
        return SimpleNamespace(induced=SimpleNamespace(
            F_sd=F_sd, omega=SimpleNamespace(value=np.zeros((4, 3, 3, n)))))
    return SimpleNamespace(plus=induced(Fp_sd), minus=induced(Fm_sd))


def _direct_spectrum(Fp_sd, Fm_sd):
    """S and the last right singular vector from the SVD of the 54x9 system."""
    L = _intertwiner_system(np.einsum("pqm...->...mpq", Fp_sd),
                            np.einsum("pqm...->...mpq", Fm_sd))
    _, S, Vt = np.linalg.svd(L, full_matrices=False)
    return S, Vt[:, 8]


def _scaled_curvatures(rng, n, exponents):
    """F_sd of the +-H pair with zeros of both signs, node i scaled by
    10 ** exponents[i]."""
    scale = 10.0 ** np.asarray(exponents, dtype=float)
    return (_random_with_zeros(rng, (3, 3, 6, n)) * scale,
            _random_with_zeros(rng, (3, 3, 6, n)) * scale)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 20), st.integers(-100, 100))
def test_spectrum_from_the_triangular_factor_is_the_direct_svd_bitwise(seed, n, exponent):
    """In LAPACK's unscaled range the SVD of the 9x9 QR factor is the SVD
    that dgesdd takes of the 54x9 system, bit for bit."""
    rng = np.random.default_rng(seed)
    exponents = np.clip(exponent + rng.integers(-10, 11, size=n), -100, 100)
    Fp_sd, Fm_sd = _scaled_curvatures(rng, n, exponents)
    S, v9, *_ = _intertwiner_spectrum(_spectrum_context(Fp_sd, Fm_sd))
    S_ref, v9_ref = _direct_spectrum(Fp_sd, Fm_sd)
    assert S.shape == v9.shape == (9, n)
    assert S.tobytes() == S_ref.T.tobytes()
    assert v9.tobytes() == v9_ref.T.tobytes()


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 20),
       st.sampled_from([-200, -145, 145, 200]))
def test_spectrum_out_of_the_unscaled_range_agrees_to_rounding(seed, n, exponent):
    """Outside it dgesdd rescales the 54x9 system before its QR, so the two
    routes agree to rounding only."""
    rng = np.random.default_rng(seed)
    Fp_sd, Fm_sd = _scaled_curvatures(rng, n, np.full(n, exponent))
    # dgesdd's unscaled range of the largest entry: sqrt(tiny) / eps to its
    # inverse; every node of the example lies outside it
    small = np.sqrt(np.finfo(float).tiny) / np.finfo(float).eps
    L = _intertwiner_system(np.einsum("pqm...->...mpq", Fp_sd),
                            np.einsum("pqm...->...mpq", Fm_sd))
    largest = np.max(np.abs(L), axis=(1, 2))
    assert np.all((largest < small) | (largest > 1.0 / small))
    S, *_ = _intertwiner_spectrum(_spectrum_context(Fp_sd, Fm_sd))
    S_ref, _ = _direct_spectrum(Fp_sd, Fm_sd)
    eps = np.finfo(float).eps
    assert S.shape == (9, n)
    assert np.all(np.abs(S.T - S_ref) <= 32.0 * eps * S_ref[:, :1])


def _owner(a: np.ndarray) -> np.ndarray:
    """The array that owns the memory of ``a``."""
    while a.base is not None:
        a = a.base
    return a


def test_spectrum_arrays_own_their_data():
    # a view of the (n, 9, 9) right factor, or of a chunk's, would keep
    # each tile's factors alive until the tiles are joined: no array
    # returned holds more memory than its own
    chart, H = bonneau_chart(0.3)
    arrays = _intertwiner_spectrum(Evaluation.on_grid(chart, H, 300))
    assert [a.shape for a in arrays] == [(9, 300), (9, 300), (3, 3, 300), (3, 300), (300,)]
    for a in arrays:
        assert _owner(a).nbytes == a.nbytes


_PROBE_CHARTS = [
    {"type": "bonneau", "params": {"k": -1.0}},
    {"type": "bonneau", "params": {"k": 0.3}},
    {"type": "random", "params": {"seed": 3}},
    {"type": "product", "params": {"b0": 1.3, "L": 2.0}},
    {"type": "flat", "params": {"L": 2.0}},
    {"type": "round"},
]


def _joined_omega_spectrum(ev):
    """The spectrum of a tile from one (n, 54, 9) system, and the
    connection forms omega+- themselves in place of the orbit terms."""
    ic_p, ic_m = ev.plus.induced, ev.minus.induced
    L = _intertwiner_system(np.einsum("pqm...->...mpq", ic_p.F_sd),
                            np.einsum("pqm...->...mpq", ic_m.F_sd))
    _, S, Vt = np.linalg.svd(np.linalg.qr(L, mode="r"), full_matrices=False)
    return S.T, Vt[:, 8].T.copy(), ic_p.omega.value, ic_m.omega.value


def _joined_omega_verdict(pt, S, v9, omega_plus, omega_minus):
    """The probe's report from the joined omega+-: the kernel section is
    aligned first, and each covariant component is formed from it."""
    x, n = pt.x, pt.npoints
    S, v9 = S.T, np.ascontiguousarray(v9.T)
    sigma_max = S[:, 0]
    om_scale = max(float(np.max(np.abs(omega_plus))), float(np.max(np.abs(omega_minus)))) ** 2
    tau = 1e-7 * np.maximum(sigma_max, max(om_scale, 1e-300))
    kdims = np.sum(S <= tau[:, None], axis=1)
    with np.errstate(divide="ignore"):
        min_gap = float(np.min(np.where(S[:, 8] > 0, S[:, 7] / np.maximum(S[:, 8], 1e-300),
                                        np.inf)))
    thr = 10.0 * 1e-7 * float(np.median(sigma_max))
    frac1, frac9 = float(np.mean(kdims == 1)), float(np.mean(kdims == 9))
    section, sup_ng, inf_mid = None, np.nan, np.nan
    if frac9 >= 0.95:
        verdict, notes = "equivalent", "curvature vanishes; every g intertwines"
    elif frac1 >= 0.95:
        g = v9.reshape(n, 3, 3) / np.linalg.norm(v9, axis=1)[:, None, None]
        section = g = _align_signs(g)[0]
        gp = np.gradient(g, x, axis=0)
        ng2 = np.zeros(n)
        wp, wm = np.moveaxis(omega_plus, -1, 0), np.moveaxis(omega_minus, -1, 0)
        for i in range(4):
            di = wp[:, i] @ g - g @ wm[:, i]
            if i == 0:
                di = di + gp / pt.a.value[:, None, None]
            ng2 += np.einsum("npq,npq->n", di, di)
        ng = np.sqrt(ng2)
        sup_ng, inf_mid = float(np.max(ng)), float(np.min(ng[n // 4:(3 * n) // 4]))
        if sup_ng <= thr:
            verdict, notes = "equivalent", "kernel section is parallel"
        elif inf_mid > thr:
            verdict, notes = "inequivalent", "kernel section is nowhere parallel on the middle interval"
        else:
            verdict, notes = "inconclusive", "kernel section neither parallel nor uniformly non-parallel"
    else:
        verdict = "inconclusive"
        notes = f"kernel dimension not constant: fractions dim1={frac1:.2f}, dim9={frac9:.2f}"
    return GaugeProbeReport(
        x=x, kernel_dims=kdims, singular_values=S, min_gap=min_gap, threshold=thr,
        sup_nabla_g=sup_ng, inf_nabla_g_mid=inf_mid, verdict=verdict, notes=notes,
        section=section)


def _exact(summary: dict):
    return [(k, v.hex() if isinstance(v, float) else v) for k, v in summary.items()]


# 257 points: one tile, whose last chunk is one node; 1100 points: tiles of
# 512, 512 and 76
@pytest.mark.parametrize("nodes", [64, 257, 1100])
@pytest.mark.parametrize("descriptor", _PROBE_CHARTS)
def test_probe_from_orbit_terms_is_the_joined_omega_probe_bitwise(descriptor, nodes):
    """Chunked systems and per-node orbit terms, signed after the alignment,
    give the report of whole-tile systems and the joined omega+- to the
    bits."""
    chart, H = chart_and_torsion(descriptor)
    ev = Evaluation.on_grid(chart, H, nodes)
    got = gauge_equivalence_probe(ev)
    want = _joined_omega_verdict(ev.pt, *ev.per_point(_joined_omega_spectrum))
    assert _exact(got.summary()) == _exact(want.summary())
    assert got.sup_nabla_g.hex() == want.sup_nabla_g.hex()
    assert got.inf_nabla_g_mid.hex() == want.inf_nabla_g_mid.hex()
    assert got.singular_values.tobytes() == want.singular_values.tobytes()
    assert (got.section is None) == (want.section is None)
    if want.section is not None:
        assert got.section.tobytes() == want.section.tobytes()


@pytest.mark.parametrize("descriptor", _PROBE_CHARTS)
def test_probe_singular_values_are_the_direct_svd_bitwise(descriptor):
    # 1100 points: tiles of 512, 512 and 76
    chart, H = chart_and_torsion(descriptor)
    ev = Evaluation.on_grid(chart, H, 1100)
    ref = np.concatenate([
        _direct_spectrum(tile.plus.induced.F_sd, tile.minus.induced.F_sd)[0]
        for tile in ev.tiles()])
    rep = gauge_equivalence_probe(Evaluation.on_grid(chart, H, 1100))
    assert rep.singular_values.shape == (1100, 9)
    assert rep.singular_values.tobytes() == ref.tobytes()
