"""Connection constructors, curvature routes, and the identity suite."""

import numpy as np
import pytest

from skewtorsion import connections, jets
from skewtorsion.charts import (
    InvariantForm, bonneau_chart, flat_torsion, flat_torus_chart,
    product_chart, random_chart, random_one_form, random_torsion, round_s4_chart,
)
from skewtorsion.connections import (
    AffineConnection, codifferential, curvature, curvature_pairs, curvature_via_eq1,
    d_form, exterior_ops, full_components, identity_suite, levi_civita, with_skew_torsion,
)
from skewtorsion.evaluation import Evaluation, closed, sup
from skewtorsion.frame import KForm, hodge_star
from skewtorsion.instanton import killing_residual


def _val(c, pt):
    return np.broadcast_to(np.asarray(c), pt.x.shape)


def test_levi_civita_flat_torus_vanishes():
    pt = flat_torus_chart().at(np.array([0.1, 0.6]))
    lc = levi_civita(pt)
    assert np.max(np.abs(lc.gamma.value)) == 0.0


def test_levi_civita_biinvariant_half_bracket():
    pt = product_chart(1.0, 1.0).at(np.array([0.2]))
    lc = levi_civita(pt)
    # g(D_{e2} e3, e4) = -1/2 on the unit-profile orbit
    assert _val(lc.gamma.value[1][2][3], pt)[0] == pytest.approx(-0.5)
    cs = pt.structure.value
    for i in range(1, 4):
        for j in range(1, 4):
            for k in range(1, 4):
                assert _val(lc.gamma.value[i][j][k], pt)[0] == pytest.approx(
                    0.5 * _val(cs[i][j][k], pt)[0], abs=1e-15)


def test_round_sphere_constant_curvature():
    chart = round_s4_chart()
    pt = chart.at(chart.sample_grid(16))
    cd = levi_civita(pt)
    R = curvature(cd)
    expected = (np.einsum("ik,jl->ijkl", np.eye(4), np.eye(4))
                - np.einsum("il,jk->ijkl", np.eye(4), np.eye(4)))[..., None]
    assert np.max(np.abs(R - expected)) < 1e-12
    assert np.max(np.abs(cd.ric - 3.0 * np.eye(4)[..., None])) < 1e-12
    assert np.max(np.abs(cd.scalar - 12.0)) < 1e-12


def test_metric_curvature_antisymmetries():
    chart = random_chart(9)
    H = random_torsion(9)
    pt = chart.at(chart.sample_grid(8))
    conn = with_skew_torsion(levi_civita(pt), H.at(pt))
    R = curvature(conn)
    assert np.max(np.abs(R + np.einsum("ijkl...->jikl...", R))) < 1e-12
    assert np.max(np.abs(R + np.einsum("ijkl...->ijlk...", R))) < 1e-12


def test_skew_torsion_recovery_and_zero_case():
    chart = random_chart(12)
    pt = chart.at(chart.sample_grid(8))
    lc = levi_civita(pt)
    H = random_torsion(12).at(pt)
    conn = with_skew_torsion(lc, H)
    tor = conn.torsion_form()
    for tc, hc in zip(tor.comps.value, H.comps.value):
        assert np.max(np.abs(_val(tc, pt) - _val(hc, pt))) < 1e-12
    conn0 = with_skew_torsion(lc, 0.0 * H)
    assert np.max(np.abs(conn0.gamma.value - lc.gamma.value)) == 0.0


def test_with_skew_torsion_validates_input():
    chart = random_chart(1)
    pt = chart.at(chart.sample_grid(4))
    lc = levi_civita(pt)
    with pytest.raises(ValueError):
        with_skew_torsion(lc, KForm(2))
    skew = with_skew_torsion(lc, random_torsion(1).at(pt))
    with pytest.raises(ValueError):
        with_skew_torsion(skew, KForm(3))  # base must be torsion-free


def test_torsion_check_runs_once_per_base_connection(monkeypatch):
    """A context adds +H and -H to one Levi-Civita connection; its torsion
    is checked once, and the connection with torsion is still refused."""
    checked = []
    torsion_form = AffineConnection.torsion_form

    def counted(self):
        checked.append(self)
        return torsion_form(self)

    monkeypatch.setattr(AffineConnection, "torsion_form", counted)
    chart = random_chart(2)
    pt = chart.at(chart.sample_grid(8))
    lc = levi_civita(pt)
    H = random_torsion(2).at(pt)
    skew = with_skew_torsion(lc, H)
    with_skew_torsion(lc, -1.0 * H)
    assert checked == [lc]
    for _ in range(2):
        with pytest.raises(ValueError):
            with_skew_torsion(skew, H)
    assert checked == [lc, skew]


def test_flat_connection_on_group_both_signs():
    ch = product_chart(1.0, 1.0)
    pt = ch.at(ch.sample_grid(8))
    lc = levi_civita(pt)
    for sign in (+1, -1):
        H = flat_torsion(ch, sign).at(pt)
        R = curvature(with_skew_torsion(lc, H))
        assert np.max(np.abs(R)) <= 1e-12
    # without torsion the curvature does not vanish
    Rg = curvature(lc)
    assert np.max(np.abs(Rg)) > 0.1


def test_scalar_relation_on_group_charts():
    for b0 in (1.0, 2.0):
        ch = product_chart(b0, 1.0)
        pt = ch.at(ch.sample_grid(4))
        lc = levi_civita(pt)
        assert np.max(np.abs(lc.scalar - 1.5 / b0 ** 2)) < 1e-12
        H = flat_torsion(ch).at(pt)
        rn = with_skew_torsion(lc, H)
        assert np.max(np.abs(rn.scalar)) < 1e-12
        ext = exterior_ops(lc, H)
        assert np.max(np.abs(ext.norm_sq_H - 1.0 / b0 ** 2)) < 1e-14


def test_curvature_two_routes_agree():
    for seed in range(5):
        chart = random_chart(seed)
        H = random_torsion(seed)
        pt = chart.at(chart.sample_grid(16))
        Hf = H.at(pt)
        # on the six pairs i < j, the half of R the assembled route returns
        direct = curvature_pairs(with_skew_torsion(levi_civita(pt), Hf))
        assembled = curvature_via_eq1(Evaluation(pt, Hf))
        assert np.max(np.abs(direct - assembled)) <= 1e-10


def test_exterior_derivative_matches_invariant_structure():
    ch = product_chart(1.0, 1.0)
    pt = ch.at(np.array([0.4]))
    # d e2 = -c^2_ij e^i ^ e^j/2: for unit profiles d(s1) = s2 ^ s3
    v = np.zeros((4, 1))
    v[1] = 1.0
    de2 = d_form(pt, KForm(1, jets.Jet((v, np.zeros_like(v)))))
    assert de2[(2, 3)].value[0] == pytest.approx(1.0)
    assert de2[(0, 1)].value[0] == pytest.approx(0.0)


def test_exterior_derivative_of_an_order_0_form_raises():
    """An order-0 form carries no derivative, so d of it is refused rather
    than read as the bracket term alone."""
    pt = product_chart(1.0, 1.0).at(np.array([0.4]))
    for form in (KForm.basis(1, (1,)), random_torsion(2).at(pt).truncated(0)):
        with pytest.raises(ValueError):
            d_form(pt, form)


def test_codifferential_is_adjoint_sign_convention():
    # flat torus, H = f(x) e^{123}: d*H has only the (1,2) component -f'/a
    ch = flat_torus_chart(2 * np.pi)
    H = InvariantForm(3, [(0, 1, 2)], lambda pt: [jets.sin(pt.seed)])
    pt = ch.at(np.array([0.7]))
    Hf = H.at(pt)
    ds = codifferential(pt, Hf)
    assert ds.degree == 2
    assert ds[(0, 1)].value[0] == pytest.approx(0.0, abs=1e-15)
    # nonzero component pairs against e^{12}: -d/dx applied through the dual
    dh = d_form(pt, hodge_star(Hf))
    assert hodge_star(dh)[(0, 1)].value[0] == pytest.approx(
        -ds[(0, 1)].value[0], abs=1e-15)


def test_bonneau_torsion_is_closed_with_nonclosed_dual():
    chart, H = bonneau_chart(0.0)
    pt = chart.at(chart.sample_grid(32))
    ext = exterior_ops(levi_civita(pt), H.at(pt))
    assert np.max(np.abs(full_components(ext.dH, pt))) <= 1e-12
    # the torsion 1-form points along e4 and is not closed
    hv = full_components(ext.h, pt)
    assert np.max(np.abs(hv[:3])) <= 1e-14
    assert np.max(np.abs(hv[3])) > 0.1
    assert np.max(np.abs(full_components(ext.dh, pt))) > 0.1


def test_flat_torus_constant_torsion_closed_and_coclosed():
    ch = flat_torus_chart()
    H = InvariantForm(3, [(1, 2, 3)], lambda pt: [1.0 + 0.0 * pt.seed])
    pt = ch.at(ch.sample_grid(4))
    ext = exterior_ops(levi_civita(pt), H.at(pt))
    assert np.max(np.abs(full_components(ext.dH, pt))) == 0.0
    assert np.max(np.abs(full_components(ext.dstar_H, pt))) == 0.0


@pytest.mark.parametrize("seed", [0, 3, 8])
def test_identity_suite_random_draws(seed):
    chart = random_chart(seed)
    H = random_torsion(seed)
    ev = Evaluation.on_grid(chart, H, 64)
    res = sup(identity_suite(ev))
    if not closed(killing_residual(ev)["dH_sup"]):
        del res["pair_swap_closed"]  # an identity only for closed H
    for key, val in res.items():
        assert val <= 1e-9, f"{key} = {val}"


def test_identity_suite_closed_torsion_swap():
    chart, H = bonneau_chart(0.5)
    ev = Evaluation.on_grid(chart, H, 32)
    assert closed(killing_residual(ev)["dH_sup"])
    assert sup(identity_suite(ev)["pair_swap_closed"]) <= 1e-9


def test_identity_suite_zero_torsion_reduces_to_classical():
    chart = random_chart(2)
    res = sup(identity_suite(Evaluation.on_grid(chart, InvariantForm.zero(3), 16)))
    assert res["bianchi"] <= 1e-12
    assert res["scalar_relation"] <= 1e-12
    assert res["ricci_antisym"] <= 1e-12


def test_divergence_trace_consistency():
    # trace of S(grad h) equals minus the codifferential of h
    chart = random_chart(6)
    H = random_torsion(6)
    pt = chart.at(chart.sample_grid(16))
    ext = exterior_ops(levi_civita(pt), H.at(pt))
    tr = np.einsum("ii...->...", ext.sym_grad_h)
    dstar_h = _val(codifferential(pt, ext.h).comps.value[0], pt)
    assert np.max(np.abs(tr + dstar_h)) <= 1e-12
    # and the 4-form dual of dH equals that same codifferential
    assert np.max(np.abs(ext.star_dH - dstar_h)) <= 1e-12


def test_curvature_radial_derivative_against_finite_differences():
    # end-to-end oracle: the jet-backed e1(Gamma) terms inside the curvature
    # agree with central finite differences of the connection coefficients
    chart = random_chart(21)
    H = random_torsion(21)
    x0 = 1.1
    h = 1e-5

    def gamma_at(x):
        pt = chart.at(np.array([x]))
        conn = with_skew_torsion(levi_civita(pt), H.at(pt))
        return conn.gamma.value[..., 0], pt

    gp, _ = gamma_at(x0 + h)
    gm, _ = gamma_at(x0 - h)
    g0, pt0 = gamma_at(x0)
    a0 = float(pt0.a.value[0])
    fd = (gp - gm) / (2 * h) / a0

    conn0 = with_skew_torsion(levi_civita(pt0), H.at(pt0))
    exact = pt0.e1(conn0.gamma).value[..., 0]  # e1 includes the 1/a
    assert np.max(np.abs(exact - fd)) < 1e-7


def test_named_residual_checks():
    chart = random_chart(14)
    H = random_torsion(14)
    res = sup(identity_suite(Evaluation.on_grid(chart, H, 16)))
    assert res["ricci_formula"] <= 1e-9
    assert res["scalar_relation"] <= 1e-9


def test_tensors_are_single_jets():
    chart = random_chart(4)
    pt = chart.at(chart.sample_grid(8))
    lc = levi_civita(pt)
    for t, shape in ((pt.structure, (4, 4, 4, 8)), (lc.gamma, (4, 4, 4, 8)),
                     (random_torsion(4).at(pt).comps, (4, 8))):
        assert isinstance(t, jets.Jet)
        assert t.value.shape == shape


@pytest.mark.parametrize("n", [64, 512, 4096])
def test_sign_tensor_gathers_keep_the_contraction_bits(n):
    # d and the covariant derivative contract their sign tensors by gathers;
    # on finite values they give the bits of the np.einsum they replace
    from skewtorsion.connections import _D_SIGNS, _DERIVATION_SIGNS
    rng = np.random.default_rng(n)
    for k in range(4):
        x = rng.standard_normal((4, 4, 4, n)) * 10.0 ** rng.uniform(-8, 8, (4, 4, 4, n))
        deriv, bracket = _D_SIGNS[k]
        assert (bracket(x).tobytes()
                == np.einsum("qpabm,abm...->qp...", bracket.signs, x).tobytes())
        # the derivative term reads e1 alone of the frame derivatives
        fd = np.zeros((4,) + deriv.signs.shape[1:] + (n,))
        fd[0] = x.reshape(-1, n)[:deriv.signs[0].size].reshape(fd.shape[1:])
        signs = np.stack([deriv.signs] + [np.zeros_like(deriv.signs)] * 3, axis=1)
        assert deriv(fd[0]).tobytes() == np.einsum("qip,ip...->q...", signs, fd).tobytes()
        if k in _DERIVATION_SIGNS:
            signs = _DERIVATION_SIGNS[k]
            assert (signs(x, lead=1).tobytes()
                    == np.einsum("ixm...,JPxm->iJP...", x, signs.signs).tobytes())


def dense_structure_equation(pt, omega):
    """The structure equation summed over all (i, j, m): the reference of
    the pair-wise ``connections._structure_equation``."""
    w = omega.value
    dw = pt.e1(omega).value
    F = np.zeros((4, 4) + w.shape[1:])
    F[0] += dw
    F[:, 0] -= dw
    comm = np.einsum("ipr...,jrq...->ijpq...", w, w)
    F += comm - np.einsum("ijpq...->jipq...", comm)
    F -= np.einsum("ijm...,mpq...->ijpq...", pt.brackets, w)
    return F


@pytest.mark.parametrize("chart", [random_chart(3), bonneau_chart(0.3)[0],
                                   product_chart(1.3, 2.0), flat_torus_chart(2.0)],
                         ids=["random", "bonneau", "product", "flat"])
@pytest.mark.parametrize("n", [1, 7, 64])
def test_pairwise_structure_equation_is_the_dense_sum(chart, n, monkeypatch):
    """Formed whole (below ``_BLOCK_FROM`` points) and in blocks of pairs."""
    from skewtorsion.connections import _structure_equation
    from skewtorsion.weyl import weyl_connection
    ev = Evaluation(chart.at(chart.sample_grid(n)), random_torsion(5))
    weyl = weyl_connection(ev.lc, random_one_form(5).at(ev.pt))
    conns = (ev.lc, ev.plus, ev.minus, weyl)
    forms = [jets.einsum("ilk...->ikl...", conn.gamma) for conn in conns]
    forms += [ev.plus.induced.omega, ev.minus.induced.omega]
    i, j = np.triu_indices(4, 1)
    for block_from in (connections._BLOCK_FROM, 1):
        monkeypatch.setattr(connections, "_BLOCK_FROM", block_from)
        for omega in forms:
            dense = dense_structure_equation(ev.pt, omega)
            pairs = _structure_equation(ev.pt, omega)
            # bytes, not values: the sign of zero counts too
            assert pairs.tobytes() == dense[i, j].tobytes()
            assert (0.0 - pairs).tobytes() == dense[j, i].tobytes()
    # and the curvature tensor, the pairs scattered, is the dense sum
    for conn, omega in zip(conns, forms):
        assert curvature(conn).tobytes() == dense_structure_equation(ev.pt, omega).tobytes()


class _Forms:
    """A frame point's brackets and e1 derivative of the forms, as given
    arrays: the inputs of a structure equation, special values included."""

    def __init__(self, brackets, e1):
        self.brackets, self._e1 = brackets, e1

    def e1(self, f):
        return jets.Jet((self._e1,))


def _batched_structure_equation(pt, omega):
    """The structure equation on the six pairs at once, each term read off
    index-array copies of the forms of all six: the form the blocks of
    ``connections._PAIR_BLOCKS`` replace."""
    from skewtorsion.charts import _BRACKET_PAIRS
    w = omega.value
    i, j, m = _BRACKET_PAIRS
    F = np.zeros((6,) + w.shape[1:], w.dtype)
    F[:3] += pt.e1(omega.map(lambda c: c[1:])).value
    term = np.einsum("ipr...,irq...->ipq...", w[i], w[j])
    term -= np.einsum("ipr...,irq...->ipq...", w[j], w[i])
    F += term
    np.multiply(pt.brackets[i, j, m][:, None, None], w[m], out=term)
    F -= term
    return F


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
@pytest.mark.parametrize("n", [1, 2, 64, 512])
@pytest.mark.parametrize("size", [3, 4])
def test_structure_equation_blocks_are_the_batched_form(dtype, n, size):
    """From ``_BLOCK_FROM`` points the structure equation forms its terms
    one block of pairs at a time, off slices of the forms; each entry has
    the bytes of the batched form, NaN, inf and the sign of zero included,
    on forms of the curvature (4x4) and of the induced connection (3x3)."""
    rng = np.random.default_rng(n * size)
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e308, -5e-324])
    for trial in range(4):
        w = rng.standard_normal((4, size, size, n)).astype(dtype)
        brackets = rng.standard_normal((4, 4, 4, n)).astype(dtype)
        e1 = rng.standard_normal((3, size, size, n)).astype(dtype)
        for a in (w, brackets, e1):
            if trial == 1:  # special values in a third of the entries
                mask = rng.random(a.shape) < 0.3
                a[mask] = rng.choice(special, mask.sum())
            elif trial == 2:  # -0.0 in half of them
                a[rng.random(a.shape) < 0.5] = -0.0
            elif trial == 3:  # exact products, which cancel to zeros
                a[...] = np.round(4.0 * a) / 4.0
        pt, omega = _Forms(brackets, e1), jets.Jet((w,))
        with np.errstate(all="ignore"):
            want = _batched_structure_equation(pt, omega)
            got = {}
            for form, block_from in (("blocks", 1), ("whole", 10 ** 9)):
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(connections, "_BLOCK_FROM", block_from)
                    got[form] = connections._structure_equation(pt, omega)
        for form, F in got.items():
            assert F.dtype == dtype and F.tobytes() == want.tobytes(), (form, trial)
