"""Chart construction, brackets, and the S^4 family profiles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from skewtorsion import charts
from skewtorsion.charts import (
    BonneauFamily, ChartError, InvariantForm, bonneau_chart, chart_and_torsion,
    flat_torsion, flat_torus_chart, product_chart, random_chart, round_s4_chart,
)
from skewtorsion.frame import MULTI_INDICES
from skewtorsion.jets import Jet
from skewtorsion import jets


def _cval(c, pt):
    return np.broadcast_to(np.asarray(jets.value_of(c)), pt.x.shape)


def test_flat_torus_brackets_vanish():
    pt = flat_torus_chart().at(np.array([0.2, 0.8]))
    cs = pt.structure_functions().value
    for i in range(4):
        for j in range(4):
            for k in range(4):
                assert np.all(_cval(cs[i][j][k], pt) == 0.0)


def test_product_chart_orbit_brackets_are_cyclic():
    pt = product_chart(1.0, 1.0).at(np.array([0.3]))
    cs = pt.structure_functions().value
    assert _cval(cs[2][3][1], pt)[0] == pytest.approx(-1.0)   # c^2_34
    assert _cval(cs[1][2][3], pt)[0] == pytest.approx(-1.0)   # c^4_23
    assert _cval(cs[1][3][2], pt)[0] == pytest.approx(1.0)    # c^3_24 (= -c^3_42)
    # radial brackets vanish for constant profiles
    for j in range(1, 4):
        for k in range(4):
            assert _cval(cs[0][j][k], pt)[0] == 0.0


def test_bonneau_radial_bracket_matches_profile_derivative():
    chart, _ = bonneau_chart(0.0)
    x = np.array([-1.3, -0.4])
    pt = chart.at(x)
    cs = pt.structure_functions().value
    a = pt.a.value
    b = pt.b.value
    db = pt.b.d1
    assert np.allclose(_cval(cs[0][1][1], pt), -db / (a * b), rtol=1e-13)
    assert np.allclose(_cval(cs[0][2][2], pt), -db / (a * b), rtol=1e-13)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_jacobi_identity_for_random_charts(seed):
    chart = random_chart(seed)
    pt = chart.at(chart.sample_grid(32))
    assert pt.jacobi_residual() <= 1e-10


def test_bonneau_normalization_and_pointwise_values():
    fam = BonneauFamily(0.0)
    assert fam.n == pytest.approx(2.0 / math.pi, rel=1e-15)
    w = fam.omega2(Jet.variable(np.array([-1.0]), 4))
    assert w.value[0] == pytest.approx(1.0 - 2.0 / math.pi, rel=1e-14)
    chart, H = bonneau_chart(0.0)
    pt = chart.at(np.array([-1.0]))
    assert pt.b.value[0] ** 2 == pytest.approx(0.5, rel=1e-14)
    # H = 2(k-x)/(1+x^2)^2 dx^s1^s2 has coordinate coefficient 1/2 at x=-1
    coeff = H.at(pt).comps.value[0] * pt.a.value * pt.b.value ** 2
    assert coeff[0] == pytest.approx(0.5, rel=1e-13)


def test_bonneau_conformal_factor_has_double_root_at_endpoint():
    # W(k) = 0 and W'(k) = 0, with W ~ t^2/(1+k^2) for t = k - x -> 0;
    # the radial profile ratio a/c ~ 1/t follows from exactly this.
    for k in (-1.0, 0.0, 0.5, 1.0):
        fam = BonneauFamily(k)
        t = np.array([1e-9, 1e-6, 1e-3])
        w = fam.omega2(Jet.variable(k - t, 4))
        assert np.allclose(w.value / t ** 2, 1.0 / (1.0 + k * k), rtol=5e-3)
        # at t = 1e-6 the cubic correction is O(t); the rounding of x = k - t
        # itself contributes ~1e-10 relative, both far below this bound
        assert w.value[1] / t[1] ** 2 == pytest.approx(1.0 / (1.0 + k * k), rel=1e-5)


def test_bonneau_positivity_holds_over_a_wide_parameter_range():
    # the scan is a check, not an assumption; it passes across the range
    for k in (-20.0, -1.0, 0.0, 1.0, 20.0):
        chart, _ = bonneau_chart(k)
        fam = BonneauFamily(k)
        x = chart.sample_grid(512)
        assert np.min(fam.omega2(Jet.variable(x, 2)).value) > 0.0


def test_bonneau_domain_check():
    chart, _ = bonneau_chart(0.0)
    with pytest.raises(ChartError):
        chart.at(np.array([0.5]))  # beyond x = k


def test_round_chart_volume_weight_profile():
    chart = round_s4_chart()
    pt = chart.at(np.array([math.pi / 2]))
    assert pt.a.value == pytest.approx(1.0)
    assert pt.b.value == pytest.approx(0.5)
    w = chart.volume_weight(pt)
    assert w[0] == pytest.approx(16 * math.pi ** 2 / 8, rel=1e-14)


def test_flat_torsion_components():
    ch = product_chart(2.0, 1.0)
    pt = ch.at(np.array([0.5]))
    Hp = flat_torsion(ch, +1).at(pt)
    Hm = flat_torsion(ch, -1).at(pt)
    assert jets.value_of(Hp[(1, 2, 3)])[0] == pytest.approx(0.5)
    assert jets.value_of(Hm[(1, 2, 3)])[0] == pytest.approx(-0.5)


def test_invariant_form_rejects_bad_index():
    with pytest.raises(ValueError):
        InvariantForm(3, [(0, 2, 1)], lambda pt: [pt.seed])


def test_chart_serialization_roundtrip():
    for chart in (bonneau_chart(0.5)[0], round_s4_chart(), product_chart(1.5, 2.0),
                  flat_torus_chart(), random_chart(3)):
        d = chart.to_dict()
        back, _ = chart_and_torsion(d)
        assert back.to_dict() == d
        x = back.sample_grid(8)
        pt = back.at(x)
        assert np.all(np.asarray(jets.value_of(pt.a)) > 0)


def test_profiles_positive_enforced():
    bad = charts.InvariantChart(
        name="random",
        # a vanishes in the domain
        profiles=lambda x: (jets.sin(x), Jet.constant(1.0, x.order) + 0.0 * x,
                            Jet.constant(1.0, x.order) + 0.0 * x),
        domain=charts.Domain(0.0, 2 * math.pi, periodic=True),
        params={"seed": 0},
    )
    with pytest.raises(ChartError):
        bad.at(np.array([3.5]))


def test_quadrature_nodes_are_interior_and_sorted():
    chart, _ = bonneau_chart(0.0)
    x, w = chart.quadrature(64)
    assert np.all(np.diff(x) > 0)
    assert np.all(x < 0.0)
    assert np.all(w > 0)


def test_brackets_at_interior_points():
    cs = product_chart(1.0, 1.0).at(np.array([0.2, 0.7])).brackets
    assert cs.shape == (4, 4, 4, 2)
    assert cs[2, 3, 1, 0] == pytest.approx(-1.0)
    with pytest.raises(ChartError):
        round_s4_chart().at(np.array([0.0])).brackets


def test_frame_derivative_needs_a_derivative():
    pt = product_chart(1.0, 1.0).at(np.array([0.3, 0.6]))
    g = pt.frame_derivative(pt.b * pt.b)
    assert g.value.shape == (4, 2)
    assert np.all(g.value[1:] == 0.0)
    with pytest.raises(ValueError):
        pt.frame_derivative(Jet.constant(np.ones(2), 0))


def test_half_infinite_domain_compactifies_by_domain_not_name():
    k = 0.37
    chart, _ = bonneau_chart(k)
    fam = BonneauFamily(k)
    other = charts.InvariantChart(name="other", profiles=fam.profiles,
                                  domain=charts.Domain(-math.inf, k))
    for n in (16, 64):
        x0, w0 = chart.quadrature(n)
        x1, w1 = other.quadrature(n)
        assert np.array_equal(x0, x1) and np.array_equal(w0, w1)
    assert np.array_equal(chart.sample_grid(32), other.sample_grid(32))


# -- profiles evaluated once per batch, against per-profile references ------
#
# The references below are the per-profile evaluations the charts used
# before sharing W and the sin/cos pass: each profile on its own, W once
# per profile, sin and cos once per mode.


def _ref_bonneau(fam, x):
    a = jets.sqrt((fam.k - x) / fam.omega2(x)) / (1.0 + x * x)
    b = jets.sqrt((fam.k - x) / (1.0 + x * x))
    c = jets.sqrt(fam.omega2(x) / (fam.k - x))
    return a, b, c, 2.0 * jets.sqrt(fam.omega2(x) / (fam.k - x))


def _ref_trig_poly(rng, base, amp, nmodes=3):
    coefs = amp * rng.uniform(-1.0, 1.0, size=(nmodes, 2))

    def f(x):
        out = Jet.constant(base, x.order) + 0.0 * x
        for m, (ca, cb) in enumerate(coefs, start=1):
            out = out + ca * jets.cos(m * x) + cb * jets.sin(m * x)
        return out

    return f


def _assert_same_bits(got: Jet, ref: Jet):
    assert got.order == ref.order
    for p, q in zip(got.coeffs, ref.coeffs):
        p, q = np.asarray(p), np.asarray(q)
        assert p.shape == q.shape and p.tobytes() == q.tobytes()


def _form_rows(H, pt):
    comps = H.at(pt).comps
    return [comps.map(lambda v, i=i: v[i]) for i in range(len(comps.value))]


@settings(max_examples=40, deadline=None)
@given(st.floats(-2.0, 2.0),
       st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=4),
       st.lists(st.floats(0.01, 0.99), min_size=1, max_size=4),
       st.lists(st.floats(0.0, 20.0), min_size=1, max_size=4))
def test_bonneau_profiles_are_the_per_profile_jets_bitwise(k, near, mid, far):
    chart, H = bonneau_chart(k)
    fam = BonneauFamily(k)
    lo, hi = fam.x_far, k - fam.r_near
    x = np.concatenate([k - fam.r_near * np.array(near),
                        lo + (hi - lo) * np.array(mid),
                        lo - np.array(far)])
    # one node at least in each branch of W
    assert np.any(k - x <= fam.r_near) and np.any(x <= fam.x_far)
    assert np.any((k - x > fam.r_near) & (x > fam.x_far))
    pt = chart.at(x)
    seed = Jet.variable(x, 2)
    a, b, c, h123 = _ref_bonneau(fam, seed)
    for got, ref in ((pt.a, a), (pt.b, b), (pt.c, c)):
        _assert_same_bits(got, ref)
    zero = 0.0 * seed
    for idx, got in zip(MULTI_INDICES[3], _form_rows(H, pt)):
        _assert_same_bits(got, h123 + zero if idx == (0, 1, 2) else zero)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 40))
def test_random_profiles_are_the_per_mode_jets_bitwise(seed, n):
    chart = random_chart(seed)
    x = chart.sample_grid(n)
    pt = chart.at(x)
    xj = Jet.variable(x, 2)
    zero = 0.0 * xj
    rng = np.random.default_rng(seed)
    profs = [_ref_trig_poly(rng, float(rng.uniform(1.2, 2.0)), 0.12) for _ in range(3)]
    for got, f in zip((pt.a, pt.b, pt.c), profs):
        _assert_same_bits(got, f(xj))
    for form, offset, degree in ((charts.random_torsion(seed), 101, 3),
                                 (charts.random_one_form(seed), 202, 1)):
        rng = np.random.default_rng(seed + offset)
        refs = [_ref_trig_poly(rng, float(rng.uniform(-0.4, 0.4)), 0.6 / 3.0)
                for _ in MULTI_INDICES[degree]]
        for got, f in zip(_form_rows(form, pt), refs):
            _assert_same_bits(got, f(xj) + zero)
