"""Chart construction, brackets, and the S^4 family profiles."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from skewtorsion import charts
from skewtorsion.charts import (
    BonneauFamily, ChartError, InvariantForm, bonneau_chart, bonneau_rows, chart_and_torsion,
    flat_torsion, flat_torus_chart, product_chart, random_chart, round_s4_chart,
)
from skewtorsion.evaluation import sup
from skewtorsion.frame import MULTI_INDICES
from skewtorsion.jets import Jet
from skewtorsion import jets


def _cval(c, pt):
    return np.broadcast_to(np.asarray(c), pt.x.shape)


def test_flat_torus_brackets_vanish():
    pt = flat_torus_chart().at(np.array([0.2, 0.8]))
    cs = pt.structure.value
    for i in range(4):
        for j in range(4):
            for k in range(4):
                assert np.all(_cval(cs[i][j][k], pt) == 0.0)


def test_product_chart_orbit_brackets_are_cyclic():
    pt = product_chart(1.0, 1.0).at(np.array([0.3]))
    cs = pt.structure.value
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
    cs = pt.structure.value
    a = pt.a.value
    b = pt.b.value
    db = pt.b.derivative().value
    assert np.allclose(_cval(cs[0][1][1], pt), -db / (a * b), rtol=1e-13)
    assert np.allclose(_cval(cs[0][2][2], pt), -db / (a * b), rtol=1e-13)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_jacobi_identity_for_random_charts(seed):
    chart = random_chart(seed)
    pt = chart.at(chart.sample_grid(32))
    assert sup(pt.jacobi_residual()) <= 1e-10


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


@pytest.mark.parametrize("k", [-1000.0, -10.0, -1.5, 0.0, 0.3, 1.0, 10.0, 1e5])
def test_bonneau_order_zero_values_equal_the_order_two_values(k):
    """W and a/c on order-0 jets, as the positivity scan and the holomorphic
    radius read them, are the value coefficients of the chart's order-2
    jets bit for bit, across every branch of W."""
    fam = BonneauFamily(k)
    x = k - np.geomspace(1e-8, 1e8, 161)
    lo, hi = Jet.variable(x, 0), Jet.variable(x, jets.DEFAULT_ORDER)
    w0, w2 = fam.omega2(lo), fam.omega2(hi)
    assert w0.order == 0 and w2.order == jets.DEFAULT_ORDER
    assert np.array_equal(w0.value, w2.value)
    assert np.array_equal(fam.a_over_c(lo).value, fam.a_over_c(hi).value)
    assert np.array_equal(fam.a_over_c(Jet.constant(x, 0)).value, fam.a_over_c(hi).value)


_BRANCH_KS = [-1000.0, -10.0, -1.5, 0.0, 0.3, 1.0, 10.0, 1e5]


def _branch_nodes(k: float) -> np.ndarray:
    """Nodes over every decade of k - x, with one node exactly on each
    branch boundary: k - x == r_near (near, as k - x <= r_near) and
    x == x_far (far, as x <= x_far)."""
    fam = BonneauFamily(k)
    edge = fam.k - fam.r_near
    assert fam.k - edge == fam.r_near
    return np.concatenate([k - np.geomspace(1e-8, 1e8, 161), [edge, fam.x_far]])


def _select_reference(fam: BonneauFamily, x: Jet) -> Jet:
    """W by the three-branch select: every branch on every node, and
    np.where on the coefficients keeping each node's own branch (near
    before far, the direct formula on the rest)."""
    near = (fam.k - x.value) <= fam.r_near
    far = x.value <= fam.x_far
    with np.errstate(all="ignore"):
        branches = zip(*(w.coeffs for w in (fam._w_near(x), fam._w_far(x), fam._w_direct(x))))
        return Jet(tuple(np.where(near, wn, np.where(far, wf, wd)) for wn, wf, wd in branches))


@pytest.mark.parametrize("order", [0, 2, 4])
def test_bonneau_per_branch_w_is_the_three_branch_select_bitwise(order):
    # each k alone, then all of them as one per-node family
    xs = [_branch_nodes(k) for k in _BRANCH_KS]
    fams = [(BonneauFamily(k), x) for k, x in zip(_BRANCH_KS, xs)]
    fams.append((BonneauFamily.per_node(_BRANCH_KS, [len(x) for x in xs]), np.concatenate(xs)))
    for fam, x in fams:
        seed = Jet.variable(x, order)
        _assert_same_bits(fam.omega2(seed), _select_reference(fam, seed))


def test_bonneau_each_w_branch_runs_on_its_own_nodes_only(monkeypatch):
    # each branch gets the nodes of its own branch alone, with their own k,
    # in order and then repeats of them; an empty branch is not called
    calls = []
    for name in ("_w_near", "_w_far", "_w_direct"):
        branch = getattr(BonneauFamily, name)

        def recorded(fam, x, _name=name, _branch=branch):
            calls.append((_name, x.value.copy(), np.broadcast_to(fam.k, x.value.shape).copy()))
            return _branch(fam, x)

        monkeypatch.setattr(BonneauFamily, name, recorded)
    ks, xs = [0.3, -10.0], [_branch_nodes(0.3), _branch_nodes(-10.0)]
    x, k = np.concatenate(xs), np.repeat(ks, [len(v) for v in xs])
    fam = BonneauFamily.per_node(ks, [len(v) for v in xs])
    fam.omega2(Jet.variable(x, 2))
    near = (fam.k - x) <= fam.r_near
    far = ~near & (x <= fam.x_far)
    own = {"_w_near": near, "_w_far": far, "_w_direct": ~(near | far)}
    assert [name for name, _, _ in calls] == ["_w_near", "_w_far", "_w_direct"]
    for name, got, kk in calls:
        m = np.count_nonzero(own[name])
        assert len(got) >= m
        assert np.array_equal(got[:m], x[own[name]]) and np.array_equal(kk[:m], k[own[name]])
        assert np.array_equal(got, np.resize(got[:m], len(got)))
        assert np.array_equal(kk, np.resize(kk[:m], len(got)))
    # nodes of the near branch alone: the other two branches are not called
    calls.clear()
    BonneauFamily(0.3).omega2(Jet.variable(0.3 - np.array([1e-3, 0.1, 0.5]), 2))
    assert [name for name, _, _ in calls] == ["_w_near"]


def test_bonneau_charts_scan_every_k_as_bonneau_chart_alone(monkeypatch):
    # admissible k, a W refusal and non-finite k in one list: each entry is
    # the chart of bonneau_chart(k), or the text of its ChartError, and the
    # positivity scans of all the k are one evaluation of W
    ks = [0.0, -1e5, math.nan, 0.3, math.inf, -1.5, -math.inf, 1e5]
    omega2, orders = BonneauFamily.omega2, []
    monkeypatch.setattr(BonneauFamily, "omega2",
                        lambda fam, x: orders.append(x.order) or omega2(fam, x))
    built = charts.bonneau_charts(ks)
    assert orders == [0]
    for k, got in zip(ks, built):
        try:
            want = bonneau_chart(k)
        except ChartError as exc:
            assert isinstance(got, ChartError) and str(got) == str(exc)
            continue
        (chart, H), (ref, ref_H) = got, want
        assert H is ref_H and chart.to_dict() == ref.to_dict()
        x = ref.sample_grid(64)
        for p, q in zip(chart.profiles(Jet.variable(x)), ref.profiles(Jet.variable(x))):
            _assert_same_bits(p, q)
    assert [isinstance(got, ChartError) for got in built] == [
        False, True, True, False, True, False, True, False]
    assert charts.bonneau_charts([]) == []


def test_omega2_orders_per_caller(monkeypatch):
    """W is evaluated on order-0 jets where only its values are read: the
    chart's positivity scan and the holomorphic radius; the profiles of
    ``chart.at`` take it at ``DEFAULT_ORDER``."""
    from skewtorsion import moduli
    orders = []
    omega2 = BonneauFamily.omega2

    def recorded(self, x):
        orders.append(x.order)
        return omega2(self, x)

    monkeypatch.setattr(BonneauFamily, "omega2", recorded)
    chart, _ = bonneau_chart(0.3)
    assert orders == [0]
    chart.at(chart.sample_grid(16))
    assert orders == [0, jets.DEFAULT_ORDER]
    orders.clear()
    moduli.r_coordinate(0.3, np.array([-2.0, 0.0]), -1.0)
    moduli.asymptotic_check(0.3)
    assert orders == [0, 0]


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
    assert Hp[(1, 2, 3)].value[0] == pytest.approx(0.5)
    assert Hm[(1, 2, 3)].value[0] == pytest.approx(-0.5)


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
        assert np.all(pt.a.value > 0)


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


@pytest.mark.parametrize("make, x", [
    (round_s4_chart, [np.nan, 1.0]), (product_chart, [np.inf]),
    (lambda: bonneau_chart(0.3)[0], [-np.inf]), (flat_torus_chart, [0.5, -np.inf]),
])
def test_at_rejects_non_finite_points(make, x):
    # NaN <= lo is false: without the finiteness check a NaN point, or any
    # non-finite point of a periodic chart, gives NaN profiles silently
    with pytest.raises(ChartError, match="x not finite"):
        make().at(x)


@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_at_rejects_profile_values_outside_zero_to_inf(value):
    const = lambda v, x: Jet.constant(v, x.order) + 0.0 * x
    chart = charts.InvariantChart(
        name="flat", profiles=lambda x: (const(1.0, x), const(value, x), const(1.0, x)),
        domain=charts.Domain(0.0, 1.0, periodic=True), structure_mode="abelian")
    with pytest.raises(ChartError, match="profile b not in"):
        chart.at([0.25, 0.5])


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
# with near offsets up to r_near itself, k - (k - r_near) rounded to
# 1.0000000000000002 > r_near = 1 here, and no node was in the near branch
@example(k=-1.0659198317028034, near=[1.0], mid=[0.5], far=[0.0])
def test_bonneau_profiles_are_the_per_profile_jets_bitwise(k, near, mid, far):
    chart, H = bonneau_chart(k)
    fam = BonneauFamily(k)
    lo, hi = fam.x_far, k - fam.r_near
    # the near offsets stay below 0.999 r_near, far inside the near branch
    # k - x <= r_near whatever k - x rounds to (r_near >= 0.5 for |k| <= 2)
    x = np.concatenate([k - (0.999 * fam.r_near) * np.array(near),
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
@given(st.floats(-20.0, -1e-3), st.floats(1e-3, 20.0),
       st.lists(st.floats(-20.0, 20.0), max_size=3), st.randoms(use_true_random=False),
       st.lists(st.integers(1, 40), min_size=6, max_size=6))
def test_bonneau_per_node_family_is_the_per_k_families_bitwise(neg, pos, more, rnd, sizes):
    # one batch of negative, zero and positive k in a drawn order, each k's
    # nodes its chart's sample grid: the profiles, H and the brackets at a
    # node are the bits of its own k's chart
    ks = [neg, 0.0, pos] + more
    rnd.shuffle(ks)
    built = [bonneau_chart(k) for k in ks]
    xs = [chart.sample_grid(m) for (chart, _), m in zip(built, sizes)]
    counts = [len(x) for x in xs]
    profiles = BonneauFamily.per_node(ks, counts).profiles(Jet.variable(np.concatenate(xs)))
    union, H = bonneau_rows(ks, counts)
    pt = union.at(tuple(xs))
    for k, (chart, Hk), x, end in zip(ks, built, xs, np.cumsum(counts)):
        s = slice(end - len(x), end)
        for got, want in zip(profiles, BonneauFamily(k).profiles(Jet.variable(x))):
            _assert_same_bits(charts._grid_slice(got, s), want)
        part, ref = pt[s], chart.at(x)
        for got, want in ((part.seed, ref.seed), (part.a, ref.a), (part.b, ref.b),
                          (part.c, ref.c), (H.at(part).comps, Hk.at(ref).comps)):
            _assert_same_bits(got, want)
        assert part.brackets.tobytes() == ref.brackets.tobytes()


def test_at_checks_each_grid_of_a_tuple_as_if_alone():
    # a refusal names the first grid that fails, and only its nodes
    const = lambda v, x: Jet.constant(v, x.order) + 0.0 * x
    chart = charts.InvariantChart(
        name="test", profiles=lambda x: (const(1.0, x), 1.0 - x, const(1.0, x)),
        domain=charts.Domain(0.0, 3.0))
    grids = (np.array([0.5]), np.array([1.5, 2.0]), np.array([2.5]))
    with pytest.raises(ChartError) as alone:
        chart.at(grids[1])
    with pytest.raises(ChartError) as batch:
        chart.at(grids)
    assert str(batch.value) == str(alone.value) == "profile b not in (0, inf) at x=[1.5 2. ]"
    assert chart.at(grids[:1]).npoints == 1
    # each node in the domain of its own k
    union, _ = bonneau_rows([0.0, 1.0], [1, 1])
    assert union.at((np.array([-1.0]), np.array([0.5]))).npoints == 2
    with pytest.raises(ChartError) as alone:
        bonneau_chart(0.0)[0].at(0.5)
    with pytest.raises(ChartError) as batch:
        union.at((np.array([0.5]), np.array([0.5])))
    assert str(batch.value) == str(alone.value) == "x outside open domain (-inf, 0.0)"


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


@pytest.mark.parametrize("b0, L", [(math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0),
                                   (1.0, math.inf), (1.0, -math.inf), (0.0, 1.0)])
def test_product_chart_rejects_non_finite_or_non_positive_parameters(b0, L):
    with pytest.raises(ChartError, match="finite and positive"):
        product_chart(b0, L)


@pytest.mark.parametrize("L", [0.0, -2.0, math.nan, math.inf])
def test_flat_torus_chart_rejects_bad_circumference(L):
    with pytest.raises(ChartError, match="finite and positive"):
        flat_torus_chart(L)


@pytest.mark.parametrize("make", [random_chart, charts.random_torsion,
                                  charts.random_one_form])
def test_random_data_rejects_negative_seeds(make):
    with pytest.raises(ChartError, match="non-negative"):
        make(-1)
