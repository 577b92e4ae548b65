"""Complex structures, integrability, and the radial coordinate."""

import numpy as np
import pytest

from skewtorsion.charts import ChartError, bonneau_chart, random_chart, round_s4_chart
from skewtorsion.moduli import (
    InvariantACS, acs_radial, asymptotic_check, nijenhuis_norm, r_coordinate, r_curve,
)


def _pt(chart):
    """The chart at its 64-point sample grid."""
    return chart.at(chart.sample_grid(64))


def test_acs_validation():
    J = acs_radial()
    assert np.allclose(J.J @ J.J, -np.eye(4))
    assert np.allclose(J.J.T @ J.J, np.eye(4))
    with pytest.raises(ValueError):
        InvariantACS(tuple(map(tuple, np.eye(4))))


def test_radial_pairing_is_integrable_on_both_s4_charts():
    chart, _ = bonneau_chart(0.0)
    assert nijenhuis_norm(_pt(chart), acs_radial()) <= 1e-9
    assert nijenhuis_norm(_pt(round_s4_chart()), acs_radial()) <= 1e-9


def test_radial_pairing_is_integrable_for_any_profiles():
    assert nijenhuis_norm(_pt(random_chart(5)), acs_radial()) <= 1e-9


def test_swapped_pairing_obstruction():
    # J e1 = e2, J e3 = e4 pairs the radial direction with an s1 orbit
    # direction; it is not integrable unless b = c
    swapped = InvariantACS(((0, -1, 0, 0), (1, 0, 0, 0), (0, 0, 0, -1), (0, 0, 1, 0)))
    chart, _ = bonneau_chart(0.0)
    assert nijenhuis_norm(_pt(chart), swapped) > 1e-2
    # with equal orbit profiles (b = c) the obstruction degenerates
    assert nijenhuis_norm(_pt(round_s4_chart()), swapped) <= 1e-9


def test_r_coordinate_normalization_monotone():
    assert r_coordinate(0.0, -1.0, -1.0) == pytest.approx(1.0)
    xs = np.linspace(-4.0, -0.1, 12)
    r = r_coordinate(0.0, xs, -1.0)
    assert np.all(np.diff(r) > 0)


def test_r_coordinate_domain_check():
    with pytest.raises(ChartError):
        r_coordinate(0.0, 0.5, -1.0)
    for x, x0 in ((np.nan, -1.0), (-np.inf, -1.0), ([-2.0, np.nan], -1.0),
                  (-2.0, np.nan), (-2.0, -np.inf)):
        with pytest.raises(ChartError):
            r_coordinate(0.0, x, x0)


@pytest.mark.parametrize("k", [-1e4, -1e5])
def test_nonpositive_a_over_c_is_refused_as_bonneau_chart_refuses(k):
    # W loses its sign to rounding on some panel nodes at these k; the
    # integral must not run on it
    for refused in (lambda: bonneau_chart(k), lambda: asymptotic_check(k),
                    lambda: r_coordinate(k, k - 5.0, k - 1.0)):
        with pytest.raises(ChartError):
            refused()


def test_r_coordinate_endpoint_limits():
    k = 0.0
    t = np.array([1e-5, 1e-6, 1e-7])
    r = r_coordinate(k, k - t, -1.0)
    lim = t * r
    assert np.max(np.abs(lim - lim[-1])) / lim[-1] < 1e-3
    assert lim[-1] > 0
    s = np.array([1e5, 1e6, 1e7])
    r = r_coordinate(k, -s, -1.0)
    lim = s * r
    assert np.max(np.abs(lim - lim[-1])) / lim[-1] < 1e-3
    assert lim[-1] > 0


@pytest.mark.parametrize("k", [0.0, 1.0, 1000.0])
def test_asymptotic_slopes(k):
    res = asymptotic_check(k)
    assert res["slope_at_k"] == pytest.approx(1.0, abs=0.01)
    assert res["slope_at_minus_infinity"] == pytest.approx(1.0, abs=0.01)
    assert res["monotone"]


def test_round_chart_radial_ratio_is_positive():
    # positivity of a/c makes any radial coordinate monotone
    chart = round_s4_chart()
    pt = chart.at(chart.sample_grid(32))
    from skewtorsion import jets
    ratio = np.asarray(jets.value_of(pt.a / pt.c))
    assert np.all(ratio > 0)


def test_r_curve_export_shape():
    x, r = r_curve(0.0, nodes=64)
    assert len(x) == len(r) == 64
    assert np.all(np.diff(r) > 0)


def _oracle_log_r(k, x, x0):
    """log R(x) from a 40-digit mpmath integral that shares no code with the
    package: the naive closed-form W, integrated over u = log(k - x)."""
    import mpmath
    with mpmath.workdps(40):
        k, x, x0 = mpmath.mpf(k), mpmath.mpf(x), mpmath.mpf(x0)
        pk = mpmath.pi / 2 + mpmath.atan(k)
        n = 1 / (k + (1 + k * k) * pk)

        def W(y):
            return (1 + n * (y * y - 1 - 2 * k * y) * (mpmath.pi / 2 + mpmath.atan(y))
                    + n * (y - 2 * k))

        def g(u):
            y = k - mpmath.exp(u)
            return -mpmath.exp(2 * u) / (W(y) * (1 + y * y))

        u0, u1 = mpmath.log(k - x0), mpmath.log(k - x)
        m = max(1, int(abs(u1 - u0)) + 1)
        return float(mpmath.quad(g, mpmath.linspace(u0, u1, m + 1)))


# k = 10 puts the poles at x = +-i within 0.1 of the real u axis
@pytest.mark.parametrize("k", [-1.5, 0.0, 1.0, 10.0])
def test_r_coordinate_matches_mpmath_oracle(k):
    x0 = k - 1.0
    xs = np.array([k - 1e-7, k - 1e-3, x0 - 5.0, -1e7])
    got = np.log(r_coordinate(k, xs, x0))
    want = np.array([_oracle_log_r(k, x, x0) for x in xs])
    assert np.max(np.abs(got - want)) <= 1e-9
