"""The shared Gauss-Legendre rule and the composite rule behind log R."""

import os
import subprocess
import sys

import numpy as np
import pytest

import skewtorsion
from skewtorsion import moduli
from skewtorsion.charts import BonneauFamily, bonneau_chart, gauss_legendre, round_s4_chart
from skewtorsion.moduli import r_coordinate


@pytest.mark.parametrize("n", [1, 16, 256])
def test_gauss_legendre_is_cached_read_only_and_exact(n):
    u, w = gauss_legendre(n)
    un, uw = np.polynomial.legendre.leggauss(n)
    assert u.tobytes() == (0.5 * (un + 1.0)).tobytes()
    assert w.tobytes() == (0.5 * uw).tobytes()
    assert not u.flags.writeable and not w.flags.writeable
    with pytest.raises(ValueError):
        u[0] = 0.0
    assert gauss_legendre(n)[0] is u


@pytest.mark.parametrize("chart", [bonneau_chart(0.37)[0], round_s4_chart()])
def test_chart_quadrature_matches_uncached_rule(chart):
    n = 64
    un, uw = np.polynomial.legendre.leggauss(n)
    x, dxdu = chart.map_from_unit(0.5 * (un + 1.0))
    w = 0.5 * uw * np.abs(dxdu)
    order = np.argsort(x)
    xq, wq = chart.quadrature(n)
    assert xq.tobytes() == x[order].tobytes()
    assert wq.tobytes() == w[order].tobytes()
    assert xq.flags.writeable and wq.flags.writeable


@pytest.mark.parametrize("k", [-1.5, 0.0, 1.0, 10.0])
def test_log_r_is_unchanged_by_extra_query_points(k):
    # the points asymptotic_check integrates to, each set in its own call
    x0 = k - 1.0
    sets = [k - np.geomspace(1e-7, 1e-6, 12), -np.geomspace(1e6, 1e7, 12),
            np.linspace(x0 - 5.0, k - 1e-3, 40)]
    extra = k - np.geomspace(1e-7, 1e7, 300)
    for xs in sets:
        base = np.log(r_coordinate(k, xs, x0))
        refined = np.log(r_coordinate(k, np.concatenate([xs, extra]), x0))[:len(xs)]
        assert np.max(np.abs(refined - base)) <= 1e-9


# at k = -40/7 one product over the stacked panels of asymptotic_check's
# three sets rounds differently from the per-set products
@pytest.mark.parametrize("k", [-10.0, -40.0 / 7.0, -1.5, 0.0, 0.3, 10.0, 1000.0])
def test_log_r_of_several_query_sets_equals_separate_calls(k, monkeypatch):
    """The query sets of one ``_log_r`` call share one evaluation of a/c,
    and each keeps its own panels and reduction: its values are those of a
    call of its own, bit for bit, whatever the other sets are."""
    x0 = k - 1.0
    sets = [k - np.geomspace(1e-7, 1e-6, 12), -np.geomspace(1e6, 1e7, 12),
            np.linspace(x0 - 5.0, k - 1e-3, 40), np.array([x0]),
            k - np.geomspace(1e-8, 1e8, 33)]
    alone = [moduli._log_r(k, [xs], x0)[0] for xs in sets]
    calls = []
    a_over_c = BonneauFamily.a_over_c

    def recorded(self, x):
        calls.append(x.order)
        return a_over_c(self, x)

    monkeypatch.setattr(BonneauFamily, "a_over_c", recorded)
    together = moduli._log_r(k, sets, x0)
    assert calls == [0]
    for a, b in zip(alone, together):
        assert a.tobytes() == b.tobytes()
    # asymptotic_check's three integrals, as one call reads them
    res = moduli.asymptotic_check(k)
    t, s = np.geomspace(1e-7, 1e-6, 12), np.geomspace(1e6, 1e7, 12)
    assert res["slope_at_k"] == moduli._fit_slope(alone[0], -np.log(t))
    assert res["slope_at_minus_infinity"] == moduli._fit_slope(alone[1], -np.log(s))
    assert res["monotone"] == bool(np.all(np.diff(r_coordinate(k, sets[2], x0)) > 0))


def test_import_does_not_load_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(skewtorsion.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, skewtorsion; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
