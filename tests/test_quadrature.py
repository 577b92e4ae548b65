"""The shared Gauss-Legendre rule and the composite rule behind log R."""

import os
import subprocess
import sys

import numpy as np
import pytest

import skewtorsion
from skewtorsion.charts import bonneau_chart, gauss_legendre, round_s4_chart
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


def test_import_does_not_load_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(skewtorsion.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, skewtorsion; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
