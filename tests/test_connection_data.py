"""Each curvature quantity of a connection has one owner, the
``AffineConnection`` itself: the operator blocks, W+-, the Ricci tensor,
the scalar curvature and Z, pinned by bytes against the formulas written
out here."""

import contextlib
import io
import json

import numpy as np
import pytest

from skewtorsion import charts, cli
from skewtorsion.connections import _tf_sym, curvature
from skewtorsion.decomposition import decompose_point
from skewtorsion.evaluation import Evaluation, sup

CHARTS = {
    "bonneau": ({"type": "bonneau", "params": {"k": 0.3}}, ["--chart", "bonneau", "--k", "0.3"]),
    "random": ({"type": "random", "params": {"seed": 3}}, ["--chart", "random", "--seed", "3"]),
    "round": ({"type": "round"}, ["--chart", "round"]),
}
NODES = 16


def operator_blocks(M):
    return M[:3, :3], M[:3, 3:], M[3:, :3], M[3:, 3:]


def trace_free_sym(m, dim):
    sym = 0.5 * (m + np.einsum("pq...->qp...", m))
    return sym - (np.einsum("pp...->...", sym) / dim) * np.eye(dim)[..., None]


def _context(name):
    return Evaluation.on_grid(*charts.chart_and_torsion(CHARTS[name][0]), NODES)


@pytest.mark.parametrize("name", list(CHARTS))
def test_connection_data_owns_blocks_weyl_and_ricci(name):
    ev = _context(name)
    for cd in (ev.lc, ev.plus, ev.minus):
        for got, want in zip(cd.blocks, operator_blocks(cd.M)):
            assert got.base is cd.M
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        A, _, _, D = operator_blocks(cd.M)
        assert cd.W[0].tobytes() == trace_free_sym(A, 3).tobytes()
        assert cd.W[1].tobytes() == trace_free_sym(D, 3).tobytes()
        ric = np.einsum("kikj...->ij...", curvature(cd))
        assert cd.ric.tobytes() == ric.tobytes()
        assert cd.scalar.tobytes() == np.einsum("ii...->...", ric).tobytes()
        assert cd.Z.tobytes() == trace_free_sym(ric, 4).tobytes()
    # S(D^g h) of the decomposition goes through the same formula
    grad = ev.ext.grad_h
    assert _tf_sym(grad).tobytes() == trace_free_sym(grad, 4).tobytes()


@pytest.mark.parametrize("name", list(CHARTS))
def test_decompose_point_returns_the_numbers_report_prints(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["report", *CHARTS[name][1], "--grid", str(NODES)]) == 0
    printed = json.loads(out.getvalue())["decomposition"]
    ev = _context(name)
    s = ev.plus.scalar
    assert printed.pop("s_nabla_range") == [float(s.min()), float(s.max())]
    dec = decompose_point(ev)
    assert all(a.shape == (NODES,) for a in dec.values())
    assert list(dec) == list(printed)
    assert sup(dec) == printed
