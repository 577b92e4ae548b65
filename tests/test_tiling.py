"""Point tiles of an evaluation context: the checks that run tile by tile
give the bits of one context on the whole grid, in less memory."""

import contextlib
import io
import tracemalloc

import numpy as np
import pytest

from skewtorsion import charts, cli, connections, evaluation, frame
from skewtorsion.connections import identity_suite
from skewtorsion.decomposition import decompose_point, reconstruction_residuals
from skewtorsion.evaluation import Evaluation
from skewtorsion.instanton import (
    _intertwiner_spectrum, _intertwiner_system, gauge_equivalence_probe,
)
from skewtorsion.topology import (
    curvature_integrands, hitchin_thorpe_report, pontryagin_density, report_grids,
)

GRID = 1100  # tiles of 512, 512 and 76 points

CHARTS = {
    "bonneau": {"type": "bonneau", "params": {"k": 0.3}},
    "random": {"type": "random", "params": {"seed": 3}},
    "round": {"type": "round"},
    "product": {"type": "product", "params": {"b0": 1.3, "L": 2.0}},
    "flat": {"type": "flat", "params": {"L": 2.0}},
}


def _context(name, nodes=GRID):
    return Evaluation.on_grid(*charts.chart_and_torsion(CHARTS[name]), nodes)


def _bits(d: dict):
    return [(k, float(v).hex()) for k, v in d.items()]


def test_tiles_cut_the_grid_without_evaluating_it_again(monkeypatch):
    ev = _context("bonneau")
    # a grid of at most TILE points is one tile too, cut like the others:
    # a tiled check builds nothing on the caller's context
    small = _context("bonneau", evaluation.TILE)
    assert small.per_point(lambda t: t.plus.M).shape == (6, 6, 512)
    assert "plus" not in vars(small)
    calls = []
    monkeypatch.setattr(charts.InvariantChart, "at", lambda *a: calls.append(a))
    tiles = list(ev.tiles())
    assert [t.pt.npoints for t in tiles] == [512, 512, 76]
    assert calls == []
    assert np.array_equal(np.concatenate([t.pt.x for t in tiles]), ev.pt.x)
    for t, start in zip(tiles, (0, 512, 1024)):
        s = slice(start, start + 512)
        for got, want in ((t.pt.a, ev.pt.a), (t.pt.c, ev.pt.c), (t.Hf.comps, ev.Hf.comps)):
            assert all(np.array_equal(g, w[..., s]) for g, w in zip(got.coeffs, want.coeffs))


@pytest.mark.parametrize("name", list(CHARTS))
def test_tiled_verify_residuals_are_those_of_one_context(name):
    ev = _context(name)
    res = identity_suite(ev)
    dec = decompose_point(ev)
    res["reconstruction"] = dec["reconstruction_residual"]
    res["block_isometry"] = dec["block_residual"]
    assert _bits(cli._verify_residuals(_context(name))) == _bits(res)


def test_verify_keeps_a_key_only_if_every_tile_reports_it(monkeypatch):
    seen = []

    def suite(tile):
        seen.append(tile.pt.npoints)
        res = {"bianchi": float(len(seen))}
        if len(seen) == 1:
            res["pair_swap_closed"] = 0.0
        return res

    report = {"reconstruction_residual": 0.5, "block_residual": 0.5}
    monkeypatch.setattr(cli, "identity_suite", suite)
    monkeypatch.setattr(cli, "decompose_point", lambda tile: report)
    res = cli._verify_residuals(_context("flat"))
    assert seen == [512, 512, 76]
    assert res == {"bianchi": 3.0, "reconstruction": 0.5, "block_isometry": 0.5}


def _per_point_arrays(ev):
    """Every per-point array a command joins over tiles."""
    return (ev.einstein_norm(), reconstruction_residuals(ev),
            *_intertwiner_spectrum(ev), *curvature_integrands(ev), pontryagin_density(ev))


@pytest.mark.parametrize("name", list(CHARTS))
def test_per_point_arrays_are_those_of_one_context(name):
    tiled = _context(name).per_point(_per_point_arrays)
    whole = _per_point_arrays(_context(name))
    assert len(tiled) == len(whole) == 9
    for got, want in zip(tiled, whole):
        assert got.shape == want.shape and want.shape[-1] == GRID
        assert got.tobytes() == want.tobytes()
    # one array returned is one array joined, over the tiles
    seen = []
    got = _context(name).per_point(lambda t: seen.append(t.pt.npoints) or pontryagin_density(t))
    assert seen == [512, 512, 76]
    assert got.tobytes() == pontryagin_density(_context(name)).tobytes()


@pytest.mark.parametrize("name", list(CHARTS))
def test_tiled_probe_is_the_untiled_probe(name, monkeypatch):
    tiled = gauge_equivalence_probe(_context(name))
    monkeypatch.setattr(evaluation, "TILE", 2 * GRID)
    whole = gauge_equivalence_probe(_context(name))
    assert cli._dump_json(tiled.summary()) == cli._dump_json(whole.summary())
    assert tiled.singular_values.tobytes() == whole.singular_values.tobytes()
    assert (tiled.section is None) == (whole.section is None)
    if whole.section is not None:
        assert tiled.section.tobytes() == whole.section.tobytes()


@pytest.mark.parametrize("name", ["bonneau", "random"])
def test_tiled_quadrature_is_the_untiled_quadrature(name, monkeypatch):
    def report():
        grids = report_grids(*charts.chart_and_torsion(CHARTS[name]), 600)
        return cli._dump_json(hitchin_thorpe_report(grids["sample"], grids))

    tiled = report()
    monkeypatch.setattr(evaluation, "TILE", 4 * GRID)
    assert tiled == report()


@pytest.mark.parametrize("argv", [
    ["verify", "--chart", "random", "--seed", "3", "--grid", "4096"],
    ["probe", "--chart", "bonneau", "--k", "0.3", "--grid", "4096"],
])
def test_fine_grid_commands_stay_small(argv):
    # one untiled context on this grid traces about 96 MB (verify) and
    # 60 MB (probe); 512-point tiles keep the peak near 13 MB
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20


# a grid of TILE + 1 or 2 TILE + 1 points: where a one-point tail tile
# would be summed in another order than the rest (np.einsum)
@pytest.mark.parametrize("argv", [
    ["verify", "--chart", "product", "--b0", "1.2", "--L", "2", "--grid", "513"],
    ["probe", "--chart", "round", "--grid", "1025"],
    ["report", "--chart", "random", "--seed", "3", "--grid", "513"],
])
def test_a_one_point_tail_gives_the_output_of_one_context(argv, monkeypatch):
    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli.main(argv)
        return out.getvalue()

    tiled = run().splitlines()
    monkeypatch.setattr(evaluation, "TILE", 10 ** 6)
    whole = run().splitlines()
    assert len(tiled) == len(whole)
    assert [(a, b) for a, b in zip(tiled, whole) if a != b] == []


def test_the_last_two_tiles_share_a_one_point_tail():
    for nodes, sizes in ((evaluation.TILE + 1, [256, 257]),
                         (2 * evaluation.TILE + 1, [512, 256, 257]),
                         (evaluation.TILE + 2, [512, 2]), (1, [1])):
        ev = _context("flat", nodes)
        tiles = list(ev.tiles())
        assert [t.pt.npoints for t in tiles] == sizes
        assert np.array_equal(np.concatenate([t.pt.x for t in tiles]), ev.pt.x)


def _nan_context(nodes=64):
    """A context on product b0 1e-155, whose brackets overflow: the chart
    refuses them, and built past that refusal they fill the curvature with
    NaN."""
    chart, H = charts.chart_and_torsion({"type": "product", "params": {"b0": 1e-155, "L": 2.0}})
    ev = Evaluation.on_grid(chart, H, nodes)
    with pytest.MonkeyPatch.context() as mp, np.errstate(all="ignore"):
        mp.setattr(np, "isfinite", lambda v: np.ones(np.shape(v), bool))
        C = ev.pt.structure
    assert not all(np.isfinite(c).all() for c in C.coeffs)
    return ev


def _scattered(pairs):
    """The 4-index tensor of a curvature on its six pairs, F[j, i] = 0 - F[i, j]."""
    i, j = np.triu_indices(4, 1)
    F = np.zeros((4, 4) + pairs.shape[1:])
    F[i, j] = pairs
    F[j, i] = 0.0 - pairs
    return F


def _same(got, want):
    """Equal values, NaN where NaN, and equal signs, zeros included."""
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("name", list(CHARTS) + ["nan"])
def test_pair_readers_are_the_dense_forms_they_replace(name):
    """The operator, the Lambda+ curvature and the intertwiner system read
    the curvature off its six pairs, to the bits of the dense contractions
    of the scattered 4-index tensor."""
    ev = _nan_context() if name == "nan" else _context(name, 64)
    W = frame.SD_WEIGHTS
    with np.errstate(all="ignore"):
        for cd in (ev.riemann, ev.plus, ev.minus):
            M = cd.M  # off the pairs, before R is built
            _same(M, 0.25 * np.einsum("pab,qcd,abcd...->pq...", W, W, cd.R))
            ic = cd.induced
            F = _scattered(connections._structure_equation(ev.pt, ic.omega))
            _same(ic.F_sd, 0.5 * np.einsum("qij,ijpr...->prq...", W, F))
        Fp = np.einsum("pqm...->...mpq", ev.plus.induced.F_sd)
        Fm = np.einsum("pqm...->...mpq", ev.minus.induced.F_sd)
        L = _intertwiner_system(Fp, Fm)
        # the zero-filled system with F+ and F- added along its diagonals,
        # and on finite values the einsums against the identity
        dense = np.zeros((len(Fp), 6, 3, 3, 3, 3))
        for q in range(3):
            dense[:, :, :, q, :, q] += Fp
            dense[:, :, q, :, q, :] -= np.swapaxes(Fm, 2, 3)
        _same(L, dense.reshape(L.shape))
        if name != "nan":
            eye = np.eye(3)
            ref = np.einsum("nmpa,qb->nmpqab", Fp, eye) - np.einsum("pa,nmbq->nmpqab", eye, Fm)
            _same(L, ref.reshape(L.shape))
