"""Point tiles of an evaluation context: the checks that run tile by tile
give the bits of one context on the whole grid, in less memory."""

import contextlib
import io
import tracemalloc

import numpy as np
import pytest

from skewtorsion import charts, cli, evaluation
from skewtorsion.connections import identity_suite
from skewtorsion.decomposition import decompose_point, reconstruction_residuals
from skewtorsion.evaluation import Evaluation
from skewtorsion.instanton import _intertwiner_spectrum, gauge_equivalence_probe
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
    # a context of at most TILE points is its own one tile
    small = _context("bonneau", evaluation.TILE)
    assert list(small.tiles()) == [small]
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
