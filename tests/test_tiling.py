"""Point tiles of an evaluation context: the checks that run tile by tile
give the bits of one context on the whole grid, in less memory."""

import contextlib
import io
import math
import tracemalloc
from itertools import product

import numpy as np
import pytest

from skewtorsion import charts, cli, connections, evaluation, frame, instanton
from skewtorsion.charts import _abs_max
from skewtorsion.connections import identity_suite
from skewtorsion.decomposition import decompose_point
from skewtorsion.evaluation import Evaluation, closed, sup
from skewtorsion.instanton import (
    _intertwiner_spectrum, _intertwiner_system, gauge_equivalence_probe, killing_residual,
    self_duality_residual, yang_mills_density_check,
)
from skewtorsion.topology import (
    curvature_integrands, hitchin_thorpe_report, pontryagin_density, report_grids,
)
from skewtorsion.weyl import einstein_weyl_residual, torsion_weyl_roundtrip

from shadow import shadow_point

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
    res = sup(identity_suite(ev))
    if not closed(killing_residual(ev)["dH_sup"]):
        del res["pair_swap_closed"]
    dec = sup(decompose_point(ev))
    res["reconstruction"] = dec["reconstruction_residual"]
    res["block_isometry"] = dec["block_residual"]
    assert _bits(cli._verify_residuals(_context(name))) == _bits(res)


def test_verify_keeps_a_key_only_if_every_tile_reports_it(monkeypatch):
    """``pair_swap_closed`` is kept only if every tile reports H closed:
    sup |dH| <= 1e-10 over the whole grid."""
    for dH, kept in (((0.0, 1e-10, 1e-10), True),
                     # closed on the first tile, open at one node of the second
                     ((0.0, 2e-10, 0.0), False)):
        seen = []

        def killing(tile):
            seen.append(tile.pt.npoints)
            out = np.zeros(tile.pt.npoints)
            out[7] = dH[len(seen) - 1]
            return {"dH_sup": out}

        monkeypatch.setattr(cli, "killing_residual", killing)
        res = cli._verify_residuals(_context("flat"))
        assert seen == [512, 512, 76]
        assert ("pair_swap_closed" in res) == kept
        assert "dH" not in res and {"bianchi", "pair_swap", "block_isometry"} <= set(res)


def _per_point_arrays(ev):
    """Every per-point array a command joins over tiles or reduces, by name:
    each key of every check's dict, the Einstein norm, the probe spectrum
    and the Chern-Weil densities."""
    checks = {
        "suite": identity_suite(ev),
        "decomposition": decompose_point(ev),
        "yang_mills": yang_mills_density_check(ev),
        "self_duality": {"plus": self_duality_residual(ev.plus.induced),
                         "minus": self_duality_residual(ev.minus.induced)},
        "killing": killing_residual(ev),
        "weyl_roundtrip": torsion_weyl_roundtrip(ev),
        "einstein_weyl": einstein_weyl_residual(ev, charts.random_one_form(3)),
        "einstein_norm": {"plus": ev.einstein_norm(), "minus": ev.einstein_norm(-1)},
        "spectrum": dict(enumerate(_intertwiner_spectrum(ev))),
        "densities": dict(enumerate((*curvature_integrands(ev), pontryagin_density(ev)))),
    }
    return {f"{check}.{key}": a for check, d in checks.items() for key, a in d.items()}


@pytest.mark.parametrize("name", list(CHARTS))
def test_per_point_arrays_are_those_of_one_context(name):
    tiled = _context(name).per_point(_per_point_arrays)
    whole = _per_point_arrays(_context(name))
    assert list(tiled) == list(whole) and len(whole) == 47
    for key, want in whole.items():
        got = tiled[key]
        assert want.shape[-1] == GRID and got.shape == want.shape, key
        assert got.tobytes() == want.tobytes(), key
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

    # the differing lines alone: a diff of two whole reports takes minutes
    tiled = report().splitlines()
    monkeypatch.setattr(evaluation, "TILE", 4 * GRID)
    whole = report().splitlines()
    assert len(tiled) == len(whole)
    assert [(a, b) for a, b in zip(tiled, whole) if a != b] == []


def test_sup_is_the_largest_absolute_entry():
    assert sup(np.array([[1.0, -3.0], [2.0, 0.5]])) == 3.0
    # a zero prints as 0, never as -0
    for zeros in (np.zeros((4, 3)), np.full(3, -0.0)):
        assert sup(zeros) == 0.0 and not np.signbit(sup(zeros))
    assert math.isnan(sup(np.array([1.0, math.nan, -5.0])))
    assert sup({"a": np.array([-2.0]), "b": np.zeros(2)}) == {"a": 2.0, "b": 0.0}
    # a long double array gives the float of its largest |entry| (shadow runs)
    third = np.array([1.0, -2.0], dtype=np.longdouble) / 3
    assert type(sup(third)) is float and sup(third) == float(np.longdouble(2) / 3)


def test_round_chart_residuals_peak_next_to_a_pole():
    # frame terms of size 1/x^2 cancel worst at the nodes nearest the poles
    # (ROADMAP item 2): the per-point arrays say where the residuals peak
    n = 4096
    res = _context("round", n).per_point(
        lambda t: {k: v for k, v in identity_suite(t).items() if k in ("bianchi", "jacobi")})
    for key, a in res.items():
        assert a.shape == (n,) and int(np.argmax(a)) in (0, 1, n - 2, n - 1), key


@pytest.mark.parametrize("argv", [
    ["verify", "--chart", "random", "--seed", "3", "--grid", "4096"],
    ["probe", "--chart", "bonneau", "--k", "0.3", "--grid", "4096"],
])
def test_fine_grid_commands_stay_small(argv):
    # one untiled context on this grid traces about 96 MB (verify) and
    # 60 MB (probe); 512-point tiles keep the peak near 6.5 MiB (verify,
    # 0.9 MiB of it the modules a first run of the random chart imports)
    # and 6.0 MiB (probe)
    assert _traced_peak(argv) < 32 * 2 ** 20


def _traced_peak(argv) -> int:
    """tracemalloc's peak over one in-process run of the command ``argv``."""
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_fine_probe_holds_one_chunk_of_systems():
    # the probe traces a peak of 6.01 MiB in a fresh process (x86_64, numpy
    # 2.4, measured again with the chunk's release below): a tile's
    # systems, factored 128 nodes at a time, and 31 numbers per node to
    # join.  The systems of a whole 512-point tile add 2.9 MiB, and the
    # joined omega+- 1.7 MiB, so either coming back exceeds the 10% margin
    peak = _traced_peak(["probe", "--chart", "bonneau", "--k", "0.3", "--grid", "4096"])
    assert peak <= 1.1 * 6.01 * 2 ** 20


def test_probe_tile_releases_its_last_chunk_before_the_orbit_terms(monkeypatch):
    # when a 512-point tile starts on the orbit terms it holds, beyond its
    # induced connections, S and v9 alone (0.07 MiB); with the last chunk's
    # system (0.47 MiB) and factors kept alive it held 0.71 MiB
    ev = _context("bonneau", evaluation.TILE)
    ev.plus.induced, ev.minus.induced
    held = []
    unit = instanton._unit_section
    monkeypatch.setattr(instanton, "_unit_section",
                        lambda v9: held.append(tracemalloc.get_traced_memory()[0]) or unit(v9))
    tracemalloc.start()
    try:
        _intertwiner_spectrum(ev)
    finally:
        tracemalloc.stop()
    assert len(held) == 1 and held[0] <= 0.1 * 2 ** 20


def test_one_verify_tile_builds_no_four_index_tensor():
    # the verify residuals of one 512-point tile trace a peak of 4.61 MiB
    # (x86_64, numpy 2.4; 6.34 MiB before the structure equations and the
    # pair swap were formed in blocks): a (4, 4, 4, 4, 512) float64
    # temporary is 1 MiB, and a pair swap or structure equation formed
    # whole adds 0.75 MiB or more, so either coming back exceeds the 10%
    # margin
    ev = _context("bonneau", evaluation.TILE)
    tracemalloc.start()
    try:
        cli._verify_residuals(ev)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * 4.61 * 2 ** 20


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
        for cd in (ev.lc, ev.plus, ev.minus):
            M = cd.M  # off the pairs
            R = connections.curvature(cd)
            _same(M, 0.25 * np.einsum("pab,qcd,abcd...->pq...", W, W, R))
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


def _at(T, entries):
    """The entries (i, j, k, l) of a 4-index tensor T, in the order listed,
    shape (len(entries), n)."""
    return T[tuple(np.array(entries).T)]


def _cyclic(T):
    return T + np.einsum("ijkl...->jkil...", T) + np.einsum("ijkl...->kijl...", T)


def _entry_context(name):
    """A 64-point context: a chart of ``CHARTS``, the same chart evaluated
    in np.longdouble (``shadow.py``), or the overflowing product chart."""
    if name == "nan":
        return _nan_context()
    if name.endswith(" shadow"):
        chart, H = charts.chart_and_torsion(CHARTS[name.split()[0]])
        return Evaluation(shadow_point(chart, chart.sample_grid(64)), H)
    return _context(name, 64)


def _pair_swaps(ev):
    """The pair swap R_ijkl - R^-_klij on all 256 entries of ``_SWAPPED``,
    joined from its blocks of 64 entries and from its one whole block."""
    return [np.concatenate([connections._pair_swap(ev, block) for block in blocks])
            for blocks in (connections._SWAP_BLOCKS, connections._SWAP_WHOLE)]


@pytest.mark.parametrize("name", [*CHARTS, *(f"{n} shadow" for n in CHARTS), "nan"])
def test_suite_entries_are_the_dense_forms_they_replace(name, monkeypatch):
    """The Ricci tensors and the curvature identities of the suite, read off
    the curvatures' pairs and the compact H and D^g H on the entries where
    they can differ from zero, are the entries of the dense 4-index
    expressions they replace, to the bits, in the input's dtype; off those
    entries the dense residuals are zero, or the cross-check's negatives.
    The pair swap is so in blocks and whole, and the suite's residuals are
    so on a batch formed whole and on one formed in blocks."""
    ev = _entry_context(name)
    pairs, triples, swapped = (connections._ON_PAIRS, connections._ON_TRIPLES,
                               connections._SWAPPED)
    with np.errstate(all="ignore"):
        R, Rm, Rg = (connections.curvature(cd) for cd in (ev.plus, ev.minus, ev.lc))
        Hv, star_dH = ev.Hv, ev.ext.dH.comps.value[0]
        HH = np.einsum("abm...,cdm...->abcd...", Hv, Hv)
        DH = frame._FULL[3](connections.cov_deriv(ev.pt, ev.lc.truncated(0), ev.Hf).value,
                            lead=1)
        dHv = frame.FULL_SIGNS[4][0, ..., None] * star_dH
        quad = 0.25 * (np.einsum("iljk...->ijkl...", HH) - np.einsum("jlik...->ijkl...", HH))
        dterm = -0.5 * DH + 0.5 * np.einsum("ijkl...->jikl...", DH)
        eq1 = Rg + quad + dterm
        bianchi = _cyclic(R) - (-dHv - np.einsum("lijk...->ijkl...", DH) + 0.5 * _cyclic(HH))
        swap = R - np.einsum("klij...->ijkl...", Rm)
        checks = [
            *((cd.ric, np.einsum("kikj...->ij...", T))
              for cd, T in ((ev.plus, R), (ev.minus, Rm), (ev.lc, Rg))),
            (connections._EQ1_HH(Hv), _at(HH, [(i, k, j, l) for i, j, k, l in pairs])),
            (connections._EQ1_DH(ev.grad_H), _at(dterm, pairs)),
            (connections.curvature_via_eq1(ev).reshape(96, -1), _at(eq1, pairs)),
            (connections._BIANCHI_R(ev.plus.pairs), _at(_cyclic(R), triples)),
            (connections._BIANCHI_HH(Hv), _at(_cyclic(HH), triples)),
            (connections._BIANCHI_DH(ev.grad_H), _at(np.einsum("lijk...->ijkl...", DH), triples)),
            (connections._bianchi(ev), _at(bianchi, triples)),
            *((diff, _at(swap, swapped)) for diff in _pair_swaps(ev)),
            *((diff + connections._SWAP_DHV * star_dH, _at(swap + 0.5 * dHv, swapped))
              for diff in _pair_swaps(ev)),
        ]
        dtype = np.longdouble if "shadow" in name else np.float64
        for got, want in checks:
            assert got.dtype == want.dtype == dtype
            _same(got, want)
    if name == "nan":
        return
    cross = R - eq1
    i, j = np.triu_indices(4, 1)
    assert np.array_equal(cross[j, i], -cross[i, j]) and not cross[range(4), range(4)].any()
    assert not _at(bianchi, [e for e in product(range(4), repeat=4) if len(set(e[:3])) < 3]).any()
    assert sorted(swapped) == list(product(range(4), repeat=4))
    # so each residual the suite reports is the dense one at every point,
    # with the batch formed whole (64 points) and in blocks
    for block_from in (connections._BLOCK_FROM, 1):
        monkeypatch.setattr(connections, "_BLOCK_FROM", block_from)
        res = identity_suite(ev)
        for key, dense in (("curvature_cross", cross), ("bianchi", bianchi),
                           ("pair_swap", swap + 0.5 * dHv), ("pair_swap_closed", swap)):
            assert res[key].dtype == dtype and np.array_equal(res[key], _abs_max(dense))


@pytest.mark.parametrize("name", [*CHARTS, *(f"{n} shadow" for n in CHARTS)])
def test_pair_swap_blocks_join_to_the_maximum_of_all_entries(name, monkeypatch):
    """The suite reduces the pair swap a block of entries at a time and joins
    the blocks' maxima: a NaN entry in one block at one point makes both
    residuals NaN there and nowhere else, as ``_abs_max`` of the dense
    array does, and the entries on either side of each block boundary count
    at their points, in float64 and in the long double shadow."""
    ev = _entry_context(name)
    monkeypatch.setattr(connections, "_BLOCK_FROM", 1)  # 64 points, in blocks
    swap = connections._pair_swap
    size = connections._SWAP_BLOCKS[0][0].stop
    # (entry, point, value): a NaN inside the second block, and on each
    # boundary the last entry of a block and the first of the next
    marks = [(size + 32, 5, math.nan)] + [
        (entry, 10 + 2 * k + side, (-2.0) ** side * (1e3 + k))
        for k, start in enumerate(range(size, 256, size))
        for side, entry in enumerate((start - 1, start))]

    def marked(ev, block):
        diff = swap(ev, block)
        rows = block[0]
        for entry, point, value in marks:
            if rows.start <= entry < rows.stop:
                diff[entry - rows.start, point] = value
        return diff

    dense = np.concatenate([marked(ev, block) for block in connections._SWAP_BLOCKS])
    monkeypatch.setattr(connections, "_pair_swap", marked)
    res = identity_suite(ev)
    star_dH = ev.ext.dH.comps.value[0]
    for key, want in (("pair_swap_closed", dense),
                      ("pair_swap", dense + connections._SWAP_DHV * star_dH)):
        _same(res[key], _abs_max(want))
        assert list(np.flatnonzero(np.isnan(res[key]))) == [5], key
    for _, point, value in marks[1:]:
        assert res["pair_swap_closed"][point] == abs(value)
