"""Every exterior-algebra sign table of the package is read off
``frame.FULL_SIGNS``.  Each is pinned here by bytes against its index-by-index
definition, with its own inversion count for the sign of a permutation, so a
changed entry, a changed shape or a -0.0 where the definition has 0.0 fails."""

from itertools import permutations, product

import numpy as np
import pytest

from skewtorsion import charts, connections, frame as F

MI = F.MULTI_INDICES
POS = {k: {idx: p for p, idx in enumerate(MI[k])} for k in MI}


def _sort_index(idx):
    """(sign, increasing tuple) of an index tuple; sign 0 on repeats."""
    if len(set(idx)) != len(idx):
        return 0, None
    inversions = sum(a > b for i, a in enumerate(idx) for b in idx[i + 1:])
    return (-1) ** inversions, tuple(sorted(idx))


def _wedge(ka, kb):
    out = np.zeros((len(MI[ka + kb]), len(MI[ka]), len(MI[kb])))
    for pa, ia in enumerate(MI[ka]):
        for pb, ib in enumerate(MI[kb]):
            sign, key = _sort_index(ia + ib)
            if sign:
                out[POS[ka + kb][key], pa, pb] = sign
    return out


def _eps3():
    out = np.zeros((3, 3, 3))
    for perm in permutations(range(3)):
        out[perm] = _sort_index(perm)[0]
    return out


def _cyclic():
    out = np.zeros((4, 4, 4, 4))
    for t, (i, j, k) in enumerate(MI[3]):
        for p, q, r in ((i, j, k), (j, k, i), (k, i, j)):
            out[t, p, q, r] = 1.0
    return out


def _d_signs(k):
    deriv = np.zeros((len(MI[k + 1]), 4, len(MI[k])))
    bracket = np.zeros((len(MI[k + 1]), len(MI[k]), 4, 4, 4))
    for q, idx in enumerate(MI[k + 1]):
        for r, ir in enumerate(idx):
            deriv[q, ir, POS[k][idx[:r] + idx[r + 1:]]] = (-1) ** r
            for s in range(r + 1, len(idx)):
                rest = tuple(t for p, t in enumerate(idx) if p not in (r, s))
                for m in range(4):
                    sign, key = _sort_index((m,) + rest)
                    if sign:
                        bracket[q, POS[k][key], ir, idx[s], m] += (-1) ** (r + s) * sign
    return deriv[:, 0], bracket


def _derivation_signs(k):
    n = len(MI[k])
    out = np.zeros((n, n, 4, 4))
    for q, idx in enumerate(MI[k]):
        for r, x in enumerate(idx):
            for m in range(4):
                sign, key = _sort_index(idx[:r] + (m,) + idx[r + 1:])
                if sign:
                    out[q, POS[k][key], x, m] += sign
    return out


def _same(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("ka, kb", sorted(F._WEDGE))
def test_wedge_table(ka, kb):
    _same(F._WEDGE[ka, kb], _wedge(ka, kb))


def test_levi_civita_and_cyclic_tables():
    _same(F._EPS3, _eps3())
    _same(charts._CYCLIC, _cyclic())


@pytest.mark.parametrize("k", range(4))
def test_d_tables(k):
    deriv, bracket = connections._D_SIGNS[k]
    want_deriv, want_bracket = _d_signs(k)
    _same(deriv.signs, want_deriv)
    _same(bracket.signs, want_bracket)


@pytest.mark.parametrize("k", range(1, 4))
def test_derivation_table(k):
    _same(connections._DERIVATION_SIGNS[k].signs, _derivation_signs(k))


@pytest.mark.parametrize("k", range(5))
def test_component_lookup_and_basis(k):
    comps = np.arange(1.0, len(MI[k]) + 1.0)
    form = F.KForm(k, comps)
    for idx in product(range(4), repeat=k):
        sign, key = _sort_index(idx)
        assert form[idx] == (sign * comps[POS[k][key]] if sign else 0.0), idx
    for p, idx in enumerate(MI[k]):
        assert F.KForm.basis(k, idx).comps.tolist() == np.eye(len(MI[k]))[p].tolist()
    with pytest.raises(IndexError):
        form[(0,) * (k + 1)]
