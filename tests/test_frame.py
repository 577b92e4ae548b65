"""Exterior algebra: star conventions, the +- basis, operator conversion."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from skewtorsion import frame as F
from skewtorsion.frame import (
    KForm, hodge_star, inner, norm_sq, operator_from_tensor, ricci_contraction,
    sd_form_as_operator, sd_split, tensor_from_operator, wedge,
)

comps6 = st.lists(st.floats(-5, 5, allow_nan=False), min_size=6, max_size=6)


def test_star_on_basis_two_and_three_forms():
    assert hodge_star(KForm.basis(2, (0, 1))).comps.tolist() == [0, 0, 0, 0, 0, 1.0]  # e34
    s = hodge_star(KForm.basis(3, (0, 1, 2)))
    assert s.comps.tolist() == [0, 0, 0, 1.0]  # e4


def test_double_star_signs():
    e1 = KForm.basis(1, (0,))
    assert hodge_star(hodge_star(e1)).comps[0] == -1.0
    rng = np.random.default_rng(1)
    for k in range(5):
        a = KForm(k, list(rng.normal(size=len(F.MULTI_INDICES[k]))))
        ss = hodge_star(hodge_star(a))
        sign = (-1) ** (k * (4 - k))
        assert np.allclose(ss.comps, sign * np.asarray(a.comps))


@given(comps6)
def test_star_is_isometry_and_self_pairing(c):
    a = KForm(2, c)
    assert norm_sq(hodge_star(a)) == pytest.approx(norm_sq(a), rel=1e-12, abs=1e-12)
    top = wedge(a, hodge_star(a))
    assert top.comps[0] == pytest.approx(norm_sq(a), rel=1e-12, abs=1e-12)


@given(comps6)
def test_sd_split_orthogonal_projections(c):
    w = KForm(2, c)
    p, m = sd_split(w)
    assert np.allclose(np.asarray((p + m).comps, float), np.asarray(w.comps, float))
    sp = hodge_star(p)
    sm = hodge_star(m)
    assert np.allclose(sp.comps, p.comps, atol=1e-12)
    assert np.allclose(sm.comps, -np.asarray(m.comps), atol=1e-12)
    assert norm_sq(p) + norm_sq(m) == pytest.approx(norm_sq(w), rel=1e-12, abs=1e-12)
    # idempotent and mutually annihilating
    pp, pm = sd_split(p)
    assert np.allclose(pp.comps, p.comps, atol=1e-12)
    assert np.allclose(pm.comps, 0.0, atol=1e-12)


def test_sd_split_examples():
    p, m = sd_split(KForm.basis(2, (0, 1)))
    assert p.comps[0] == pytest.approx(0.5) and p.comps[5] == pytest.approx(0.5)
    assert m.comps[0] == pytest.approx(0.5) and m.comps[5] == pytest.approx(-0.5)
    e1p = F.SD_BASIS[0]
    p, m = sd_split(e1p)
    assert np.allclose(p.comps, e1p.comps) and np.allclose(m.comps, 0.0)


def test_sd_split_rejects_wrong_degree():
    with pytest.raises(ValueError):
        sd_split(KForm.basis(1, (0,)))


def test_basis_is_orthonormal_with_star_signs():
    for p, ep in enumerate(F.SD_BASIS):
        for q, eq in enumerate(F.SD_BASIS):
            assert inner(ep, eq) == pytest.approx(1.0 * (p == q), abs=1e-15)
        s = hodge_star(ep)
        assert np.allclose(s.comps, F.SD_SIGNS[p] * np.asarray(ep.comps))


def test_constant_curvature_gives_identity_operator():
    R = np.einsum("ik,jl->ijkl", np.eye(4), np.eye(4)) \
        - np.einsum("il,jk->ijkl", np.eye(4), np.eye(4))
    assert np.allclose(operator_from_tensor(R), np.eye(6), atol=1e-14)


def test_zero_curvature_gives_zero_operator():
    assert np.allclose(operator_from_tensor(np.zeros((4, 4, 4, 4))), 0.0)


def test_operator_tensor_roundtrip_on_random_pair_antisymmetric_input():
    # one point, then a batch of three carried along the trailing axis
    for batch in ((), (3,)):
        rng = np.random.default_rng(3)
        raw = rng.normal(size=(4, 4, 4, 4) + batch)
        R = raw - raw.swapaxes(0, 1)
        R = R - R.swapaxes(2, 3)
        M = operator_from_tensor(R)
        assert M.shape == (6, 6) + batch
        assert np.allclose(tensor_from_operator(M), R, atol=1e-13)
        assert np.allclose(operator_from_tensor(tensor_from_operator(M)), M, atol=1e-13)


def test_operator_entries_are_bilinear_pairings():
    rng = np.random.default_rng(4)
    raw = rng.normal(size=(4, 4, 4, 4))
    R = raw - raw.transpose(1, 0, 2, 3)
    R = R - R.transpose(0, 1, 3, 2)
    M = operator_from_tensor(R)
    # entry (0,0) pairs E1+ with E1+: (R_0101 + R_0123 + R_2301 + R_2323)/2
    e = 0.5 * (R[0, 1, 0, 1] + R[0, 1, 2, 3] + R[2, 3, 0, 1] + R[2, 3, 2, 3])
    assert M[0, 0] == pytest.approx(e, rel=1e-13)


def _bits(a):
    a = np.asarray(a, dtype=float)
    return a.shape, a.view(np.int64).tolist()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(["()", "(1,)", "(n,)"]),
       st.integers(2, 40), st.booleans())
def test_operator_is_the_einsum_bitwise(seed, batch, n, antisymmetric):
    """The 16-term sum equals the three-operand einsum to the bit, zero signs
    included, on random tensors with injected +-0.0."""
    rng = np.random.default_rng(seed)
    shape = (4, 4, 4, 4) + {"()": (), "(1,)": (1,), "(n,)": (n,)}[batch]
    R = rng.normal(size=shape) * 10.0 ** rng.uniform(-6, 6, size=shape)
    R[rng.random(shape) < 0.25] = 0.0
    R[rng.random(shape) < 0.25] = -0.0
    if antisymmetric:
        R = R - np.swapaxes(R, 0, 1)
        R = R - np.swapaxes(R, 2, 3)
    ref = 0.25 * np.einsum("pab,qcd,abcd...->pq...", F.SD_WEIGHTS, F.SD_WEIGHTS, R)
    assert _bits(operator_from_tensor(R)) == _bits(ref)


def test_sd_form_as_operator_examples():
    assert np.allclose(sd_form_as_operator(KForm(2)), 0.0)
    m = sd_form_as_operator(F.SD_BASIS[2])  # E3+
    assert m.shape == (3, 3)
    assert np.allclose(m, -m.T)
    assert abs(m[0, 1]) == pytest.approx(np.sqrt(2.0))
    assert m[0, 2] == 0.0 and m[1, 2] == 0.0
    rng = np.random.default_rng(5)
    phi = sum((float(c) * np.asarray(F.SD_BASIS[i].comps) for i, c in
               enumerate(rng.normal(size=3))), np.zeros(6))
    mm = sd_form_as_operator(KForm(2, list(phi)))
    assert np.allclose(mm, -mm.T, atol=1e-14)


def test_sd_form_as_operator_rejects_non_self_dual():
    with pytest.raises(ValueError):
        sd_form_as_operator(KForm.basis(2, (0, 1)))
    with pytest.raises(ValueError):
        sd_form_as_operator(F.SD_BASIS[4])


def test_ricci_contraction_examples():
    assert np.allclose(ricci_contraction(np.zeros((4, 4))), 0.0)
    t = np.diag([1.0, 1.0, -1.0, -1.0])
    m = ricci_contraction(t)
    elem = np.zeros((3, 3))
    elem[0, 0] = 1.0
    assert np.allclose(m, 2.0 * elem, atol=1e-14)  # multiple of the (E1+, E1-) matrix


def test_ricci_contraction_is_linear_isometry_on_trace_free_part():
    rng = np.random.default_rng(6)
    s = rng.normal(size=(4, 4))
    s = 0.5 * (s + s.T)
    s -= np.trace(s) / 4.0 * np.eye(4)
    t = rng.normal(size=(4, 4))
    t = 0.5 * (t + t.T)
    t -= np.trace(t) / 4.0 * np.eye(4)
    assert np.allclose(ricci_contraction(s + t),
                       ricci_contraction(s) + ricci_contraction(t), atol=1e-13)
    assert np.linalg.norm(ricci_contraction(s)) == pytest.approx(
        np.linalg.norm(s), rel=1e-12)


def test_ricci_contraction_rejects_trace():
    with pytest.raises(ValueError):
        ricci_contraction(np.eye(4))
