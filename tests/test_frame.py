"""Exterior algebra: star conventions, the +- basis, operator conversion."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from skewtorsion import frame as F
from skewtorsion.jets import Jet
from skewtorsion.frame import (
    KForm, hodge_star, inner, norm_sq, operator_from_tensor,
)

comps6 = st.lists(st.floats(-5, 5, allow_nan=False), min_size=6, max_size=6)


def test_array_components_become_an_order_0_jet():
    c = np.random.default_rng(5).normal(size=(6, 3))
    for comps, want in ((c, c), (c.tolist(), c), (None, np.zeros(6))):
        jet = KForm(2, comps).comps
        assert isinstance(jet, Jet) and jet.order == 0
        assert jet.value.shape == want.shape and jet.value.tobytes() == want.tobytes()


def test_star_on_basis_two_and_three_forms():
    assert hodge_star(KForm.basis(2, (0, 1))).comps.value.tolist() == [0, 0, 0, 0, 0, 1.0]  # e34
    s = hodge_star(KForm.basis(3, (0, 1, 2)))
    assert s.comps.value.tolist() == [0, 0, 0, 1.0]  # e4


def test_double_star_signs():
    e1 = KForm.basis(1, (0,))
    assert hodge_star(hodge_star(e1)).comps.value[0] == -1.0
    rng = np.random.default_rng(1)
    for k in range(5):
        a = KForm(k, list(rng.normal(size=len(F.MULTI_INDICES[k]))))
        ss = hodge_star(hodge_star(a))
        sign = (-1) ** (k * (4 - k))
        assert np.allclose(ss.comps.value, sign * a.comps.value)


@given(comps6)
def test_star_is_isometry_and_self_pairing(c):
    a = KForm(2, c)
    assert norm_sq(hodge_star(a)).value == pytest.approx(norm_sq(a).value, rel=1e-12, abs=1e-12)
    # a ^ *a = |a|^2 vol, read off the wedge table of two 2-forms
    top = np.einsum("rpq,p,q->r", F._WEDGE[2, 2], a.comps.value, hodge_star(a).comps.value)
    assert top[0] == pytest.approx(norm_sq(a).value, rel=1e-12, abs=1e-12)


def test_basis_is_orthonormal_with_star_signs():
    # E1+..E3+ are self-dual and E1-..E3- anti-self-dual, in basis order, and
    # SD_WEIGHTS holds their full antisymmetric component matrices
    basis = [KForm(2, c) for c in F._SD_COMPS]
    for p, ep in enumerate(basis):
        for q, eq in enumerate(basis):
            assert inner(ep, eq).value == pytest.approx(1.0 * (p == q), abs=1e-15)
        s = hodge_star(ep)
        assert np.allclose(s.comps.value, (1.0 if p < 3 else -1.0) * ep.comps.value)
        assert np.array_equal(F.SD_WEIGHTS[p], ep.full().value)


# the six pairs a < b of a tensor's first index pair, the form
# operator_from_tensor reads
_PAIRS = np.triu_indices(4, 1)


def test_constant_curvature_gives_identity_operator():
    R = np.einsum("ik,jl->ijkl", np.eye(4), np.eye(4)) \
        - np.einsum("il,jk->ijkl", np.eye(4), np.eye(4))
    assert np.allclose(operator_from_tensor(R[_PAIRS]), np.eye(6), atol=1e-14)


def test_zero_curvature_gives_zero_operator():
    assert np.allclose(operator_from_tensor(np.zeros((4, 4, 4, 4))[_PAIRS]), 0.0)


def tensor_from_operator(M: np.ndarray) -> np.ndarray:
    """Inverse of :func:`operator_from_tensor` on pair-antisymmetric tensors."""
    M = np.asarray(M)
    return np.einsum("pab,qcd,pq...->abcd...", F.SD_WEIGHTS, F.SD_WEIGHTS, M)


def test_operator_tensor_roundtrip_on_random_pair_antisymmetric_input():
    # one point, then a batch of three carried along the trailing axis
    for batch in ((), (3,)):
        rng = np.random.default_rng(3)
        raw = rng.normal(size=(4, 4, 4, 4) + batch)
        R = raw - raw.swapaxes(0, 1)
        R = R - R.swapaxes(2, 3)
        M = operator_from_tensor(R[_PAIRS])
        assert M.shape == (6, 6) + batch
        assert np.allclose(tensor_from_operator(M), R, atol=1e-13)
        assert np.allclose(operator_from_tensor(tensor_from_operator(M)[_PAIRS]), M, atol=1e-13)


def test_operator_entries_are_bilinear_pairings():
    rng = np.random.default_rng(4)
    raw = rng.normal(size=(4, 4, 4, 4))
    R = raw - raw.transpose(1, 0, 2, 3)
    R = R - R.transpose(0, 1, 3, 2)
    M = operator_from_tensor(R[_PAIRS])
    # entry (0,0) pairs E1+ with E1+: (R_0101 + R_0123 + R_2301 + R_2323)/2
    e = 0.5 * (R[0, 1, 0, 1] + R[0, 1, 2, 3] + R[2, 3, 0, 1] + R[2, 3, 2, 3])
    assert M[0, 0] == pytest.approx(e, rel=1e-13)


def _bits(a):
    a = np.asarray(a, dtype=float)
    return a.shape, a.view(np.int64).tolist()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(["()", "(1,)", "(n,)"]),
       st.integers(2, 40))
def test_operator_is_the_einsum_bitwise(seed, batch, n):
    """The 16-term sum off the six pairs equals the three-operand einsum of
    the pair-antisymmetric tensor to the bit, zero signs included, on random
    tensors with injected +-0.0."""
    rng = np.random.default_rng(seed)
    shape = (4, 4, 4, 4) + {"()": (), "(1,)": (1,), "(n,)": (n,)}[batch]
    R = rng.normal(size=shape) * 10.0 ** rng.uniform(-6, 6, size=shape)
    R[rng.random(shape) < 0.25] = 0.0
    R[rng.random(shape) < 0.25] = -0.0
    R = R - np.swapaxes(R, 0, 1)
    R = R - np.swapaxes(R, 2, 3)
    ref = 0.25 * np.einsum("pab,qcd,abcd...->pq...", F.SD_WEIGHTS, F.SD_WEIGHTS, R)
    assert _bits(operator_from_tensor(R[_PAIRS])) == _bits(ref)


def _gather_tables():
    """(gather, lead, operand axes, einsum it replaces as a function of the
    operand) for every gathered contraction of the package."""
    from skewtorsion import charts, connections
    out = []
    for k in range(5):
        spec = f"p{'abcd'[:k]},p...->{'abcd'[:k]}..."
        out.append((F._FULL[k], 0, (len(F.MULTI_INDICES[k]),),
                    lambda x, spec=spec, k=k: np.einsum(spec, F.FULL_SIGNS[k], x)))
    out.append((F._FULL[3], 1, (4, 4),
                lambda x: np.einsum("iP...,Pjkl->ijkl...", x, F.FULL_SIGNS[3])))
    for k, (deriv, bracket) in connections._D_SIGNS.items():
        out.append((deriv, 0, deriv.signs.shape[1:],
                    lambda x, s=deriv.signs: np.einsum("qp,p...->q...", s, x)))
        out.append((bracket, 0, (4, 4, 4), lambda x, s=np.moveaxis(bracket.signs, 1, -1):
                    np.einsum("qabmp,abm...->qp...", s, x)))
    for k, g in connections._DERIVATION_SIGNS.items():
        out.append((g, 1, (4, 4, 4), lambda x, s=np.moveaxis(g.signs, 1, -1):
                    np.einsum("ixm...,JxmP->iJP...", x, s)))
    for nt, g in charts._BRACKETS.items():
        out.append((g, 0, (nt,), lambda x, s=np.moveaxis(g.signs, -1, 0):
                    np.einsum("t...,tijk->ijk...", x, s)))
    out.append((charts._CYCLIC_E1, 0, (4, 4, 4),
                lambda x: np.einsum("tqr,qrm...->tm...", charts._CYCLIC[:, 0], x)))
    out.append((charts._CYCLIC_C, 0, (4, 4, 4),
                lambda x: np.einsum("tpqr,qrl...->tpl...", charts._CYCLIC, x)))
    return out


_GATHER_TABLES = _gather_tables()


@pytest.mark.parametrize("table", range(len(_GATHER_TABLES)))
@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 40))
def test_gathers_are_the_einsums_they_replace(table, seed, n):
    """Every gathered sign-tensor contraction equals its dense einsum, on
    random operands with exact zeros of both signs, on a grid of n >= 2
    points (with one point np.einsum may reduce the summed axes in its
    inner loop, in another order), in float64 and in np.longdouble, the
    dtype of the long-double shadow evaluation."""
    gather, lead, axes, dense = _GATHER_TABLES[table]
    rng = np.random.default_rng(seed)
    shape = (4,) * lead + axes + (n,)
    x = rng.normal(size=shape) * 10.0 ** rng.uniform(-6, 6, size=shape)
    x[rng.random(shape) < 0.25] = 0.0
    x[rng.random(shape) < 0.25] = -0.0
    # equal values and signs of zero are equal bits on finite values; the
    # padding bytes of an 80-bit np.longdouble are not part of its value
    for dtype in (np.float64, np.longdouble):
        got, want = gather(x.astype(dtype), lead), dense(x.astype(dtype))
        assert got.dtype == dtype and np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def _ricci_contraction(t):
    """3x3 matrix of a trace-free symmetric 2-tensor in the (+,-) pairing,
    as ``decomposition`` contracts with ``frame._T_BASIS``."""
    return np.einsum("ij...,pqij->pq...", t, F._T_BASIS)


def test_ricci_contraction_examples():
    assert np.allclose(_ricci_contraction(np.zeros((4, 4))), 0.0)
    t = np.diag([1.0, 1.0, -1.0, -1.0])
    m = _ricci_contraction(t)
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
    assert np.allclose(_ricci_contraction(s + t),
                       _ricci_contraction(s) + _ricci_contraction(t), atol=1e-13)
    assert np.linalg.norm(_ricci_contraction(s)) == pytest.approx(
        np.linalg.norm(s), rel=1e-12)
