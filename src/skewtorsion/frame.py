"""Exterior algebra over an oriented orthonormal 4-frame.

Forms are stored by components on increasing multi-indices of the frame
e1..e4 (0-based internally), with the volume form e1^e2^e3^e4.  The
components of a form are one array or one jet, with the component axis
first and any grid axis last; every operation is linear or bilinear, a
contraction with a fixed sign tensor built at import, so it acts on
numbers, grids and jets alike.

The six unit 2-forms splitting Lambda^2 into +/- eigenspaces of the Hodge
star are, in order,

    E1+ = (e12 + e34)/sqrt2,  E2+ = (e13 - e24)/sqrt2,  E3+ = (e14 + e23)/sqrt2,
    E1- = (e12 - e34)/sqrt2,  E2- = (e13 + e24)/sqrt2,  E3- = (e14 - e23)/sqrt2.

A curvature-type tensor R_ijkl (antisymmetric in both pairs) becomes a 6x6
matrix in this basis with entry (P, Q) = R(E_P, E_Q); the first pair of R is
the row index.
"""

from __future__ import annotations

from itertools import combinations, permutations

import numpy as np

from . import jets
from .jets import Jet

__all__ = [
    "KForm", "MULTI_INDICES", "wedge", "hodge_star", "norm_sq", "inner",
    "components_in_sd_basis", "operator_from_tensor", "ricci_contraction",
]

DIM = 4

MULTI_INDICES = {k: tuple(combinations(range(DIM), k)) for k in range(DIM + 1)}

_INDEX_POS = {k: {idx: p for p, idx in enumerate(MULTI_INDICES[k])} for k in range(DIM + 1)}


def _perm_sign(seq) -> int:
    sign = 1
    seq = list(seq)
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign


def _sort_index(idx):
    """(sign, increasing tuple) of an index tuple; sign 0 on repeats."""
    if len(set(idx)) != len(idx):
        return 0, None
    return _perm_sign(idx), tuple(sorted(idx))


def _full_signs(k):
    """(ncomp, 4, ..., 4): increasing components to the antisymmetric tensor."""
    out = np.zeros((len(MULTI_INDICES[k]),) + (DIM,) * k)
    for p, idx in enumerate(MULTI_INDICES[k]):
        for perm in permutations(idx):
            out[(p,) + perm] = _perm_sign(perm)
    return out


def _wedge_signs(ka, kb):
    """(ncomp_{ka+kb}, ncomp_ka, ncomp_kb): the wedge product."""
    out = np.zeros((len(MULTI_INDICES[ka + kb]), len(MULTI_INDICES[ka]),
                    len(MULTI_INDICES[kb])))
    for pa, ia in enumerate(MULTI_INDICES[ka]):
        for pb, ib in enumerate(MULTI_INDICES[kb]):
            sign, key = _sort_index(ia + ib)
            if sign:
                out[_INDEX_POS[ka + kb][key], pa, pb] = sign
    return out


FULL_SIGNS = {k: _full_signs(k) for k in range(DIM + 1)}
_FULL_SPEC = {k: f"p{'abcd'[:k]},p...->{'abcd'[:k]}..." for k in range(DIM + 1)}
_WEDGE = {(ka, kb): _wedge_signs(ka, kb)
          for ka in range(DIM + 1) for kb in range(DIM + 1 - ka)}
# Hodge star for the metric delta and orientation e1234: e^I ^ *e^I = vol
_STAR = {k: _WEDGE[k, DIM - k][0].T for k in range(DIM + 1)}


class KForm:
    """Frame k-form with one component per increasing multi-index.

    ``comps`` is one array or one jet whose first axis runs over the
    increasing multi-indices, shape (ncomp,) or (ncomp, n) on n points.
    """

    __slots__ = ("degree", "comps")

    def __init__(self, degree: int, comps=None):
        if degree not in MULTI_INDICES:
            raise ValueError(f"degree must be 0..4, got {degree}")
        n = len(MULTI_INDICES[degree])
        if comps is None:
            comps = np.zeros(n)
        elif not isinstance(comps, Jet):
            comps = np.array(comps, dtype=float)
        if np.shape(jets.value_of(comps))[:1] != (n,):
            raise ValueError(f"degree-{degree} form needs {n} components")
        self.degree = degree
        self.comps = comps

    @staticmethod
    def basis(degree: int, idx) -> "KForm":
        """e^idx as a KForm (idx an increasing 0-based tuple)."""
        out = KForm(degree)
        out.comps[_INDEX_POS[degree][tuple(idx)]] = 1.0
        return out

    def __getitem__(self, idx):
        """Component on an arbitrary index tuple, antisymmetrized."""
        if isinstance(idx, int):
            idx = (idx,)
        sign, key = _sort_index(tuple(idx))
        if sign == 0:
            return 0.0
        p, c = _INDEX_POS[self.degree][key], self.comps
        return sign * (c.map(lambda a: a[p]) if isinstance(c, Jet) else c[p])

    def __add__(self, other):
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        return KForm(self.degree, self.comps + other.comps)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, s):
        return KForm(self.degree, self.comps * s)

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1.0)

    def values(self) -> "KForm":
        """Same form with jet components collapsed to their values."""
        return KForm(self.degree, jets.value_of(self.comps))

    def full(self):
        """Fully antisymmetric components, index axes first and the grid axis
        last (a jet for jet components); a form without a grid axis gets
        one of length 1, so it broadcasts against any grid."""
        c = self.comps
        if not isinstance(c, Jet):
            c = np.reshape(c, (len(c), -1))
        return jets.einsum(_FULL_SPEC[self.degree], FULL_SIGNS[self.degree], c)

    def __repr__(self):
        vals = jets.value_of(self.comps)
        terms = ", ".join(f"{idx}: {c}" for idx, c in zip(MULTI_INDICES[self.degree], vals))
        return f"KForm({self.degree}, {{{terms}}})"


def wedge(a: KForm, b: KForm) -> KForm:
    k = a.degree + b.degree
    if k > DIM:
        raise ValueError("wedge degree exceeds 4")
    return KForm(k, jets.einsum("rpq,p...,q...->r...", _WEDGE[a.degree, b.degree],
                                a.comps, b.comps))


def hodge_star(a: KForm) -> KForm:
    """Hodge star for the metric delta and orientation e1234."""
    return KForm(DIM - a.degree, jets.einsum("qp,p...->q...", _STAR[a.degree], a.comps))


def norm_sq(a: KForm):
    """Squared norm, summing over increasing multi-indices."""
    return inner(a, a)


def inner(a: KForm, b: KForm):
    if a.degree != b.degree:
        raise ValueError("degree mismatch")
    return jets.einsum("p...,p...->...", a.comps, b.comps)


# increasing components (e12, e13, e14, e23, e24, e34) of the +- basis,
# shape (6, 6), and its full antisymmetric component matrices, shape (6, 4, 4)
_SD_COMPS = (1.0 / np.sqrt(2.0)) * np.array([
    [1, 0, 0, 0, 0, 1],
    [0, 1, 0, 0, -1, 0],
    [0, 0, 1, 1, 0, 0],
    [1, 0, 0, 0, 0, -1],
    [0, 1, 0, 0, 1, 0],
    [0, 0, 1, -1, 0, 0],
])
SD_WEIGHTS = np.einsum("Pp,pab->Pab", _SD_COMPS, FULL_SIGNS[2])


def components_in_sd_basis(w: KForm) -> np.ndarray:
    """Components of a 2-form in the ordered +/- basis (values only)."""
    return np.einsum("Pp,p...->P...", _SD_COMPS, jets.value_of(w.comps))


def _operator_terms():
    """(36, 16) flat indices abcd into R and coefficients W[P,a,b] W[Q,c,d]:
    the nonzero terms of each entry (P, Q), in increasing abcd order."""
    coef = np.einsum("pab,qcd->pqabcd", SD_WEIGHTS, SD_WEIGHTS).reshape(36, 256)
    index = np.array([np.flatnonzero(row) for row in coef])
    return index, np.take_along_axis(coef, index, axis=1)


_OP_INDEX, _OP_COEF = _operator_terms()


def operator_from_tensor(R: np.ndarray) -> np.ndarray:
    """6x6 matrix of a pair-antisymmetric 4-tensor in the +/- basis.

    Entry (P, Q) is the bilinear extension R(E_P, E_Q) with the first index
    pair of ``R`` paired against E_P.  Trailing axes of ``R`` (grid points)
    are carried through.

    Each entry has 16 nonzero terms W[P,a,b] W[Q,c,d] R[a,b,c,d]; they are
    summed one at a time in increasing abcd order into zeros, which is the
    order ``0.25 * einsum("pab,qcd,abcd...->pq...", W, W, R)`` takes on a
    C-contiguous ``R``, so the two agree bitwise on finite values.
    """
    R = np.asarray(R)
    batch = R.shape[4:]
    flat = R.reshape((256,) + batch)
    coef = _OP_COEF.reshape(_OP_COEF.shape + (1,) * len(batch))
    out = np.zeros((36,) + batch)
    for j in range(_OP_INDEX.shape[1]):
        out += coef[:, j] * flat[_OP_INDEX[:, j]]
    return 0.25 * out.reshape((6, 6) + batch)


# Levi-Civita symbol on the + basis: a self-dual 2-form with + components
# phi acts on Lambda^+ as -sqrt2 eps_pqr phi_r, the scale fixed by the
# closed block formulas (decomposition.py)
_EPS3 = np.zeros((3, 3, 3))
for _i, _j, _k in permutations(range(3)):
    _EPS3[_i, _j, _k] = _perm_sign((_i, _j, _k))


# Orthonormal basis of trace-free symmetric matrices indexed by (+,-) basis
# pairs: t_pq = -(E_p+)(E_q-) as component-matrix products.  This realizes
# the isomorphism between trace-free symmetric 2-tensors and Hom(-, +).
_T_BASIS = -np.einsum("pij,qjk->pqik", SD_WEIGHTS[:3], SD_WEIGHTS[3:])


def ricci_contraction(t: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    """3x3 matrix of a trace-free symmetric 2-tensor in the (+,-) pairing.

    ``t`` has shape (4, 4) or (4, 4, n); the trace must vanish to ``tol``
    relative to the tensor scale.
    """
    t = np.asarray(t)
    tr = np.einsum("ii...->...", t)
    scale = max(1.0, float(np.max(np.abs(t))))
    if np.max(np.abs(tr)) > tol * scale:
        raise ValueError("tensor is not trace-free")
    return np.einsum("ij...,pqij->pq...", t, _T_BASIS)
