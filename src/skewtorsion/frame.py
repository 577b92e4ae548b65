"""Exterior algebra over an oriented orthonormal 4-frame.

Forms are stored by components on increasing multi-indices of the frame
e1..e4 (0-based internally), with the volume form e1^e2^e3^e4.  Components
may be floats, numpy arrays or jets; all operations are linear or bilinear
so they work uniformly.

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

__all__ = [
    "KForm", "MULTI_INDICES", "SD_BASIS", "wedge", "hodge_star", "sd_split",
    "norm_sq", "inner", "components_in_sd_basis", "operator_from_tensor",
    "tensor_from_operator", "CurvatureOperator", "curvature_to_operator",
    "sd_form_as_operator",
    "ricci_contraction", "RICCI_CONTRACTION_SCALE",
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


class KForm:
    """Frame k-form with one component per increasing multi-index."""

    __slots__ = ("degree", "comps")

    def __init__(self, degree: int, comps=None):
        if degree not in MULTI_INDICES:
            raise ValueError(f"degree must be 0..4, got {degree}")
        n = len(MULTI_INDICES[degree])
        if comps is None:
            comps = [0.0] * n
        comps = list(comps)
        if len(comps) != n:
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
        return sign * self.comps[_INDEX_POS[self.degree][key]]

    def __add__(self, other):
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        return KForm(self.degree, [a + b for a, b in zip(self.comps, other.comps)])

    def __sub__(self, other):
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        return KForm(self.degree, [a - b for a, b in zip(self.comps, other.comps)])

    def __mul__(self, s):
        return KForm(self.degree, [c * s for c in self.comps])

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1.0)

    def values(self) -> "KForm":
        """Same form with jet components collapsed to their values."""
        from .jets import value_of
        return KForm(self.degree, [value_of(c) for c in self.comps])

    def __repr__(self):
        terms = ", ".join(f"{idx}: {c}" for idx, c in zip(MULTI_INDICES[self.degree], self.comps))
        return f"KForm({self.degree}, {{{terms}}})"


def wedge(a: KForm, b: KForm) -> KForm:
    k = a.degree + b.degree
    if k > DIM:
        raise ValueError("wedge degree exceeds 4")
    out = KForm(k)
    for ia, ca in zip(MULTI_INDICES[a.degree], a.comps):
        for ib, cb in zip(MULTI_INDICES[b.degree], b.comps):
            sign, key = _sort_index(ia + ib)
            if sign == 0:
                continue
            p = _INDEX_POS[k][key]
            out.comps[p] = out.comps[p] + sign * (ca * cb)
    return out


def hodge_star(a: KForm) -> KForm:
    """Hodge star for the metric delta and orientation e1234."""
    k = a.degree
    out = KForm(DIM - k)
    full = tuple(range(DIM))
    for idx, c in zip(MULTI_INDICES[k], a.comps):
        comp = tuple(i for i in full if i not in idx)
        sign = _perm_sign(idx + comp)
        p = _INDEX_POS[DIM - k][comp]
        out.comps[p] = out.comps[p] + sign * c
    return out


def norm_sq(a: KForm):
    """Squared norm, summing over increasing multi-indices."""
    s = 0.0
    for c in a.comps:
        s = s + c * c
    return s


def inner(a: KForm, b: KForm):
    if a.degree != b.degree:
        raise ValueError("degree mismatch")
    s = 0.0
    for ca, cb in zip(a.comps, b.comps):
        s = s + ca * cb
    return s


def sd_split(w: KForm):
    """(self-dual, anti-self-dual) parts of a 2-form."""
    if w.degree != 2:
        raise ValueError("sd_split needs a 2-form")
    sw = hodge_star(w)
    plus = KForm(2, [(a + b) * 0.5 for a, b in zip(w.comps, sw.comps)])
    minus = KForm(2, [(a - b) * 0.5 for a, b in zip(w.comps, sw.comps)])
    return plus, minus


def _sd_basis():
    s = 1.0 / np.sqrt(2.0)
    combos = [
        (((0, 1), s), ((2, 3), s)),
        (((0, 2), s), ((1, 3), -s)),
        (((0, 3), s), ((1, 2), s)),
        (((0, 1), s), ((2, 3), -s)),
        (((0, 2), s), ((1, 3), s)),
        (((0, 3), s), ((1, 2), -s)),
    ]
    basis = []
    for terms in combos:
        f = KForm(2)
        for idx, coef in terms:
            f.comps[_INDEX_POS[2][idx]] = coef
        basis.append(f)
    return tuple(basis)


SD_BASIS = _sd_basis()

# full antisymmetric component matrices of the basis, shape (6, 4, 4)
SD_WEIGHTS = np.zeros((6, DIM, DIM))
for _p, _f in enumerate(SD_BASIS):
    for _idx, _c in zip(MULTI_INDICES[2], _f.comps):
        SD_WEIGHTS[_p, _idx[0], _idx[1]] = _c
        SD_WEIGHTS[_p, _idx[1], _idx[0]] = -_c

# star eigenvalues in basis order
SD_SIGNS = np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])


def components_in_sd_basis(w: KForm) -> np.ndarray:
    """Components of a 2-form in the ordered +/- basis (values only)."""
    from .jets import value_of
    vals = [value_of(c) for c in w.comps]
    vec = [sum(ec * vc for ec, vc in zip(e.comps, vals)) for e in SD_BASIS]
    return np.array([np.asarray(v, dtype=float) for v in vec])


def operator_from_tensor(R: np.ndarray) -> np.ndarray:
    """6x6 matrix of a pair-antisymmetric 4-tensor in the +/- basis.

    Entry (P, Q) is the bilinear extension R(E_P, E_Q) with the first index
    pair of ``R`` paired against E_P.  Trailing axes of ``R`` (grid points)
    are carried through.
    """
    R = np.asarray(R)
    return 0.25 * np.einsum("pab,qcd,abcd...->pq...", SD_WEIGHTS, SD_WEIGHTS, R)


class CurvatureOperator:
    """6x6 operator matrix in the ordered +/- basis with block views."""

    __slots__ = ("matrix",)

    def __init__(self, matrix: np.ndarray):
        matrix = np.asarray(matrix)
        if matrix.shape[:2] != (6, 6):
            raise ValueError("operator matrix must be 6x6")
        self.matrix = matrix

    @property
    def A(self):
        return self.matrix[:3, :3]

    @property
    def B(self):
        return self.matrix[:3, 3:]

    @property
    def C(self):
        return self.matrix[3:, :3]

    @property
    def D(self):
        return self.matrix[3:, 3:]

    def tensor(self) -> np.ndarray:
        return tensor_from_operator(self.matrix)


def curvature_to_operator(R) -> CurvatureOperator:
    """Curvature tensor (array or .components holder) as a 6x6 operator."""
    comp = getattr(R, "components", R)
    return CurvatureOperator(operator_from_tensor(comp))


def tensor_from_operator(M: np.ndarray) -> np.ndarray:
    """Inverse of :func:`operator_from_tensor` on pair-antisymmetric tensors."""
    M = np.asarray(M)
    return np.einsum("pab,qcd,pq...->abcd...", SD_WEIGHTS, SD_WEIGHTS, M)


# Antisymmetric action of a self-dual 2-form on the + block.  The scale is
# fixed once by the requirement that the direct curvature operator of any
# chart reproduces the closed block formulas; see decomposition.py.
_EPS3 = np.zeros((3, 3, 3))
for _i, _j, _k in permutations(range(3)):
    _EPS3[_i, _j, _k] = _perm_sign((_i, _j, _k))


def sd_form_as_operator(phi: KForm, tol: float = 1e-10) -> np.ndarray:
    """3x3 antisymmetric matrix of a self-dual 2-form acting on Lambda^+."""
    if phi.degree != 2:
        raise ValueError("need a 2-form")
    vec = components_in_sd_basis(phi)
    scale = max(1.0, float(np.max(np.abs(vec))))
    if np.max(np.abs(vec[3:])) > tol * scale:
        raise ValueError("form is not self-dual")
    return -np.sqrt(2.0) * np.einsum("pqr,r...->pq...", _EPS3, vec[:3])


# Orthonormal basis of trace-free symmetric matrices indexed by (+,-) basis
# pairs: t_pq = -(E_p+)(E_q-) as component-matrix products.  This realizes
# the isomorphism between trace-free symmetric 2-tensors and Hom(-, +).
_T_BASIS = -np.einsum("pij,qjk->pqik", SD_WEIGHTS[:3], SD_WEIGHTS[3:])

# A trace-free symmetric tensor t maps to <t, t_pq>; the curvature blocks
# off the diagonal carry an extra factor of this scale.
RICCI_CONTRACTION_SCALE = 0.5


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
