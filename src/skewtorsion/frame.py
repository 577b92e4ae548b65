"""Exterior algebra over an oriented orthonormal 4-frame.

Forms are stored by components on increasing multi-indices of the frame
e1..e4 (0-based internally), with the volume form e1^e2^e3^e4.  The
components of a form are one jet, with the component axis first and any
grid axis last (constant components are an order-0 jet); every operation
is linear or bilinear, a contraction with a fixed sign tensor built at
import, applied to each coefficient of the jet.
``FULL_SIGNS[k][p, i1, ..., ik]``, the sign of the permutation (i1..ik) of
the p-th increasing multi-index, is the one place a permutation sign is
computed: every other exterior-algebra table of the package (wedge, star,
the 3-index symbol, and in ``connections`` and ``charts`` the tables of d,
of a connection acting on forms and of cyclic orderings) is read off it.
The per-point pipeline contracts its sign tensors by :class:`_Gather`,
which sums only the nonzero terms, to the bits of ``np.einsum`` on grids
of two or more points; the same gather, built from term lists, sums the
entries of the identities ``connections`` checks in the order of their
dense expressions.

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
    "KForm", "MULTI_INDICES", "hodge_star", "norm_sq", "inner",
    "components_in_sd_basis", "operator_from_tensor",
]

DIM = 4

MULTI_INDICES = {k: tuple(combinations(range(DIM), k)) for k in range(DIM + 1)}


def _perm_sign(seq) -> int:
    sign = 1
    seq = list(seq)
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign


def _full_signs(k):
    """(ncomp, 4, ..., 4): increasing components to the antisymmetric tensor."""
    out = np.zeros((len(MULTI_INDICES[k]),) + (DIM,) * k)
    for p, idx in enumerate(MULTI_INDICES[k]):
        for perm in permutations(idx):
            out[(p,) + perm] = _perm_sign(perm)
    return out


class _Gather:
    """Contraction with an index table: row t of ``index`` and ``coef`` is
    the t-th term of each output entry, which scales the row ``index`` of
    the contracted axes by ``coef``, or with ``products`` multiplies it by
    the row ``coef``.  The terms are added into zeros in slot order, so an
    entry has the bits of the dense expression that adds them in that
    order, on finite values.

    Built from a sign tensor ``signs``, whose first ``n_out`` axes are the
    output's, an entry's terms are its nonzero ones in column order, padded
    with zero-coefficient ones: the order np.einsum takes on grids of two
    or more points.  With ``pairs``, the first two contracted axes (a, b)
    are read off one axis over the six pairs a < b of ``MULTI_INDICES[2]``:
    a (b, a) term reads the pair (a, b) with its coefficient negated, the
    same term of an input antisymmetric in (a, b) up to the sign of a zero,
    which a sum that starts at +0.0 does not see.  So the gather of the
    pairs is bitwise the gather of the antisymmetric tensor on finite
    values; every term must be nonzero, as a padding term would read a pair
    for the zero diagonal.

    Built from term lists (:meth:`of_terms`), the table is the order of an
    entry of a dense expression, written out term by term."""

    products = False

    def __init__(self, signs: np.ndarray, n_out: int, pairs: bool = False):
        self.signs, self.out_shape, self.n_in = signs, signs.shape[:n_out], signs.ndim - n_out
        m = signs.reshape(int(np.prod(self.out_shape)), -1)
        rows, cols = np.nonzero(m)
        slot = np.arange(len(rows)) - np.searchsorted(rows, rows)
        self.index = np.zeros((slot.max(initial=0) + 1, len(m)), dtype=np.intp)
        self.index[slot, rows] = cols
        self.coef = np.zeros(self.index.shape)
        self.coef[slot, rows] = m[rows, cols]
        if pairs:
            assert np.all(self.coef != 0.0), "a padding term cannot read a pair"
            rest = m.shape[1] // (DIM * DIM)
            ab, tail = np.divmod(self.index, rest)
            self.index = _PAIR_INDEX.ravel()[ab] * rest + tail
            self.coef *= _PAIR_SIGN.ravel()[ab]
            self.n_in -= 1

    @classmethod
    def of_terms(cls, terms, n_in: int, products: bool = False) -> "_Gather":
        """Entries listed as their terms in order, of an input whose first
        ``n_in`` axes are contracted, read as one flat row axis: a term is
        (c, r), c x[r], or with ``products`` (q, r), x[q] x[r].  A sum of
        products with fewer terms than the longest is padded with x[0] x[0],
        which must be zero; other sums are not padded, as c x[0] would add a
        NaN of x[0].  A sum of products lists only those that are not zero
        by the antisymmetry of their factors: such a zero adds nothing to a
        sum that starts at +0.0, which never holds -0.0."""
        slots = max(map(len, terms))
        if products:
            terms = [t + [(0, 0)] * (slots - len(t)) for t in terms]
        assert all(len(t) == slots for t in terms), "a padding term could read a NaN"
        self = cls.__new__(cls)
        self.out_shape, self.n_in, self.products = (len(terms),), n_in, products
        coef, index = np.array(terms).transpose(2, 1, 0)  # (slots, entries) each
        self.index = index.astype(np.intp)
        self.coef = coef.astype(np.intp) if products else coef
        return self

    def __call__(self, x, lead: int = 0, out: np.ndarray | None = None):
        """Contract the axes of ``x`` after its first ``lead``; the lead and
        trailing (grid) axes are carried through, a jet coefficient-wise.
        With ``out``, of the result's shape, the terms are added into it."""
        if isinstance(x, Jet):
            return x.map(lambda c: self(c, lead))
        x = x.reshape(x.shape[:lead] + (-1,) + x.shape[lead + self.n_in:])
        coef = self.coef if self.products else self.coef.reshape(
            self.coef.shape + (1,) * (x.ndim - lead - 1))
        if out is None:
            out = np.zeros(x.shape[:lead] + self.index.shape[1:] + x.shape[lead + 1:],
                           x.dtype)
        for index, c in zip(self.index, coef):
            term = np.take(x, index, axis=lead)
            term *= np.take(x, c, axis=lead) if self.products else c
            out += term
        return out.reshape(x.shape[:lead] + self.out_shape + x.shape[lead + 1:])


FULL_SIGNS = {k: _full_signs(k) for k in range(DIM + 1)}
# the pair of MULTI_INDICES[2] that (a, b) or (b, a) is, and the sign of
# (a, b) in it: -1 for a > b, 0 on the diagonal
_PAIR_INDEX = np.argmax(np.abs(FULL_SIGNS[2]), axis=0)
_PAIR_SIGN = FULL_SIGNS[2].sum(axis=0)
_FULL = {k: _Gather(np.moveaxis(FULL_SIGNS[k], 0, -1), k) for k in range(DIM + 1)}
# the wedge product, (ncomp_{ka+kb}, ncomp_ka, ncomp_kb): e^ia ^ e^ib is the
# sign of the index tuple ia + ib against each increasing multi-index
_WEDGE = {(ka, kb): np.array([[[FULL_SIGNS[ka + kb][(r,) + ia + ib] for ib in MULTI_INDICES[kb]]
                               for ia in MULTI_INDICES[ka]]
                              for r in range(len(MULTI_INDICES[ka + kb]))])
          for ka in range(DIM + 1) for kb in range(DIM + 1 - ka)}
# Hodge star for the metric delta and orientation e1234: e^I ^ *e^I = vol
_STAR = {k: _WEDGE[k, DIM - k][0].T for k in range(DIM + 1)}


class KForm:
    """Frame k-form with one component per increasing multi-index.

    ``comps`` is one jet whose first axis runs over the increasing
    multi-indices, shape (ncomp,) or (ncomp, n) on n points.  An array
    (or list) of components, and the zeros when none are given, become an
    order-0 jet here, in their float dtype, float64 at least.
    """

    __slots__ = ("degree", "comps")

    def __init__(self, degree: int, comps=None):
        if degree not in MULTI_INDICES:
            raise ValueError(f"degree must be 0..4, got {degree}")
        n = len(MULTI_INDICES[degree])
        if comps is None:
            comps = np.zeros(n)
        if not isinstance(comps, Jet):
            comps = np.array(comps)
            comps = Jet((comps.astype(np.result_type(comps.dtype, np.float64), copy=False),))
        if np.shape(comps.value)[:1] != (n,):
            raise ValueError(f"degree-{degree} form needs {n} components")
        self.degree = degree
        self.comps = comps

    @staticmethod
    def basis(degree: int, idx) -> "KForm":
        """e^idx as a KForm (idx an increasing 0-based tuple)."""
        mi = MULTI_INDICES[degree]
        return KForm(degree, np.eye(len(mi))[mi.index(tuple(idx))])

    def __getitem__(self, idx):
        """Component jet on an arbitrary index tuple, antisymmetrized: the
        one nonzero sign of the tuple in ``FULL_SIGNS`` picks the component,
        and a tuple with a repeated index reads zeros."""
        if isinstance(idx, int):
            idx = (idx,)
        if len(idx) != self.degree:
            raise IndexError(f"degree-{self.degree} form needs {self.degree} indices")
        signs = FULL_SIGNS[self.degree][(slice(None),) + tuple(idx)]
        if not signs.any():
            return self.comps.map(lambda a: np.zeros_like(a[0]))
        p = int(np.flatnonzero(signs)[0])
        return float(signs[p]) * self.comps.map(lambda a: a[p])

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

    def truncated(self, order: int) -> "KForm":
        """Same form with its components cut to ``order``; ``truncated(0)``
        keeps the values only."""
        return KForm(self.degree, jets.truncate(self.comps, order))

    def full(self) -> Jet:
        """Fully antisymmetric components, one jet with the index axes first
        and any grid axis last."""
        return _FULL[self.degree](self.comps)

    def __repr__(self):
        vals = self.comps.value
        terms = ", ".join(f"{idx}: {c}" for idx, c in zip(MULTI_INDICES[self.degree], vals))
        return f"KForm({self.degree}, {{{terms}}})"


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
    return np.einsum("Pp,p...->P...", _SD_COMPS, w.comps.value)


_OPERATOR = _Gather(np.einsum("pab,qcd->pqabcd", SD_WEIGHTS, SD_WEIGHTS), 2, pairs=True)


def operator_from_tensor(R: np.ndarray) -> np.ndarray:
    """6x6 matrix of a pair-antisymmetric 4-tensor in the +/- basis.

    Entry (P, Q) is the bilinear extension R(E_P, E_Q) with the first index
    pair of ``R`` paired against E_P.  ``R`` holds the tensor on its first
    pair's six pairs a < b of ``MULTI_INDICES[2]``, shape (6, 4, 4, ...),
    the form a structure equation gives (``connections.curvature_pairs``);
    trailing axes of ``R`` (grid points) are carried through.

    Each entry has 16 nonzero terms W[P,a,b] W[Q,c,d] R[a,b,c,d], summed
    by a :class:`_Gather`, so the result is bitwise
    ``0.25 * einsum("pab,qcd,abcd...->pq...", W, W, R)`` of the
    antisymmetric tensor the pairs fill, on finite values.
    """
    return 0.25 * _OPERATOR(R)


# Levi-Civita symbol on the + basis: a self-dual 2-form with + components
# phi acts on Lambda^+ as -sqrt2 eps_pqr phi_r, the scale fixed by the
# closed block formulas (decomposition.py)
_EPS3 = FULL_SIGNS[3][0, :3, :3, :3].copy()


# Orthonormal basis of trace-free symmetric matrices indexed by (+,-) basis
# pairs: t_pq = -(E_p+)(E_q-) as component-matrix products.  This realizes
# the isomorphism between trace-free symmetric 2-tensors and Hom(-, +).
_T_BASIS = -np.einsum("pij,qjk->pqik", SD_WEIGHTS[:3], SD_WEIGHTS[3:])
