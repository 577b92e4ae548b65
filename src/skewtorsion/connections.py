"""Affine connections in a moving frame and their curvature.

Connection coefficients gamma[i, j, k] = g(D_{e_i} e_j, e_k) are one jet
of shape (4, 4, 4, n), so the radial derivative entering the curvature is
exact; the constructions and covariant derivatives below are contractions
of that jet and the bracket jet with fixed sign tensors, as gathers
(``frame._Gather``); every sign tensor is read off ``frame.FULL_SIGNS``
through the wedge tables.  The curvature sign convention is fixed by

    R(X, Y, Z, W) = g([D_X, D_Y] W - D_{[X,Y]} W, Z),

under which the unit round sphere has R_1212 = +1, Ric = 3 g, s = 12, and
the curvature of the connection with torsion H decomposes into the
Riemannian part, terms quadratic in H with coefficient 1/4, and first
derivatives of H with coefficient 1/2.

The codifferential is d* = -*d* on every degree (the 4-dimensional
Riemannian adjoint), equal to minus the divergence contraction.

The structure equation F_ij = e_i(w_j) - e_j(w_i) + [w_i, w_j] - C_ij^m w_m
of matrix-valued connection forms w is written once, in
:func:`_structure_equation`, for :func:`curvature_pairs` and for the
induced connection on Lambda+ (``instanton.InducedConnection.from_forms``),
on the six pairs i < j with their one bracket index.  The pairs are the
one stored form of a curvature: the 6x6 operator, the Lambda+ curvature,
the Ricci tensor and the identity suite read their terms off them.
:func:`curvature` scatters them into the 4-index tensor with
F_ji = 0 - F_ij, the dense form no check builds.

The identity suite checks each curvature identity only on the entries
where its residual can differ from zero, on the pairs or the triples of
distinct indices (the curvature cross-check, the first Bianchi identity)
or on all 256 (the pair swap), each entry read off the pairs and off the
components of H and D^g H by index tables built at import (gathers of
term lists, ``frame._Gather.of_terms``) and summed in the order of the
dense expression, so it has that expression's bits.  On a batch of
``_BLOCK_FROM`` points or more the structure equation forms its terms one
block of pairs at a time and the suite the pair swap 64 entries at a
time, joining the blocks' maxima exactly, so that beyond the objects its
context keeps a tile holds one block of entries.

The trace-free symmetric part is written once too, in :func:`_tf_sym`.

An :class:`AffineConnection` owns its curvature data: the pairs, the
6x6 operator and its blocks, W+-, the Ricci tensor, the scalar, Z and the
induced connection on Lambda+, each built on first read.  The curvature
routes, the exterior data of H and the identity suite read their
connections from an evaluation context
(:class:`skewtorsion.evaluation.Evaluation`), which builds each once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import permutations, product
from typing import TYPE_CHECKING

import numpy as np

from . import jets
from .jets import Jet
from .frame import (
    FULL_SIGNS, KForm, MULTI_INDICES, _FULL, _Gather, _PAIR_INDEX, _PAIR_SIGN, _WEDGE,
    hodge_star, norm_sq, operator_from_tensor,
)
from .charts import FramePoint, _BRACKET_PAIRS, _abs_max

if TYPE_CHECKING:
    from .evaluation import Evaluation
    from .instanton import InducedConnection

__all__ = [
    "AffineConnection",
    "levi_civita", "with_skew_torsion",
    "curvature", "curvature_pairs", "curvature_via_eq1",
    "d_form", "codifferential", "cov_deriv",
    "ExteriorData", "exterior_ops", "identity_suite", "full_components",
]

_EYE3 = np.eye(3)
_EYE4 = np.eye(4)


def _sym(m):
    return 0.5 * (m + np.einsum("pq...->qp...", m))


def _tf(m, dim):
    """Trace-free part of a (dim, dim, n) field of matrices."""
    eye = _EYE3 if dim == 3 else _EYE4
    return m - (np.einsum("pp...->...", m) / dim) * eye[..., None]


def _tf_sym(m):
    """Trace-free symmetric part of a (dim, dim, n) field of matrices."""
    return _tf(_sym(m), len(m))


def _fro(m):
    return np.sqrt(np.einsum("ij...,ij...->...", m, m))


# indices of the increasing triples, selecting 3-form components from a tensor
_TRIPLES = tuple(np.array(col) for col in zip(*MULTI_INDICES[3]))


@dataclass
class AffineConnection:
    """Frame connection at a batch of points; gamma[i, j, k] = Gamma^k_ij,
    one jet of shape (4, 4, 4, n)."""

    pt: FramePoint
    gamma: Jet
    metric_compatible: bool = True

    def truncated(self, order: int) -> "AffineConnection":
        """The connection with its coefficients cut to ``order``."""
        return AffineConnection(self.pt, jets.truncate(self.gamma, order),
                                self.metric_compatible)

    def torsion_form(self) -> KForm:
        """Torsion lowered to a 3-form: T(e_i,e_j,e_k) = g(T(e_i,e_j), e_k),
        values only (an order-0 jet), on the increasing triples alone."""
        G, C = self.gamma.value, self.pt.structure.value
        i, j, k = _TRIPLES
        return KForm(3, G[i, j, k] - G[j, i, k] - C[i, j, k])

    @cached_property
    def torsion_free(self) -> bool:
        """No torsion component above 1e-10 of the coefficient scale; checked
        once per connection, however many torsions are added to it."""
        scale = max(1.0, np.max(np.abs(self.gamma.value)))
        return not np.max(np.abs(self.torsion_form().comps.value)) > 1e-10 * scale

    @cached_property
    def pairs(self) -> np.ndarray:
        """Curvature on the six pairs i < j of its first index pair,
        shape (6, 4, 4, n): the structure equation's own form."""
        return curvature_pairs(self)

    @cached_property
    def M(self) -> np.ndarray:
        """6x6 curvature operator in the +- basis, shape (6, 6, n), read off
        ``pairs``."""
        return operator_from_tensor(self.pairs)

    @cached_property
    def blocks(self) -> tuple:
        """(A, B, C, D): the 3x3 block views of ``M``."""
        return self.M[:3, :3], self.M[:3, 3:], self.M[3:, :3], self.M[3:, 3:]

    @cached_property
    def W(self) -> tuple:
        """(W+, W-) = trace-free symmetric A and D: the Weyl blocks of the
        Levi-Civita connection."""
        A, _, _, D = self.blocks
        return _tf_sym(A), _tf_sym(D)

    @cached_property
    def ric(self) -> np.ndarray:
        """Ric_ij = sum_k R_kikj, shape (4, 4, n) (round S^4 gives Ric = 3g),
        read off ``pairs``."""
        return _RICCI(self.pairs).reshape(4, 4, -1)

    @cached_property
    def scalar(self) -> np.ndarray:
        """Scalar curvature, the trace of ``ric``, shape (n,)."""
        return np.einsum("ii...->...", self.ric)

    @cached_property
    def Z(self) -> np.ndarray:
        """Trace-free symmetric Ricci tensor, shape (4, 4, n)."""
        return _tf_sym(self.ric)

    @cached_property
    def induced(self) -> InducedConnection:
        """Induced so(3) connection on Lambda+ (metric connections only),
        built from the connection alone."""
        from .instanton import induced_lambda_plus  # instanton imports connections
        return induced_lambda_plus(self)


def full_components(form: KForm, pt: FramePoint) -> np.ndarray:
    """Fully antisymmetric value array of a frame k-form, grid axis last."""
    v = form.truncated(0).full().value
    return np.broadcast_to(v, v.shape[:form.degree] + pt.x.shape)


# ---------------------------------------------------------------------------
# connections
# ---------------------------------------------------------------------------


def levi_civita(pt: FramePoint) -> AffineConnection:
    """Torsion-free metric connection from the frame Koszul formula."""
    C = pt.structure
    gamma = 0.5 * (C - jets.einsum("jki...->ijk...", C) + jets.einsum("kij...->ijk...", C))
    return AffineConnection(pt, gamma, metric_compatible=True)


def with_skew_torsion(lc: AffineConnection, H: KForm) -> AffineConnection:
    """Metric connection with torsion 3-form H: Gamma'_kij = Gamma + H_ijk/2."""
    if not lc.metric_compatible:
        raise ValueError("base connection must be metric")
    if H.degree != 3:
        raise ValueError("torsion must be a 3-form")
    if not lc.torsion_free:
        raise ValueError("base connection must be torsion-free")
    gamma = lc.gamma + 0.5 * H.truncated(lc.gamma.order).full()
    return AffineConnection(lc.pt, gamma, metric_compatible=True)


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------


# a batch of at least this many points forms the terms of its structure
# equations and its pair swap a block at a time, so that no more than one
# block of them is alive (a 512-point tile: 64 to 256 kB where the whole
# would take 0.4 to 1 MB); a smaller batch forms each whole, as there the
# calls of a block cost more than its terms
_BLOCK_FROM = 256


def _as_slice(idx) -> slice:
    """Indices with one step between them, as the slice that reads them."""
    step = int(idx[1] - idx[0]) if len(idx) > 1 else 1
    stop = int(idx[-1]) + step
    out = slice(int(idx[0]), stop if stop >= 0 else None, step)
    assert np.array_equal(np.arange(max(idx) + 1)[out], idx)
    return out


# the six pairs (i, j) with their bracket index m, each block the slice of
# its pairs and the indices i, j, m of the forms it reads: all six, read by
# index arrays, or blocks of one first index i, (0, 1..3), (1, 2..3), (2, 3),
# read by slices, so that a block's forms are views
_ALL_PAIRS = [(slice(None), *_BRACKET_PAIRS)]
_PAIR_BLOCKS = [(_as_slice(np.flatnonzero(_BRACKET_PAIRS[0] == i)), slice(i, i + 1),
                 *(_as_slice(a[_BRACKET_PAIRS[0] == i]) for a in _BRACKET_PAIRS[1:]))
                for i in range(3)]


def _structure_equation(pt: FramePoint, omega: Jet) -> np.ndarray:
    """Curvature values F[s, p, q] on the six pairs s = (i, j), i < j, of
    ``MULTI_INDICES[2]``, shape (6, P, Q, n), of the connection forms
    ``omega[i, p, q]``, one jet of shape (4, P, Q, n); each step is odd
    under i <-> j, so F_ji = 0 - F_ij, and F on the pairs is bitwise the
    sum over all (i, j, m).  From ``_BLOCK_FROM`` points the commutator and
    bracket terms are formed one block of ``_PAIR_BLOCKS`` at a time, each
    entry as on all six pairs at once."""
    w = omega.value
    brackets = pt.brackets[_BRACKET_PAIRS][:, None, None]
    Fp = np.zeros((6,) + w.shape[1:], w.dtype)
    # e_i(w_j) - e_j(w_i): only the radial direction acts, on the pairs (0, j)
    Fp[:3] += pt.e1(omega.map(lambda c: c[1:])).value
    for s, i, j, m in _PAIR_BLOCKS if w.shape[-1] >= _BLOCK_FROM else _ALL_PAIRS:
        # [w_i, w_j], then in the same buffer the bracket term; Fp, summed
        # from +0.0, never holds -0.0, so the sign of a zero term cannot
        # reach it
        wi, wj = w[i], w[j]
        term = np.einsum("ipr...,irq...->ipq...", wi, wj)
        term -= np.einsum("ipr...,irq...->ipq...", wj, wi)
        Fp[s] += term
        np.multiply(brackets[s], w[m], out=term)
        Fp[s] -= term
    return Fp


def curvature_pairs(conn: AffineConnection) -> np.ndarray:
    """Frame curvature of any connection (metric or not) on the six pairs
    i < j of its first index pair, values of shape (6, 4, 4, n): the
    structure equation of the forms (w_i)^k_l = Gamma^k_il."""
    return _structure_equation(conn.pt, jets.einsum("ilk...->ikl...", conn.gamma))


def curvature(conn: AffineConnection) -> np.ndarray:
    """Frame curvature R_ijkl of any connection (metric or not), values of
    shape (4, 4, 4, 4, n): its pairs (:func:`curvature_pairs`) scattered,
    with R_jikl = 0 - R_ijkl.  No check builds it; it is the dense form the
    readers of the pairs are tested against."""
    pairs = curvature_pairs(conn)
    i, j, _ = _BRACKET_PAIRS
    R = np.zeros((4, 4) + pairs.shape[1:], pairs.dtype)
    R[i, j] = pairs
    R[j, i] = 0.0 - pairs  # +0.0 where a pair is zero, as in the sum
    return R


def curvature_via_eq1(ev: Evaluation) -> np.ndarray:
    """Curvature of the +H connection assembled from the Riemannian one, on
    the six pairs i < j of its first index pair, shape (6, 4, 4, n).

    Independent route from :func:`curvature_pairs`: the context's Riemannian
    curvature plus the quadratic torsion terms (coefficient 1/4) and the
    first covariant derivatives of H (coefficient 1/2), each entry summed
    as in the dense 4-index expression.
    """
    # T[s, k, l] = sum_m H_ikm H_jlm, so sum_m H_ilm H_jkm - H_jlm H_ikm
    # is T[s, l, k] - T[s, k, l]
    T = _EQ1_HH(ev.Hv).reshape(6, 4, 4, -1)
    # lc.pairs + quad + dterm, in that order, in one buffer
    out = np.subtract(np.swapaxes(T, 1, 2), T)
    del T
    out *= 0.25
    np.add(ev.lc.pairs, out, out=out)
    out += _EQ1_DH(ev.grad_H).reshape(6, 4, 4, -1)
    return out


# ---------------------------------------------------------------------------
# invariant exterior calculus
# ---------------------------------------------------------------------------


def _d_signs(k):
    """Gathers of d on k-forms, over increasing multi-indices I of degree
    k + 1: the derivative term sum_r (-1)^r e_{i_r}(w_{I - i_r}) along e1,
    the one direction invariant forms vary in, the wedge table of e1 ^ w;
    and the bracket term sum_{r<s} (-1)^(r+s) w([e_{i_r}, e_{i_s}], I - i_r - i_s),
    minus the sign of e^ij ^ e^R in e^I times that of e^m ^ e^R in e^P,
    summed over the (k-1)-forms R, for the bracket component m of [e_i, e_j]
    against the component P of w."""
    if k == 0:
        bracket = np.zeros((4, 1, 4, 4, 4))
    else:  # 0.0 - keeps the zero entries +0.0
        bracket = 0.0 - np.einsum("qaR,PmR,aij->qPijm", _WEDGE[2, k - 1], _WEDGE[1, k - 1],
                                  np.maximum(FULL_SIGNS[2], 0.0))
    return _Gather(_WEDGE[1, k][:, 0], 1), _Gather(bracket, 2)


_D_SIGNS = {k: _d_signs(k) for k in range(4)}


def d_form(pt: FramePoint, form: KForm) -> KForm:
    """Exterior derivative of an invariant frame form via brackets.

    The result carries one order less than the form: the brackets are cut
    to that order, and an order-0 form, which carries no derivative, raises
    ``ValueError``.
    """
    k = form.degree
    if k >= 4:
        raise ValueError("cannot differentiate a 4-form in dimension 4")
    deriv, bracket = _D_SIGNS[k]
    w = form.comps
    dw = deriv(pt.e1(w))  # an order-0 form raises here
    C = jets.truncate(pt.structure, dw.order)
    out = jets.einsum("qp...,p...->q...", bracket(C), jets.truncate(w, C.order))
    return KForm(k + 1, out + dw)


def codifferential(pt: FramePoint, form: KForm) -> KForm:
    """d* = -*d* (4-dimensional Riemannian adjoint of d, all degrees)."""
    return -1.0 * hodge_star(d_form(pt, hodge_star(form)))


def _derivation_signs(k):
    """Gather of S, (ncomp, ncomp, 4, 4): a connection acts on a k-form as
    sum_r Gamma_{i J_r m} w_{J_r -> m} = sum Gamma_ixm S[J, P, x, m] w_P,
    where S pairs e^x ^ e^R = e^J with e^m ^ e^R = e^P over (k-1)-forms R."""
    return _Gather(np.einsum("JxR,PmR->JPxm", _WEDGE[1, k - 1], _WEDGE[1, k - 1]), 2)


_DERIVATION_SIGNS = {k: _derivation_signs(k) for k in range(1, 4)}


def cov_deriv(pt: FramePoint, conn: AffineConnection, form: KForm) -> Jet:
    """(D_i w)_J = e_i(w_J) - sum_r Gamma_{i J_r m} w_{J_r -> m} on the
    increasing multi-indices J of a k-form, one jet of shape (4, ncomp, n).

    The result has the order of ``conn``, which must be one less than the
    form's: a caller that reads values passes ``conn.truncated(0)`` and
    the form at order 1."""
    G = _DERIVATION_SIGNS[form.degree](conn.gamma, lead=1)
    w = jets.truncate(form.comps, G.order)
    return pt.frame_derivative(form.comps) - jets.einsum("iJP...,P...->iJ...", G, w)


@dataclass
class ExteriorData:
    """Derived invariants of a torsion 3-form at the grid points."""

    dH: KForm             # order-0 jets, as are dstar_H and dh
    star_dH: np.ndarray   # scalar (n,)
    dstar_H: KForm        # 2-form
    h: KForm              # torsion 1-form *H, order-1 jets
    dh: KForm
    grad_h: np.ndarray    # (D^g_i h)_j values, (4,4,n)
    sym_grad_h: np.ndarray
    norm_sq_H: np.ndarray


def exterior_ops(lc: AffineConnection, H: KForm) -> ExteriorData:
    """Exterior data of the torsion 3-form H, with D^g the connection ``lc``.

    It reads the values and first derivatives of H, so H is cut to order 1
    and every derived field holds values only."""
    pt = lc.pt
    H = H.truncated(1)
    dH = d_form(pt, H)
    star_dH = hodge_star(dH).comps.value[0]
    h = hodge_star(H)
    dh = d_form(pt, h)
    dstar_H = -1.0 * hodge_star(dh)  # the codifferential -*d*H
    grad = cov_deriv(pt, lc.truncated(0), h).value
    return ExteriorData(
        dH=dH, star_dH=star_dH, dstar_H=dstar_H, h=h, dh=dh,
        grad_h=grad, sym_grad_h=_sym(grad),
        norm_sq_H=norm_sq(H.truncated(0)).value,
    )


# ---------------------------------------------------------------------------
# identity suite
# ---------------------------------------------------------------------------


def _r(a, b, c, d):
    """R_abcd, a != b, as a term read off a curvature on its six pairs,
    (6, 4, 4, n): the pair (a, b), negated for a > b."""
    return _PAIR_SIGN[a, b], (_PAIR_INDEX[a, b] * 4 + c) * 4 + d


def _dh(a, b, c, d):
    """(D^g_a H)_bcd as the term ``_FULL[3]`` reads off its components on
    the increasing triples, (4, 4, n); a zero entry reads the first
    component times 0, as there."""
    bcd = (b * 4 + c) * 4 + d
    return _FULL[3].coef[0, bcd], a * 4 + _FULL[3].index[0, bcd]


def _hh(a, b, c, d):
    """sum_m H_abm H_cdm: its products that are not zero, in the order of
    m, as rows of the full components of H, (4, 4, 4, n)."""
    return [((a * 4 + b) * 4 + m, (c * 4 + d) * 4 + m)
            for m in range(4) if len({a, b, m}) == len({c, d, m}) == 3]


# The entries each identity is checked on.  A curvature's first pair is
# stored exactly antisymmetric (its six pairs i < j), so the curvature
# cross-check is zero at i = j and odd under i <-> j: it is read on the
# pairs, (i, j, k, l) for i < j.  The cyclic sums of the Bianchi identity
# are zero at a repeated index among i, j, k: it is read on the ordered
# triples of distinct i, j, k, with every l.  The pair swap reads all 256
# entries, as the second pair carries noise at k = l.
_ON_PAIRS = [(i, j, k, l) for i, j in MULTI_INDICES[2] for k in range(4) for l in range(4)]
_ON_TRIPLES = [(i, j, k, l) for i, j, k in permutations(range(4), 3) for l in range(4)]
# i != j with k = l, i != j with k != l, i = j with k != l, i = j with k = l:
# R_ijkl is read on the first 192, R^-_klij on the 192 from the 48th, and
# each is zero on the rest
_SWAPPED = sorted(product(range(4), repeat=4),
                  key=lambda e: (e[0] == e[1], (e[0] == e[1]) == (e[2] == e[3])))

# Ric_ij = sum_k R_kikj, added in the order of k, as
# np.einsum("kikj...->ij...") adds them; the term k = i, a zero of R, adds
# nothing to a sum from +0.0 and is left out
_RICCI = _Gather.of_terms([[_r(k, i, k, j) for k in range(4) if k != i]
                          for i in range(4) for j in range(4)], 3)
# sum_m H_ikm H_jlm, and -(D_i H)_jkl / 2 + (D_j H)_ikl / 2, on the pairs:
# scaling a term by +-1/2 rounds as scaling the entry it is read off
_EQ1_HH = _Gather.of_terms([_hh(i, k, j, l) for i, j, k, l in _ON_PAIRS], 3, products=True)
_EQ1_DH = _Gather.of_terms([[(-0.5 * ca, ra), (0.5 * cb, rb)]
                            for (ca, ra), (cb, rb) in ((_dh(i, j, k, l), _dh(j, i, k, l))
                                                       for i, j, k, l in _ON_PAIRS)], 2)
# the cyclic sums R_ijkl + R_kijl + R_jkil and (H (x) H)_ijkl + ..., and
# (D_l H)_ijk, on the triples; -dH_ijkl is -eps_ijkl times *dH
_BIANCHI_R = _Gather.of_terms([[_r(i, j, k, l), _r(k, i, j, l), _r(j, k, i, l)]
                               for i, j, k, l in _ON_TRIPLES], 3)
_BIANCHI_HH = _Gather.of_terms([_hh(i, j, k, l) + _hh(k, i, j, l) + _hh(j, k, i, l)
                                for i, j, k, l in _ON_TRIPLES], 3, products=True)
_BIANCHI_DH = _Gather.of_terms([[_dh(l, i, j, k)] for i, j, k, l in _ON_TRIPLES], 2)
_BIANCHI_DHV = np.array([-FULL_SIGNS[4][(0,) + e] for e in _ON_TRIPLES])[:, None]
# R_ijkl on the first 192 entries, and -R^-_klij on the 192 from the 48th,
# whose sum is R_ijkl - R^-_klij; dH_ijkl / 2
_SWAP_TERMS = (("plus", 0, [[_r(*e)] for e in _SWAPPED[:192]]),
               ("minus", 48, [[(-c, r)] for c, r in
                              (_r(k, l, i, j) for i, j, k, l in _SWAPPED[48:240])]))


def _swap_blocks(size: int) -> list:
    """The pair swap's entries in blocks of ``size``: each block is its
    slice of ``_SWAPPED`` and, for the connections it reads, in the order
    of ``_SWAP_TERMS``, the rows of the block they fill and a gather of
    their terms there."""
    return [(slice(a, a + size), [
        (name, slice(lo - a, hi - a), _Gather.of_terms(terms[lo - first:hi - first], 3))
        for name, first, terms in _SWAP_TERMS
        for lo, hi in [(max(a, first), min(a + size, first + len(terms)))] if lo < hi])
        for a in range(0, len(_SWAPPED), size)]


# all 256 entries at once, and from _BLOCK_FROM points 64 at a time
_SWAP_WHOLE, _SWAP_BLOCKS = _swap_blocks(256), _swap_blocks(64)
_SWAP_DHV = np.array([0.5 * FULL_SIGNS[4][(0,) + e] for e in _SWAPPED])[:, None]


def _bianchi(ev: Evaluation) -> np.ndarray:
    """First Bianchi identity with torsion on ``_ON_TRIPLES``, shape (96, n):
    the cyclic sum of R against dH, D^g H and the quadratic terms."""
    rhs = (_BIANCHI_DHV * ev.ext.dH.comps.value[0] - _BIANCHI_DH(ev.grad_H)
           + 0.5 * _BIANCHI_HH(ev.Hv))
    return _BIANCHI_R(ev.plus.pairs) - rhs


def _pair_swap(ev: Evaluation, block) -> np.ndarray:
    """R_ijkl - R^-_klij on the entries of one block of ``_swap_blocks``,
    shape (size, n): the pair swap against the opposite-torsion connection,
    without its dH term, each entry summed as on all 256."""
    entries, parts = block
    R = ev.plus.pairs
    diff = np.zeros((entries.stop - entries.start,) + R.shape[3:], R.dtype)
    for name, rows, gather in parts:
        gather(getattr(ev, name).pairs, out=diff[rows])
    return diff


def _pair_swap_max(ev: Evaluation, block) -> tuple:
    """max |R_ijkl - R^-_klij + dH_ijkl / 2| and max |R_ijkl - R^-_klij|
    over the entries of one block of ``_swap_blocks`` at each point, shape
    (n,) each: the dH term added in place."""
    diff = _pair_swap(ev, block)
    closed = _abs_max(diff)
    diff += _SWAP_DHV[block[0]] * ev.ext.dH.comps.value[0]
    return _abs_max(diff), closed


def identity_suite(ev: Evaluation) -> dict:
    """Residuals of the curvature, Ricci and Bianchi identities on a grid.

    All identities are exact for smooth invariant data, so every residual
    is float noise; the suite returns each at each point, shape (n,).  The
    two orientation-sensitive identities are checked with their pinned
    signs (+dH in the Bianchi identity, +*dh/2 in the four-dimensional Ricci
    formula), so a sign regression shows as a large residual.
    ``pair_swap_closed`` holds only for closed H (``evaluation.closed``).

    The curvature identities read each curvature on its six pairs, and
    H (x) H and D^g H off the components of H and of D^g H, only on the
    entries where the residual can differ from zero (``_ON_PAIRS``,
    ``_ON_TRIPLES``, ``_SWAPPED``); each entry is summed in the order of the
    dense 4-index expression, so it has that entry's bits, and no
    (4, 4, 4, 4, n) tensor is built.
    """
    pt, ext, Hv = ev.pt, ev.ext, ev.Hv

    # first the checks that read no curvature, while the context holds none,
    # each kept for its place in the dict below:
    # the torsion 1-form is parallel for both connections simultaneously
    parallel = _abs_max(cov_deriv(pt, ev.plus.truncated(0), ext.h).value - ext.grad_h)
    # torsion recovery from the connection difference
    recovery = _abs_max(ev.plus.torsion_form().comps.value - ev.Hf.comps.value)
    jacobi = pt.jacobi_residual()

    out = {}
    cross = curvature_via_eq1(ev)
    out["curvature_cross"] = _abs_max(np.subtract(ev.plus.pairs, cross, out=cross))
    del cross
    out["bianchi"] = _abs_max(_bianchi(ev))
    # the pair swap, general and closed, block by block: the largest of the
    # blocks' maxima is exact and keeps a NaN
    blocks = _SWAP_BLOCKS if pt.npoints >= _BLOCK_FROM else _SWAP_WHOLE
    swap, closed = zip(*(_pair_swap_max(ev, block) for block in blocks))
    out["pair_swap"], out["pair_swap_closed"] = np.max(swap, axis=0), np.max(closed, axis=0)

    # Ricci of the torsion connection vs the divergence formula
    rd, rg = ev.plus, ev.lc
    dstarHv = full_components(ext.dstar_H, pt)
    quad_ric = 0.25 * np.einsum("ikm...,jkm...->ij...", Hv, Hv)
    out["ricci_formula"] = _abs_max(rd.ric - (rg.ric - quad_ric - 0.5 * dstarHv))
    out["ricci_antisym"] = _abs_max(0.5 * (rd.ric - np.einsum("ij...->ji...", rd.ric))
                                    + 0.5 * dstarHv)

    # scalar curvature shift by the torsion norm
    out["scalar_relation"] = _abs_max(rd.scalar - rg.scalar + 1.5 * ext.norm_sq_H)

    # four-dimensional Ricci formula through the torsion 1-form h = *H.
    hv = full_components(ext.h, pt)
    h2 = np.einsum("i...,i...->...", hv, hv)
    star_dh = full_components(hodge_star(ext.dh), pt)
    eye = _EYE4[..., None]
    base = rg.ric - 0.5 * h2 * eye + 0.5 * np.einsum("i...,j...->ij...", hv, hv)
    out["ricci_four_dim"] = _abs_max(rd.ric - (base + 0.5 * star_dh))
    out["torsion_form_parallel"] = parallel

    # trace-free symmetric Ricci shift
    shift = 0.5 * np.einsum("i...,j...->ij...", hv, hv) - 0.125 * h2 * eye
    out["traceless_shift"] = _abs_max(ev.plus.Z - (ev.lc.Z + shift))
    out["torsion_recovery"] = recovery
    out["jacobi"] = jacobi
    return out
