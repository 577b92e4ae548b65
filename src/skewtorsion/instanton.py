"""Induced connection on the bundle of self-dual 2-forms and its gauge data.

A metric connection preserves the splitting of 2-forms, so it induces an
so(3) connection on Lambda+; :meth:`InducedConnection.from_forms` builds
one from any so(3) form jet.  Its curvature, computed by the structure
equation of the frame curvature (``connections._structure_equation``),
reproduces the Lambda+ input/output entries of the 6x6 curvature operator
(the transposed [A | C] rows, since the 2-form direction of the induced
curvature is the differentiation pair of R) up to the fixed factor
sqrt(2).  That identification is asserted, not assumed, but outside the
build: :func:`induced_lambda_plus` needs only the connection forms, and
:func:`lambda_plus_block_residual` compares its curvature with the
operator; :func:`yang_mills_density_check` reports it as
``block_residual_plus`` and ``block_residual_minus``, and the tests bound
it; the gauge probe and the Pontryagin density build no curvature
tensor.  The anti-self-dual part of the induced curvature is
exactly the block whose vanishing is the Einstein-with-torsion condition,
so for Einstein data the induced connection is an instanton.

The gauge probe compares the connections induced by torsions +H and -H.
A gauge transformation intertwining them is annihilated by the curvature
of the product connection, so its candidates per point are the kernel of
the 54x9 system F+(E) G - G F-(E) = 0 over the six 2-form directions E,
read from the SVD of the system's 9x9 triangular QR factor (the same bytes
as the SVD of the system itself, see :func:`_intertwiner_spectrum`).  The
kernel section, continued in x and normalized, is then tested for
covariant constancy.  The systems are built and factored tile by tile,
and within a tile ``_CHUNK`` nodes at a time, so that one chunk's systems
are alive at once.  While a tile's connection forms omega+- live, it
also forms the covariant derivative's parts that need them, on the unit
kernel section before its signs are continued: the radial term and the
squared norms of the three orbit terms.  These per-node arrays and the
spectra, the grid axis last like every per-point array, are joined
(:meth:`skewtorsion.evaluation.Evaluation.per_point`); the continuation
and the test (:func:`probe_verdict`) read the grid's points themselves,
with the joined arrays: the whole grid's, or in a scan each row's points
(``FramePoint.__getitem__``) with that row's slice of the block's arrays.
A continued sign negates a node's terms exactly, so the test gives the
bits of one formed on the continued section from the joined omega+-.

The diagnostics read each +-H connection's blocks, W+, scalar and induced
connection from the connection itself, in an evaluation context
(:class:`skewtorsion.evaluation.Evaluation`), and return per-point
arrays, the grid axis last, which ``report`` reduces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from . import frame as F
from . import jets
from .charts import ChartError, FramePoint, _abs_max
from .connections import _fro, _structure_equation, AffineConnection

if TYPE_CHECKING:
    from .evaluation import Evaluation

__all__ = [
    "InducedConnection", "GaugeProbeReport", "induced_lambda_plus",
    "lambda_plus_block_residual",
    "self_duality_residual", "yang_mills_density_check", "killing_residual",
    "gauge_equivalence_probe", "probe_verdict",
]

# curvature of the induced connection in the + basis equals this factor
# times the transposed [A | C] rows of the operator (calibrated on the
# round sphere)
LAMBDA_PLUS_CURVATURE_SCALE = np.sqrt(2.0)


# the pairing of a curvature on the six pairs i < j with the +- basis E_Q:
# bitwise 0.5 * einsum("qij,ijpr...->prq...", W, F) of the 4-index F
_SD_PAIRING = F._Gather(F.SD_WEIGHTS, 1, pairs=True)


@dataclass
class InducedConnection:
    """so(3)-valued connection on Lambda+ along a frame batch."""

    pt: FramePoint
    omega: jets.Jet             # connection forms omega[i, p, q], shape (4, 3, 3, n)
    F_sd: np.ndarray            # F paired with the six E_Q, shape (3, 3, 6, n)

    @classmethod
    def from_forms(cls, pt: FramePoint, omega: jets.Jet) -> "InducedConnection":
        """The connection with so(3) forms ``omega`` along ``pt`` and its
        curvature, paired with the +- basis."""
        # F paired with E_Q, summed off the pairs: a view in the layout the
        # einsum over the 4-index F gives, (Q, p, r, n) in memory
        F_sd = np.moveaxis(0.5 * _SD_PAIRING(_structure_equation(pt, omega)), 0, 2)
        return cls(pt=pt, omega=omega, F_sd=F_sd)

    @cached_property
    def rows(self) -> np.ndarray:
        """F in generator components over the scale, shape (3, 6, n): built
        on first read, as the probe reads ``F_sd`` only."""
        # the so(3) generators pairing the + basis are (T_s)_pq = eps_spq
        return (0.5 * np.einsum("spq,pqm...->sm...", F._EPS3, self.F_sd)
                / LAMBDA_PLUS_CURVATURE_SCALE)


# D_i E_q+ = sum_p omega[i, p, q] E_p+ with omega[i, p, q] = Gamma_ixy K[p, q, x, y]:
# the connection acts on the 2-form E_q+ as a derivation, paired with E_p+,
# which for antisymmetric component matrices gives K = -E_q E_p
_OMEGA_WEIGHTS = -np.einsum("qxa,pay->pqxy", F.SD_WEIGHTS[:3], F.SD_WEIGHTS[:3])


def induced_lambda_plus(conn: AffineConnection) -> InducedConnection:
    """Induced so(3) connection on Lambda+ and its curvature, from the
    connection forms alone."""
    if not conn.metric_compatible:
        raise ValueError("the splitting is only preserved by metric connections")
    return InducedConnection.from_forms(
        conn.pt, jets.einsum("ixy...,pqxy->ipq...", conn.gamma, _OMEGA_WEIGHTS))


def lambda_plus_block_residual(ic: InducedConnection, blocks: tuple) -> np.ndarray:
    """max |rows - (A|C)^T| at each point, shape (n,), of an induced
    connection against ``blocks``, the (A, B, C, D) blocks of the 6x6
    curvature operator of the connection it was induced by.

    The direction index of the rows is the differentiation pair of R, so
    the induced curvature reproduces the Lambda+ input/output entries of
    the operator transposed.
    """
    A, _, Cb, _ = blocks
    AC = np.concatenate([np.einsum("pq...->qp...", A),
                         np.einsum("pq...->qp...", Cb)], axis=1)
    return _abs_max(ic.rows - AC)


def self_duality_residual(ic: InducedConnection) -> np.ndarray:
    """Norm of the anti-self-dual part of the induced curvature at each
    point, shape (n,).

    Reported on the operator scale, where it coincides with the Frobenius
    norm of the Einstein block, so it vanishes exactly when the data is
    Einstein with skew torsion.
    """
    return _fro(ic.rows[:, 3:])


def yang_mills_density_check(ev: Evaluation) -> dict:
    """Pointwise Yang-Mills density identities for the +-H instanton pair.

    Returns, at each point, (i) |density(+H) - density(-H)| and (ii) each
    density against |W+|^2 + |s Id/12|^2 + |(d*H)+/2|^2.  The identities
    are exact when the data is Einstein with closed torsion; the caller
    sees the residuals either way.  The last term is even in H, so both
    signs take it from the exterior data of H.
    """
    phi_p = F.components_in_sd_basis(ev.ext.dstar_H)[:3]
    out = {}
    dens = {}
    for cd, tag in ((ev.plus, "plus"), (ev.minus, "minus")):
        ic = cd.induced
        dens[tag] = np.einsum("sm...,sm...->...", ic.rows, ic.rows)
        out[f"block_residual_{tag}"] = lambda_plus_block_residual(ic, cd.blocks)
        Wp = cd.W[0]
        formula = (np.einsum("pq...,pq...->...", Wp, Wp)
                   + 3.0 * (cd.scalar / 12.0) ** 2
                   + 0.25 * np.einsum("r...,r...->...", phi_p, phi_p))
        out[f"formula_residual_{tag}"] = np.abs(dens[tag] - formula)
    out["pair_residual"] = np.abs(dens["plus"] - dens["minus"])
    return out


def killing_residual(ev: Evaluation) -> dict:
    """Norm of S(D^g h) for h = *H at each point, and |dH| there, which
    decides whether H is closed (``evaluation.closed``)."""
    ext = ev.ext
    return {
        "killing_residual": _fro(ext.sym_grad_h),
        # the 4-form's one component: its full tensor adds zeros
        "dH_sup": np.abs(ext.dH.comps.value[0]),
    }


@dataclass
class GaugeProbeReport:
    """Outcome of the +-H gauge-equivalence probe on Lambda+."""

    x: np.ndarray
    kernel_dims: np.ndarray
    singular_values: np.ndarray   # (n, 9), kept in memory; no payload prints it
    min_gap: float                # min over nodes of sigma_8 / sigma_9
    threshold: float
    sup_nabla_g: float
    inf_nabla_g_mid: float
    verdict: str
    notes: str = ""
    section: np.ndarray | None = field(default=None, repr=False)

    def summary(self) -> dict:
        return {
            "verdict": self.verdict,
            "kernel_dim_mode": int(np.bincount(self.kernel_dims).argmax()),
            "kernel_dim_one_fraction": float(np.mean(self.kernel_dims == 1)),
            "min_gap": self.min_gap,
            "threshold": self.threshold,
            "sup_nabla_g": self.sup_nabla_g,
            "inf_nabla_g_mid": self.inf_nabla_g_mid,
            "notes": self.notes,
        }

    def spectrum(self) -> dict:
        """The probe's spectrum summary: ``kernel_gap``, the min of
        sigma_8 / sigma_1 over the nodes of kernel dimension below 9 (the
        kernel's gap to the rest of the spectrum), and ``kernel_gap_x``,
        the x of that node; both None where every node has dimension 9."""
        # such a node has sigma_1 > tau > 0, so its ratio is finite
        curved = np.flatnonzero(self.kernel_dims < 9)
        if not curved.size:
            return {"kernel_gap": None, "kernel_gap_x": None}
        S = self.singular_values
        ratios = S[curved, 7] / S[curved, 0]
        i = int(np.argmin(ratios))
        return {"kernel_gap": float(ratios[i]), "kernel_gap_x": float(self.x[curved[i]])}


def _system_slots():
    """The value slot of each entry (p, q, a, b) of L's row (m, p, q) and
    column (a, b), among the 9 + 9 + 9 + 1 values per m that
    :func:`_intertwiner_system` computes: Fp[p, a] where only q = b,
    Fm[b, q] where only p = a, Fp[p, p] - Fm[q, q] where both, +0.0 where
    neither."""
    p, q, a, b = np.indices((3, 3, 3, 3))
    return np.where(q == b, np.where(p == a, 18 + 3 * p + q, 3 * p + a),
                    np.where(p == a, 9 + 3 * b + q, 27)).ravel()


_L_SLOTS = _system_slots()


def _intertwiner_system(Fp: np.ndarray, Fm: np.ndarray) -> np.ndarray:
    """The (n, 54, 9) matrices of G -> F+(E_m) G - G F-(E_m) per node.

    ``Fp`` and ``Fm`` hold F(E_m) as 3x3 matrices, shape (n, 6, 3, 3).  Row
    (m, p, q) and column (a, b) carry Fp[m, p, a] delta_qb - delta_pa
    Fm[m, b, q], each entry summed into +0.0, so a -0.0 reads as +0.0: L
    equals ``einsum("nmpa,qb->nmpqab", Fp, I) - einsum("pa,nmbq->nmpqab", I, Fm)``
    bitwise, signs of zeros included.  Its 28 distinct values per (n, m)
    are computed once, and one take spreads them over L.
    """
    n = Fp.shape[0]
    vals = np.empty((n, 6, 28))
    vals[..., :9] = 0.0 + Fp.reshape(n, 6, 9)
    vals[..., 9:18] = 0.0 - Fm.reshape(n, 6, 9)
    diag_p, diag_m = np.diagonal(Fp, axis1=2, axis2=3), np.diagonal(Fm, axis1=2, axis2=3)
    vals[..., 18:27] = ((0.0 + diag_p)[..., :, None] - diag_m[..., None, :]).reshape(n, 6, 9)
    vals[..., 27] = 0.0
    return np.take(vals, _L_SLOTS, axis=2).reshape(n, 54, 9)


def _align_signs(g: np.ndarray):
    """Section ``g`` (n, 3, 3) with signs continued along the nodes, in
    place, and the mask of the nodes it negated.

    Node i takes the sign that makes its dot with the aligned node i - 1
    non-negative; a dot that is zero (or NaN) restarts the sign at +1.  The
    sign is the product of the neighbour signs since the last restart.
    """
    n = len(g)
    dots = np.sum((g[1:] * g[:-1]).reshape(n - 1, 9), axis=1)
    steps = np.cumprod(np.concatenate(([1.0], np.where(dots < 0.0, -1.0, 1.0))))
    restart = np.concatenate(([True], ~(np.abs(dots) > 0.0)))
    last = np.maximum.accumulate(np.where(restart, np.arange(n), 0))
    flip = steps * steps[last] < 0.0
    g[flip] = -g[flip]
    return g, flip


def _unit_section(v9: np.ndarray) -> np.ndarray:
    """The kernel vectors ``v9`` (n, 9), nodes first and each vector
    contiguous, as unit 3x3 matrices (n, 3, 3): each norm sums the nine
    entries of one node, whatever n is."""
    return v9.reshape(-1, 3, 3) / np.linalg.norm(v9, axis=1)[:, None, None]


# nodes whose 54x9 systems are built and factored at a time: a system and
# LAPACK's copy of it hold 7.8 kB per node, the largest per-node term of a
# probe tile, so a chunk keeps them near 1 MB where a 512-point tile's
# would take 4 MB
_CHUNK = 128


def _factored_spectrum(F_sd_p: np.ndarray, F_sd_m: np.ndarray):
    """The singular values S and the right singular vector v9 of the
    smallest, (n, 9) each, of the intertwiner systems of the curvatures
    ``F_sd`` of the +H and -H induced connections, built and factored
    ``_CHUNK`` nodes at a time; the last chunk's system and factors are
    released on return, before the caller forms the orbit terms."""
    # F(E_Q) as 3x3 matrices per node: shape (6, 3, 3, n) -> (n, 6, 3, 3)
    Fp = np.einsum("pqm...->...mpq", F_sd_p)
    Fm = np.einsum("pqm...->...mpq", F_sd_m)
    n = len(Fp)
    S, v9 = np.empty((n, 9)), np.empty((n, 9))
    for start in range(0, n, _CHUNK):
        c = slice(start, start + _CHUNK)
        L = _intertwiner_system(Fp[c], Fm[c])
        if not np.all(np.isfinite(L)):
            raise ChartError("induced curvature not finite at a node")
        # only S and the right singular vectors are used, and L = Q R leaves
        # both unchanged, so they are read from the 9x9 triangular factor R.
        # LAPACK's dgesdd QR-factors a tall system the same way (dgeqrf) and
        # decomposes that R, matrix by matrix, so the bytes equal the SVD of
        # L, without the (n, 54, 9) left factor.  Only when a node's largest
        # entry lies outside dgesdd's unscaled range (about 6.7e-139 to
        # 1.5e138) does it rescale L first; the two then agree to rounding
        # (S within 18 eps sigma_max in the tests' random systems).
        _, s, Vt = np.linalg.svd(np.linalg.qr(L, mode="r"), full_matrices=False)
        S[c], v9[c] = s, Vt[:, 8]
    return S, v9


def _intertwiner_spectrum(ev: Evaluation):
    """The intertwiner system's spectrum on a context and the orbit terms
    of its kernel section, the grid axis last: the singular values S (9, n),
    the right singular vector v9 of the smallest one (9, n), and, for the
    unit section g of v9 before its signs are aligned, the e1 term
    omega+_0 g - g omega-_0 (3, 3, n), the squared norms of the three orbit
    terms omega+_i g - g omega-_i (3, n), and max |omega+-| at each node
    (n,): 31 numbers per node to join, against 90 for S, v9 and omega+-."""
    ic_p, ic_m = ev.plus.induced, ev.minus.induced
    S, v9 = _factored_spectrum(ic_p.F_sd, ic_m.F_sd)
    # the terms omega+_i g - g omega-_i of the section while omega+- live;
    # an aligned sign negates a node's terms exactly, so only the e1 term is
    # kept signed, and the orbit terms by their squared norms
    g = _unit_section(v9)
    op, om = ic_p.omega.value, ic_m.omega.value
    d = np.moveaxis(op, -1, 0) @ g[:, None] - g[:, None] @ np.moveaxis(om, -1, 0)
    q = np.einsum("nipq,nipq->in", d[:, 1:], d[:, 1:])
    om_max = np.maximum(np.max(np.abs(op), axis=(0, 1, 2)), np.max(np.abs(om), axis=(0, 1, 2)))
    # the e1 term copied out, so that the join holds none of the other terms
    return S.T, v9.T, np.moveaxis(d[:, 0], 0, -1).copy(), q, om_max


def gauge_equivalence_probe(ev: Evaluation) -> GaugeProbeReport:
    """Probe whether the +H and -H induced connections are gauge equivalent.

    Per node, the kernel of F+(E) G = G F-(E) over the six 2-form
    directions is computed by singular value decomposition, tile by tile
    (:meth:`Evaluation.per_point`) and within a tile ``_CHUNK`` nodes at a
    time; :func:`probe_verdict` then reads the joined spectrum and orbit
    terms on the whole grid.
    """
    return probe_verdict(ev.pt, *ev.per_point(_intertwiner_spectrum))


def probe_verdict(pt: FramePoint, S, v9, e1_term, orbit_sq, om_max) -> GaugeProbeReport:
    """The probe's report on the grid of points ``pt``, from the arrays of
    :func:`_intertwiner_spectrum` on its nodes, the grid axis last: a
    one-dimensional kernel is continued in x and tested for covariant
    constancy under the product connection.  Its radial component is the
    e1 term, negated at the nodes whose sign the alignment flips, plus the
    x-derivative of the aligned section over the profile a of ``pt``; the
    orbit components enter by their squared norms, which no sign changes."""
    x, n = pt.x, pt.npoints
    # nodes first, the kernel vector contiguous: its norm sums as one context's
    S, v9 = S.T, np.ascontiguousarray(v9.T)
    sigma_max = S[:, 0]
    threshold_rel = 1e-7
    # when the curvature cancels identically, sigma_max itself is rounding
    # noise; the squared connection-coefficient scale supplies the floor
    om_scale = float(np.max(om_max)) ** 2
    tau = threshold_rel * np.maximum(sigma_max, max(om_scale, 1e-300))
    kdims = np.sum(S <= tau[:, None], axis=1)
    with np.errstate(divide="ignore"):
        min_gap = float(np.min(np.where(S[:, 8] > 0, S[:, 7] / np.maximum(S[:, 8], 1e-300),
                                        np.inf)))

    thr = 10.0 * threshold_rel * float(np.median(sigma_max))

    frac1 = float(np.mean(kdims == 1))
    frac9 = float(np.mean(kdims == 9))
    section = None
    sup_ng = np.nan
    inf_mid = np.nan
    if frac9 >= 0.95:
        verdict, notes = "equivalent", "curvature vanishes; every g intertwines"
    elif frac1 >= 0.95:
        # kernel section, sign-aligned along x
        section, flip = _align_signs(_unit_section(v9))

        # covariant derivative of the section under the product connection
        gp = np.gradient(section, x, axis=0)
        d0 = np.moveaxis(e1_term, -1, 0).copy()
        d0[flip] = -d0[flip]
        d0 = d0 + gp / pt.a.value[:, None, None]
        ng2 = np.einsum("npq,npq->n", d0, d0) + orbit_sq[0] + orbit_sq[1] + orbit_sq[2]
        ng = np.sqrt(ng2)
        sup_ng = float(np.max(ng))
        lo, hi = n // 4, (3 * n) // 4
        inf_mid = float(np.min(ng[lo:hi]))
        if sup_ng <= thr:
            verdict, notes = "equivalent", "kernel section is parallel"
        elif inf_mid > thr:
            verdict, notes = "inequivalent", "kernel section is nowhere parallel on the middle interval"
        else:
            verdict, notes = "inconclusive", "kernel section neither parallel nor uniformly non-parallel"
    else:
        verdict = "inconclusive"
        notes = f"kernel dimension not constant: fractions dim1={frac1:.2f}, dim9={frac9:.2f}"

    return GaugeProbeReport(
        x=x, kernel_dims=kdims, singular_values=S, min_gap=min_gap, threshold=thr,
        sup_nabla_g=float(sup_ng), inf_nabla_g_mid=float(inf_mid),
        verdict=verdict, notes=notes, section=section,
    )

