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
operator.  The evaluation context caches that residual per connection
(``ConnectionData.lambda_plus_residual``), :func:`yang_mills_density_check`
reports it as ``block_residual_plus`` and ``block_residual_minus``, and
the tests bound it; the gauge probe and the Pontryagin density build no
curvature tensor.  The anti-self-dual part of the induced curvature is
exactly the block whose vanishing is the Einstein-with-torsion condition,
so for Einstein data the induced connection is an instanton.

The gauge probe compares the connections induced by torsions +H and -H.
A gauge transformation intertwining them is annihilated by the curvature
of the product connection, so its candidates per point are the kernel of
the 54x9 system F+(E) G - G F-(E) = 0 over the six 2-form directions E.
The kernel section, continued in x and normalized, is then tested for
covariant constancy.  The systems and their SVDs are built tile by tile
(:meth:`skewtorsion.evaluation.Evaluation.tiles`); the continuation and
the test run on the whole grid.

The diagnostics read the +-H connections, their curvature operators,
induced connections and residuals from an evaluation context
(:class:`skewtorsion.evaluation.Evaluation`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from . import frame as F
from . import jets
from .charts import FramePoint
from .connections import _fro, _structure_equation, _sym, _tf, AffineConnection, full_components
from .decomposition import operator_blocks

if TYPE_CHECKING:
    from .evaluation import Evaluation

__all__ = [
    "InducedConnection", "GaugeProbeReport", "induced_lambda_plus",
    "lambda_plus_block_residual",
    "self_duality_residual", "yang_mills_density_check", "killing_residual",
    "gauge_equivalence_probe",
]

# so(3) generators pairing the + basis: (T_s)_pq = eps_spq
_GEN = np.einsum("spq->spq", F._EPS3)

# curvature of the induced connection in the + basis equals this factor
# times the transposed [A | C] rows of the operator (calibrated on the
# round sphere)
LAMBDA_PLUS_CURVATURE_SCALE = np.sqrt(2.0)


@dataclass
class InducedConnection:
    """so(3)-valued connection on Lambda+ along a frame batch."""

    pt: FramePoint
    omega: jets.Jet             # connection forms omega[i, p, q], shape (4, 3, 3, n)
    F_sd: np.ndarray            # F paired with the six E_Q, shape (3, 3, 6, n)
    rows: np.ndarray            # F in generator components / scale: (3, 6, n)

    @classmethod
    def from_forms(cls, pt: FramePoint, omega: jets.Jet) -> "InducedConnection":
        """The connection with so(3) forms ``omega`` along ``pt`` and its
        curvature, paired with the +- basis and in generator rows."""
        Fm = _structure_equation(pt, omega)
        F_sd = 0.5 * np.einsum("qij,ijpr...->prq...", F.SD_WEIGHTS, Fm)
        rows = (0.5 * np.einsum("spq,pqm...->sm...", _GEN, F_sd)
                / LAMBDA_PLUS_CURVATURE_SCALE)
        return cls(pt=pt, omega=omega, F_sd=F_sd, rows=rows)

    def curvature_2forms(self) -> np.ndarray:
        """F^s as 2-forms in the +- basis, shape (3, 6, n) (true scale)."""
        return LAMBDA_PLUS_CURVATURE_SCALE * self.rows


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


def lambda_plus_block_residual(ic: InducedConnection, M: np.ndarray) -> float:
    """sup |rows - (A|C)^T| of an induced connection against ``M``, the 6x6
    curvature operator of the connection it was induced by.

    The direction index of the rows is the differentiation pair of R, so
    the induced curvature reproduces the Lambda+ input/output entries of
    the operator transposed.
    """
    A, _, Cb, _ = operator_blocks(M)
    AC = np.concatenate([np.einsum("pq...->qp...", A),
                         np.einsum("pq...->qp...", Cb)], axis=1)
    return float(np.max(np.abs(ic.rows - AC)))


def self_duality_residual(ic: InducedConnection) -> float:
    """Sup norm of the anti-self-dual part of the induced curvature.

    Reported on the operator scale, where it coincides with the Frobenius
    norm of the Einstein block, so it vanishes exactly when the data is
    Einstein with skew torsion.
    """
    return float(np.max(_fro(ic.rows[:, 3:])))


def yang_mills_density_check(ev: Evaluation) -> dict:
    """Pointwise Yang-Mills density identities for the +-H instanton pair.

    Returns sup norms of (i) density(+H) - density(-H) and (ii) each
    density against |W+|^2 + |s Id/12|^2 + |(d*H)+/2|^2, plus the densities
    themselves.  The identities are exact when the data is Einstein with
    closed torsion; the caller sees the residuals either way.  The last
    term is even in H, so both signs take it from the exterior data of H.
    """
    phi_p = F.components_in_sd_basis(ev.ext.dstar_H)[:3]
    out = {}
    dens = {}
    for cd, tag in ((ev.plus, "plus"), (ev.minus, "minus")):
        ic = cd.induced
        dens[tag] = np.einsum("sm...,sm...->...", ic.rows, ic.rows)
        out[f"block_residual_{tag}"] = cd.lambda_plus_residual
        rd = cd.ricci
        Wp = _tf(_sym(operator_blocks(cd.M)[0]), 3)
        formula = (np.einsum("pq...,pq...->...", Wp, Wp)
                   + 3.0 * (rd.scalar / 12.0) ** 2
                   + 0.25 * np.einsum("r...,r...->...", phi_p, phi_p))
        out[f"formula_residual_{tag}"] = float(np.max(np.abs(dens[tag] - formula)))
    out["pair_residual"] = float(np.max(np.abs(dens["plus"] - dens["minus"])))
    out["density"] = dens["plus"]
    return out


def killing_residual(ev: Evaluation) -> dict:
    """Sup norm of S(D^g h) for h = *H, with the closedness of H checked."""
    ext = ev.ext
    dH_sup = float(np.max(np.abs(full_components(ext.dH, ev.pt))))
    return {
        "killing_residual": float(np.max(_fro(ext.sym_grad_h))),
        "dH_sup": dH_sup,
        "closed": dH_sup <= 1e-10,
    }


@dataclass
class GaugeProbeReport:
    """Outcome of the +-H gauge-equivalence probe on Lambda+."""

    x: np.ndarray
    kernel_dims: np.ndarray
    singular_values: np.ndarray   # (n, 9)
    gaps: np.ndarray              # sigma_8 / sigma_9 per node
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
            "min_gap": float(np.min(self.gaps)),
            "threshold": self.threshold,
            "sup_nabla_g": self.sup_nabla_g,
            "inf_nabla_g_mid": self.inf_nabla_g_mid,
            "notes": self.notes,
        }


def _intertwiner_system(Fp: np.ndarray, Fm: np.ndarray) -> np.ndarray:
    """The (n, 54, 9) matrices of G -> F+(E_m) G - G F-(E_m) per node.

    ``Fp`` and ``Fm`` hold F(E_m) as 3x3 matrices, shape (n, 6, 3, 3).  Row
    (m, p, q) and column (a, b) carry Fp[m, p, a] delta_qb - delta_pa
    Fm[m, b, q].  Adding into zeros reads -0.0 as +0.0, so L equals
    ``einsum("nmpa,qb->nmpqab", Fp, I) - einsum("pa,nmbq->nmpqab", I, Fm)``
    bitwise, signs of zeros included.
    """
    n = Fp.shape[0]
    L = np.zeros((n, 6, 3, 3, 3, 3))
    FmT = np.swapaxes(Fm, 2, 3)
    for q in range(3):
        L[:, :, :, q, :, q] += Fp
        L[:, :, q, :, q, :] -= FmT
    return L.reshape(n, 54, 9)


def _align_signs(g: np.ndarray) -> np.ndarray:
    """Section ``g`` (n, 3, 3) with signs continued along the nodes, in place.

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
    return g


def _intertwiner_spectrum(ev: Evaluation):
    """(S, Vt[:, 8], omega+, omega-) of the intertwiner system on a context:
    the singular values (n, 9), the right singular vector of the smallest
    one (n, 9) and the induced connection values (4, 3, 3, n) of +-H."""
    ic_p, ic_m = ev.plus.induced, ev.minus.induced
    # F(E_Q) as 3x3 matrices per node: shape (6, 3, 3, n) -> (n, 6, 3, 3)
    Fp = np.einsum("pqm...->...mpq", ic_p.F_sd)
    Fm = np.einsum("pqm...->...mpq", ic_m.F_sd)
    # only S and the right singular vectors are used: the reduced SVD gives
    # them without the (n, 54, 54) left factor
    _, S, Vt = np.linalg.svd(_intertwiner_system(Fp, Fm), full_matrices=False)
    return S, Vt[:, 8], ic_p.omega.value, ic_m.omega.value


def gauge_equivalence_probe(ev: Evaluation) -> GaugeProbeReport:
    """Probe whether the +H and -H induced connections are gauge equivalent.

    Per node, the kernel of F+(E) G = G F-(E) over the six 2-form
    directions is computed by singular value decomposition; a
    one-dimensional kernel is continued in x and tested for covariant
    constancy under the product connection.
    """
    pt = ev.pt
    x = pt.x
    n = pt.npoints
    # per tile: the singular values, the last right singular vector and the
    # connection values; every later step reads them on the whole grid
    parts = list(zip(*(_intertwiner_spectrum(tile) for tile in ev.tiles())))
    S, v9 = np.concatenate(parts[0]), np.concatenate(parts[1])
    omp, omm = np.concatenate(parts[2], axis=-1), np.concatenate(parts[3], axis=-1)
    sigma_max = S[:, 0]
    threshold_rel = 1e-7
    # when the curvature cancels identically, sigma_max itself is rounding
    # noise; the squared connection-coefficient scale supplies the floor
    om_scale = max(float(np.max(np.abs(omp))), float(np.max(np.abs(omm)))) ** 2
    tau = threshold_rel * np.maximum(sigma_max, max(om_scale, 1e-300))
    kdims = np.sum(S <= tau[:, None], axis=1)
    with np.errstate(divide="ignore"):
        gaps = np.where(S[:, 8] > 0, S[:, 7] / np.maximum(S[:, 8], 1e-300), np.inf)

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
        g = v9.reshape(n, 3, 3)
        g /= np.linalg.norm(g.reshape(n, 9), axis=1)[:, None, None]
        section = g = _align_signs(g)

        # covariant derivative of the section under the product connection
        gp = np.gradient(g, x, axis=0)
        a_val = pt.a.value
        ng2 = np.zeros(n)
        for i in range(4):
            wp = np.moveaxis(omp[i], -1, 0)
            wm = np.moveaxis(omm[i], -1, 0)
            di = wp @ g - g @ wm
            if i == 0:
                di = di + gp / a_val[:, None, None]
            ng2 += np.einsum("npq,npq->n", di, di)
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
        x=x, kernel_dims=kdims, singular_values=S, gaps=gaps, threshold=thr,
        sup_nabla_g=float(sup_ng), inf_nabla_g_mid=float(inf_mid),
        verdict=verdict, notes=notes, section=section,
    )

