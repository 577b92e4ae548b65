"""Curvature integrals: Euler characteristic, signature, Pontryagin class.

For any metric connection the Euler and signature forms are the
Chern-Weil polynomials of its curvature, which in the self-dual block
splitting [[A, B], [C, D]] reduce to Frobenius combinations

    chi = 1/(8 pi^2)  Int (|A|^2 + |D|^2 - |B|^2 - |C|^2) vol
    tau = 1/(12 pi^2) Int (|A|^2 + |B|^2 - |C|^2 - |D|^2) vol.

For the Levi-Civita connection these coincide with the familiar traces of
(*R)^2 and R*R; for torsion connections the blocks are not symmetric and
the squared norms (rather than the traces of the squares, which differ by
the antisymmetric parts) are the expressions that integrate to the
topological invariants.  The first Pontryagin number of Lambda+ is
computed independently from the induced so(3) curvature.

:func:`chern_weil_rows` is the one route to chi, tau, p1 and the margin
2 chi - 3 |tau|: it integrates the three densities in one pass on one
context of Gauss-Legendre rules laid end to end, read tile by tile and
joined (:meth:`skewtorsion.evaluation.Evaluation.per_point`) before each
rule's exactly rounded sums; :func:`chern_weil_integrals` is its form on
one rule.  :func:`hitchin_thorpe_report` builds the ``topology``
block of ``report`` on it: the values on the rule of 2n nodes, their
error estimates against the rule of n nodes, and the minimum p1 integrand
on the n-point sample grid.  Both read their grids from the caller's
:class:`skewtorsion.evaluation.Grids`, one evaluation of the chart and
the torsion on every grid of the command (:func:`report_grids`), and cut
each grid's context only when they read it.  A scan, whose rows read
only chi, tau and p1, calls :func:`chern_weil_rows` on every row's rule
of 2n nodes at once, so it evaluates no estimate grid.
"""

from __future__ import annotations

import math

import numpy as np

from .charts import ChartError, FramePoint, InvariantChart
from .connections import _fro
from .evaluation import Evaluation, Grids, sup
from .instanton import LAMBDA_PLUS_CURVATURE_SCALE

__all__ = [
    "integrate_invariant", "chern_weil_integrals", "chern_weil_rows", "hitchin_thorpe_report",
    "report_grids", "curvature_integrands", "pontryagin_density",
]

DEFAULT_NODES = 256
SAMPLE_GRID = 64  # grid of a report's Einstein residual and of the scan rows

# the report flags data whose Einstein residual exceeds EINSTEIN_THRESHOLD,
# and counts the inequality as satisfied down to -TOLERANCE
EINSTEIN_THRESHOLD = 1e-6
TOLERANCE = 1e-8


def _rule_sum(vals, pt: FramePoint, w: np.ndarray, rows: int = 1) -> np.ndarray:
    """Exactly rounded sums of ``vals`` x volume weight x ``w`` over each of
    ``rows`` rules of equal length laid end to end at the nodes ``pt``:
    shape (rows,) for ``vals`` of shape (n,), (m, rows) for (m, n).  A
    geometry that overflows gives an integrand or weighted term that is
    not finite, which raises :class:`ChartError`."""
    vals = np.asarray(vals, dtype=float)
    with np.errstate(invalid="ignore", over="ignore"):
        terms = vals * pt.chart.volume_weight(pt) * w
    if not np.all(np.isfinite(terms)):
        raise ChartError("integrand not finite at an interior node")
    sums = [math.fsum(r) for r in terms.reshape(-1, vals.shape[-1] // rows)]
    return np.array(sums).reshape(vals.shape[:-1] + (rows,))


def _integral(chart: InvariantChart, f, nodes: int) -> np.ndarray:
    """:func:`_rule_sum` of ``f`` on the chart's rule of ``nodes`` nodes."""
    x, w = chart.quadrature(nodes)
    pt = chart.at(x)
    return _rule_sum(f(pt), pt, w)[..., 0]


def integrate_invariant(chart: InvariantChart, f, nodes: int = DEFAULT_NODES):
    """Integrals of invariant scalars against the volume form.

    ``f`` maps a FramePoint batch of n points to values of shape (n,), or
    (m, n) for m integrands at once; open Gauss-Legendre nodes in the
    compactified coordinate avoid the orbit-degeneration endpoints.
    Returns (value, error_estimate), as floats or as lists of m floats:
    the value is that of the rule of 2n nodes, the estimate its distance
    from the rule of n nodes.
    """
    v, v2 = _integral(chart, f, nodes), _integral(chart, f, 2 * nodes)
    return v2.tolist(), np.abs(v2 - v).tolist()


def curvature_integrands(ev: Evaluation):
    """(euler, signature) densities of the +H connection, per node."""
    A, B, C, D = ev.plus.blocks
    a2, b2, c2, d2 = (_fro(A) ** 2, _fro(B) ** 2, _fro(C) ** 2, _fro(D) ** 2)
    chi_dens = (a2 + d2 - b2 - c2) / (8.0 * math.pi ** 2)
    tau_dens = (a2 + b2 - c2 - d2) / (12.0 * math.pi ** 2)
    return chi_dens, tau_dens


def pontryagin_density(ev: Evaluation) -> np.ndarray:
    """Chern-Weil density of p1(Lambda+) from the induced curvature of +H."""
    Fq = LAMBDA_PLUS_CURVATURE_SCALE * ev.plus.induced.rows  # (3, 6, n), true curvature scale
    plus = np.einsum("sr...,sr...->...", Fq[:, :3], Fq[:, :3])
    minus = np.einsum("sr...,sr...->...", Fq[:, 3:], Fq[:, 3:])
    return (plus - minus) / (4.0 * math.pi ** 2)


def report_grids(chart: InvariantChart, H, nodes: int = DEFAULT_NODES,
                 check: int | None = None) -> Grids:
    """The grids of a constraint report, in one evaluation: ``sample``, the
    ``SAMPLE_GRID`` points of the Einstein residual; ``rule``, the rule of
    2n nodes; ``check``, the grid of that many points of the caller's
    other checks, if given; ``coarse``, the rule of n nodes; and
    ``p1_sample``, the n-point sample grid of the minimum p1 integrand.
    They come in the order the report reads them, which is the order of
    their refusals."""
    grids = {"sample": chart.sample_grid(SAMPLE_GRID), "rule": chart.quadrature(2 * nodes)}
    if check is not None:
        grids["check"] = chart.sample_grid(check)
    grids.update(coarse=chart.quadrature(nodes), p1_sample=chart.sample_grid(nodes))
    return Grids(chart, H, grids)


def chern_weil_rows(ev: Evaluation, w: np.ndarray, rows: int = 1) -> list:
    """chi, tau, p1(Lambda+) and the margin 2 chi - 3 |tau| of each of
    ``rows`` rules of equal length laid end to end in the context ``ev``,
    with weights ``w``."""
    sums = _rule_sum(ev.per_point(lambda t: (*curvature_integrands(t), pontryagin_density(t))),
                     ev.pt, w, rows)
    return [{"chi": chi, "tau": tau, "p1_lambda_plus": p1, "margin": 2.0 * chi - 3.0 * abs(tau)}
            for chi, tau, p1 in sums.T.tolist()]


def chern_weil_integrals(grids: Grids, rule="rule") -> dict:
    """chi, tau, p1(Lambda+) and the margin 2 chi - 3 |tau|, integrated in
    one pass on the rule ``grids[rule]``, its context cut here and dropped
    on return."""
    return chern_weil_rows(grids[rule], grids.weights[rule])[0]


def hitchin_thorpe_report(ev: Evaluation, grids: Grids) -> dict:
    """Topological constraint report 2 chi >= 3 |tau| for the given data:
    the ``topology`` block of ``report``.

    chi, tau and p1 are integrated on the rule of 2n nodes
    ``grids["rule"]``; the Einstein residual is read from ``ev``, the
    context of the sample grid.  The inequality is asserted for Einstein
    data with skew torsion; when the Einstein residual exceeds
    ``EINSTEIN_THRESHOLD`` the report is still produced but flagged.  Under
    ``quadrature`` come the error estimates against the rule of n nodes
    ``grids["coarse"]`` and the minimum p1 integrand on the n-point sample
    grid ``grids["p1_sample"]``.
    """
    top = chern_weil_integrals(grids)
    e_res = sup(ev.einstein_norm())
    coarse = chern_weil_integrals(grids, "coarse")
    # minimum of the p1 integrand (scaled by 4 pi^2) on the sample grid
    p1_sample = grids["p1_sample"].per_point(pontryagin_density)
    return {
        **top,
        "satisfied": bool(top["margin"] >= -TOLERANCE),
        "einstein_residual": e_res,
        "einstein_warning": bool(e_res > EINSTEIN_THRESHOLD),
        "quadrature": {
            "nodes": len(grids.weights["coarse"]), "scheme": "gauss-legendre (compactified, open)",
            "chi_error": abs(top["chi"] - coarse["chi"]),
            "tau_error": abs(top["tau"] - coarse["tau"]),
            "p1_error": abs(top["p1_lambda_plus"] - coarse["p1_lambda_plus"]),
            "p1_min_integrand": float(np.min(p1_sample) * 4.0 * math.pi ** 2),
        },
    }
