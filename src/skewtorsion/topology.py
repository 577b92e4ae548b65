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

:func:`hitchin_thorpe_report` is the one route to chi, tau and p1: it
integrates the three densities in one pass on the Gauss-Legendre rule of
2n nodes, one evaluation context read tile by tile
(:meth:`skewtorsion.evaluation.Evaluation.tiles`), each tile dropped
before the next is built, the tiles' densities joined before the exactly
rounded sums.  The error estimates, which compare against the rule of n
nodes, and the minimum p1 integrand on the n-point sample grid are built
only when the report's ``quadrature`` is first read: from one evaluation
of the chart and the torsion on the nodes of both grids together, cut
into a context per grid.  A scan row, which reads only chi, tau and p1,
evaluates the 2n nodes alone.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .charts import FramePoint, InvariantChart
from .connections import _fro
from .decomposition import einstein_residual, operator_blocks
from .evaluation import Evaluation

__all__ = [
    "TopologyReport", "integrate_invariant", "hitchin_thorpe_report",
    "curvature_integrands", "pontryagin_density",
]

DEFAULT_NODES = 256

# the report flags data whose Einstein residual exceeds EINSTEIN_THRESHOLD,
# and counts the inequality as satisfied down to -TOLERANCE
EINSTEIN_THRESHOLD = 1e-6
TOLERANCE = 1e-8


def _rule_sum(vals, pt: FramePoint, w: np.ndarray) -> np.ndarray:
    """Exactly rounded sums of ``vals`` x volume weight x ``w`` over the
    nodes ``pt`` of one rule: shape () for ``vals`` of shape (n,), (m,)
    for (m, n)."""
    vals = np.asarray(vals, dtype=float)
    if not np.all(np.isfinite(vals)):
        raise ValueError("integrand not finite at an interior node")
    terms = (vals * pt.chart.volume_weight(pt) * w).reshape(-1, vals.shape[-1])
    return np.array([math.fsum(r) for r in terms]).reshape(vals.shape[:-1])


def _integral(chart: InvariantChart, f, nodes: int) -> np.ndarray:
    """:func:`_rule_sum` of ``f`` on the chart's rule of ``nodes`` nodes."""
    x, w = chart.quadrature(nodes)
    pt = chart.at(x)
    return _rule_sum(f(pt), pt, w)


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
    A, B, C, D = operator_blocks(ev.plus.M)
    a2, b2, c2, d2 = (_fro(A) ** 2, _fro(B) ** 2, _fro(C) ** 2, _fro(D) ** 2)
    chi_dens = (a2 + d2 - b2 - c2) / (8.0 * math.pi ** 2)
    tau_dens = (a2 + b2 - c2 - d2) / (12.0 * math.pi ** 2)
    return chi_dens, tau_dens


@dataclass
class TopologyReport:
    chi: float
    tau: float
    p1_lambda_plus: float
    inequality_margin: float     # 2 chi - 3 |tau|
    satisfied: bool
    einstein_residual: float
    einstein_warning: bool
    # builds ``quadrature``, on its first read
    build_quadrature: Callable[[], dict] = field(repr=False, compare=False)

    @cached_property
    def quadrature(self) -> dict:
        """Node count, scheme, error estimates and minimum p1 integrand."""
        return self.build_quadrature()

    def to_dict(self) -> dict:
        return {
            "chi": self.chi,
            "tau": self.tau,
            "p1_lambda_plus": self.p1_lambda_plus,
            "margin": self.inequality_margin,
            "satisfied": self.satisfied,
            "einstein_residual": self.einstein_residual,
            "einstein_warning": self.einstein_warning,
            "quadrature": dict(self.quadrature),
        }


def pontryagin_density(ev: Evaluation) -> np.ndarray:
    """Chern-Weil density of p1(Lambda+) from the induced curvature of +H."""
    Fq = ev.plus.induced.curvature_2forms()          # (3, 6, n), true curvature scale
    plus = np.einsum("sr...,sr...->...", Fq[:, :3], Fq[:, :3])
    minus = np.einsum("sr...,sr...->...", Fq[:, 3:], Fq[:, 3:])
    return (plus - minus) / (4.0 * math.pi ** 2)


def _densities(ev: Evaluation) -> np.ndarray:
    """(3, n): the euler, signature and p1 densities, the tiles' joined."""
    return np.concatenate([(*curvature_integrands(tile), pontryagin_density(tile))
                           for tile in ev.tiles()], axis=-1)


def hitchin_thorpe_report(ev: Evaluation, nodes: int = DEFAULT_NODES) -> TopologyReport:
    """Topological constraint report 2 chi >= 3 |tau| for the given data.

    ``ev`` is the context on the sample grid, whose chart ``ev.pt.chart``
    and torsion ``ev.H`` (an :class:`InvariantForm`) are integrated on the
    rule of 2n nodes; the Einstein residual is read from ``ev`` itself.
    The inequality is asserted for Einstein data with skew torsion; when
    the Einstein residual exceeds ``EINSTEIN_THRESHOLD`` the report is
    still produced but flagged.  The report's ``quadrature`` (the error
    estimates against the rule of n nodes and the minimum p1 integrand on
    the n-point sample grid) is built on its first read.
    """
    chart, H = ev.pt.chart, ev.H
    values = _integral(chart, lambda pt: _densities(Evaluation(pt, H)), 2 * nodes)
    chi, tau, p1 = values.tolist()

    def build_quadrature() -> dict:
        x, w = chart.quadrature(nodes)
        both = Evaluation(chart.at(np.concatenate([x, chart.sample_grid(nodes)])), H)
        rule, sample = both[:nodes], both[nodes:]
        coarse = _rule_sum(_densities(rule), rule.pt, w)
        chi_err, tau_err, p1_err = np.abs(values - coarse).tolist()
        # minimum of the p1 integrand (scaled by 4 pi^2) on the sample grid
        p1_sample = np.concatenate([pontryagin_density(tile) for tile in sample.tiles()])
        return {
            "nodes": nodes, "scheme": "gauss-legendre (compactified, open)",
            "chi_error": chi_err, "tau_error": tau_err, "p1_error": p1_err,
            "p1_min_integrand": float(np.min(p1_sample) * 4.0 * math.pi ** 2),
        }

    e_res = einstein_residual(ev)
    margin = 2.0 * chi - 3.0 * abs(tau)
    return TopologyReport(
        chi=chi, tau=tau, p1_lambda_plus=p1,
        inequality_margin=margin,
        satisfied=bool(margin >= -TOLERANCE),
        einstein_residual=e_res,
        einstein_warning=bool(e_res > EINSTEIN_THRESHOLD),
        build_quadrature=build_quadrature,
    )
