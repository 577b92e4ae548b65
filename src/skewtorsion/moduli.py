"""Invariant almost complex structures and the radial holomorphic coordinate.

The natural pairing on these charts takes (1,0)-forms spanned by
a dx + i c s3 and s1 + i s2, i.e. J e1 = e4, J e2 = e3 in the orthonormal
frame.  Integrability is measured by the Nijenhuis tensor evaluated
through the frame brackets; the pairing above is integrable for any
profiles, while pairings mixing the radial direction with s1 or s2 are
not unless b = c.  :func:`nijenhuis_norm` reads the brackets of an
evaluated frame point, such as the ``pt`` of an evaluation context.

For the S^4 family, a holomorphic radial coordinate R solves
f dR = a dx, f R = c, so log R = Int a/c dx with a/c evaluated in the
cancelled form (k - x)/(W (1 + x^2)); R grows like 1/(k - x) at the
orbit-collapse end and like 1/|x| at -infinity, which the asymptotic
check fits numerically.

The integral is taken in u = log(k - x), where the integrand
-(k - x)^2 / (W (1 + x^2)) is smooth and tends to constants at both ends,
by a composite Gauss-Legendre rule of PANEL_ORDER nodes on panels at most
PANEL_WIDTH wide in u, graded toward the poles at x = +-i when large k
brings them near the real u axis.  Only the values of a/c are read, so W
is evaluated on order-0 jets, and once per call: :func:`asymptotic_check`
evaluates it on the panel nodes of its three integrals together, each of
which keeps its own panels and reduction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import jets
from .charts import BonneauFamily, ChartError, FramePoint, gauss_legendre

__all__ = [
    "InvariantACS", "acs_radial", "nijenhuis_norm",
    "r_coordinate", "r_curve", "asymptotic_check",
]

# composite rule for log R in u = log(k - x): panel width in u and nodes per
# panel (refinement table in CHANGES.md)
PANEL_WIDTH = 0.5
PANEL_ORDER = 16


@dataclass(frozen=True)
class InvariantACS:
    """Constant orthogonal almost complex structure in the invariant frame."""

    matrix: tuple  # 4x4, J e_j = sum_i matrix[i][j] e_i

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (4, 4):
            raise ValueError("J must be 4x4")
        if np.max(np.abs(m @ m + np.eye(4))) > 1e-12:
            raise ValueError("J^2 must be -Id")
        if np.max(np.abs(m.T @ m - np.eye(4))) > 1e-12:
            raise ValueError("J must be orthogonal")

    @property
    def J(self) -> np.ndarray:
        return np.asarray(self.matrix, dtype=float)


def acs_radial() -> InvariantACS:
    """J e1 = e4, J e2 = e3: the integrable invariant pairing."""
    return InvariantACS(((0, 0, 0, -1), (0, 0, -1, 0), (0, 1, 0, 0), (1, 0, 0, 0)))


def nijenhuis_norm(pt: FramePoint, J: InvariantACS) -> float:
    """Sup norm of N(e_i, e_j) over frame pairs and the points of ``pt``."""
    c = pt.brackets
    Jm = J.J
    # [JX, JY] - J[JX, Y] - J[X, JY] - [X, Y] on frame fields; J constant
    jj = np.einsum("ai,bj,abk...->ijk...", Jm, Jm, c)
    j1 = np.einsum("ai,ajm...,km->ijk...", Jm, c, Jm)
    j2 = np.einsum("bj,ibm...,km->ijk...", Jm, c, Jm)
    N = jj - j1 - j2 - c
    return float(np.max(np.abs(N)))


def quad(f, bounds) -> list:
    """Integrals of f over the intervals [lo[i], hi[i]] of each (lo, hi) pair
    in ``bounds``, by a composite Gauss-Legendre rule.

    Each interval is cut into the fewest equal panels no wider than
    PANEL_WIDTH, with PANEL_ORDER nodes each; f is called once, on the
    nodes of every panel of every interval of every pair.  Each pair is
    reduced by its own ``vals @ w``, since a product over the stacked
    panels of all pairs need not round like the per-pair products.
    Returns one array of integrals per pair.
    """
    t, w = gauss_legendre(PANEL_ORDER)
    rules = []
    for lo, hi in bounds:
        lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
        panels = np.maximum(np.ceil(np.abs(hi - lo) / PANEL_WIDTH), 1.0).astype(int)
        seg = np.repeat(np.arange(len(lo)), panels)
        h = ((hi - lo) / panels)[seg]
        j = np.arange(len(seg)) - np.repeat(np.cumsum(panels) - panels, panels)
        rules.append((len(lo), seg, h, (lo[seg] + j * h)[:, None] + h[:, None] * t))
    vals = f(np.concatenate([nodes.ravel() for *_, nodes in rules]))
    ends = np.cumsum([nodes.size for *_, nodes in rules])
    return [np.bincount(seg, weights=h * (v.reshape(nodes.shape) @ w), minlength=m)
            for (m, seg, h, nodes), v in zip(rules, np.split(vals, ends[:-1]))]


def _pole_breaks(k: float) -> np.ndarray:
    """Breakpoints in u that grade the panels toward the poles at t = +-i.

    In u = log(k - t) those poles sit at log|k - i| +- i arg(k - i), a
    distance d = atan2(1, k) off the real axis, which shrinks like 1/k for
    large k.  When d is below PANEL_WIDTH, segments doubling in length
    away from log|k - i| keep every panel no wider than its distance from
    the poles, so each converges at a fixed rate in PANEL_ORDER.
    """
    d = math.atan2(1.0, k)
    if d >= PANEL_WIDTH:
        return np.empty(0)
    steps = d * 2.0 ** np.arange(math.ceil(math.log2(PANEL_WIDTH / d)) + 1)
    centre = 0.5 * math.log1p(k * k)
    return np.concatenate([[centre], centre - steps, centre + steps])


def r_coordinate(k: float, x, x0: float) -> np.ndarray:
    """Holomorphic radius R(x) = exp Int_{x0}^{x} a/c dt, with R(x0) = 1.

    R underflows to 0 where log R < -745 (x = -1e7 at k = 1000); the
    integral itself is :func:`_log_r`.
    """
    out = np.exp(_log_r(k, [np.atleast_1d(np.asarray(x, dtype=float))], x0)[0])
    return out if np.ndim(x) else float(out[0])


def _log_r(k: float, queries, x0: float) -> list:
    """log R(x) = Int_{x0}^{x} a/c dt at the points of each 1-d array in
    ``queries``, one array of values per query array.

    The integral is taken in u = log(k - t), where the integrand
    g(u) = -(a/c)(t) (k - t) = -(k - t)^2 / (W (1 + t^2)) is smooth and
    tends to constants at both ends (W has a double root at k and tends
    to 1), so panels of fixed width in u resolve every decade of k - t
    alike: :func:`quad` with PANEL_WIDTH and PANEL_ORDER, graded toward
    the poles at t = +-i when they come close (:func:`_pole_breaks`).
    The points of one query array and x0 split u into consecutive
    segments, and a cumulative sum joins them.  Every query array keeps
    its own segments and panels, so its values do not depend on the other
    arrays; a/c is evaluated once, on the panel nodes of all of them.
    A panel node where a/c is not finite and positive (W is not, there)
    raises :class:`ChartError`.
    """
    fam = BonneauFamily(k)
    if not (all(np.all(np.isfinite(xs)) for xs in queries) and math.isfinite(x0)):
        raise ChartError("x and x0 must be finite")
    if any(np.any(xs >= k) for xs in queries) or x0 >= k:
        raise ChartError("x must lie below k")

    def g(u):
        # k - t from the rounded t, not exp(u): near k the two differ by
        # eps k / (k - t) relative, while g as a function of t is exact;
        # only values are read, so W is evaluated at order 0
        t = k - np.exp(u)
        ac = jets.value_of(fam.a_over_c(jets.Jet.constant(t, 0)))
        good = (ac > 0.0) & (ac < math.inf)
        if not np.all(good):
            raise ChartError(f"a/c not positive for k={k}: a/c({t[~good][0]:.6g}) = "
                             f"{ac[~good][0]:.3e}")
        return -(k - t) * ac

    u0 = math.log(k - x0)
    breaks = _pole_breaks(k)
    grids = []
    for xs in queries:
        uq = np.log(k - xs)
        ends = np.concatenate([uq, [u0]])
        inner = breaks[(breaks > ends.min()) & (breaks < ends.max())]
        grids.append((uq, np.unique(np.concatenate([ends, inner]))))
    out = []
    for (uq, u), seg in zip(grids, quad(g, [(u[:-1], u[1:]) for _, u in grids])):
        cum = np.concatenate([[0.0], np.cumsum(seg)])
        out.append(cum[np.searchsorted(u, uq)] - cum[np.searchsorted(u, u0)])
    return out


def r_curve(k: float, nodes: int = 200, x0: float | None = None):
    """(x, R(x)) on the chart's ``nodes``-point sample grid, with R = 1 at
    x0, by default the middle node."""
    from .charts import bonneau_chart
    chart, _ = bonneau_chart(k)
    x = chart.sample_grid(nodes)
    if x0 is None:
        x0 = float(x[len(x) // 2])
    return x, r_coordinate(k, x, x0)


def _fit_slope(logr: np.ndarray, logt: np.ndarray) -> float:
    A = np.vstack([logt, np.ones_like(logt)]).T
    coef, *_ = np.linalg.lstsq(A, logr, rcond=None)
    return float(coef[0])


def asymptotic_check(k: float, decade_points: int = 12) -> dict:
    """Slopes of log R against the model divergences at both ends.

    Near x = k the fit is against -log(k - x) over k - x in
    [1e-7, 1e-6]; near -infinity against -log|x| over |x| in [1e6, 1e7].
    Both slopes tend to 1.  The fits take log R directly, which stays
    finite where R itself underflows.  The two fits and the monotonicity
    of R on 40 points below k share one evaluation of W.
    """
    x0 = k - 1.0
    t = np.geomspace(1e-7, 1e-6, decade_points)
    s = np.geomspace(1e6, 1e7, decade_points)
    log_k, log_inf, log_mono = _log_r(
        k, [k - t, -s, np.linspace(x0 - 5.0, k - 1e-3, 40)], x0)
    slope_k = _fit_slope(log_k, -np.log(t))
    slope_inf = _fit_slope(log_inf, -np.log(s))
    mono = np.all(np.diff(np.exp(log_mono)) > 0)
    return {
        "slope_at_k": slope_k,
        "slope_at_minus_infinity": slope_inf,
        "monotone": bool(mono),
    }
