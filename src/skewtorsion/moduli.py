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
brings them near the real u axis.  All segments of one call share one
vectorized evaluation of a/c.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import jets
from .charts import BonneauFamily, ChartError, FramePoint, gauss_legendre

__all__ = [
    "InvariantACS", "acs_radial", "acs_swapped", "nijenhuis_norm",
    "r_coordinate", "r_curve", "write_r_curve_csv", "asymptotic_check",
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


def _pairing(i1, j1, i2, j2) -> InvariantACS:
    m = np.zeros((4, 4))
    m[j1, i1] = 1.0
    m[i1, j1] = -1.0
    m[j2, i2] = 1.0
    m[i2, j2] = -1.0
    return InvariantACS(tuple(map(tuple, m)))


def acs_radial() -> InvariantACS:
    """J e1 = e4, J e2 = e3: the integrable invariant pairing."""
    return _pairing(0, 3, 1, 2)


def acs_swapped() -> InvariantACS:
    """J e1 = e2, J e3 = e4: pairs the radial direction with an s1 orbit
    direction; not integrable unless b = c."""
    return _pairing(0, 1, 2, 3)


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


def quad(f, lo, hi) -> np.ndarray:
    """Integrals of f over [lo[i], hi[i]] by a composite Gauss-Legendre rule.

    Each interval is cut into the fewest equal panels no wider than
    PANEL_WIDTH, with PANEL_ORDER nodes each; f is called once, on the
    nodes of every panel of every interval.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    panels = np.maximum(np.ceil(np.abs(hi - lo) / PANEL_WIDTH), 1.0).astype(int)
    seg = np.repeat(np.arange(len(lo)), panels)
    h = ((hi - lo) / panels)[seg]
    j = np.arange(len(seg)) - np.repeat(np.cumsum(panels) - panels, panels)
    t, w = gauss_legendre(PANEL_ORDER)
    nodes = (lo[seg] + j * h)[:, None] + h[:, None] * t
    vals = f(nodes.ravel()).reshape(nodes.shape)
    return np.bincount(seg, weights=h * (vals @ w), minlength=len(lo))


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
    out = np.exp(_log_r(k, np.atleast_1d(np.asarray(x, dtype=float)), x0))
    return out if np.ndim(x) else float(out[0])


def _log_r(k: float, xs: np.ndarray, x0: float) -> np.ndarray:
    """log R(x) = Int_{x0}^{x} a/c dt at the points of the 1-d array ``xs``.

    The integral is taken in u = log(k - t), where the integrand
    g(u) = -(a/c)(t) (k - t) = -(k - t)^2 / (W (1 + t^2)) is smooth and
    tends to constants at both ends (W has a double root at k and tends
    to 1), so panels of fixed width in u resolve every decade of k - t
    alike: :func:`quad` with PANEL_WIDTH and PANEL_ORDER, graded toward
    the poles at t = +-i when they come close (:func:`_pole_breaks`).
    The query points and x0 split u into consecutive segments, all of
    which share one vectorized evaluation of a/c; a cumulative sum joins
    them.
    """
    fam = BonneauFamily(k)
    if not (np.all(np.isfinite(xs)) and math.isfinite(x0)):
        raise ChartError("x and x0 must be finite")
    if np.any(xs >= k) or x0 >= k:
        raise ChartError("x must lie below k")

    def g(u):
        # k - t from the rounded t, not exp(u): near k the two differ by
        # eps k / (k - t) relative, while g as a function of t is exact;
        # order 1 is the lowest jets.arctan accepts
        t = k - np.exp(u)
        return -(k - t) * jets.value_of(fam.a_over_c(jets.Jet.constant(t, 1)))

    uq, u0 = np.log(k - xs), math.log(k - x0)
    ends = np.concatenate([uq, [u0]])
    breaks = _pole_breaks(k)
    breaks = breaks[(breaks > ends.min()) & (breaks < ends.max())]
    u = np.unique(np.concatenate([ends, breaks]))
    cum = np.concatenate([[0.0], np.cumsum(quad(g, u[:-1], u[1:]))])
    return cum[np.searchsorted(u, uq)] - cum[np.searchsorted(u, u0)]


def r_curve(k: float, nodes: int = 200, x0: float | None = None):
    """(x, R(x)) samples across the compactified domain, for CSV export."""
    from .charts import bonneau_chart
    chart, _ = bonneau_chart(k)
    x = chart.sample_grid(nodes)
    if x0 is None:
        x0 = float(x[len(x) // 2])
    return x, r_coordinate(k, x, x0)


def write_r_curve_csv(path: str, k: float, nodes: int = 200,
                      x0: float | None = None) -> None:
    """Export (x, R(x)) as CSV with full-precision floats."""
    import csv
    x, r = r_curve(k, nodes=nodes, x0=x0)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["x", "R"])
        for xi, ri in zip(x, r):
            w.writerow([format(xi, ".17g"), format(ri, ".17g")])


def _fit_slope(logr: np.ndarray, logt: np.ndarray) -> float:
    A = np.vstack([logt, np.ones_like(logt)]).T
    coef, *_ = np.linalg.lstsq(A, logr, rcond=None)
    return float(coef[0])


def asymptotic_check(k: float, decade_points: int = 12) -> dict:
    """Slopes of log R against the model divergences at both ends.

    Near x = k the fit is against -log(k - x) over k - x in
    [1e-7, 1e-6]; near -infinity against -log|x| over |x| in [1e6, 1e7].
    Both slopes tend to 1.  The fits take log R directly, which stays
    finite where R itself underflows.
    """
    x0 = k - 1.0
    t = np.geomspace(1e-7, 1e-6, decade_points)
    slope_k = _fit_slope(_log_r(k, k - t, x0), -np.log(t))

    s = np.geomspace(1e6, 1e7, decade_points)
    slope_inf = _fit_slope(_log_r(k, -s, x0), -np.log(s))

    mono = np.all(np.diff(r_coordinate(k, np.linspace(x0 - 5.0, k - 1e-3, 40), x0)) > 0)
    return {
        "slope_at_k": slope_k,
        "slope_at_minus_infinity": slope_inf,
        "monotone": bool(mono),
    }
