"""Cohomogeneity-one chart machinery for oriented 4-manifolds.

A chart is an interval (or circle) of a transverse coordinate x crossed
with an SU(2) (or T^3) orbit, carrying the diagonal metric

    ds^2 = a(x)^2 dx^2 + b(x)^2 [(s1)^2 + (s2)^2] + c(x)^2 (s3)^2

in a basis of invariant one-forms with ds^i = (1/2) eps_ijk s^j ^ s^k, so
that (1/4) sum (s^i)^2 is the unit round 3-sphere.  The oriented
orthonormal frame is e1 = (1/a) d/dx, e2 = b s1-dual, e3 = b s2-dual,
e4 = c s3-dual, with volume a b^2 c dx ^ s1 ^ s2 ^ s3.

Profiles are jet-transparent callables, so every downstream quantity
(brackets, connection coefficients, curvature) differentiates exactly.
A chart evaluates its three profiles once per point batch from one
callable, so what they share (the Bonneau conformal factor W, the random
charts' sin/cos pass) is computed once, and invariant forms read their
components off the resulting :class:`FramePoint`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

from . import jets
from .jets import DEFAULT_ORDER, Jet
from .frame import KForm, MULTI_INDICES

__all__ = [
    "ChartError", "Domain", "InvariantChart", "FramePoint",
    "InvariantForm", "BonneauFamily", "bonneau_chart",
    "round_s4_chart", "product_chart", "flat_torsion", "flat_torus_chart",
    "random_chart", "random_torsion", "random_one_form", "chart_and_torsion",
    "gauss_legendre",
]

# integral of s1^s2^s3 over the orbit, by structure mode: SU(2) or T^3
ORBIT_VOLUME = {"su2": 16.0 * math.pi ** 2, "abelian": (2.0 * math.pi) ** 3}


@lru_cache(maxsize=32)
def gauss_legendre(n: int):
    """n-point Gauss-Legendre nodes and weights on (0, 1), computed once per n.

    The arrays are shared by every caller and thread, so they are read-only.
    The cache keeps the 32 most recent rules; a report uses two (n, 2n).
    """
    un, uw = np.polynomial.legendre.leggauss(n)
    u, w = 0.5 * (un + 1.0), 0.5 * uw
    u.flags.writeable = False
    w.flags.writeable = False
    return u, w


class ChartError(ValueError):
    """Invalid chart parameters (positivity failure, bad domain)."""


@dataclass(frozen=True)
class Domain:
    lo: float
    hi: float
    periodic: bool = False


@dataclass
class InvariantChart:
    """Immutable chart: profiles, domain, orbit structure and quadrature map.
    ``profiles(x)`` gives the jets (a, b, c) at the seed jet x of a batch."""

    name: str
    profiles: Callable[[Jet], tuple[Jet, Jet, Jet]]
    domain: Domain
    structure_mode: str = "su2"  # or "abelian": a key of ORBIT_VOLUME
    params: dict = field(default_factory=dict)

    def at(self, x) -> "FramePoint":
        """Frame data at interior points x (scalar or 1-d array)."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        lo, hi = self.domain.lo, self.domain.hi
        if not self.domain.periodic:
            if np.any(x <= lo) or np.any(x >= hi):
                raise ChartError(f"x outside open domain ({lo}, {hi})")
        seed = Jet.variable(x, DEFAULT_ORDER)
        a, b, c = self.profiles(seed)
        for name, p in (("a", a), ("b", b), ("c", c)):
            if np.any(jets.value_of(p) <= 0.0):
                bad = x[np.asarray(jets.value_of(p)) <= 0.0]
                raise ChartError(f"profile {name} not positive at x={bad[:3]}")
        return FramePoint(self, seed, a, b, c)

    # -- grids ---------------------------------------------------------------

    def map_from_unit(self, u: np.ndarray):
        """(x, dx/du) for u in (0,1).

        A bounded domain maps affinely; a half-infinite domain (-inf, hi)
        is compactified by x = hi - tan(pi u / 2).
        """
        u = np.asarray(u, dtype=float)
        lo, hi = self.domain.lo, self.domain.hi
        if lo == -math.inf:
            t = np.tan(0.5 * np.pi * u)
            return hi - t, -(0.5 * np.pi) * (1.0 + t * t)
        return lo + (hi - lo) * u, np.full_like(u, hi - lo)

    def quadrature(self, n: int):
        """Gauss-Legendre nodes/weights in x, including the |dx/du| factor."""
        u, uw = gauss_legendre(n)
        x, dxdu = self.map_from_unit(u)
        w = uw * np.abs(dxdu)
        order = np.argsort(x)
        return x[order], w[order]

    def sample_grid(self, n: int) -> np.ndarray:
        """Uniform interior grid in the compactified coordinate."""
        u = (np.arange(n) + 0.5) / n
        x, _ = self.map_from_unit(u)
        return np.sort(x)

    def volume_weight(self, pt: "FramePoint") -> np.ndarray:
        """Density of the volume form against dx: a b^2 c * orbit volume."""
        w = pt.a * pt.b * pt.b * pt.c
        vol = ORBIT_VOLUME[self.structure_mode]
        return vol * np.broadcast_to(jets.value_of(w), pt.x.shape)

    def to_dict(self) -> dict:
        return {
            "type": self.name,
            "params": dict(self.params),
            "domain": {
                "lo": self.domain.lo,
                "hi": self.domain.hi,
                "periodic": self.domain.periodic,
            },
            "structure_mode": self.structure_mode,
        }


# [e_i, e_j] = sum_k C_ijk e_k is sum_t f_t S_t[i, j, k] for the bracket
# functions f = (b'/(a b), c'/(a c), c/b^2, 1/c); an abelian orbit has only
# the first two
_BRACKET_SIGNS = np.zeros((4, 4, 4, 4))
for _t, _i, _j, _k, _s in ((0, 0, 1, 1, -1), (0, 0, 2, 2, -1), (1, 0, 3, 3, -1),
                           (2, 1, 2, 3, -1), (3, 1, 3, 2, 1), (3, 2, 3, 1, -1)):
    _BRACKET_SIGNS[_t, _i, _j, _k] = _s
    _BRACKET_SIGNS[_t, _j, _i, _k] = -_s

# invariant functions vary only along e1
_RADIAL = np.array([1.0, 0.0, 0.0, 0.0])

# _CYCLIC[t, p, q, r] = 1 for the cyclic orderings (p, q, r) of the t-th
# increasing triple
_CYCLIC = np.zeros((4, 4, 4, 4))
for _t, (_i, _j, _k) in enumerate(MULTI_INDICES[3]):
    for _p, _q, _r in ((_i, _j, _k), (_j, _k, _i), (_k, _i, _j)):
        _CYCLIC[_t, _p, _q, _r] = 1.0


def _stack(items) -> Jet:
    """Jets with (n,)-shaped coefficients stacked along a new first axis."""
    return Jet(tuple(map(np.stack, zip(*(j.coeffs for j in items)))))


def _grid_slice(j: Jet, s: slice) -> Jet:
    """The points of the slice ``s`` of a jet on a batch: every coefficient
    carries the grid axis last, except the seed's constant ones."""
    return j.map(lambda v: v[..., s] if np.ndim(v) else v)


def _rows(j: Jet) -> list:
    """The jets along the first axis of a stacked jet."""
    return [j.map(lambda v, i=i: v[i]) for i in range(len(j.value))]


class FramePoint:
    """Chart data at a batch of points: seed jet of x, profiles and brackets."""

    def __init__(self, chart: InvariantChart, seed: Jet, a: Jet, b: Jet, c: Jet):
        self.chart = chart
        self.seed = seed
        self.x = seed.value
        self.a, self.b, self.c = a, b, c

    @property
    def npoints(self) -> int:
        return len(self.x)

    def __getitem__(self, s: slice) -> "FramePoint":
        """The points of the slice ``s`` of the batch, with the profile jets
        cut rather than evaluated again."""
        return FramePoint(self.chart, *(_grid_slice(j, s) for j in
                                        (self.seed, self.a, self.b, self.c)))

    def e1(self, f: Jet) -> Jet:
        """Derivative along the unit radial frame field e1 = (1/a) d/dx."""
        return f.derivative() / jets.truncate(self.a, f.order - 1)

    def frame_derivative(self, f: Jet) -> Jet:
        """e_i(f) for an invariant jet f, with the direction i as a new first
        axis: (1/a) d/dx along e1 and zero along the orbit.  The order drops
        by one, so an order-0 jet raises ``ValueError``."""
        return jets.einsum("i,...->i...", _RADIAL, self.e1(f))

    @cached_property
    def _structure(self) -> Jet:
        # the brackets carry the profiles' derivatives, so one order less
        db, dc = self.b.derivative(), self.c.derivative()
        a, b, c = (jets.truncate(p, db.order) for p in (self.a, self.b, self.c))
        f = [db / (a * b), dc / (a * c)]
        if self.chart.structure_mode == "su2":
            f += [c / (b * b), 1.0 / c]
        return jets.einsum("t...,tijk->ijk...", _stack(f), _BRACKET_SIGNS[:len(f)])

    def structure_functions(self) -> Jet:
        """C with [e_i, e_j] = sum_k C[i, j, k] e_k, one jet of shape (4, 4, 4, n)."""
        return self._structure

    @cached_property
    def brackets(self) -> np.ndarray:
        """Values of :meth:`structure_functions`, read-only, shape (4, 4, 4, n)."""
        out = self._structure.value
        out.flags.writeable = False
        return out

    def jacobi_residual(self) -> float:
        """Sup norm of the frame Jacobi identity over the batch: the cyclic
        sum over (p, q, r) of e_p(C_qrm) + C_qrl C_plm, per increasing
        triple."""
        C = self.structure_functions()
        # of the frame derivatives e_p only e1 acts
        J = np.einsum("tqr,qrm...->tm...", _CYCLIC[:, 0], self.e1(C).value)
        J += np.einsum("tpl...,plm...->tm...",
                       np.einsum("tpqr,qrl...->tpl...", _CYCLIC, C.value), C.value)
        return float(np.max(np.abs(J)))


class InvariantForm:
    """Invariant k-form: ``comps(pt)`` gives the jets of its frame components
    along ``indices`` from a :class:`FramePoint`'s seed jet or profiles."""

    def __init__(self, degree: int, indices, comps: Callable[[FramePoint], list]):
        self.degree, self.comps = degree, comps
        self.indices = tuple(map(tuple, indices))
        for key in self.indices:
            if key not in MULTI_INDICES[degree]:
                raise ValueError(f"{key} is not an increasing degree-{degree} index")

    def at(self, pt: FramePoint) -> KForm:
        """The form at the points, one jet of shape (ncomp, n)."""
        zero = 0.0 * pt.seed
        vals = dict(zip(self.indices, self.comps(pt)))
        return KForm(self.degree, _stack(
            vals[idx] + zero if idx in vals else zero
            for idx in MULTI_INDICES[self.degree]))

    def scaled(self, s: float) -> "InvariantForm":
        return InvariantForm(self.degree, self.indices,
                             lambda pt: [s * f for f in self.comps(pt)])

    @staticmethod
    def zero(degree: int) -> "InvariantForm":
        return InvariantForm(degree, (), lambda pt: [])


# ---------------------------------------------------------------------------
# concrete charts
# ---------------------------------------------------------------------------


class BonneauFamily:
    """One-parameter family of U(2)-invariant metrics on S^4 over x in (-inf, k).

    The conformal factor is

        W(x) = 1 + n (x^2 - 1 - 2 k x)(pi/2 + arctan x) + n (x - 2k),
        n = 1 / (k + (1 + k^2)(pi/2 + arctan k)),

    which has a double root at x = k and tends to 1 at -infinity.  Both
    limits cancel catastrophically in the naive expression, so W is
    evaluated piecewise: a series form near x = k, an arctan(-1/x) form for
    large negative x, and the direct formula in between.
    """

    def __init__(self, k: float):
        self.k = float(k)
        if not math.isfinite(self.k):
            raise ChartError(f"parameter k must be finite, got {k}")
        pk = 0.5 * math.pi + math.atan(self.k)
        den = self.k + (1.0 + self.k * self.k) * pk
        if not math.isfinite(den) or den <= 0.0:
            raise ChartError(f"no admissible profile for k={k}: n denominator {den}")
        self.n = 1.0 / den
        self.pk = pk
        kk = 1.0 + self.k * self.k
        self.r_near = min(1.0, 0.5 * kk / max(abs(self.k), 1.0))
        self.x_far = min(-2.0, -4.0 * abs(self.k), self.k - 2.0 * self.r_near)

    # -- conformal factor ----------------------------------------------------

    def _w_direct(self, x: Jet) -> Jet:
        quad = x * x - 1.0 - (2.0 * self.k) * x
        p = 0.5 * math.pi + jets.arctan(x)
        return 1.0 + self.n * (quad * p) + self.n * (x - 2.0 * self.k)

    def _w_near(self, x: Jet) -> Jet:
        k, n = self.k, self.n
        kk = 1.0 + k * k
        t = k - x
        quad = x * x - 1.0 - (2.0 * k) * x
        u = (x - k) / (1.0 + k * x)
        # arctan x - arctan k - (x-k)/(1+k^2), all pieces O(t^2)
        dd = jets.arctan_minus_id(u) - (k / kk) * (t * t) / (1.0 + k * x)
        return n * (self.pk * (t * t) - (t * t * t) / kk + quad * dd)

    def _w_far(self, x: Jet) -> Jet:
        w = -1.0 / x
        quad = x * x - 1.0 - (2.0 * self.k) * x
        return 1.0 + self.n * (quad * jets.arctan_minus_id(w) - w)

    def omega2(self, x: Jet) -> Jet:
        if not isinstance(x, Jet):
            x = Jet.constant(np.asarray(x, dtype=float), DEFAULT_ORDER)
        xv = np.asarray(jets.value_of(x))
        near = (self.k - xv) <= self.r_near
        far = xv <= self.x_far
        x_near = jets.where(near, x, Jet.constant(self.k - self.r_near, x.order) + 0.0 * x)
        x_far = jets.where(far, x, Jet.constant(self.x_far, x.order) + 0.0 * x)
        mid_lo, mid_hi = self.x_far, self.k - 0.5 * self.r_near
        x_mid = jets.where(xv < mid_lo, Jet.constant(mid_lo, x.order) + 0.0 * x,
                           jets.where(xv > mid_hi, Jet.constant(mid_hi, x.order) + 0.0 * x, x))
        out = jets.where(near, self._w_near(x_near),
                         jets.where(far, self._w_far(x_far), self._w_direct(x_mid)))
        return out

    # -- metric profiles (homothety parameter fixed at 2) ---------------------

    def profiles(self, x: Jet):
        """(a, b, c) at x, from one evaluation of W:
        a = sqrt((k-x)/W)/(1+x^2), b = sqrt((k-x)/(1+x^2)), c = sqrt(W/(k-x))."""
        w = self.omega2(x)
        t = self.k - x
        return (jets.sqrt(t / w) / (1.0 + x * x),
                jets.sqrt(t / (1.0 + x * x)),
                jets.sqrt(w / t))

    def a_over_c(self, x):
        """a/c with the vanishing factors cancelled: (k-x)/(W (1+x^2))."""
        return (self.k - x) / (self.omega2(x) * (1.0 + x * x))


def bonneau_chart(k: float, scan_nodes: int = 1024):
    """Chart and torsion 3-form (H_123 = 2 c) of the S^4 family at parameter k.

    Runs a positivity scan of the conformal factor over the compactified
    domain and raises :class:`ChartError` naming the first violating x.
    The scan reads only the values of W, so it evaluates W on order-0 jets.
    """
    fam = BonneauFamily(k)
    chart = InvariantChart(
        name="bonneau",
        profiles=fam.profiles,
        domain=Domain(-math.inf, k),
        structure_mode="su2",
        params={"k": float(k)},
    )
    u = (np.arange(scan_nodes) + 0.5) / scan_nodes
    x, _ = chart.map_from_unit(u)
    w = np.asarray(jets.value_of(fam.omega2(Jet.variable(x, 0))))
    good = np.isfinite(w) & (w > 0.0)
    if not np.all(good):
        bad = x[~good]
        raise ChartError(
            f"conformal factor not positive for k={k}: W({bad[0]:.6g}) = "
            f"{w[~good][0]:.3e}")
    H = InvariantForm(3, [(0, 1, 2)], lambda pt: [2.0 * pt.c])
    return chart, H


def _positive(v: float) -> bool:
    """v is a finite positive number (so not NaN)."""
    return math.isfinite(v) and v > 0.0


def _rng(seed: int, offset: int = 0) -> np.random.Generator:
    """The generator of a seeded chart or form; seeds are non-negative."""
    if int(seed) < 0:
        raise ChartError(f"seed must be non-negative, got {seed}")
    return np.random.default_rng(int(seed) + offset)


def _constant(v: float, x: Jet) -> Jet:
    """The constant v as a jet on the batch of x."""
    return Jet.constant(v, x.order) + 0.0 * x


def round_s4_chart() -> InvariantChart:
    """Unit-curvature round S^4: a = 1, b = c = sin(x)/2 on (0, pi)."""
    return InvariantChart(
        name="round",
        profiles=lambda x: (_constant(1.0, x),) + (jets.sin(x) * 0.5,) * 2,
        domain=Domain(0.0, math.pi),
        structure_mode="su2",
        params={},
    )


def product_chart(b0: float = 1.0, L: float = 1.0) -> InvariantChart:
    """S^1 x S^3 with circle circumference L and orbit radius profile b0."""
    if not (_positive(b0) and _positive(L)):
        raise ChartError(f"b0 and L must be finite and positive, got {b0} and {L}")
    return InvariantChart(
        name="product",
        profiles=lambda x: (_constant(1.0, x),) + (_constant(float(b0), x),) * 2,
        domain=Domain(0.0, float(L), periodic=True),
        structure_mode="su2",
        params={"b0": float(b0), "L": float(L)},
    )


def flat_torsion(chart: InvariantChart, sign: int = +1) -> InvariantForm:
    """Torsion of the flat trivialization connection: H_234 = sign / b0."""
    v = sign / chart.params["b0"]
    return InvariantForm(3, [(1, 2, 3)], lambda pt: [_constant(v, pt.seed)])


def flat_torus_chart(L: float = 1.0) -> InvariantChart:
    """Flat T^4: abelian orbits, unit profiles, all brackets zero."""
    if not _positive(L):
        raise ChartError(f"L must be finite and positive, got {L}")
    return InvariantChart(
        name="flat",
        profiles=lambda x: (_constant(1.0, x),) * 3,
        domain=Domain(0.0, float(L), periodic=True),
        structure_mode="abelian",
        params={"L": float(L)},
    )


def _trig_polys(rng, lo: float, hi: float, amp: float, count: int, nmodes: int = 3):
    """``count`` random polynomials base + sum_m (ca_m cos mx + cb_m sin mx),
    evaluated as one (count, n) jet from one sin/cos pass over the modes m x;
    adding the modes in increasing m gives each row the bytes of its own."""
    base, coefs = map(np.array, zip(*[
        (rng.uniform(lo, hi), amp * rng.uniform(-1.0, 1.0, size=(nmodes, 2)))
        for _ in range(count)]))
    modes = np.arange(1.0, nmodes + 1.0)[:, None]

    def f(x):
        s, c = jets.sincos(x * modes)
        ta, tb = c * coefs[:, :, 0, None], s * coefs[:, :, 1, None]
        out = _constant(base[:, None], x)
        for m in range(nmodes):
            out = out + ta.map(lambda v: v[:, m]) + tb.map(lambda v: v[:, m])
        return out

    return f


def random_chart(seed: int) -> InvariantChart:
    """Smooth random periodic chart on S^1 x SU(2), reproducible from seed."""
    polys = _trig_polys(_rng(seed), 1.2, 2.0, 0.12, 3)
    return InvariantChart(
        name="random",
        profiles=lambda x: tuple(_rows(polys(x))),
        domain=Domain(0.0, 2.0 * math.pi, periodic=True),
        structure_mode="su2",
        params={"seed": int(seed)},
    )


def random_torsion(seed: int, amp: float = 0.6) -> InvariantForm:
    """Random invariant torsion 3-form (all four frame components)."""
    polys = _trig_polys(_rng(seed, 101), -0.4, 0.4, amp / 3.0, 4)
    return InvariantForm(3, MULTI_INDICES[3], lambda pt: _rows(polys(pt.seed)))


def random_one_form(seed: int, amp: float = 0.6) -> InvariantForm:
    polys = _trig_polys(_rng(seed, 202), -0.4, 0.4, amp / 3.0, 4)
    return InvariantForm(1, MULTI_INDICES[1], lambda pt: _rows(polys(pt.seed)))


def chart_and_torsion(descriptor: dict):
    """(chart, torsion 3-form) from a JSON descriptor such as ``chart.to_dict()``.

    The torsion is the chart type's own: the Bonneau family's closed H, the
    flat group torsion on ``product``, the seeded random H on ``random`` and
    zero on ``round`` and ``flat``.
    """
    t = descriptor["type"]
    p = descriptor.get("params", {})
    if t == "bonneau":
        return bonneau_chart(p["k"])
    if t == "round":
        return round_s4_chart(), InvariantForm.zero(3)
    if t == "product":
        chart = product_chart(p.get("b0", 1.0), p.get("L", 1.0))
        return chart, flat_torsion(chart)
    if t == "flat":
        return flat_torus_chart(p.get("L", 1.0)), InvariantForm.zero(3)
    if t == "random":
        return random_chart(p.get("seed", 0)), random_torsion(p.get("seed", 0))
    raise ChartError(f"unknown chart type {t!r}")
