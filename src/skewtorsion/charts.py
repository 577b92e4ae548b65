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
components off the resulting :class:`FramePoint`.  Each of W's three
branches runs on its own nodes only, and the positivity scan of W that
admits a Bonneau parameter k runs once for a whole list of k
(:func:`bonneau_charts`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

from . import jets
from .jets import DEFAULT_ORDER, Jet
from .frame import FULL_SIGNS, KForm, MULTI_INDICES, _Gather

__all__ = [
    "ChartError", "Domain", "InvariantChart", "FramePoint",
    "InvariantForm", "BonneauFamily", "bonneau_chart", "bonneau_charts", "bonneau_rows",
    "round_s4_chart", "product_chart", "flat_torsion", "flat_torus_chart",
    "random_chart", "random_torsion", "random_one_form", "chart_and_torsion",
    "gauss_legendre",
]

# integral of s1^s2^s3 over the orbit, by structure mode: SU(2) or T^3
ORBIT_VOLUME = {"su2": 16.0 * math.pi ** 2, "abelian": (2.0 * math.pi) ** 3}


@lru_cache(maxsize=32)
def gauss_legendre(n: int):
    """n-point Gauss-Legendre nodes and weights on (0, 1), computed once per n.

    The arrays are shared by every caller, so they are read-only.
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
        """Frame data at finite interior points x (scalar or 1-d array), in
        x's float dtype, float64 at least; every profile value must lie in
        (0, inf).

        ``x`` may also be a tuple of such grids, evaluated as one batch,
        their concatenation, in one profile pass.  The points of every grid
        are checked, then the profile values of every grid, each grid as if
        it were evaluated alone: a refusal names the first grid that fails
        a check, and its nodes.  A domain bound may hold one bound per
        point of the batch (:func:`bonneau_rows`).
        """
        grids = [np.atleast_1d(g) for g in (x if isinstance(x, tuple) else (x,))]
        grids = [g.astype(np.result_type(g.dtype, np.float64), copy=False) for g in grids]
        ends = np.cumsum([len(g) for g in grids])
        cuts = [slice(end - len(g), end) for g, end in zip(grids, ends)]
        x = np.concatenate(grids)
        bad = ~np.isfinite(x)
        if not self.domain.periodic:
            bad |= (x <= self.domain.lo) | (x >= self.domain.hi)
        if np.any(bad):
            s = next(s for s in cuts if np.any(bad[s]))
            if not np.all(np.isfinite(x[s])):
                raise ChartError(f"x not finite: {x[s][~np.isfinite(x[s])][:3]}")
            i = s.start + np.argmax(bad[s])
            lo, hi = (float(np.broadcast_to(v, x.shape)[i])
                      for v in (self.domain.lo, self.domain.hi))
            raise ChartError(f"x outside open domain ({lo}, {hi})")
        seed = Jet.variable(x, DEFAULT_ORDER)
        a, b, c = self.profiles(seed)
        bad = [~((p.value > 0.0) & (p.value < np.inf)) for p in (a, b, c)]  # NaN too
        if np.any(bad[0] | bad[1] | bad[2]):
            s = next(s for s in cuts if any(np.any(m[s]) for m in bad))
            name, m = next((name, m[s]) for name, m in zip("abc", bad) if np.any(m[s]))
            raise ChartError(f"profile {name} not in (0, inf) at x={x[s][m][:3]}")
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
        return vol * np.broadcast_to(w.value, pt.x.shape)

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
# a bracket [e_i, e_j] has at most one component e_m: the pairs i < j and their m
_PAIRS = np.triu_indices(4, 1)
assert np.all(np.count_nonzero(_BRACKET_SIGNS.any(axis=0), axis=-1) <= 1)
_BRACKET_PAIRS = _PAIRS + (np.argmax(_BRACKET_SIGNS.any(axis=0), axis=-1)[_PAIRS],)
# the contraction with the functions, per number of functions
_BRACKETS = {nt: _Gather(np.moveaxis(_BRACKET_SIGNS[:nt], 0, -1), 3) for nt in (2, 4)}

# invariant functions vary only along e1
_RADIAL = np.array([1.0, 0.0, 0.0, 0.0])

# _CYCLIC[t, p, q, r] = 1 for the cyclic orderings (p, q, r) of the t-th
# increasing triple: its even permutations; the cyclic sums over (q, r) at
# p = 0 and over (p, q, r) with p kept
_CYCLIC = (FULL_SIGNS[3] > 0).astype(float)
_CYCLIC_E1, _CYCLIC_C = _Gather(_CYCLIC[:, 0], 1), _Gather(_CYCLIC, 2)


def _stack(items) -> Jet:
    """Jets with (n,)-shaped coefficients stacked along a new first axis."""
    return Jet(tuple(map(np.stack, zip(*(j.coeffs for j in items)))))


def _grid_slice(j: Jet, s: slice) -> Jet:
    """The points of the slice ``s`` of a jet on a batch: every coefficient
    carries the grid axis last, except the seed's constant ones."""
    return j.map(lambda v: v[..., s] if np.ndim(v) else v)


def _abs_max(a: np.ndarray) -> np.ndarray:
    """max |a| over every axis but the last, the grid axis, shape (n,), NaN
    at a point with a NaN entry."""
    return np.abs(a).reshape(-1, a.shape[-1]).max(axis=0)


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

    def truncated(self, order: int) -> "FramePoint":
        """The batch with its seed and profile jets cut to ``order``."""
        return FramePoint(self.chart, *(jets.truncate(j, order) for j in
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
    def structure(self) -> Jet:
        """C with [e_i, e_j] = sum_k C[i, j, k] e_k, one jet of shape
        (4, 4, 4, n): the brackets carry the profiles' derivatives, so one
        order less."""
        db, dc = self.b.derivative(), self.c.derivative()
        a, b, c = (jets.truncate(p, db.order) for p in (self.a, self.b, self.c))
        with np.errstate(all="ignore"):
            f = [db / (a * b), dc / (a * c)]
            if self.chart.structure_mode == "su2":
                f += [c / (b * b), 1.0 / c]
        if not all(np.isfinite(v).all() for j in f for v in j.coeffs):
            raise ChartError("frame brackets not finite at a node")
        return _BRACKETS[len(f)](_stack(f))

    @cached_property
    def brackets(self) -> np.ndarray:
        """Values of :attr:`structure`, read-only, shape (4, 4, 4, n)."""
        out = self.structure.value
        out.flags.writeable = False
        return out

    def jacobi_residual(self) -> np.ndarray:
        """Residual of the frame Jacobi identity at each point, shape (n,):
        the largest entry of the cyclic sum over (p, q, r) of
        e_p(C_qrm) + C_qrl C_plm, per increasing triple."""
        C = self.structure
        # of the frame derivatives e_p only e1 acts
        J = _CYCLIC_E1(self.e1(C).value)
        J += np.einsum("tpl...,plm...->tm...", _CYCLIC_C(C.value), C.value)
        return _abs_max(J)


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


# the parameters of a BonneauFamily, each a float or one value per node
_PARAMETERS = ("k", "n", "pk", "r_near", "x_far")


class BonneauFamily:
    """One-parameter family of U(2)-invariant metrics on S^4 over x in (-inf, k).

    The conformal factor is

        W(x) = 1 + n (x^2 - 1 - 2 k x)(pi/2 + arctan x) + n (x - 2k),
        n = 1 / (k + (1 + k^2)(pi/2 + arctan k)),

    which has a double root at x = k and tends to 1 at -infinity.  Both
    limits cancel catastrophically in the naive expression, so W is
    evaluated piecewise: a series form near x = k, an arctan(-1/x) form for
    large negative x, and the direct formula in between, each branch on
    its own nodes (:meth:`omega2`).
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

    @classmethod
    def per_node(cls, ks, counts) -> "BonneauFamily":
        """The family on a batch of nodes in runs of one parameter:
        ``counts[i]`` nodes at ``ks[i]``, in order.  Each parameter (k, n,
        pk, r_near, x_far) is the one family ``BonneauFamily(k)`` computes,
        repeated per node, and every operation acts node by node, so the
        profiles at a node are bitwise those of its own k's family."""
        rows = [cls(k) for k in ks]
        fam = cls.__new__(cls)
        for name in _PARAMETERS:
            setattr(fam, name, np.repeat([getattr(r, name) for r in rows], counts))
        return fam

    # -- conformal factor ----------------------------------------------------

    def _w_direct(self, x: Jet) -> Jet:
        quad = x * x - 1.0 - (2.0 * self.k) * x
        p = 0.5 * math.pi + jets.arctan(x)
        return 1.0 + self.n * (quad * p) + self.n * (x - 2.0 * self.k)

    def _w_near(self, x: Jet) -> Jet:
        k, n = self.k, self.n
        kk = 1.0 + k * k
        t = k - x
        tt = t * t
        quad = x * x - 1.0 - (2.0 * k) * x
        kx = 1.0 + k * x
        u = (x - k) / kx
        # arctan x - arctan k - (x-k)/(1+k^2), all pieces O(t^2)
        dd = jets.arctan_minus_id(u) - (k / kk) * tt / kx
        return n * (self.pk * tt - (tt * t) / kk + quad * dd)

    def _w_far(self, x: Jet) -> Jet:
        w = -1.0 / x
        quad = x * x - 1.0 - (2.0 * self.k) * x
        return 1.0 + self.n * (quad * jets.arctan_minus_id(w) - w)

    def omega2(self, x: Jet) -> Jet:
        """W at x, each node on its own branch: the near-k series where
        k - x <= r_near, else the far form where x <= x_far, else the
        direct formula.  A branch runs on its own nodes only, with a
        per-node family's parameters cut to them, and an empty branch not
        at all; the coefficients are scattered into arrays of x's float
        precision.
        """
        xv = np.asarray(x.value)
        near = np.ravel((self.k - xv) <= self.r_near)
        far = ~near & np.ravel(xv <= self.x_far)
        dtype = np.result_type(xv.dtype, np.float64)
        out = [np.empty(xv.shape, dtype) for _ in x.coeffs]
        cls = type(self)
        for mask, branch in ((near, cls._w_near), (far, cls._w_far),
                             (~(near | far), cls._w_direct)):
            nodes = np.flatnonzero(mask)
            if not len(nodes):
                continue
            w = branch(self._at_nodes(nodes),
                       x.map(lambda v: np.ravel(v)[nodes] if np.ndim(v) else v))
            for o, v in zip(out, w.coeffs):
                o.reshape(-1)[nodes] = np.ravel(v)
        return Jet(tuple(out))

    def _at_nodes(self, nodes) -> "BonneauFamily":
        """The family on ``nodes`` (indices into the batch): a per-node
        family with its parameters cut to them, a one-k family itself."""
        if np.ndim(self.k) == 0:
            return self
        fam = type(self).__new__(type(self))
        for name in _PARAMETERS:
            setattr(fam, name, getattr(self, name)[nodes])
        return fam

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


# the family's torsion 3-form, H_123 = 2 c
_BONNEAU_H = InvariantForm(3, [(0, 1, 2)], lambda pt: [2.0 * pt.c])


def bonneau_charts(ks) -> list:
    """Chart and torsion 3-form (H_123 = 2 c) of the S^4 family at each k
    of ``ks``, or the :class:`ChartError` that refuses that k.

    Each admissible k's conformal factor is scanned for positivity on 1024
    uniform nodes of its compactified domain, and a k whose scan fails is
    refused with a message naming its first violating x.  The scan reads
    only the values of W, so it evaluates W on order-0 jets, of every
    admitted k at once, in one pass of their per-node family
    (:meth:`BonneauFamily.per_node`): each node's value is the bits of its
    own k's family, so each k's chart or refusal is the one
    :func:`bonneau_chart` gives for it alone.
    """
    built, admitted = [], []
    for i, k in enumerate(ks):
        try:
            fam = BonneauFamily(k)
        except ChartError as exc:
            built.append(exc)
            continue
        admitted.append(i)
        built.append(InvariantChart(name="bonneau", profiles=fam.profiles,
                                    domain=Domain(-math.inf, k), structure_mode="su2",
                                    params={"k": float(k)}))
    if admitted:
        m = 1024
        u = (np.arange(m) + 0.5) / m
        x = np.concatenate([built[i].map_from_unit(u)[0] for i in admitted])
        fam = BonneauFamily.per_node([ks[i] for i in admitted], [m] * len(admitted))
        w = np.asarray(fam.omega2(Jet.variable(x, 0)).value)
        bad = ~(np.isfinite(w) & (w > 0.0))
        for j, i in enumerate(admitted):
            s = slice(j * m, (j + 1) * m)
            if np.any(bad[s]):
                first = s.start + np.argmax(bad[s])
                built[i] = ChartError(f"conformal factor not positive for k={ks[i]}: "
                                      f"W({x[first]:.6g}) = {w[first]:.3e}")
    return [chart if isinstance(chart, ChartError) else (chart, _BONNEAU_H)
            for chart in built]


def bonneau_chart(k: float):
    """Chart and torsion 3-form (H_123 = 2 c) of the S^4 family at parameter
    k: the one-k case of :func:`bonneau_charts`, whose positivity scan of
    W raises :class:`ChartError` naming the first violating x."""
    built, = bonneau_charts([k])
    if isinstance(built, ChartError):
        raise built
    return built


def bonneau_rows(ks, counts):
    """Chart and torsion of the S^4 family on a batch of nodes in runs of
    one parameter, ``counts[i]`` nodes at ``ks[i]`` (the profiles of
    :meth:`BonneauFamily.per_node`), each node in the domain (-inf, k) of
    its own k.  It serves that one batch, and runs no positivity scan: a
    caller builds each k's chart with :func:`bonneau_charts` first."""
    fam = BonneauFamily.per_node(ks, counts)
    chart = InvariantChart(name="bonneau", profiles=fam.profiles,
                           domain=Domain(-math.inf, fam.k), structure_mode="su2")
    return chart, _BONNEAU_H


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


def random_torsion(seed: int) -> InvariantForm:
    """Random invariant torsion 3-form (all four frame components)."""
    polys = _trig_polys(_rng(seed, 101), -0.4, 0.4, 0.6 / 3.0, 4)
    return InvariantForm(3, MULTI_INDICES[3], lambda pt: _rows(polys(pt.seed)))


def random_one_form(seed: int) -> InvariantForm:
    polys = _trig_polys(_rng(seed, 202), -0.4, 0.4, 0.6 / 3.0, 4)
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
