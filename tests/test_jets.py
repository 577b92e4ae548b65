"""Jet arithmetic against finite differences and series identities."""

import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from skewtorsion import jets
from skewtorsion.jets import Jet

FUNCS = [
    lambda x: jets.sin(3.0 * x) * jets.exp(0.3 * x),
    lambda x: jets.sqrt(2.0 + jets.cos(x)) / (1.5 + jets.sin(x) * jets.sin(x)),
    lambda x: jets.arctan(x * x - 0.5 * x) + jets.log(2.0 + jets.sin(2.0 * x)),
    lambda x: (1.0 + x * x) / jets.sqrt(4.0 + jets.exp(-x)),
    lambda x: jets.cos(jets.sqrt(1.0 + x * x)) * jets.arctan(0.7 * x),
]


def _fd1(f, x, h):
    return (float(f(Jet.variable(x + h, 0))) - float(f(Jet.variable(x - h, 0)))) / (2 * h)


def _fd2(f, x, h):
    return (float(f(Jet.variable(x + h, 0))) - 2 * float(f(Jet.variable(x, 0)))
            + float(f(Jet.variable(x - h, 0)))) / h ** 2


def test_derivatives_match_central_differences_second_order():
    rng = np.random.default_rng(0)
    ratios = []
    for _ in range(20):
        f = FUNCS[rng.integers(len(FUNCS))]
        g = FUNCS[rng.integers(len(FUNCS))]
        comp = lambda x, f=f, g=g: f(g(x) * 0.5)
        x0 = float(rng.uniform(-1.0, 1.0))
        j = comp(Jet.variable(x0, 2))
        e_h = abs(j.d1 - _fd1(comp, x0, 1e-2))
        e_h2 = abs(j.d1 - _fd1(comp, x0, 5e-3))
        assert e_h < 1e-3
        if e_h2 > 1e-11:  # above the rounding floor
            ratios.append(e_h / e_h2)
        assert abs(j.d2 - _fd2(comp, x0, 1e-3)) < 1e-4 * (1.0 + abs(j.d2))
    # central differences converge at O(h^2), so halving h gains ~4x
    assert np.median(ratios) > 3.0


def test_order4_third_and_fourth_coefficients():
    j = jets.exp(Jet.variable(0.3, 4))
    e = np.exp(0.3)
    for k, c in enumerate(j.coeffs):
        assert c == pytest.approx(e / math.factorial(k), rel=1e-14)


def test_derivative_shifts_series():
    j = jets.sin(Jet.variable(0.5, 4))
    dj = j.derivative()
    assert dj.order == 3
    assert dj.value == pytest.approx(np.cos(0.5), abs=1e-15)
    assert dj.d1 == pytest.approx(-np.sin(0.5), abs=1e-15)


@given(st.floats(-2, 2), st.floats(-2, 2))
def test_product_rule(a, b):
    x = Jet.variable(0.4, 2)
    f = jets.sin(x) + a
    g = jets.cos(x) * 1.0 + b
    fg = f * g
    assert fg.d1 == pytest.approx(f.d1 * g.value + f.value * g.d1, rel=1e-12, abs=1e-12)


@given(st.floats(0.2, 3.0))
def test_division_and_sqrt_consistency(v):
    x = Jet.variable(v, 3)
    lhs = 1.0 / jets.sqrt(x)
    rhs = jets.sqrt(1.0 / x)
    for a, b in zip(lhs.coeffs, rhs.coeffs):
        assert a == pytest.approx(b, rel=1e-12, abs=1e-14)


def test_division_requires_nonzero():
    with pytest.raises(ZeroDivisionError):
        Jet.variable(1.0, 2) / Jet.constant(0.0, 2)


def test_array_coefficients_vectorize():
    x = Jet.variable(np.linspace(0.1, 1.0, 7), 2)
    j = jets.log(x) * x
    for i, xi in enumerate(np.linspace(0.1, 1.0, 7)):
        ji = jets.log(Jet.variable(xi, 2)) * Jet.variable(xi, 2)
        assert j.value[i] == pytest.approx(ji.value, rel=1e-15)
        assert j.d2[i] == pytest.approx(ji.d2, rel=1e-13)


def test_arctan_minus_id_is_stable_for_tiny_arguments():
    for u in (1e-3, 1e-6, 1e-9):
        j = jets.arctan_minus_id(Jet.variable(u, 2))
        assert j.value == pytest.approx(-u ** 3 / 3.0, rel=1e-10)
        # derivative -u^2/(1+u^2) stays accurate as well
        assert j.d1 == pytest.approx(-u ** 2 / (1 + u ** 2), rel=1e-12)
    # matches the naive expression where that one is accurate
    j = jets.arctan_minus_id(Jet.variable(0.8, 2))
    assert j.value == pytest.approx(np.arctan(0.8) - 0.8, rel=1e-14)


def test_integer_powers():
    x = Jet.variable(1.3, 3)
    p = x ** 5
    q = x * x * x * x * x
    for a, b in zip(p.coeffs, q.coeffs):
        assert a == pytest.approx(b, rel=1e-14)


def test_derivatives_beyond_the_order_raise():
    j = jets.sin(Jet.variable(0.3, 1))
    assert j.d1 == pytest.approx(np.cos(0.3), rel=1e-15)
    with pytest.raises(ValueError):
        j.d2
    with pytest.raises(ValueError):
        Jet.constant(1.0, 0).d1


def test_variable_of_order_zero_holds_the_value_only():
    x = np.array([0.3, -2.0])
    j = Jet.variable(x, 0)
    assert j.order == 0 and len(j.coeffs) == 1 and j.value is x
    assert Jet.variable(0.5, 1).coeffs == (0.5, 1.0)
    with pytest.raises(ValueError):
        j.d1
    with pytest.raises(ValueError):
        Jet.variable(0.5, -1)


def test_order_zero_arctans_are_the_value_functions():
    """At order 0 arctan and arctan - id are np.arctan and the series-guarded
    value, bit for bit, on both sides of the series cutoff 0.25."""
    u = np.concatenate([-np.geomspace(1e-12, 1e8, 60), [0.0, 0.25, -0.25],
                        np.geomspace(1e-12, 1e8, 60)])
    at, am = jets.arctan(Jet.variable(u, 0)), jets.arctan_minus_id(Jet.variable(u, 0))
    assert at.order == am.order == 0
    assert np.array_equal(at.value, np.arctan(u))
    assert np.array_equal(am.value, jets._atanm_value(u))
    # and they are the value coefficients of the higher orders
    assert np.array_equal(jets.arctan(Jet.variable(u, 2)).value, at.value)
    assert np.array_equal(jets.arctan_minus_id(Jet.variable(u, 2)).value, am.value)


def _atanm_whole_array(u):
    """arctan(u) - u with both forms on every value: the series on the
    values with |u| < 0.25 (zero elsewhere), arctan(u) - u on all, and a
    select keeping each value's own form."""
    u = np.asarray(u, dtype=float)
    small = np.abs(u) < 0.25
    us = np.where(small, u, 0.0)
    acc, term, sign = np.zeros_like(us), us.copy(), -1.0
    for m in range(1, 12):
        term = term * us * us
        acc = acc + sign * term / (2 * m + 1)
        sign = -sign
    with np.errstate(invalid="ignore"):
        out = np.where(small, acc, np.arctan(u) - u)
    return out if out.ndim else float(out)


def test_atanm_value_on_each_form_is_the_whole_array_form_bitwise():
    tiny = np.finfo(float).tiny
    u = np.concatenate([
        [0.0, -0.0, 0.25, -0.25, np.nextafter(0.25, 0.0), -np.nextafter(0.25, 0.0),
         np.inf, -np.inf, np.nan, 5e-324, -5e-324, tiny / 3, -tiny / 3, tiny, -tiny],
        -np.geomspace(1e-300, 1e300, 200), np.geomspace(1e-300, 1e300, 200)])
    got, want = jets._atanm_value(u), _atanm_whole_array(u)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    # one form only, and 0-d input, which gives a float
    for part in (u[np.abs(u) < 0.25], u[~(np.abs(u) < 0.25)], u[:0]):
        assert jets._atanm_value(part).tobytes() == _atanm_whole_array(part).tobytes()
    for v in u[:15]:
        got, want = jets._atanm_value(np.asarray(v)), _atanm_whole_array(np.asarray(v))
        assert type(got) is float and np.asarray(got).tobytes() == np.asarray(want).tobytes()
    # a wider float stays in its precision
    assert jets._atanm_value(u.astype(np.longdouble)).dtype == np.longdouble


def _entry(jet, idx):
    """Scalar jet (coefficients over the grid axis) of one tensor entry."""
    return Jet(tuple(c[idx] for c in jet.coeffs))


def _random_jet(rng, shape, order):
    return Jet(tuple(rng.normal(size=shape) for _ in range(order + 1)))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3), st.integers(1, 3), st.integers(1, 3),
       st.integers(1, 3), st.integers(1, 4), st.integers(0, 2 ** 32 - 1))
def test_tensor_jets_match_per_entry_scalar_jets(order_a, order_b, m, k, l, n, seed):
    rng = np.random.default_rng(seed)
    a = _random_jet(rng, (m, k, n), order_a)
    b = _random_jet(rng, (k, l, n), order_b)
    M = rng.normal(size=(k, l))

    def close(jet, ref):
        assert jet.order == ref.order
        for x, y in zip(jet.coeffs, ref.coeffs):
            assert np.allclose(x, y, rtol=1e-13, atol=1e-13)

    # Leibniz contraction of two jets, cut to one order first
    ta, tb = (jets.truncate(j, min(order_a, order_b)) for j in (a, b))
    ab = jets.einsum("ij...,jk...->ik...", ta, tb)
    assert ab.order == min(order_a, order_b)
    for i in range(m):
        for q in range(l):
            ref = _entry(ta, (i, 0)) * _entry(tb, (0, q))
            for j in range(1, k):
                ref = ref + _entry(ta, (i, j)) * _entry(tb, (j, q))
            close(_entry(ab, (i, q)), ref)

    # linear maps: contraction with a fixed array, and an index permutation
    aM = jets.einsum("ij...,jk->ik...", a, M)
    aT = a.map(lambda c: np.swapaxes(c, 0, 1))
    for i in range(m):
        for q in range(l):
            ref = _entry(a, (i, 0)) * M[0, q]
            for j in range(1, k):
                ref = ref + _entry(a, (i, j)) * M[j, q]
            close(_entry(aM, (i, q)), ref)
        for j in range(k):
            close(_entry(aT, (j, i)), _entry(a, (i, j)))


def _contract(p, q):
    return jets.einsum("i,i->i", p, q)


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, operator.truediv,
                                lambda p, q: jets.where(np.array([True, False]), p, q),
                                _contract])
def test_mixed_orders_raise(op):
    """Arithmetic and contraction between jets of different orders raise
    instead of truncating; an explicit truncation makes them well defined."""
    x = np.array([0.3, 0.7])
    hi, lo = Jet.variable(x, 2), jets.exp(Jet.variable(x, 1))
    with pytest.raises(ValueError):
        op(hi, lo)
    with pytest.raises(ValueError):
        op(lo, hi)
    assert op(jets.truncate(hi, 1), lo).order == 1
    for order in (2, -1):
        with pytest.raises(ValueError):
            jets.truncate(lo, order)
    with pytest.raises(AttributeError):  # an array is not a jet
        jets.truncate(x, 1)


_MASK = np.array([True, False, True])
_M = np.array([[0.5, -1.25, 2.0], [1.5, 0.25, -0.75], [-2.0, 1.0, 0.125]])
# (name, f(a, b)) over jets a, b with coefficient arrays of shape (3,); the
# value of b is positive, so b feeds sqrt, log and division
_PREFIX_OPS = [
    ("jet + jet", operator.add), ("jet - jet", operator.sub),
    ("jet * jet", operator.mul), ("jet / jet", operator.truediv),
    ("jet + scalar", lambda a, b: a + 1.75), ("scalar + jet", lambda a, b: 1.75 + a),
    ("jet - scalar", lambda a, b: a - 0.5), ("scalar - jet", lambda a, b: 0.5 - a),
    ("jet * scalar", lambda a, b: a * -1.3), ("scalar * jet", lambda a, b: -1.3 * a),
    ("jet / scalar", lambda a, b: a / 3.0), ("scalar / jet", lambda a, b: 3.0 / b),
    ("-jet", lambda a, b: -a),
    ("sqrt", lambda a, b: jets.sqrt(b)), ("exp", lambda a, b: jets.exp(a)),
    ("log", lambda a, b: jets.log(b)),
    ("sincos sin", lambda a, b: jets.sincos(a)[0]),
    ("sincos cos", lambda a, b: jets.sincos(a)[1]),
    ("arctan", lambda a, b: jets.arctan(a)),
    ("arctan_minus_id", lambda a, b: jets.arctan_minus_id(a)),
    ("where", lambda a, b: jets.where(_MASK, a, b)),
    ("einsum one jet", lambda a, b: jets.einsum("ij,j...->i...", _M, a)),
    ("einsum two jets", lambda a, b: jets.einsum("i...,j...->ij...", a, b)),
]


def _same_bits(p: Jet, q: Jet, what: str):
    assert p.order == q.order, what
    for x, y in zip(p.coeffs, q.coeffs):
        x, y = np.asarray(x), np.asarray(y)
        assert x.shape == y.shape and x.tobytes() == y.tobytes(), what


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
def test_truncation_commutes_with_every_operation(order, seed):
    """Coefficient k of a result reads operand coefficients up to k only, so
    cutting the operands to order k gives the cut result bit for bit; the
    derivative reads one coefficient more.  Evaluating each object at the
    lowest order its readers use rests on this."""
    rng = np.random.default_rng(seed)
    a = Jet(tuple(rng.uniform(-2.0, 2.0, size=3) for _ in range(order + 1)))
    b = Jet((rng.uniform(0.5, 2.0, size=3),)
            + tuple(rng.uniform(-2.0, 2.0, size=3) for _ in range(order)))
    for k in range(order + 1):
        ta, tb = jets.truncate(a, k), jets.truncate(b, k)
        for name, f in _PREFIX_OPS:
            _same_bits(jets.truncate(f(a, b), k), f(ta, tb), name)
        if k < order:
            _same_bits(jets.truncate(a.derivative(), k),
                       jets.truncate(a, k + 1).derivative(), "derivative")
