"""Forward-mode jets: truncated Taylor expansions in one variable.

A ``Jet`` stores the normalized Taylor coefficients ``c[k] = f^(k)(x)/k!``
of a function at a point, up to a fixed order.  Arithmetic and the
elementary functions propagate coefficients by exact series recurrences, so
first and second derivatives of arbitrary closed-form compositions come out
to machine precision.  Coefficients may be floats or numpy arrays, which
vectorizes a profile evaluation over a whole grid of points at once.

A tensor of jets is one ``Jet`` whose coefficients carry the index axes
first and the grid axis last, shape ``(*index_shape, n)``.  The elementwise
recurrences act on it unchanged; :meth:`Jet.map` applies a linear index map
to every coefficient, and :func:`einsum` contracts two jets by the Leibniz
rule ``c_k = sum_j einsum(a_j, b_{k-j})`` (Taylor-mode products, Griewank
and Walther, *Evaluating Derivatives*, ch. 13).

Each frame derivative consumes one order: the brackets and connection
coefficients are first derivatives of the profiles, and the curvature
differentiates those once more, so chart profiles are evaluated at order
``DEFAULT_ORDER = 2``.  Asking a jet for a derivative it does not carry
raises ``ValueError``, and so does arithmetic between jets of different
orders: a caller that means to drop orders says so with :func:`truncate`.

Coefficient k of every operation reads the operands' coefficients up to k
only (the derivative reads k + 1), so truncating the operands truncates
the result, bit for bit.  Each object is therefore built at the lowest
order its readers use: the profiles at 2; the brackets and connection
coefficients at 1; the torsion 3-form H at 1, since nothing reads its
second derivative; the curvature, the covariant derivatives read as
values, the torsion forms and the exterior data of H at 0.

An order-0 jet holds values only.  Every operation accepts it and computes
the same value coefficient as at any higher order, so a caller that reads
no derivative evaluates a jet-transparent formula at order 0 and skips the
recurrences (the values of the Bonneau conformal factor in the chart's
positivity scan and in the holomorphic radius).

The elementary functions and :func:`truncate` take jets only; a number or
array enters as the other operand of jet arithmetic, where it is a
constant, or as a fixed tensor of :func:`einsum`.
"""

from __future__ import annotations

import operator

import numpy as np

__all__ = [
    "Jet", "sqrt", "exp", "log", "sin", "cos", "sincos", "arctan",
    "arctan_minus_id", "where", "truncate", "einsum",
]

DEFAULT_ORDER = 2


class Jet:
    """Truncated Taylor series ``sum_k c[k] t^k`` with scalar or array c[k]."""

    __slots__ = ("coeffs",)
    # numpy operators defer to the jet's own (reflected) arithmetic
    __array_ufunc__ = None

    def __init__(self, coeffs):
        self.coeffs = tuple(coeffs)

    # -- construction ------------------------------------------------------

    @staticmethod
    def variable(x, order: int = DEFAULT_ORDER) -> "Jet":
        """Seed jet for the independent variable at x; at order 0 the value
        x alone.  A negative order raises ``ValueError``."""
        if order < 0:
            raise ValueError(f"jet order must be non-negative, got {order}")
        if order == 0:
            return Jet((x,))
        return Jet((x, _ones_like(x)) + (0.0,) * (order - 1))

    @staticmethod
    def constant(v, order: int = DEFAULT_ORDER) -> "Jet":
        return Jet((v,) + (0.0,) * order)

    # -- views -------------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def value(self):
        return self.coeffs[0]

    def derivative(self) -> "Jet":
        """Jet of f', one order lower."""
        if self.order == 0:
            raise ValueError("cannot differentiate an order-0 jet")
        return Jet(tuple((k + 1) * self.coeffs[k + 1] for k in range(self.order)))

    def map(self, f) -> "Jet":
        """The jet of f(self) for a linear map f, applied to every coefficient
        (index permutations, selections, contractions with fixed tensors)."""
        return Jet(tuple(f(c) for c in self.coeffs))

    def __float__(self) -> float:
        return float(self.coeffs[0])

    def __repr__(self) -> str:
        return f"Jet{self.coeffs!r}"

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        a, b = _align(self, other)
        return Jet(tuple(x + y for x, y in zip(a, b)))

    __radd__ = __add__

    def __neg__(self):
        return Jet(tuple(-x for x in self.coeffs))

    # a - b rounds as a + (-b) for every a and b but a NaN b, whose sign
    # bit it keeps; printed output carries no NaN sign
    def __sub__(self, other):
        a, b = _align(self, other)
        return Jet(tuple(x - y for x, y in zip(a, b)))

    def __rsub__(self, other):
        a, b = _align(self, other)
        return Jet(tuple(y - x for x, y in zip(a, b)))

    def __mul__(self, other):
        return Jet(_leibniz(*_align(self, other), operator.mul))

    __rmul__ = __mul__

    def __truediv__(self, other):
        a, b = _align(self, other)
        n = len(a)
        inv0 = 1.0 / b[0]
        out = [a[0] * inv0]
        for k in range(1, n):
            s = a[k]
            for j in range(1, k + 1):
                s = s - b[j] * out[k - j]
            out.append(s * inv0)
        return Jet(tuple(out))

    def __rtruediv__(self, other):
        return _as_jet(other, self.order) / self

    def __pow__(self, p):
        if isinstance(p, int):
            if p < 0:
                return 1.0 / (self ** (-p))
            out = Jet.constant(1.0, self.order)
            base = self
            k = p
            while k:
                if k & 1:
                    out = out * base
                base = base * base
                k >>= 1
            return out
        return exp(log(self) * p)


def _ones_like(x):
    return np.ones_like(x) if isinstance(x, np.ndarray) else 1.0


def _as_jet(x, order: int) -> Jet:
    return x if isinstance(x, Jet) else Jet.constant(x, order)


def _align(a: Jet, b):
    """Coefficient tuples of both operands, a number or array as a constant
    jet of a's order; jets of different orders raise ``ValueError``."""
    b = _as_jet(b, a.order)
    if b.order != a.order:
        raise ValueError(f"jet orders differ: {a.order} and {b.order}; "
                         "truncate the higher one explicitly")
    return a.coeffs, b.coeffs


def einsum(spec: str, *operands):
    """``np.einsum`` of one or two jets with fixed arrays, the grid axis in
    ``...``.

    With one jet operand the contraction is a linear map applied to every
    coefficient; with two it is the Leibniz rule
    ``c_k = sum_j einsum(spec, a_j, b_{k-j})``.  Two jets of different
    orders raise ``ValueError``, as in arithmetic: a caller truncates the
    higher one explicitly.  No jet operand, or more than two, raises
    ``ValueError``.
    """
    pos = [i for i, op in enumerate(operands) if isinstance(op, Jet)]
    ops = list(operands)

    def term(*coeffs):
        for i, c in zip(pos, coeffs):
            ops[i] = c
        return np.einsum(spec, *ops)

    if len(pos) == 1:
        return operands[pos[0]].map(term)
    if len(pos) != 2:
        raise ValueError(f"einsum contracts one or two jets, got {len(pos)}")
    a, b = _align(*(operands[i] for i in pos))
    return Jet(_leibniz(a, b, term))


def _leibniz(a, b, product):
    """Coefficients c_k = sum_j product(a_j, b_{k-j}) of two series of one
    order.  A sum accumulates in place, into its first product, while each
    term is an array of its shape and dtype: the same additions in the same
    order, with one temporary per term in place of two."""
    out = []
    for k in range(len(a)):
        s = product(a[0], b[k])
        for j in range(1, k + 1):
            p = product(a[j], b[k - j])
            if (type(s) is np.ndarray and type(p) is np.ndarray
                    and p.shape == s.shape and p.dtype == s.dtype):
                s += p
            else:
                s = s + p
        out.append(s)
    return tuple(out)


def truncate(x: Jet, order: int) -> Jet:
    """The jet cut down to ``order``.  Asking for an order the jet does not
    carry, or a negative one, raises ``ValueError``."""
    if not 0 <= order <= x.order:
        raise ValueError(f"cannot cut an order-{x.order} jet to order {order}")
    return Jet(x.coeffs[:order + 1])


def _integrate(w, y0, order):
    """Series with derivative series ``w`` and constant term ``y0``."""
    out = [y0]
    for k in range(1, order + 1):
        out.append(w[k - 1] / k if k - 1 < len(w) else 0.0 * y0)
    return Jet(tuple(out))


def sqrt(x):
    a = x.coeffs
    y0 = np.sqrt(a[0])
    out = [y0]
    half = 0.5 / y0
    for k in range(1, x.order + 1):
        s = a[k]
        for j in range(1, k):
            s = s - out[j] * out[k - j]
        out.append(s * half)
    return Jet(tuple(out))


def exp(x):
    a = x.coeffs
    out = [np.exp(a[0])]
    for k in range(1, x.order + 1):
        s = 1.0 * a[1] * out[k - 1]
        for j in range(2, k + 1):
            s = s + j * a[j] * out[k - j]
        out.append(s / k)
    return Jet(tuple(out))


def log(x):
    a = x.coeffs
    out = [np.log(a[0])]
    inv0 = 1.0 / a[0]
    for k in range(1, x.order + 1):
        s = k * a[k]
        for j in range(1, k):
            s = s - j * out[j] * a[k - j]
        out.append(s * inv0 / k)
    return Jet(tuple(out))


def sin(x):
    return sincos(x)[0]


def cos(x):
    return sincos(x)[1]


def sincos(x):
    """(sin x, cos x) from one pass of the coupled series recurrences."""
    a = x.coeffs
    s = [np.sin(a[0])]
    c = [np.cos(a[0])]
    for k in range(1, x.order + 1):
        sk = 0.0
        ck = 0.0
        for j in range(1, k + 1):
            sk = sk + j * a[j] * c[k - j]
            ck = ck - j * a[j] * s[k - j]
        s.append(sk / k)
        c.append(ck / k)
    return Jet(tuple(s)), Jet(tuple(c))


def arctan(x):
    if x.order == 0:
        return Jet((np.arctan(x.value),))
    v = 1.0 + x * x
    w = x.derivative() / Jet(v.coeffs[:-1])
    return _integrate(w.coeffs, np.arctan(x.value), x.order)


def arctan_minus_id(x):
    """arctan(x) - x, stable for small x where the naive difference cancels.

    The derivative is -x^2/(1+x^2), which has no cancellation; the constant
    term uses the alternating series below a cutoff.
    """
    if x.order == 0:
        return Jet((_atanm_value(x.value),))
    xx = x * x
    v = 1.0 + xx
    num = -xx
    w = (Jet(num.coeffs[:-1]) / Jet(v.coeffs[:-1])) * x.derivative()
    return _integrate(w.coeffs, _atanm_value(x.value), x.order)


def _atanm_value(u):
    """arctan(u) - u in u's float precision (float64 at least): the
    alternating series on the values with |u| < 0.25, arctan(u) - u on the
    rest, each form on its own values only, in place, and neither on an
    empty set."""
    u = np.asarray(u)
    u = u.astype(np.result_type(u.dtype, np.float64), copy=False)
    small = np.abs(u) < 0.25
    out = np.empty_like(u)
    if small.any():
        us = u[small]
        # sum_{m>=1} (-1)^m u^(2m+1)/(2m+1), converges fast for |u| < 0.25
        acc = np.zeros_like(us)
        term = us.copy()
        step = np.empty_like(us)
        for m in range(1, 12):
            term *= us
            term *= us
            # adding the odd terms' negatives rounds as subtracting them
            np.divide(term, 2 * m + 1, out=step)
            if m % 2:
                acc -= step
            else:
                acc += step
        out[small] = acc
    big = ~small
    if big.any():
        rest = u[big]
        direct = np.arctan(rest)
        direct -= rest
        out[big] = direct
    return out if out.ndim else float(out)


def where(mask, a: Jet, b: Jet) -> Jet:
    """Piecewise jet: coefficients of ``a`` where mask holds, else ``b``."""
    return Jet(tuple(np.where(mask, p, q) for p, q in zip(*_align(a, b))))
