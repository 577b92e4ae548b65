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
"""

from __future__ import annotations

import operator

import numpy as np

__all__ = [
    "Jet", "sqrt", "exp", "log", "sin", "cos", "sincos", "arctan",
    "arctan_minus_id", "where", "value_of", "truncate", "einsum",
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
        """Seed jet for the independent variable at x."""
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

    @property
    def d1(self):
        if self.order < 1:
            raise ValueError("an order-0 jet carries no first derivative")
        return self.coeffs[1]

    @property
    def d2(self):
        if self.order < 2:
            raise ValueError(f"an order-{self.order} jet carries no second derivative")
        return 2.0 * self.coeffs[2]

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

    def __sub__(self, other):
        return self + (-_as_jet(other, self.order))

    def __rsub__(self, other):
        return (-self) + other

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


def _value_of(x):
    return x.value if isinstance(x, Jet) else x


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
    """``np.einsum`` over jets and arrays, with the grid axis in ``...``.

    Arrays are constants.  With one jet operand the contraction is a
    linear map applied to every coefficient; with two it is the Leibniz
    rule ``c_k = sum_j einsum(spec, a_j, b_{k-j})``.  Two jets of different
    orders raise ``ValueError``, as in arithmetic: a caller truncates the
    higher one explicitly.  More than two jet operands are not supported.
    """
    pos = [i for i, op in enumerate(operands) if isinstance(op, Jet)]
    if not pos:
        return np.einsum(spec, *operands)
    ops = list(operands)

    def term(*coeffs):
        for i, c in zip(pos, coeffs):
            ops[i] = c
        return np.einsum(spec, *ops)

    if len(pos) == 1:
        return operands[pos[0]].map(term)
    if len(pos) > 2:
        raise ValueError("einsum contracts at most two jets")
    a, b = _align(*(operands[i] for i in pos))
    return Jet(_leibniz(a, b, term))


def _leibniz(a, b, product):
    """Coefficients c_k = sum_j product(a_j, b_{k-j}) of two series of one order."""
    out = []
    for k in range(len(a)):
        s = product(a[0], b[k])
        for j in range(1, k + 1):
            s = s + product(a[j], b[k - j])
        out.append(s)
    return tuple(out)


def value_of(x):
    """Plain value of a jet, passthrough for numbers and arrays."""
    return _value_of(x)


def truncate(x, order: int):
    """A jet cut down to ``order``; numbers and arrays pass through.  Asking
    for an order the jet does not carry raises ``ValueError``."""
    if not isinstance(x, Jet):
        return x
    if order > x.order:
        raise ValueError(f"cannot raise an order-{x.order} jet to order {order}")
    return Jet(x.coeffs[:order + 1])


def _integrate(w, y0, order):
    """Series with derivative series ``w`` and constant term ``y0``."""
    out = [y0]
    for k in range(1, order + 1):
        out.append(w[k - 1] / k if k - 1 < len(w) else 0.0 * y0)
    return Jet(tuple(out))


def sqrt(x):
    if not isinstance(x, Jet):
        return np.sqrt(x)
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
    if not isinstance(x, Jet):
        return np.exp(x)
    a = x.coeffs
    out = [np.exp(a[0])]
    for k in range(1, x.order + 1):
        s = 1.0 * a[1] * out[k - 1]
        for j in range(2, k + 1):
            s = s + j * a[j] * out[k - j]
        out.append(s / k)
    return Jet(tuple(out))


def log(x):
    if not isinstance(x, Jet):
        return np.log(x)
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
    if not isinstance(x, Jet):
        return np.sin(x), np.cos(x)
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
    if not isinstance(x, Jet):
        return np.arctan(x)
    v = 1.0 + x * x
    w = x.derivative() / Jet(v.coeffs[:-1])
    return _integrate(w.coeffs, np.arctan(x.value), x.order)


def arctan_minus_id(x):
    """arctan(x) - x, stable for small x where the naive difference cancels.

    The derivative is -x^2/(1+x^2), which has no cancellation; the constant
    term uses the alternating series below a cutoff.
    """
    if not isinstance(x, Jet):
        return _atanm_value(x)
    v = 1.0 + x * x
    num = -(x * x)
    w = (Jet(num.coeffs[:-1]) / Jet(v.coeffs[:-1])) * x.derivative()
    return _integrate(w.coeffs, _atanm_value(x.value), x.order)


def _atanm_value(u):
    u = np.asarray(u, dtype=float)
    small = np.abs(u) < 0.25
    us = np.where(small, u, 0.0)
    # sum_{m>=1} (-1)^m u^(2m+1)/(2m+1), converges fast for |u| < 0.25
    acc = np.zeros_like(us)
    term = us.copy()
    sign = -1.0
    for m in range(1, 12):
        term = term * us * us
        acc = acc + sign * term / (2 * m + 1)
        sign = -sign
    direct = np.arctan(u) - u
    out = np.where(small, acc, direct)
    return out if out.ndim else float(out)


def where(mask, a: Jet, b: Jet) -> Jet:
    """Piecewise jet: coefficients of ``a`` where mask holds, else ``b``."""
    return Jet(tuple(np.where(mask, p, q) for p, q in zip(*_align(a, b))))
