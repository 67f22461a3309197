"""Order-3 Taylor-mode jets of chart formulas.

A chart formula is a plain Python function of the chart coordinates
that returns the ambient components, written with arithmetic, the numpy
ufuncs sin/cos/sinh/cosh and :func:`polyval`.  Called on float arrays it
gives values.  Called on the coordinate jets of :func:`jet3` it gives
the value and first three partial derivatives, carried through each
operation by the Leibniz rule and Faa di Bruno's formula (Griewank &
Walther, *Evaluating Derivatives*, 2nd ed., SIAM 2008, ch. 13).
"""

import numpy as np
from numpy.polynomial import polynomial as npoly

from .chartcalc import Jet3

# derivatives of order 0..3 of each ufunc a Jet accepts, at x
_SERIES = {
    np.sin: lambda x: (np.sin(x), np.cos(x), -np.sin(x), -np.cos(x)),
    np.cos: lambda x: (np.cos(x), -np.sin(x), -np.cos(x), np.sin(x)),
    np.sinh: lambda x: (np.sinh(x), np.cosh(x), np.sinh(x), np.cosh(x)),
    np.cosh: lambda x: (np.cosh(x), np.sinh(x), np.cosh(x), np.sinh(x)),
}
_BINARY = {np.add: "add", np.subtract: "sub", np.multiply: "mul",
           np.true_divide: "truediv"}


def _sym3(t):
    """t[i,j,k] + t[i,k,j] + t[j,k,i] for t symmetric in i, j: the sum
    over the three places of the odd index."""
    return t + t.transpose(0, 2, 1, 3) + t.transpose(2, 0, 1, 3)


class Jet:
    """A scalar field on G grid points with its first three derivatives
    in d chart coordinates, grid axis last: v (G,), d1 (d, G),
    d2 (d, d, G), d3 (d, d, d, G).  Non-Jet operands are constants.

    With the grid axis last every elementwise step runs over contiguous
    rows of G points; :func:`jet3` moves it to the front once, for
    Jet3."""

    __slots__ = ("v", "d1", "d2", "d3")

    def __init__(self, v, d1, d2, d3):
        self.v, self.d1, self.d2, self.d3 = v, d1, d2, d3

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet(self.v + other.v, self.d1 + other.d1,
                       self.d2 + other.d2, self.d3 + other.d3)
        return Jet(self.v + other, self.d1, self.d2, self.d3)

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.v, -self.d1, -self.d2, -self.d3)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.v * other, self.d1 * other, self.d2 * other,
                       self.d3 * other)
        a, b = self, other
        a1b1 = a.d1[:, None] * b.d1
        return Jet(a.v * b.v,
                   a.d1 * b.v + a.v * b.d1,
                   a.d2 * b.v + a1b1 + a1b1.transpose(1, 0, 2) + a.v * b.d2,
                   a.d3 * b.v + a.v * b.d3
                   + _sym3(a.d2[:, :, None] * b.d1)
                   + _sym3(b.d2[:, :, None] * a.d1))

    __rmul__ = __mul__

    def __pow__(self, k):
        if not (isinstance(k, int) and k >= 1):
            raise ValueError(f"Jet powers are positive integers, not {k!r}")
        out = self
        for _ in range(k - 1):
            out = out * self
        return out

    def reciprocal(self):
        r = 1.0 / self.v
        return self.compose(r, -r**2, 2.0 * r**3, -6.0 * r**4)

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other.reciprocal()
        return self * (1.0 / other)

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def compose(self, f0, f1, f2, f3):
        """Jet of g(self), given g and its first three derivatives at
        self.v (Faa di Bruno to order 3)."""
        x1, x2 = self.d1, self.d2
        x11 = x1[:, None] * x1
        return Jet(f0,
                   f1 * x1,
                   f1 * x2 + f2 * x11,
                   f1 * self.d3 + f2 * _sym3(x2[:, :, None] * x1)
                   + f3 * (x11[:, :, None] * x1))

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if method != "__call__" or kwargs:
            return NotImplemented
        if ufunc in _SERIES:
            x, = inputs
            return x.compose(*_SERIES[ufunc](x.v))
        if ufunc in _BINARY:
            a, b = inputs
            if isinstance(a, Jet):
                return getattr(a, f"__{_BINARY[ufunc]}__")(b)
            return getattr(b, f"__r{_BINARY[ufunc]}__")(a)
        return NotImplemented


def polyval(x, c):
    """Polynomial with coefficients c (index = power) at x, a float
    array or a Jet."""
    if not isinstance(x, Jet):
        return npoly.polyval(x, c)
    derivs = [np.asarray(c, dtype=float)]
    for _ in range(3):
        derivs.append(npoly.polyder(derivs[-1]))
    return x.compose(*(npoly.polyval(x.v, p) for p in derivs))


def values(formula, pts):
    """formula at chart points pts (G, d): array (G, n)."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    G = pts.shape[0]
    return np.stack([np.broadcast_to(c, (G,)) for c in formula(*pts.T)],
                    axis=-1)


def _grid_first(blocks):
    """Stack per-component blocks (..., G) into one array (G, ..., n)."""
    return np.ascontiguousarray(np.moveaxis(np.stack(blocks, axis=-1),
                                            -2, 0))


def jet3(formula, pts):
    """Order-3 jet of formula at chart points pts (G, d)."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    G, d = pts.shape
    zero2, zero3 = np.zeros((d, d, G)), np.zeros((d, d, d, G))
    coords = [Jet(pts[:, i], np.repeat(np.eye(d)[:, i, None], G, axis=1),
                  zero2, zero3) for i in range(d)]
    comps = [c if isinstance(c, Jet) else
             Jet(np.full(G, float(c)), np.zeros((d, G)), zero2, zero3)
             for c in formula(*coords)]
    return Jet3(value=_grid_first([c.v for c in comps]),
                d1=_grid_first([c.d1 for c in comps]),
                d2=_grid_first([c.d2 for c in comps]),
                d3=_grid_first([c.d3 for c in comps]))
