"""Taylor-mode jets of chart formulas, truncated at order 1, 2 or 3.

A chart formula is a plain Python function of the chart coordinates
that returns the ambient components, written with arithmetic, the numpy
ufuncs sin/cos/sinh/cosh and :func:`polyval`.  Called on float arrays it
gives values.  Called on the coordinate jets of :func:`jet` it gives
the value and the partial derivatives up to the jet's order, carried
through each operation by the Leibniz rule and Faa di Bruno's formula
(Griewank & Walther, *Evaluating Derivatives*, 2nd ed., SIAM 2008,
ch. 13).  Each rule forms only the terms up to the order, so an order-1
jet costs a value and a gradient, and its d1 equals, bit for bit, the
d1 of the order-3 jet.

The coordinates and the constant components have identically zero d2
and d3 blocks, known before any grid point is read.  Those blocks are
the sentinel _ZERO rather than arrays of zeros, and every rule drops
the terms that have it as a factor, so the coordinates' zeros are never
multiplied through the Leibniz and Faa di Bruno terms.  The terms that
remain are summed in the rule's own left-to-right order, so every block
equals the one the rule gives with explicit zero arrays.  The sentinel
never leaves this module: jet() writes a zero block out as zeros.
"""

import operator

import numpy as np

from .chartcalc import Jet3

# ufunc -> (its first derivative, whether f'' = -f rather than f)
_SERIES = {np.sin: (np.cos, True), np.cos: (lambda x: -np.sin(x), True),
           np.sinh: (np.cosh, False), np.cosh: (np.sinh, False)}
_BINARY = {np.add: "add", np.subtract: "sub", np.multiply: "mul",
           np.true_divide: "truediv"}


def _series(ufunc, x, order):
    """ufunc and its derivatives of order 1..order at x; the one of
    order k >= 2 is -+ the one of order k - 2."""
    df, flip = _SERIES[ufunc]
    out = [ufunc(x), df(x)]
    for k in range(2, order + 1):
        out.append(-out[k - 2] if flip else out[k - 2])
    return out


class _Zero:
    """An identically zero derivative block of any shape: it absorbs
    products, vanishes from sums and is its own index and transpose.
    ndarray operators defer to it (__array_ufunc__ = None).

    Dropping a term 0 * x changes no value where x is finite (x + 0 is
    x, up to the sign of a zero); where x is inf or NaN the rule with a
    zero array gave NaN.  Such a point has a non-finite value and d1,
    which carry no sentinel, so the metric gate still names it."""

    __slots__ = ()
    __array_ufunc__ = None

    def __mul__(self, other):
        return self

    __rmul__ = __mul__

    def __add__(self, other):
        return other

    __radd__ = __add__

    def __neg__(self):
        return self

    def __getitem__(self, index):
        return self

    def transpose(self, *axes):
        return self


_ZERO = _Zero()


def _upto(op, a, *rest):
    """op(a, *rest) for a derivative array a; None past the order."""
    return None if a is None else op(a, *rest)


def _sym3(t):
    """t[i,j,k] + t[i,k,j] + t[j,k,i] for t symmetric in i, j: the sum
    over the three places of the odd index (_ZERO for t = _ZERO)."""
    return t + t.transpose(0, 2, 1, 3) + t.transpose(2, 0, 1, 3)


class Jet:
    """A scalar field on G grid points with its derivatives in d chart
    coordinates up to the jet's order (1, 2 or 3), grid axis last:
    v (G,), d1 (d, G), d2 (d, d, G), d3 (d, d, d, G); those above the
    order are None, and a d2 or d3 known to vanish is _ZERO.  Non-Jet
    operands are constants; the Jets of one formula share one order.

    With the grid axis last every elementwise step runs over contiguous
    rows of G points; :func:`jet` moves it to the front once, for
    Jet3."""

    __slots__ = ("v", "d1", "d2", "d3")

    def __init__(self, v, d1, d2=None, d3=None):
        self.v, self.d1, self.d2, self.d3 = v, d1, d2, d3

    @property
    def order(self) -> int:
        return 1 if self.d2 is None else 2 if self.d3 is None else 3

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet(self.v + other.v, self.d1 + other.d1,
                       _upto(operator.add, self.d2, other.d2),
                       _upto(operator.add, self.d3, other.d3))
        return Jet(self.v + other, self.d1, self.d2, self.d3)

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.v, -self.d1, _upto(operator.neg, self.d2),
                   _upto(operator.neg, self.d3))

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.v * other, self.d1 * other,
                       _upto(operator.mul, self.d2, other),
                       _upto(operator.mul, self.d3, other))
        a, b = self, other
        d2 = d3 = None
        if a.d2 is not None:
            a1b1 = a.d1[:, None] * b.d1
            d2 = a.d2 * b.v + a1b1 + a1b1.transpose(1, 0, 2) + a.v * b.d2
        if a.d3 is not None:
            d3 = (a.d3 * b.v + a.v * b.d3
                  + _sym3(a.d2[:, :, None] * b.d1)
                  + _sym3(b.d2[:, :, None] * a.d1))
        return Jet(a.v * b.v, a.d1 * b.v + a.v * b.d1, d2, d3)

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
        # d^k/dv^k (1/v) = (-1)^k k! r^(k+1)
        return self.compose(r, *(c * r**k for c, k in
                                 ((-1.0, 2), (2.0, 3), (-6.0, 4))
                                 [:self.order]))

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other.reciprocal()
        return self * (1.0 / other)

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def compose(self, *f):
        """Jet of g(self), given g and its derivatives up to the jet's
        order at self.v, f = (g, g', ...) (Faa di Bruno)."""
        x1, x2 = self.d1, self.d2
        d2 = d3 = None
        if x2 is not None:
            x11 = x1[:, None] * x1
            d2 = f[1] * x2 + f[2] * x11
        if self.d3 is not None:
            d3 = (f[1] * self.d3 + f[2] * _sym3(x2[:, :, None] * x1)
                  + f[3] * (x11[:, :, None] * x1))
        return Jet(f[0], f[1] * x1, d2, d3)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if method != "__call__" or kwargs:
            return NotImplemented
        if ufunc in _SERIES:
            x, = inputs
            return x.compose(*_series(ufunc, x.v, x.order))
        if ufunc in _BINARY:
            a, b = inputs
            if isinstance(a, Jet):
                return getattr(a, f"__{_BINARY[ufunc]}__")(b)
            return getattr(b, f"__r{_BINARY[ufunc]}__")(a)
        return NotImplemented


def polyval(x, c):
    """Polynomial with coefficients c (index = power) at x, a float
    array or a Jet."""
    p = np.asarray(c, dtype=float)[::-1]   # highest power first
    if not isinstance(x, Jet):
        return np.polyval(p, x)
    derivs = [p]
    for _ in range(x.order):
        derivs.append(np.polyder(derivs[-1]))
    return x.compose(*(np.polyval(q, x.v) for q in derivs))


def values(formula, pts):
    """formula at chart points pts (G, d): array (G, n)."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    G = pts.shape[0]
    return np.stack([np.broadcast_to(c, (G,)) for c in formula(*pts.T)],
                    axis=-1)


def _grid_first(blocks, shape):
    """Per-component blocks (..., G) written once into one array
    (G, ..., n) of the given leading shape (G, ...), zeros for _ZERO;
    None past the order."""
    if blocks[0] is None:
        return None
    out = np.empty(shape + (len(blocks),))
    for x, block in enumerate(blocks):
        out[..., x] = 0.0 if block is _ZERO else np.moveaxis(block, -1, 0)
    return out


def jet(formula, pts, order=3):
    """Jet of formula at chart points pts (G, d), truncated at order 1,
    2 or 3: a Jet3 whose derivatives above the order are None."""
    if not (isinstance(order, int) and 1 <= order <= 3):
        raise ValueError(f"jet orders are 1, 2 or 3, not {order!r}")
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    G, d = pts.shape
    high = [_ZERO if k <= order else None for k in (2, 3)]
    coords = [Jet(pts[:, i], np.repeat(np.eye(d)[:, i, None], G, axis=1),
                  *high) for i in range(d)]
    comps = [c if isinstance(c, Jet) else
             Jet(np.full(G, float(c)), np.zeros((d, G)), *high)
             for c in formula(*coords)]
    value, d1, d2, d3 = (_grid_first([getattr(c, name) for c in comps],
                                     (G,) + (d,) * k)
                         for k, name in enumerate(("v", "d1", "d2", "d3")))
    return Jet3(value=value, d1=d1, d2=d2, d3=d3)
