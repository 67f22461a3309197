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

The same holds for the derivatives along the chart coordinates a Jet
does not depend on.  Each Jet has a support, the sorted coordinates it
depends on: (i,) for coordinate i, while a constant is a plain number
with no derivatives.  A Jet's d1, d2 and d3 span its support only, so
cosh(u) carries one third derivative on a surface chart, not eight.
Unary rules keep the support, and a binary rule on one support is the
rule above.  On disjoint supports each block of the union takes its one
nonzero Leibniz term directly (a2 b, a1 b1, a2 b1 in its three
placements, ...), and no zero is multiplied.  Otherwise both operands
are embedded in the union, with zeros, and the rule runs there.  The
index maps of a support pair are built once (_pair), as slices where a
support sits contiguously in the union.  Every block still equals the
one of the rules with every coordinate's block an array, up to the sign
of a zero and to a 0 * inf (as with _ZERO): jet() scatters each
component's blocks into the Jet3 arrays, zeros elsewhere.
"""

import functools
import itertools
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


@functools.cache
def _spots(positions, k):
    """Indexer of k leading axes at positions (a nonempty sorted tuple):
    slices where they are contiguous, else open-mesh index arrays."""
    lo, hi = positions[0], positions[0] + len(positions)
    if positions == tuple(range(lo, hi)):
        return (slice(lo, hi),) * k
    return np.ix_(*(np.array(positions),) * k)


@functools.cache
def _pair(sa, sb):
    """(union, disjoint, index) of the supports sa, sb: index["ab"] and
    the like place the rows of a block whose axes run over sa, sb, ...
    in the union's arrays."""
    s = tuple(sorted(set(sa) | set(sb)))
    pos = {"a": tuple(map(s.index, sa)), "b": tuple(map(s.index, sb))}
    index = {}
    for k in (1, 2, 3):
        for axes in itertools.product("ab", repeat=k):
            ps = [pos[c] for c in axes]
            spots = [_spots(p, 1)[0] for p in ps]
            index["".join(axes)] = (
                tuple(spots) if all(isinstance(i, slice) for i in spots)
                else np.ix_(*map(np.array, ps)))
    return s, not set(sa) & set(sb), index


def _assemble(shape, blocks):
    """An array of shape holding each (index, block) of blocks, zeros
    elsewhere; _ZERO if every block is _ZERO, None past the order."""
    if blocks[0][1] is None:
        return None
    live = [(i, b) for i, b in blocks if b is not _ZERO]
    if not live:
        return _ZERO
    k = len(blocks[0][0])
    out = (np.empty if len(live) == 2 ** k else np.zeros)(shape)
    for i, b in live:
        out[i] = b
    return out


def _add_disjoint(a, b, s, ix):
    """a + b on disjoint supports, union s with index maps ix (_pair):
    each derivative block is a's or b's, and the mixed ones are 0."""
    lead, grid = (len(s),), a.d1.shape[1:]
    return Jet(a.v + b.v,
               _assemble(lead + grid, [(ix["a"], a.d1), (ix["b"], b.d1)]),
               _assemble(lead * 2 + grid, [(ix["aa"], a.d2),
                                           (ix["bb"], b.d2)]),
               _assemble(lead * 3 + grid, [(ix["aaa"], a.d3),
                                           (ix["bbb"], b.d3)]), s)


def _mul_disjoint(a, b, s, ix):
    """a * b on disjoint supports, union s with index maps ix (_pair):
    each block has one Leibniz term, a_I b_J with I on a's support and
    J on b's, the term the rule with zero blocks sums with zeros."""
    lead, grid = (len(s),), a.d1.shape[1:]
    d1 = _assemble(lead + grid, [(ix["a"], a.d1 * b.v),
                                 (ix["b"], a.v * b.d1)])
    d2 = d3 = None
    if a.d2 is not None:
        ab = a.d1[:, None] * b.d1
        d2 = _assemble(lead * 2 + grid, [
            (ix["aa"], a.d2 * b.v), (ix["ab"], ab),
            (ix["ba"], ab.transpose(1, 0, 2)), (ix["bb"], a.v * b.d2)])
    if a.d3 is not None:
        aab = a.d2[:, :, None] * b.d1
        bba = b.d2[:, :, None] * a.d1
        d3 = _assemble(lead * 3 + grid, [
            (ix["aaa"], a.d3 * b.v), (ix["aab"], aab),
            (ix["aba"], aab.transpose(0, 2, 1, 3)),
            (ix["baa"], aab.transpose(2, 0, 1, 3)),
            (ix["bba"], bba), (ix["bab"], bba.transpose(0, 2, 1, 3)),
            (ix["abb"], bba.transpose(2, 0, 1, 3)),
            (ix["bbb"], a.v * b.d3)])
    return Jet(a.v * b.v, d1, d2, d3, s)


class Jet:
    """A scalar field on G grid points with its derivatives along the k
    chart coordinates of its support up to the jet's order (1, 2 or 3),
    grid axis last: v (G,), d1 (k, G), d2 (k, k, G), d3 (k, k, k, G);
    those above the order are None, and a d2 or d3 known to vanish is
    _ZERO.  Non-Jet operands are constants; the Jets of one formula
    share one order.

    With the grid axis last every elementwise step runs over contiguous
    rows of G points; :func:`jet` moves it to the front once, for
    Jet3."""

    __slots__ = ("v", "d1", "d2", "d3", "support")

    def __init__(self, v, d1, d2, d3, support):
        self.v, self.d1, self.d2, self.d3 = v, d1, d2, d3
        self.support = support

    @property
    def order(self) -> int:
        return 1 if self.d2 is None else 2 if self.d3 is None else 3

    def _on(self, v, d1, d2, d3):
        """A Jet on this one's support."""
        return Jet(v, d1, d2, d3, self.support)

    def _within(self, s, ix, side):
        """This Jet on the support s, which holds its own at the index
        maps ix[side], ix[side * 2], ... (_pair), zeros in the rest."""
        if self.support == s:
            return self

        def widen(block, k):
            if block is None or block is _ZERO:
                return block
            out = np.zeros((len(s),) * k + block.shape[k:])
            out[ix[side * k]] = block
            return out
        return Jet(self.v, widen(self.d1, 1), widen(self.d2, 2),
                   widen(self.d3, 3), s)

    def __add__(self, other):
        if not isinstance(other, Jet):
            return self._on(self.v + other, self.d1, self.d2, self.d3)
        a, b = self, other
        if a.support != b.support:
            s, disjoint, ix = _pair(a.support, b.support)
            if disjoint:
                return _add_disjoint(a, b, s, ix)
            a, b = a._within(s, ix, "a"), b._within(s, ix, "b")
        return a._on(a.v + b.v, a.d1 + b.d1, _upto(operator.add, a.d2, b.d2),
                     _upto(operator.add, a.d3, b.d3))

    __radd__ = __add__

    def __neg__(self):
        return self._on(-self.v, -self.d1, _upto(operator.neg, self.d2),
                        _upto(operator.neg, self.d3))

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return self._on(self.v * other, self.d1 * other,
                            _upto(operator.mul, self.d2, other),
                            _upto(operator.mul, self.d3, other))
        a, b = self, other
        if a.support != b.support:
            s, disjoint, ix = _pair(a.support, b.support)
            if disjoint:
                return _mul_disjoint(a, b, s, ix)
            a, b = a._within(s, ix, "a"), b._within(s, ix, "b")
        d2 = d3 = None
        if a.d2 is not None:
            a1b1 = a.d1[:, None] * b.d1
            d2 = a.d2 * b.v + a1b1 + a1b1.transpose(1, 0, 2) + a.v * b.d2
        if a.d3 is not None:
            d3 = (a.d3 * b.v + a.v * b.d3
                  + _sym3(a.d2[:, :, None] * b.d1)
                  + _sym3(b.d2[:, :, None] * a.d1))
        return a._on(a.v * b.v, a.d1 * b.v + a.v * b.d1, d2, d3)

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
        return self._on(f[0], f[1] * x1, d2, d3)

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


def coordinates(pts, order=3):
    """The chart coordinates of points pts (G, d) as Jets of order 1, 2
    or 3: coordinate i has support (i,), d1 = 1 and zero d2 and d3."""
    if not (isinstance(order, int) and 1 <= order <= 3):
        raise ValueError(f"jet orders are 1, 2 or 3, not {order!r}")
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    high = [_ZERO if k <= order else None for k in (2, 3)]
    one = np.ones((1, len(pts)))
    return [Jet(pts[:, i], one, *high, (i,)) for i in range(pts.shape[1])]


def jet(formula, pts, order=3):
    """Jet of formula at chart points pts (G, d), truncated at order 1,
    2 or 3: a Jet3 whose derivatives above the order are None."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    comps = formula(*coordinates(pts, order))
    (G, d), n = pts.shape, len(comps)
    value = np.empty((G, n))
    blocks = [np.zeros((G,) + (d,) * k + (n,)) if k <= order else None
              for k in (1, 2, 3)]
    for x, c in enumerate(comps):
        if not isinstance(c, Jet):
            value[:, x] = c
            continue
        value[:, x] = c.v
        for k, (out, block) in enumerate(zip(blocks, (c.d1, c.d2, c.d3)),
                                         1):
            if out is not None and block is not _ZERO:
                # the grid axis, last in the block, first in out
                out[(slice(None),) + _spots(c.support, k) + (x,)] = (
                    block.transpose(k, *range(k)))
    return Jet3(value=value, d1=blocks[0], d2=blocks[1], d3=blocks[2])
