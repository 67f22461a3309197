"""Taylor-mode jet arithmetic against hand-derived derivatives, and
against dense reference rules that carry every zero block as an array."""

import numpy as np
import pytest

from plurimean import forms, jets
from plurimean.fixtures import (_CATALOG, _stereo_sphere, fixture_names,
                                get_immersion, immersion)


def _formula(x1, x2, x3, x4):
    return [x1 * x2 * x3 / (1 + x4**2),
            np.sqrt(2.0) * np.sin(x1) * np.cosh(x2)
            - jets.polyval(x3, (1.0, 2.0, 3.0, 4.0)) * np.cos(x4),
            2.0 / (3 - np.sinh(x4)) + x2 - 0.5
            + 1 / ((2 + x1) * (2 + x4**2))]


def _recip_series(x, c):
    """Derivatives 0..3 of 1/(c + x^2)."""
    w = c + x**2
    return (1 / w, -2 * x / w**2, (6 * x**2 - 2 * c) / w**3,
            24 * x * (c - x**2) / w**4)


def _shifted_recip_series(x):
    """Derivatives 0..3 of 2/(3 - sinh x)."""
    s, c = np.sinh(x), np.cosh(x)
    w = 3 - s
    return (2 / w, 2 * c / w**2, 2 * s / w**2 + 4 * c**2 / w**3,
            2 * c / w**2 + 12 * s * c / w**3 + 12 * c**3 / w**4)


def _exact(x):
    """Each component is a sum of products of one-variable factors; a
    partial derivative of a product takes, from each factor, the
    derivative of order = how often its variable occurs in the index."""
    one = (1.0, 0.0, 0.0, 0.0)
    lin = [(xi, 1.0, 0.0, 0.0) for xi in x]
    sin1 = (np.sin(x[0]), np.cos(x[0]), -np.sin(x[0]), -np.cos(x[0]))
    cosh2 = (np.cosh(x[1]), np.sinh(x[1]), np.cosh(x[1]), np.sinh(x[1]))
    p3 = (1 + 2 * x[2] + 3 * x[2]**2 + 4 * x[2]**3,
          2 + 6 * x[2] + 12 * x[2]**2, 6 + 24 * x[2], 24.0)
    cos4 = (np.cos(x[3]), -np.sin(x[3]), -np.cos(x[3]), np.sin(x[3]))
    w1 = 2 + x[0]
    inv1 = (1 / w1, -1 / w1**2, 2 / w1**3, -6 / w1**4)
    r2 = np.sqrt(2.0)
    terms = [
        [(1.0, (lin[0], lin[1], lin[2], _recip_series(x[3], 1.0)))],
        [(r2, (sin1, cosh2, one, one)), (-1.0, (one, one, p3, cos4))],
        [(1.0, (one, one, one, _shifted_recip_series(x[3]))),
         (1.0, (one, lin[1], one, one)), (-0.5, (one, one, one, one)),
         (1.0, (inv1, one, one, _recip_series(x[3], 2.0)))],
    ]

    def partial(idx):
        out = []
        for comp in terms:
            total = 0.0
            for coef, factors in comp:
                prod = coef
                for k, f in enumerate(factors):
                    prod = prod * f[idx.count(k)]
                total = total + prod
            out.append(total)
        return np.array(out)

    d = 4
    value = partial(())
    d1 = np.array([partial((i,)) for i in range(d)])
    d2 = np.array([[partial((i, j)) for j in range(d)] for i in range(d)])
    d3 = np.array([[[partial((i, j, k)) for k in range(d)]
                    for j in range(d)] for i in range(d)])
    return value, d1, d2, d3


def test_jets_match_hand_derived_derivatives():
    pts = np.random.default_rng(3).uniform(-0.9, 0.9, size=(7, 4))
    jet = jets.jet(_formula, pts)
    assert jet.d3.shape == (7, 4, 4, 4, 3)
    for g, x in enumerate(pts):
        value, d1, d2, d3 = _exact(x)
        assert np.max(np.abs(jet.value[g] - value)) < 1e-12
        assert np.max(np.abs(jet.d1[g] - d1)) < 1e-12
        assert np.max(np.abs(jet.d2[g] - d2)) < 1e-12
        assert np.max(np.abs(jet.d3[g] - d3)) < 1e-12
    # d3 with three distinct indices is exercised, not only zero
    assert np.min(np.abs(jet.d3[:, 2, 0, 1, 0])) > 0.1


def test_values_match_jet_values():
    pts = np.random.default_rng(4).uniform(-0.9, 0.9, size=(5, 4))
    np.testing.assert_allclose(jets.values(_formula, pts),
                               jets.jet(_formula, pts).value,
                               rtol=0, atol=1e-14)


def _assert_truncations_match(jet_at):
    """The jets of orders 1 and 2 carry the lower derivatives of the
    order-3 jet bit for bit, and None above their order."""
    full = jet_at(3)
    for order in (1, 2):
        jet = jet_at(order)
        for name in ("value", "d1", "d2")[:order + 1]:
            assert np.array_equal(getattr(jet, name), getattr(full, name))
        assert jet.d3 is None
        assert (jet.d2 is None) == (order == 1)


def test_truncated_orders_match_order_3_on_hand_formula():
    pts = np.random.default_rng(5).uniform(-0.9, 0.9, size=(7, 4))
    _assert_truncations_match(lambda order: jets.jet(_formula, pts, order))


@pytest.mark.parametrize("name", fixture_names())
def test_truncated_orders_match_order_3_on_fixtures(name):
    imm = get_immersion(name)
    pts = imm.grid(3 if imm.complex_dim > 1 else 5, margin=0.02)
    _assert_truncations_match(lambda order: imm.jet_fn(pts, order))


@pytest.mark.parametrize("order", [0, 4, 1.5])
def test_jet_orders_are_1_2_or_3(order):
    with pytest.raises(ValueError):
        jets.jet(_formula, np.zeros((1, 4)), order)


def test_jet_powers_are_positive_integers():
    u = jets.Jet(np.zeros(1), np.ones((1, 1)), np.zeros((1, 1, 1)),
                 np.zeros((1, 1, 1, 1)), (0,))
    for k in (0, 0.5):
        with pytest.raises(ValueError):
            u ** k


# ------------------------------------------------- dense reference rules

class DenseJet(jets.Jet):
    """The Leibniz and Faa di Bruno rules with every derivative block an
    array, the zero ones included, summed term by term in the rule's
    order: the test oracle for jets.jet, which drops the terms of
    identically zero blocks.  A subclass, so that jets.polyval, the
    ufunc dispatch, reciprocal, division, powers and subtraction route
    through these rules.  Each spans every chart coordinate."""

    __slots__ = ()

    def __init__(self, v, d1, d2=None, d3=None):
        super().__init__(v, d1, d2, d3, tuple(range(len(d1))))

    def __add__(self, other):
        if isinstance(other, jets.Jet):
            return DenseJet(self.v + other.v, self.d1 + other.d1,
                            _dense(np.add, self.d2, other.d2),
                            _dense(np.add, self.d3, other.d3))
        return DenseJet(self.v + other, self.d1, self.d2, self.d3)

    __radd__ = __add__

    def __neg__(self):
        return DenseJet(-self.v, -self.d1, _dense(np.negative, self.d2),
                        _dense(np.negative, self.d3))

    def __mul__(self, other):
        if not isinstance(other, jets.Jet):
            return DenseJet(self.v * other, self.d1 * other,
                            _dense(np.multiply, self.d2, other),
                            _dense(np.multiply, self.d3, other))
        a, b = self, other
        d2 = d3 = None
        if a.d2 is not None:
            a1b1 = a.d1[:, None] * b.d1
            d2 = a.d2 * b.v + a1b1 + a1b1.transpose(1, 0, 2) + a.v * b.d2
        if a.d3 is not None:
            d3 = (a.d3 * b.v + a.v * b.d3
                  + _sym3_dense(a.d2[:, :, None] * b.d1)
                  + _sym3_dense(b.d2[:, :, None] * a.d1))
        return DenseJet(a.v * b.v, a.d1 * b.v + a.v * b.d1, d2, d3)

    __rmul__ = __mul__

    def compose(self, *f):
        x1, x2 = self.d1, self.d2
        d2 = d3 = None
        if x2 is not None:
            x11 = x1[:, None] * x1
            d2 = f[1] * x2 + f[2] * x11
        if self.d3 is not None:
            d3 = (f[1] * self.d3 + f[2] * _sym3_dense(x2[:, :, None] * x1)
                  + f[3] * (x11[:, :, None] * x1))
        return DenseJet(f[0], f[1] * x1, d2, d3)


def _dense(op, a, *rest):
    return None if a is None else op(a, *rest)


def _sym3_dense(t):
    return t + t.transpose(0, 2, 1, 3) + t.transpose(2, 0, 1, 3)


def dense_jet(formula, pts, order=3):
    """jets.jet with np.zeros blocks for the coordinates' and constants'
    d2 and d3, stacked per block and moved to the grid-first layout."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    G, d = pts.shape
    high = [np.zeros((d,) * k + (G,)) if k <= order else None
            for k in (2, 3)]
    coords = [DenseJet(pts[:, i],
                       np.repeat(np.eye(d)[:, i, None], G, axis=1), *high)
              for i in range(d)]
    comps = [c if isinstance(c, jets.Jet) else
             DenseJet(np.full(G, float(c)), np.zeros((d, G)), *high)
             for c in formula(*coords)]

    def grid_first(blocks):
        if blocks[0] is None:
            return None
        return np.ascontiguousarray(
            np.moveaxis(np.stack(blocks, axis=-1), -2, 0))

    return tuple(grid_first([getattr(c, name) for c in comps])
                 for name in ("v", "d1", "d2", "d3"))


def _hand_formula(x1, x2, x3, x4):
    """Every rule once: polyval, reciprocal, Jet and scalar division,
    integer powers, negation, subtraction, constant components, and
    products of coordinates whose d3 is identically zero."""
    return [-(x1 ** 3) + x2 ** 2 - x3, 2.5, x3.reciprocal() * x4,
            (x1 - 2.0) / (x2 + 3.0) - 1.5 / (x4 - 2.0) + x1 / 4.0,
            jets.polyval(x2, (0.5, -1.0, 0.0, 2.0)) - np.sin(x3 * x4),
            -x4, x1 * x2 * x3 * x4, 0.0, 3.0 - np.cosh(x1) * x2]


def _assert_dense_equal(formula, pts, d, n):
    for order in (1, 2, 3):
        jet = jets.jet(formula, pts, order)
        blocks = (jet.value, jet.d1, jet.d2, jet.d3)
        G = len(pts)
        for k, (got, ref) in enumerate(zip(blocks,
                                           dense_jet(formula, pts, order))):
            if k > order:
                assert got is None and ref is None
                continue
            # every block is an array of its documented shape
            assert isinstance(got, np.ndarray)
            assert got.shape == (G,) + (d,) * k + (n,)
            assert np.array_equal(got, ref)


def test_jets_equal_dense_rules_on_hand_formula():
    pts = np.random.default_rng(6).uniform(0.1, 0.9, size=(9, 4))
    _assert_dense_equal(_hand_formula, pts, 4, 9)


def _support_formula(x1, x2, x3, x4):
    """Binary rules on every kind of support pair: disjoint ((0,) with
    (1,), (0, 1) with (2, 3), and (0, 2) with (1, 3), which interleave),
    nested ((1,) in (0, 1)), overlapping ((0, 1) with (1, 2), (0, 2)
    with (2, 3)), the non-contiguous support (0, 2) as a component, a
    bare coordinate and a constant."""
    return [np.sin(x1) * np.cosh(x2),
            (x1 * x2 + 1.0) * np.cos(x3 * x4),
            np.sinh(x1 * x3) * (x2 - x4 ** 2),
            (x1 * x2) * np.sin(x1) + jets.polyval(x2, (1.0, 0.5, -2.0))
            / (x1 * x2 + 3.0),
            (x1 * x2 + 2.0) / (x2 * x3 + 2.0),
            x1 * x3 - np.cos(x3) * x3,
            np.cos(x1) + np.sinh(x4) + x1 * x3 + x3 * x4,
            x3, -1.25]


def test_support_rules_equal_dense_rules():
    pts = np.random.default_rng(7).uniform(-0.9, 0.9, size=(11, 4))
    comps = _support_formula(*jets.coordinates(pts))
    assert [c.support for c in comps[:-1]] == [
        (0, 1), (0, 1, 2, 3), (0, 1, 2, 3), (0, 1), (0, 1, 2), (0, 2),
        (0, 2, 3), (2,)]
    _assert_dense_equal(_support_formula, pts, 4, 9)


def test_sphere_jets_span_two_of_four_coordinates():
    """The second sphere of product-spheres depends on u2, v2 alone: its
    Jets carry derivatives along chart coordinates 2 and 3 only."""
    G = 6
    pts = np.random.default_rng(8).uniform(-0.6, 0.6, size=(G, 4))
    _, _, u2, v2 = jets.coordinates(pts)
    for c in _stereo_sphere(u2, v2):
        assert c.support == (2, 3)
        assert c.d1.shape == (2, G) and c.d2.shape == (2, 2, G)
        assert c.d3.shape == (2, 2, 2, G)


@pytest.mark.parametrize("name", fixture_names())
def test_jets_equal_dense_rules_on_fixtures(name):
    imm = get_immersion(name)
    pts = imm.grid(3 if imm.complex_dim > 1 else 7, margin=0.02)
    _assert_dense_equal(_CATALOG[name].formula, pts, imm.chart_dim,
                        imm.ambient_dim)


def test_pole_on_the_grid_names_the_same_point():
    # the zero blocks drop the terms 0 * x, where the dense rules gave
    # 0 * inf = NaN at a pole; the value and d1 carry no zero blocks, so
    # the metric gate names the pole's first grid point all the same
    def formula(u, v):
        return [u, v, u * v + 1 / u]

    with np.errstate(divide="ignore", invalid="ignore"):
        # the constructor evaluates the formula at the box centre u = 0
        imm = immersion("pole", formula, [(-1.0, 1.0), (-1.0, 1.0)])
        pts = imm.grid(5)
        with pytest.raises(ValueError, match=r"^induced metric not finite "
                           r"at chart point \(0, -1\) \(grid point 10\)$"):
            forms.compute_geometry(imm, pts)
