"""Taylor-mode jet arithmetic against hand-derived derivatives."""

import numpy as np
import pytest

from plurimean import jets
from plurimean.fixtures import fixture_names, get_immersion


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
                 np.zeros((1, 1, 1, 1)))
    for k in (0, 0.5):
        with pytest.raises(ValueError):
            u ** k
