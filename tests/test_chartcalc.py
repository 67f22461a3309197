"""Chart calculus: jets, finite-difference oracles, type projections."""

import numpy as np
import pytest

from plurimean import chartcalc
from plurimean.chartcalc import (
    BoundaryError, RankError, convergence_order, eval_jet, fd_d1,
    fd_jet_oracle, holomorphic_basis, project_type, standard_J,
)
from plurimean.fixtures import fixture_names, get_immersion


ALL_FIXTURES = fixture_names()


@pytest.mark.parametrize("m", [1, 2, 3])
def test_standard_J_square_and_orthogonal(m):
    J = standard_J(m)
    assert np.allclose(J @ J, -np.eye(2 * m))
    assert np.allclose(J.T @ J, np.eye(2 * m))
    assert np.allclose(J.T, -J)


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_analytic_jets_match_fd_oracle(name):
    imm = get_immersion(name)
    pts = imm.grid(5, margin=0.05)
    jet = eval_jet(imm, pts, mode="analytic")
    fd = fd_jet_oracle(imm, pts, h=1e-4)
    assert np.allclose(jet.value, fd.value)
    assert np.max(np.abs(jet.d1 - fd.d1)) < 1e-6
    assert np.max(np.abs(jet.d2 - fd.d2)) < 1e-5
    # third derivatives: central differences at h=1e-2 keep the
    # truncation and roundoff errors balanced near 1e-4 * |d5|
    fd2 = fd_jet_oracle(imm, pts, h=1e-2)
    scale = max(1.0, float(np.max(np.abs(jet.d3))))
    assert np.max(np.abs(jet.d3 - fd2.d3)) / scale < 5e-2


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_fd_convergence_is_second_order(name):
    imm = get_immersion(name)
    pts = imm.grid(5, margin=0.05)
    assert convergence_order(imm, pts) > 1.9


def test_eval_jet_mode_both_cross_checks():
    imm = get_immersion("catenoid")
    pts = imm.grid(5, margin=0.05)
    jet, diag = eval_jet(imm, pts, mode="both", h=1e-4)
    assert jet.d1.shape == (pts.shape[0], 2, 3)
    assert diag < 1e-6


def test_fd_oracle_rejects_points_near_boundary():
    imm = get_immersion("catenoid")
    bad = imm.domain[:, 1][None, :]  # exactly on the corner
    with pytest.raises(BoundaryError):
        fd_jet_oracle(imm, bad, h=1e-2)


@pytest.mark.parametrize("fd", [fd_d1, convergence_order])
def test_fd_d1_rejects_points_near_boundary(fd):
    imm = get_immersion("catenoid")
    bad = imm.domain[:, 1][None, :]
    with pytest.raises(BoundaryError):
        fd(imm, bad, h=1e-2)


def test_rank_check_rejects_degenerate_chart():
    imm = get_immersion("plane")
    jet = eval_jet(imm, imm.grid(5), mode="analytic")
    d1 = jet.d1.copy()
    d1[:, 1, :] = d1[:, 0, :]  # collapse the chart rank to 1
    squashed = chartcalc.Jet3(value=jet.value, d1=d1,
                              d2=jet.d2, d3=jet.d3)
    with pytest.raises(RankError):
        chartcalc._check_rank(squashed)


def test_grid_margin_shrinks_domain():
    imm = get_immersion("catenoid")
    full = imm.grid(5)
    inner = imm.grid(5, margin=0.1)
    assert np.max(np.abs(inner)) < np.max(np.abs(full))
    assert full.shape == inner.shape == (25, 2)


@pytest.mark.parametrize("m", [1, 2])
def test_type_projection_splits_identity(m):
    rng = np.random.default_rng(7)
    J = standard_J(m)
    for _ in range(20):
        v = chartcalc.ComplexTangent(rng.standard_normal(2 * m))
        vp = project_type(v, "(1,0)", m).components
        vq = project_type(v, "(0,1)", m).components
        assert np.allclose(vp + vq, v.components)
        assert np.allclose(np.conj(vp), vq)
        # eigenvector property: J v' = i v' in components
        assert np.allclose(J @ vp, 1j * vp)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_holomorphic_basis_diagonalizes_J(m):
    B = holomorphic_basis(m)
    J = standard_J(m)
    # rows are the component vectors of d'_a, so J(d'_a) = i d'_a
    assert np.allclose(B @ J.T, 1j * B)
    # normalization: d'_a applied to dx_b gives delta/2 pattern
    assert np.allclose(B[:, 0::2], 0.5 * np.eye(m))
    assert np.allclose(B[:, 1::2], -0.5j * np.eye(m))
