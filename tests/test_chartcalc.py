"""Chart calculus: jets, finite-difference oracles, type projections."""

from dataclasses import dataclass

import numpy as np
import pytest

from plurimean import chartcalc, forms, gaussmaps, pipeline
from plurimean.chartcalc import (
    BoundaryError, RankError, convergence_order,
    eval_jet, fd_d1, fd_jet_oracle, holomorphic_basis, standard_J,
)
from plurimean.fixtures import (fixture_names, get_immersion, immersion,
                                registry)


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
    jet = eval_jet(imm, pts)
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
    assert convergence_order(imm, pts, eval_jet(imm, pts)) > 1.9


@pytest.mark.parametrize("trailing", [(), (2,), (3, 2)])
def test_central_differences_of_a_quadratic_are_its_gradient(trailing):
    # a central difference has no truncation error on a quadratic, so
    # only round-off separates it from the exact gradient A p + b
    rng = np.random.default_rng(19)
    d, k = 3, int(np.prod(trailing, dtype=int))
    A = rng.standard_normal((k, d, d))
    A = A + A.transpose(0, 2, 1)
    b = rng.standard_normal((k, d))
    pts = rng.standard_normal((7, d))

    def fn(q):
        vals = 0.5 * np.einsum("pi,xij,pj->px", q, A, q) + q @ b.T
        return vals.reshape(len(q), *trailing)

    grad = (np.einsum("xij,pj->pix", A, pts) + b.T).reshape(7, d, *trailing)
    for h in (1e-1, 1e-3):
        diff = chartcalc.central_differences(fn, pts, h)
        assert diff.shape == (7, d, *trailing) and diff.flags.c_contiguous
        assert np.max(np.abs(diff - grad)) < 1e-11 / h


def test_fd_oracle_rejects_points_near_boundary():
    imm = get_immersion("catenoid")
    bad = imm.domain[:, 1][None, :]  # exactly on the corner
    with pytest.raises(BoundaryError):
        fd_jet_oracle(imm, bad, h=1e-2)


@pytest.mark.parametrize("fd", [fd_d1, pytest.param(
    lambda imm, pts, h: convergence_order(imm, pts, eval_jet(imm, pts), h),
    id="convergence_order")])
def test_fd_d1_rejects_points_near_boundary(fd):
    imm = get_immersion("catenoid")
    bad = imm.domain[:, 1][None, :]
    with pytest.raises(BoundaryError):
        fd(imm, bad, h=1e-2)


def _rank_inputs(d1):
    g = d1 @ d1.transpose(0, 2, 1)
    return d1, g, np.linalg.inv(g)


def test_rank_check_rejects_degenerate_chart():
    imm = get_immersion("plane")
    jet = eval_jet(imm, imm.grid(5))
    d1 = jet.d1.copy()
    d1[:, 1, :] *= 1e-11  # shrink the chart rank to 1 numerically
    with pytest.raises(RankError):
        chartcalc._check_rank(*_rank_inputs(d1))


@pytest.fixture
def svd_calls(monkeypatch):
    """The stacks np.linalg.svd is called on, by shape."""
    calls = []
    svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        calls.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    return calls


def _scaled_rows(svals, n, seed=3, chart_frame=False):
    """One chart point whose differential has the singular values svals:
    rows of those lengths along a random orthonormal ambient frame, in a
    random chart frame if asked (then g = d1 d1^T is no longer diagonal
    and rounds off in every entry)."""
    rng = np.random.default_rng(seed)
    d = len(svals)
    u = (np.linalg.qr(rng.standard_normal((d, d)))[0] if chart_frame
         else np.eye(d))
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return ((u * np.asarray(svals)) @ q[:d])[None]


def test_rank_certificate_runs_the_svd_only_on_uncertified_points(
        svd_calls):
    good = _scaled_rows([1.0, 0.5], 3)
    thin = _scaled_rows([1.0, 1e-6], 3)   # full rank, cond(g) = 1e12
    d1 = np.concatenate([good, thin, good])
    chartcalc._check_rank(*_rank_inputs(d1))
    assert svd_calls == [(1, 2, 3)]


def test_rank_certificate_rejects_lost_rank(svd_calls):
    d1 = _scaled_rows([1.0, 1e-11], 6)
    with pytest.raises(RankError, match="1 grid point"):
        chartcalc._check_rank(*_rank_inputs(d1))
    assert svd_calls == [d1.shape]


def test_rank_certificate_is_not_fooled_by_a_cancelling_trace(svd_calls):
    # two singular values near 1e-12 leave g numerically singular and
    # indefinite: tr(g) tr(g^-1) is negative here, so a trace
    # certificate would clear the point; the Frobenius norms do not
    d1 = _scaled_rows([1.0, 0.5, 1e-12, 2e-12], 6, seed=0, chart_frame=True)
    _, g, ginv = _rank_inputs(d1)
    assert np.trace(g[0]) * np.trace(ginv[0]) < chartcalc._CERTIFIED_COND
    with pytest.raises(RankError, match="1 grid point"):
        chartcalc._check_rank(d1, g, ginv)
    assert svd_calls == [d1.shape]


def test_rank_certificate_sends_nan_to_the_svd(svd_calls):
    d1 = np.concatenate([_scaled_rows([1.0, 0.5], 3),
                         np.full((1, 2, 3), np.nan)])
    with np.errstate(invalid="ignore"), pytest.raises(
            (RankError, np.linalg.LinAlgError)):
        chartcalc._check_rank(*_rank_inputs(d1))
    assert svd_calls == [(1, 2, 3)]


def test_geometry_rank_test_takes_no_svd_on_registry(svd_calls):
    # the certificate clears every registry grid and eq4's stacked
    # shifted grids; the only SVDs left are the bundle generators'
    cfg = pipeline.RunConfig()
    for rec in registry():
        pts = pipeline.FixtureContext(rec, cfg).pts
        geom = forms.compute_geometry(rec.immersion, pts)
        gaussmaps.fd_tangent_projector_derivatives(geom, cfg.h)
    assert svd_calls == []


def _cusp():
    """f(x, y) = (x, y^3, 0): its differential drops rank on y = 0."""
    return immersion("cusp", lambda x, y: [x, y**3, 0.0],
                     [(-1.0, 1.0), (-1.0, 1.0)])


def test_geometry_raises_rank_error_on_degenerate_grid_point():
    imm = _cusp()
    pts = imm.grid(5)  # its middle row is y = 0
    with pytest.raises(RankError):
        forms.compute_geometry(imm, pts)


def test_geometry_rank_certificate_rejects_a_positive_definite_metric():
    # g = diag(1, 1e-22) passes the Cholesky test and inverts exactly;
    # only the rank test sees sigma_2 / sigma_1 = 1e-11
    imm = immersion("flat-strip", lambda x, y: [x, 1e-11 * y, 0.0],
                    [(-1.0, 1.0), (-1.0, 1.0)])
    with pytest.raises(RankError, match="rank below 2"):
        forms.compute_geometry(imm, imm.grid(3))


def test_fd_projector_route_raises_rank_error_on_shifted_grid():
    imm = _cusp()
    h = 0.01
    pts = np.stack([np.linspace(-0.5, 0.5, 5), np.full(5, h)], axis=-1)
    geom = forms.compute_geometry(imm, pts)  # full rank at y = h
    # the grid shifted by -h e_y lies on y = 0, where g is singular
    with pytest.raises(RankError, match="not positive definite"):
        gaussmaps.fd_tangent_projector_derivatives(geom, h)


def test_grid_margin_shrinks_domain():
    imm = get_immersion("catenoid")
    full = imm.grid(5)
    inner = imm.grid(5, margin=0.1)
    assert np.max(np.abs(inner)) < np.max(np.abs(full))
    assert full.shape == inner.shape == (25, 2)


@dataclass(frozen=True)
class ComplexTangent:
    """Tangent vector in chart coordinates, possibly complexified."""

    components: np.ndarray  # (2m,) complex
    type_tag: str = "general"  # one of {"general", "(1,0)", "(0,1)"}


def project_type(v: ComplexTangent, which: str, m: int) -> ComplexTangent:
    """(1,0)/(0,1) projections pi'(v) = (v - iJv)/2, pi''(v) = (v + iJv)/2."""
    J = standard_J(m)
    comp = np.asarray(v.components, dtype=complex)
    if which == "(1,0)":
        return ComplexTangent(0.5 * (comp - 1j * (J @ comp)), "(1,0)")
    if which == "(0,1)":
        return ComplexTangent(0.5 * (comp + 1j * (J @ comp)), "(0,1)")
    raise ValueError(f"unknown projection type {which!r}")


@pytest.mark.parametrize("m", [1, 2])
def test_type_projection_splits_identity(m):
    rng = np.random.default_rng(7)
    J = standard_J(m)
    for _ in range(20):
        v = ComplexTangent(rng.standard_normal(2 * m))
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
