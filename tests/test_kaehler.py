"""Metric, connection, Kaehler residuals, and curvature tensors."""

import dataclasses

import numpy as np
import pytest

from plurimean import kaehler, pipeline
from plurimean.chartcalc import eval_jet, standard_J
from plurimean.fixtures import (fixture_names, get_fixture, get_immersion,
                                registry)
from plurimean.forms import (compute_geometry,
                             mean_curvature_and_sphere_reduction)

ADMITTED = [r.name for r in registry(include_controls=False)]


def _jet(name, per_axis=5):
    imm = get_immersion(name)
    pts = imm.grid(per_axis, margin=0.05)
    return imm, pts, eval_jet(imm, pts)


@pytest.mark.parametrize("name", ADMITTED)
def test_metric_is_spd_and_J_compatible(name):
    imm, pts, jet = _jet(name)
    g, ginv, _, Gamma = kaehler.metric_data(jet, pts)
    assert np.allclose(np.einsum("gik,gkj->gij", g, ginv),
                       np.eye(jet.chart_dim), atol=1e-10)
    orth, par = kaehler.kaehler_residual(imm.J, g, Gamma)
    assert orth < 1e-8
    assert par < 1e-8


def test_skewed_chart_breaks_J_orthogonality():
    imm, pts, jet = _jet("skewed-plane")
    g, _, _, Gamma = kaehler.metric_data(jet, pts)
    orth, _ = kaehler.kaehler_residual(imm.J, g, Gamma)
    assert orth > 1e-2


def test_parallelity_reads_the_connection_commutator():
    """A flat metric with connection matrices Gamma_k that do not commute
    with J: J stays orthogonal, and the parallelity residual is
    sup |[Gamma_k, J]|.  A connection in span(I, J) gives 0."""
    J = standard_J(2)
    g = np.eye(4)[None].repeat(3, axis=0)
    Gamma = np.zeros((3, 4, 4, 4))              # [g, l, k, a]
    Gamma[:, :, 1, :] = np.diag([0.5, -0.5, 0.0, 0.0])
    Gamma[1, :, 3, :] = 0.25 * np.eye(4) + 2.0 * J
    orth, par = kaehler.kaehler_residual(J, g, Gamma)
    assert orth == 0.0
    assert par == 1.0    # [diag(1/2, -1/2), J] = -[[0, 1], [1, 0]]
    Gamma[:, :, 1, :] = -3.0 * J
    assert kaehler.kaehler_residual(J, g, Gamma) == (0.0, 0.0)


@pytest.mark.parametrize("name", ["catenoid", "sphere", "veronese",
                                  "product-spheres"])
def test_metric_derivative_against_fd_oracle(name):
    imm, pts, jet = _jet(name)
    _, _, dg, _ = kaehler.metric_data(jet, pts)
    h = 1e-5
    d = jet.chart_dim
    for i in range(d):
        ei = np.zeros(d)
        ei[i] = h
        gp = kaehler.induced_metric(imm.jet_fn(pts + ei, 1))
        gm = kaehler.induced_metric(imm.jet_fn(pts - ei, 1))
        fd = (gp - gm) / (2.0 * h)
        assert np.max(np.abs(dg[:, i] - fd)) < 1e-7


def test_catenoid_christoffel_closed_form():
    # conformal factor cosh^2(u): Gamma^u_uu = tanh u, Gamma^u_vv = -tanh u,
    # Gamma^v_uv = tanh u, all other symbols zero
    imm, pts, jet = _jet("catenoid")
    _, _, _, Gamma = kaehler.metric_data(jet, pts)
    t = np.tanh(pts[:, 0])
    expected = np.zeros_like(Gamma)
    expected[:, 0, 0, 0] = t
    expected[:, 0, 1, 1] = -t
    expected[:, 1, 0, 1] = expected[:, 1, 1, 0] = t
    assert np.max(np.abs(Gamma - expected)) < 1e-12


@pytest.mark.parametrize("name", ADMITTED)
def test_curvature_symmetries(name):
    geom = compute_geometry(get_immersion(name),
                            get_immersion(name).grid(5, margin=0.05))
    assert kaehler.curvature_symmetry_residual(geom.R) < 1e-12
    m = geom.imm.complex_dim
    assert kaehler.kaehler_curvature_identity_residual(geom.R, m) < 1e-10


def _assert_exactly_antisymmetric(R):
    """R = -R_jikl = -R_ijlk bit for bit: the structure sweep's Gauss
    leg reads R on the components i < j, k < l only."""
    assert np.array_equal(R, -R.swapaxes(1, 2))
    assert np.array_equal(R, -R.swapaxes(3, 4))


@pytest.mark.parametrize("name", fixture_names())
def test_curvature_is_exactly_antisymmetric_on_the_verify_grids(name):
    cfg = pipeline.RunConfig()
    _assert_exactly_antisymmetric(
        pipeline.FixtureContext(get_fixture(name), cfg).geom.R)


def test_curvature_is_exactly_antisymmetric_on_the_family_grid():
    catenoid = get_immersion("catenoid")
    _assert_exactly_antisymmetric(
        compute_geometry(catenoid, catenoid.grid(201)).R)


def test_curvature_symmetry_residual_keeps_a_nan():
    # R_0101 = inf, R_0110 = -inf: the antisymmetry in (k, l) reads
    # inf - inf = nan while the one in (i, j) reads inf, which Python's
    # max(inf, nan, ...) would return
    R = np.zeros((1, 2, 2, 2, 2))
    R[0, 0, 1, 0, 1], R[0, 0, 1, 1, 0] = np.inf, -np.inf
    with np.errstate(invalid="ignore"):
        assert np.isnan(kaehler.curvature_symmetry_residual(R))


def test_sphere_constant_curvature_one():
    # R_ijkl = g_il g_jk - g_ik g_jl for the unit sphere
    imm = get_immersion("sphere")
    geom = compute_geometry(imm, imm.grid(5, margin=0.05))
    g = geom.g
    expected = (np.einsum("gil,gjk->gijkl", g, g)
                - np.einsum("gik,gjl->gijkl", g, g))
    assert np.max(np.abs(geom.R - expected)) < 1e-12


def test_sphere_shape_operator_is_minus_identity():
    imm = get_immersion("sphere")
    geom = compute_geometry(imm, imm.grid(5, margin=0.05))
    xi = geom.jet.value  # outward unit normal of the unit sphere
    A = kaehler.shape_operators(geom.alpha, geom.ginv, xi[:, None])
    assert A.shape == (25, 1, 2, 2)
    assert np.max(np.abs(A + np.eye(2))) < 1e-12


def test_shape_operator_rejects_tangent_field():
    """The sphere reduction takes the shape operator of eta only where
    eta is normal: alpha_ij + g_ij d1_0 moves eta by the tangent d1_0."""
    imm = get_immersion("sphere")
    geom = compute_geometry(imm, imm.grid(5, margin=0.05))
    tilted = dataclasses.replace(
        geom, alpha=geom.alpha + geom.g[..., None] * geom.jet.d1[:, None, :1])
    with pytest.raises(ValueError, match="not normal"):
        mean_curvature_and_sphere_reduction(tilted)
    assert mean_curvature_and_sphere_reduction(geom).spherical


@pytest.mark.parametrize("name", fixture_names())
def test_normal_frame_is_orthonormal_and_normal(name):
    _, _, jet = _jet(name)
    fr = kaehler.normal_frame(jet)
    k = fr.shape[1]
    assert k == jet.ambient_dim - jet.chart_dim
    gram = np.einsum("gax,gbx->gab", fr, fr)
    assert np.max(np.abs(gram - np.eye(k))) < 1e-14
    assert np.max(np.abs(np.einsum("gax,gix->gai", fr, jet.d1))) < 1e-14


@pytest.mark.parametrize("name", fixture_names())
def test_normal_curvature_norm_is_frame_gauge_free(name):
    # |R^N(d_i, d_j)| does not depend on the frame: the QR frame and the
    # frame from the SVD of d1 agree on it
    imm = get_immersion(name)
    geom = compute_geometry(imm, imm.grid(5, margin=0.05))
    _, _, vh = np.linalg.svd(geom.jet.d1, full_matrices=True)
    RN_svd = kaehler.normal_curvature(geom.alpha, geom.g, geom.ginv,
                                      vh[:, geom.jet.chart_dim:])
    assert np.max(np.abs(np.linalg.norm(geom.RN, axis=(3, 4))
                         - np.linalg.norm(RN_svd, axis=(3, 4)))) < 1e-13


@pytest.mark.parametrize("name", ["veronese", "product-spheres"])
def test_normal_curvature_antisymmetries(name):
    imm = get_immersion(name)
    geom = compute_geometry(imm, imm.grid(5, margin=0.05))
    assert np.max(np.abs(geom.RN
                         + geom.RN.transpose(0, 2, 1, 3, 4))) < 1e-12
    assert np.max(np.abs(geom.RN
                         + geom.RN.transpose(0, 1, 2, 4, 3))) < 1e-12


@pytest.mark.parametrize("name", ["sphere", "cylinder", "catenoid",
                                  "veronese", "product-spheres",
                                  "standard-embedding"])
def test_rn_vanishes_on_holomorphic_pairs_for_parallel_fixtures(name):
    imm = get_immersion(name)
    geom = compute_geometry(imm, imm.grid(5, margin=0.05))
    assert kaehler.rn_tprime_residual(geom.RN, imm.complex_dim) < 1e-10


def test_rn_tprime_residual_reads_a_holomorphic_pair():
    """A synthetic R^N, antisymmetric in both pairs, with one nonzero
    block R^N(dx_1, dx_2) = A: on T' x T' it contracts to
    <R^N(d'_1, d'_2)> = A / 4.  At m = 1 the only block,
    R^N(dx, dy), contracts to exactly 0 on T' x T', so m = 2 is the
    smallest case that can read it."""
    A = np.array([[0.0, 0.7], [-0.7, 0.0]])
    RN = np.zeros((3, 4, 4, 2, 2))
    RN[:, 0, 2], RN[:, 2, 0] = A, -A
    assert kaehler.rn_tprime_residual(RN, 2) == pytest.approx(0.7 / 4)
    flat = np.zeros((3, 2, 2, 2, 2))
    flat[:, 0, 1], flat[:, 1, 0] = A, -A
    assert kaehler.rn_tprime_residual(flat, 1) == 0.0


@pytest.mark.parametrize("name", ["sphere", "cylinder", "veronese",
                                  "product-spheres"])
def test_sublemma_intertwining(name):
    imm = get_immersion(name)
    geom = compute_geometry(imm, imm.grid(5, margin=0.05))
    assert kaehler.sublemma_residual(geom) < 1e-10


NORMAL_LINE = [r.name for r in registry()
               if r.immersion.ambient_dim - 2 * r.immersion.complex_dim == 1]


def _registry_geometry(name):
    rec = next(r for r in registry() if r.name == name)
    pts = pipeline.FixtureContext(rec, pipeline.RunConfig()).pts
    return compute_geometry(rec.immersion, pts)


def test_normal_line_fixtures_are_the_eight_surfaces_in_r3():
    assert len(NORMAL_LINE) == 8


@pytest.mark.parametrize("name", NORMAL_LINE)
def test_closed_form_rn_of_a_normal_line_is_the_frame_based_one(name):
    geom = _registry_geometry(name)
    ref = kaehler.normal_curvature(geom.alpha, geom.g, geom.ginv,
                                   kaehler.normal_frame(geom.jet))
    assert geom.RN.shape == ref.shape
    assert np.max(np.abs(geom.RN - ref)) == 0.0


@pytest.mark.parametrize("name", ["holomorphic-curve", "product-spheres",
                                  "veronese"])
def test_lazy_frame_is_the_qr_frame(name):
    geom = _registry_geometry(name)
    assert "frame" not in vars(geom)
    assert np.array_equal(geom.frame, kaehler.normal_frame(geom.jet))
