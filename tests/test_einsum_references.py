"""The batched-matmul tensor algebra of the geometry layer, the theta
sweep, the bundle residuals and the sublemma residual against their
einsum formulas, kept here as references: on random tensors (d = 2 and
4, n up to 9) and on fixture geometries."""

from types import SimpleNamespace

import numpy as np
import pytest

from plurimean import family, forms, gaussmaps, kaehler
from plurimean.chartcalc import holomorphic_basis, standard_J
from plurimean.fixtures import fixture_names, get_immersion

FIXTURES = ["catenoid", "veronese", "product-spheres", "ellipsoid"]
THETAS = [0.0, np.pi / 8, np.pi / 3, np.pi / 2, np.pi]
RANDOM_SHAPES = [(2, 3), (2, 9), (4, 6), (4, 9)]   # (d, n)
TOL = 1e-12


# ------------------------------------------------------ einsum references

def tangent_projector_ref(d1, ginv):
    return np.einsum("gix,gij,gjy->gxy", d1, ginv, d1)


def alpha_ref(jet, Gamma):
    return jet.d2 - np.einsum("gaij,gax->gijx", Gamma, jet.d1)


def Dalpha_ref(jet, ginv, Gamma):
    """The projected ambient derivative of alpha minus both Christoffel
    corrections, each contracted on its own."""
    alpha = alpha_ref(jet, Gamma)
    P_T = tangent_projector_ref(jet.d1, ginv)
    amb = jet.d3 - np.einsum("gaij,gkax->gkijx", Gamma, jet.d2)
    normal = amb - np.einsum("gxy,g...y->g...x", P_T, amb)
    return (normal
            - np.einsum("glki,gljx->gkijx", Gamma, alpha)
            - np.einsum("glkj,gilx->gkijx", Gamma, alpha))


def alpha_types_ref(alpha, m):
    """(alpha20, alpha11) on the (1,0) basis."""
    B = holomorphic_basis(m)
    ac = alpha.astype(complex)
    return (np.einsum("ai,bj,gijx->gabx", B, B, ac),
            np.einsum("ai,bj,gijx->gabx", B, B.conj(), ac))


def basis_residuals_ref(geom):
    """gauss-levi, alpha11_on_real, eq2, ppmc and rn-tprime, each with
    its slot contractions written out."""
    m = geom.imm.complex_dim
    B = holomorphic_basis(m)
    J = geom.imm.J
    gauss_levi = float(np.max(np.abs(np.einsum(
        "ai,bj,gkijx->gkabx", B, B.conj(), geom.Dalpha.astype(complex)))))
    a11_real = 0.5 * (geom.alpha
                      + np.einsum("ai,bj,gabx->gijx", J, J, geom.alpha))
    recon = np.einsum("ai,bj,gijx->gabx", B, B.conj(),
                      a11_real.astype(complex))
    eq2 = float(np.max(np.abs(recon - geom.alpha11)))
    rotated = np.einsum("ai,bj,gkabx->gkijx", J, J, geom.Dalpha)
    ppmc = float(np.max(np.abs(0.5 * (geom.Dalpha + rotated))))
    rn_tprime = float(np.max(np.abs(
        np.einsum("ai,bj,gijcd->gabcd", B, B, geom.RN))))
    return gauss_levi, a11_real, eq2, ppmc, rn_tprime


def closedness_residual_ref(geom, theta):
    R = family.rotation(geom.imm.J, theta)
    dw = np.einsum("kj,gikx->gijx", R, geom.jet.d2)
    return float(np.max(np.abs(dw - dw.transpose(0, 2, 1, 3))))


def rotate_form_ref(alpha, J, theta):
    R = family.rotation(J, theta)
    return np.einsum("ai,bj,gabx->gijx", R, R, alpha)


def rotate_Dalpha_ref(Dalpha, J, theta):
    R = family.rotation(J, theta)
    return np.einsum("ai,bj,gkabx->gkijx", R, R, Dalpha)


def gauss_curvature_ref(alpha):
    return (np.einsum("gilx,gjkx->gijkl", alpha, alpha)
            - np.einsum("gikx,gjlx->gijkl", alpha, alpha))


def normal_curvature_ref(alpha, g, ginv, frame):
    M = np.einsum("gijx,gax->gaij", alpha, frame)
    A = np.einsum("gik,gakj->gaij", ginv, M)
    comm = (np.einsum("gaik,gbkj->gabij", A, A)
            - np.einsum("gbik,gakj->gabij", A, A))
    return np.einsum("gjk,gabki->gijab", g, comm)


def structure_equation_residuals_ref(geom, theta):
    J = geom.imm.J
    alpha_t = rotate_form_ref(geom.alpha, J, theta)
    gauss = float(np.max(np.abs(geom.R - gauss_curvature_ref(alpha_t))))
    Dat = rotate_Dalpha_ref(geom.Dalpha, J, theta)
    codazzi = float(np.max(np.abs(Dat - Dat.transpose(0, 2, 1, 3, 4))))
    RN_t = normal_curvature_ref(alpha_t, geom.g, geom.ginv, geom.frame)
    ricci = float(np.max(np.abs(geom.RN - RN_t)))
    return gauss, codazzi, ricci


def sublemma_sides_ref(geom):
    m = geom.imm.complex_dim
    B = holomorphic_basis(m)
    Bc = B.conj()
    alpha_c = geom.alpha.astype(complex)
    beta = np.einsum("ai,bj,gijx->gabx", B, Bc, alpha_c)
    Rop = kaehler.curvature_operator(geom.R, geom.ginv).astype(complex)
    Rprime = np.einsum("ak,gijkl->gijal", B, Rop)
    Rsecond = np.einsum("bk,gijkl->gijbl", Bc, Rop)
    rhs = (np.einsum("gijal,bq,glqx->gijabx", Rprime, Bc, alpha_c)
           + np.einsum("gijbl,ap,gplx->gijabx", Rsecond, B, alpha_c))
    frame = geom.frame.astype(complex)
    beta_coeff = np.einsum("gabx,gcx->gabc", beta, frame)
    lhs = np.einsum("gabc,gijcd,gdx->gijabx", beta_coeff,
                    geom.RN.astype(complex), frame)
    return lhs, rhs


def outside_residual_ref(P_target, dP, P_source):
    M = np.einsum("gxy,gvyz,gzw->gvxw", P_target.astype(complex),
                  dP.astype(complex), P_source.astype(complex))
    return float(np.max(np.abs(M))) if M.size else 0.0


# ----------------------------------------------------------- random data

def _random_geometry(seed, d, n, G=7):
    """A stand-in with the fields structure_equation_residuals reads;
    R and RN are unrelated random tensors, so the residuals are O(1)."""
    rng = np.random.default_rng(seed)
    alpha = rng.standard_normal((G, d, d, n))
    alpha = 0.5 * (alpha + alpha.transpose(0, 2, 1, 3))
    Dalpha = rng.standard_normal((G, d, d, d, n))
    B = rng.standard_normal((G, d, d))
    g = np.einsum("gik,gjk->gij", B, B) + d * np.eye(d)
    frame = rng.standard_normal((G, n - d, n))
    return SimpleNamespace(
        imm=SimpleNamespace(J=standard_J(d // 2), complex_dim=d // 2),
        alpha=alpha,
        Dalpha=Dalpha, g=g, ginv=np.linalg.inv(g), frame=frame,
        R=rng.standard_normal((G, d, d, d, d)),
        RN=rng.standard_normal((G, d, d, n - d, n - d)))


@pytest.fixture(scope="module")
def fixture_geoms():
    imms = [get_immersion(name) for name in fixture_names()]
    return {imm.name: forms.compute_geometry(imm, imm.grid(5, margin=0.05))
            for imm in imms}


def _max_diff(a, b):
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


# --------------------------------------------------------- geometry layer

@pytest.mark.parametrize("name", fixture_names())
def test_geometry_matches_einsum_on_fixtures(fixture_geoms, name):
    geom = fixture_geoms[name]
    jet = geom.jet
    assert _max_diff(geom.tangent_projector(),
                     tangent_projector_ref(jet.d1, geom.ginv)) < TOL
    assert _max_diff(geom.alpha, alpha_ref(jet, geom.Gamma)) < TOL
    assert _max_diff(geom.Dalpha, Dalpha_ref(jet, geom.ginv,
                                             geom.Gamma)) < TOL
    a20, a11 = alpha_types_ref(geom.alpha, geom.imm.complex_dim)
    assert _max_diff(geom.alpha20, a20) < TOL
    assert _max_diff(geom.alpha11, a11) < TOL


@pytest.mark.parametrize("name", fixture_names())
def test_basis_residuals_match_einsum_on_fixtures(fixture_geoms, name):
    geom = fixture_geoms[name]
    gauss_levi, a11_real, eq2, ppmc, rn_tprime = basis_residuals_ref(geom)
    m = geom.imm.complex_dim
    assert abs(gaussmaps.gauss_levi_residual(geom) - gauss_levi) < TOL
    assert _max_diff(forms.alpha11_on_real(geom.alpha, geom.imm.J),
                     a11_real) < TOL
    assert abs(forms.eq2_consistency_residual(geom) - eq2) < TOL
    assert abs(forms.ppmc_residual(geom) - ppmc) < TOL
    assert abs(kaehler.rn_tprime_residual(geom.RN, m) - rn_tprime) < TOL


@pytest.mark.parametrize("name", fixture_names())
def test_closedness_equals_einsum_exactly(fixture_geoms, name):
    geom = fixture_geoms[name]
    for theta in family.THETA_SWEEP:
        assert (family.closedness_residual(geom, theta)
                == closedness_residual_ref(geom, theta))


@pytest.mark.parametrize("name", ["catenoid", "helicoid"])
def test_closedness_reads_exactly_zero_on_minimal_pair(fixture_geoms,
                                                      name):
    for theta in family.THETA_SWEEP:
        assert family.closedness_residual(fixture_geoms[name],
                                          theta) == 0.0


# -------------------------------------------------------------- rotations

@pytest.mark.parametrize("d,n", RANDOM_SHAPES)
@pytest.mark.parametrize("theta", THETAS)
def test_rotate_form_matches_einsum_on_random_tensors(d, n, theta):
    geom = _random_geometry(1, d, n)
    J = geom.imm.J
    assert _max_diff(family.rotate_form(geom.alpha, J, theta),
                     rotate_form_ref(geom.alpha, J, theta)) < TOL
    # a leading derivative axis, as in the Codazzi term
    assert _max_diff(family.rotate_form(geom.Dalpha, J, theta),
                     rotate_Dalpha_ref(geom.Dalpha, J, theta)) < TOL
    # complex values, as in the type-decomposition residual
    ac = geom.alpha + 1j * geom.alpha[::-1]
    assert _max_diff(family.rotate_form(ac, J, theta),
                     rotate_form_ref(ac, J, theta)) < TOL


@pytest.mark.parametrize("name", FIXTURES)
@pytest.mark.parametrize("theta", THETAS)
def test_rotate_form_matches_einsum_on_fixtures(fixture_geoms, name, theta):
    geom = fixture_geoms[name]
    J = geom.imm.J
    assert _max_diff(family.rotate_form(geom.alpha, J, theta),
                     rotate_form_ref(geom.alpha, J, theta)) < TOL
    assert _max_diff(family.rotate_form(geom.Dalpha, J, theta),
                     rotate_Dalpha_ref(geom.Dalpha, J, theta)) < TOL


# ------------------------------------------------------------- Ricci term

@pytest.mark.parametrize("d,n", RANDOM_SHAPES)
def test_normal_curvature_matches_einsum_on_random_tensors(d, n):
    geom = _random_geometry(2, d, n)
    args = (geom.alpha, geom.g, geom.ginv, geom.frame)
    assert _max_diff(kaehler.normal_curvature(*args),
                     normal_curvature_ref(*args)) < TOL


@pytest.mark.parametrize("name", FIXTURES)
def test_normal_curvature_matches_einsum_on_fixtures(fixture_geoms, name):
    geom = fixture_geoms[name]
    args = (geom.alpha, geom.g, geom.ginv, geom.frame)
    assert _max_diff(kaehler.normal_curvature(*args),
                     normal_curvature_ref(*args)) < TOL
    assert _max_diff(geom.R, gauss_curvature_ref(geom.alpha)) < TOL


# ------------------------------------------------ structure-equation sweep

@pytest.mark.parametrize("d,n", RANDOM_SHAPES)
@pytest.mark.parametrize("theta", THETAS)
def test_structure_equation_residuals_match_einsum_on_random_tensors(
        d, n, theta):
    geom = _random_geometry(3, d, n)
    got = family.structure_equation_residuals(geom, theta)
    ref = structure_equation_residuals_ref(geom, theta)
    assert min(ref) > 1e-3   # the random R, RN and D alpha do not fit
    assert _max_diff(got, ref) < TOL


@pytest.mark.parametrize("name", FIXTURES)
def test_structure_equation_residuals_match_einsum_on_fixtures(
        fixture_geoms, name):
    geom = fixture_geoms[name]
    for theta in family.THETA_SWEEP:
        got = family.structure_equation_residuals(geom, theta)
        ref = structure_equation_residuals_ref(geom, theta)
        assert _max_diff(got, ref) < TOL


def test_structure_equation_reference_sees_the_ellipsoid_fail(
        fixture_geoms):
    _, codazzi, _ = structure_equation_residuals_ref(
        fixture_geoms["ellipsoid"], np.pi / 4)
    assert codazzi > 1e-2


# ---------------------------------------------------- sublemma residual

@pytest.mark.parametrize("d,n", RANDOM_SHAPES)
def test_sublemma_sides_match_einsum_on_random_tensors(d, n):
    geom = _random_geometry(4, d, n)
    lhs, rhs = kaehler._sublemma_sides(geom)
    lhs_ref, rhs_ref = sublemma_sides_ref(geom)
    assert _max_diff(lhs, lhs_ref) < TOL
    assert _max_diff(rhs, rhs_ref) < TOL
    ref = _max_diff(lhs_ref, rhs_ref)
    assert ref > 1e-3   # the random R and RN do not intertwine
    assert abs(kaehler.sublemma_residual(geom) - ref) < TOL


@pytest.mark.parametrize("name", FIXTURES)
def test_sublemma_sides_match_einsum_on_fixtures(fixture_geoms, name):
    lhs, rhs = kaehler._sublemma_sides(fixture_geoms[name])
    lhs_ref, rhs_ref = sublemma_sides_ref(fixture_geoms[name])
    assert _max_diff(lhs, lhs_ref) < TOL
    assert _max_diff(rhs, rhs_ref) < TOL


# ------------------------------------------------------ outside residual

@pytest.mark.parametrize("n,D", [(3, 2), (6, 4), (9, 3)])
def test_outside_residual_matches_einsum_on_random_tensors(n, D):
    rng = np.random.default_rng(n * 10 + D)
    G = 5

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    P_t, dP, P_s = cplx(G, n, n), cplx(G, D, n, n), cplx(G, n, n)
    assert abs(gaussmaps.outside_residual(P_t, dP, P_s)
               - outside_residual_ref(P_t, dP, P_s)) < TOL
    # a real target projector against complex derivatives
    assert abs(gaussmaps.outside_residual(P_t.real, dP, P_s)
               - outside_residual_ref(P_t.real, dP, P_s)) < TOL


@pytest.mark.parametrize("name", FIXTURES)
def test_outside_residual_matches_einsum_on_fixtures(fixture_geoms, name):
    geom = fixture_geoms[name]
    bun, dP = gaussmaps.projector_derivatives(geom)
    m = geom.imm.complex_dim
    n = geom.imm.ambient_dim
    P_out = np.eye(n, dtype=complex)[None] - bun.P_taup
    cases = [(bun.P_taupp, dP["P_taup"], bun.P_taup),
             (P_out, gaussmaps.holo_directions(dP["P_taup"], m, "(0,1)"),
              bun.P_taup),
             (bun.P_Nc - bun.P_No, dP["P_No"], bun.P_No)]
    for P_t, dP_s, P_s in cases:
        assert abs(gaussmaps.outside_residual(P_t, dP_s, P_s)
                   - outside_residual_ref(P_t, dP_s, P_s)) < TOL
