"""The batched-matmul tensor algebra of the geometry layer, the theta
sweeps of the structure equations and of psi_theta, the bundle
residuals and the sublemma residual against their einsum formulas, kept
here as references: on random tensors (d = 2 and 4, n up to 9) and on
fixture geometries."""

import dataclasses
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


def metric_deviation_ref(geom, theta):
    """sup |R_theta^T g R_theta - g| with the congruence as one einsum."""
    R = family.rotation(geom.imm.J, theta)
    g_t = np.einsum("ki,gkl,lj->gij", R, geom.g, R)
    return float(np.max(np.abs(g_t - geom.g)))


def rotate_form_ref(form, J, theta):
    """form(R_theta x, R_theta y); leading axes are carried along."""
    R = family.rotation(J, theta)
    return np.einsum("ai,bj,...abx->...ijx", R, R, form)


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


def build_psi_ref(geom, bun, theta):
    """(eq8, unitarity, identity on N) of psi_theta built at one angle
    as the matrix field P_T + e^{2it} P_N' + P_N° + e^{-2it} P_N''
    + P_rest, with the flat remainder P_rest = P_Nc - P_N' - P_N° - P_N''
    written out."""
    n = geom.imm.ambient_dim
    eye = np.eye(n, dtype=complex)[None]
    P_T, P_Nc = bun.T.P, bun.Nc.P
    P_Np, P_No, P_Npp = bun.Np.P, bun.No.P, bun.Npp.P
    P_rest = P_Nc - P_Np - P_No - P_Npp
    Psi = (P_T + np.exp(2j * theta) * P_Np + P_No
           + np.exp(-2j * theta) * P_Npp + P_rest)
    alpha_t = rotate_form_ref(geom.alpha, geom.imm.J, theta)
    applied = np.einsum("gxy,gijy->gijx", Psi, geom.alpha.astype(complex))
    eq8 = float(np.max(np.abs(applied - alpha_t)))
    unit = float(np.max(np.abs(
        np.einsum("gxy,gzy->gxz", Psi, Psi.conj()) - eye)))
    ident = float(np.max(np.abs(
        np.einsum("gxy,gyz->gxz", Psi - eye, P_Nc))))
    return eq8, unit, ident


def psi_minus_one_dims_ref(bun):
    """The (-1)-eigenspace dimension of psi_{pi/2} on N at each point."""
    P_T, P_Nc = bun.T.P, bun.Nc.P
    P_Np, P_No, P_Npp = bun.Np.P, bun.No.P, bun.Npp.P
    Psi = (P_T - P_Np + P_No - P_Npp + P_Nc - P_Np - P_No - P_Npp)
    return np.sum(np.linalg.eigvalsh(np.real(Psi - P_T)) < -0.5,
                  axis=1)


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
    assert _max_diff(geom.P_T,
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


@pytest.mark.parametrize("name", ["catenoid", "helicoid",
                                  "holomorphic-curve"])
@pytest.mark.parametrize("theta", [0.0, 0.3, np.pi / 4, np.pi / 2])
def test_family_metric_deviation_matches_einsum(name, theta):
    member = family.integrate_family(get_immersion(name), theta,
                                     per_axis=21)
    assert abs(member.metric_deviation
               - metric_deviation_ref(member.geom, theta)) < TOL


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
    got = family.structure_equation_residuals(geom, [theta])[0]
    ref = structure_equation_residuals_ref(geom, theta)
    assert min(ref) > 1e-3   # the random R, RN and D alpha do not fit
    assert _max_diff(got, ref) < TOL


@pytest.mark.parametrize("name", FIXTURES)
def test_structure_equation_residuals_match_einsum_on_fixtures(
        fixture_geoms, name):
    geom = fixture_geoms[name]
    for theta in family.THETA_SWEEP:
        got = family.structure_equation_residuals(geom, [theta])[0]
        ref = structure_equation_residuals_ref(geom, theta)
        assert _max_diff(got, ref) < TOL


def _assert_sweep_matches_reference(geom):
    """One call over the whole sweep, compared row by row; returns the
    reference rows."""
    got = family.structure_equation_residuals(geom, family.THETA_SWEEP)
    ref = np.array([structure_equation_residuals_ref(geom, theta)
                    for theta in family.THETA_SWEEP])
    assert got.shape == ref.shape == (len(family.THETA_SWEEP), 3)
    for row, ref_row in zip(got, ref):
        assert _max_diff(row, ref_row) < TOL
    return ref


@pytest.mark.parametrize("d,n", RANDOM_SHAPES)
def test_structure_equation_sweep_matches_einsum_on_random_tensors(d, n):
    # R, RN and D alpha without symmetries; n = 3 gives a rank-1 normal
    # bundle, where only the diagonal of RN enters the Ricci term
    ref = _assert_sweep_matches_reference(_random_geometry(5, d, n))
    assert ref.min() > 1e-3


@pytest.mark.parametrize("d,n", RANDOM_SHAPES)
def test_structure_equation_sweep_reads_r_where_the_form_gives_zero(d, n):
    # R is the curvature of alpha itself except on one component with
    # i = j, where the curvature of every alpha_theta is 0: at theta = 0
    # that component is the whole Gauss residual
    geom = _random_geometry(6, d, n)
    geom.R = gauss_curvature_ref(geom.alpha)
    geom.R[:, 1, 1, 0, 1] = 7.0
    ref = _assert_sweep_matches_reference(geom)
    assert abs(ref[0, 0] - 7.0) < TOL


@pytest.mark.parametrize("name", fixture_names())
def test_structure_equation_sweep_matches_einsum_on_fixtures(
        fixture_geoms, name):
    _assert_sweep_matches_reference(fixture_geoms[name])


def test_structure_equation_sweep_takes_no_angles(fixture_geoms):
    got = family.structure_equation_residuals(fixture_geoms["veronese"],
                                              [])
    assert got.shape == (0, 3)


def test_structure_equation_reference_sees_the_ellipsoid_fail(
        fixture_geoms):
    _, codazzi, _ = structure_equation_residuals_ref(
        fixture_geoms["ellipsoid"], np.pi / 4)
    assert codazzi > 1e-2


# -------------------------------------------------------------- psi sweep

PSI_THETAS = [*family.THETA_SWEEP, np.pi, 0.3, 1.1]
PSI_VARIANTS = ["as-is", "scaled", "swapped", "noisy"]


@pytest.fixture(scope="module")
def fixture_bundles(fixture_geoms):
    return {name: gaussmaps.bundle_projectors(geom)
            for name, geom in fixture_geoms.items()}


def _psi_variant(bun, variant):
    """The bundles as they are, or with P_N' scaled by 1.1 (not
    idempotent), swapped with P_N'', or plus complex noise (neither
    Hermitian nor idempotent)."""
    P_Np = bun.Np.P
    if variant == "scaled":
        return dataclasses.replace(bun, Np=bun.Np._replace(P=1.1 * P_Np))
    if variant == "swapped":
        return dataclasses.replace(bun, Np=bun.Npp)
    if variant == "noisy":
        rng = np.random.default_rng(13)
        noise = (rng.standard_normal(P_Np.shape)
                 + 1j * rng.standard_normal(P_Np.shape))
        return dataclasses.replace(
            bun, Np=bun.Np._replace(P=P_Np + 1e-3 * noise))
    return bun


@pytest.mark.parametrize("variant", PSI_VARIANTS)
@pytest.mark.parametrize("name", fixture_names())
def test_psi_sweep_matches_per_angle_build(fixture_geoms, fixture_bundles,
                                           name, variant):
    geom = fixture_geoms[name]
    bun = _psi_variant(fixture_bundles[name], variant)
    ref = np.array([build_psi_ref(geom, bun, theta)
                    for theta in PSI_THETAS])
    got, dim = family.build_psi(geom, bun, PSI_THETAS)
    assert got.shape == ref.shape == (len(PSI_THETAS), 3)
    assert np.all(np.abs(got - ref) <= TOL * np.maximum(1.0, np.abs(ref)))
    assert np.all(psi_minus_one_dims_ref(bun) == dim)


def test_psi_sweep_takes_no_angles(fixture_geoms, fixture_bundles):
    got, dim = family.build_psi(fixture_geoms["veronese"],
                                fixture_bundles["veronese"], [])
    assert got.shape == (0, 3)
    assert dim == 2


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
    bun = gaussmaps.projector_derivatives(geom)
    taup, No = bun.taup, bun.No
    m = geom.imm.complex_dim
    n = geom.imm.ambient_dim
    P_out = np.eye(n, dtype=complex)[None] - taup.P
    cases = [(bun.taupp.P, taup.dP, taup.P),
             (P_out, gaussmaps.holo_directions(taup.dP, m, "(0,1)"),
              taup.P),
             (bun.Nc.P - No.P, No.dP, No.P)]
    for P_t, dP_s, P_s in cases:
        assert abs(gaussmaps.outside_residual(P_t, dP_s, P_s)
                   - outside_residual_ref(P_t, dP_s, P_s)) < TOL
