"""The batched-matmul tensor algebra of the geometry layer (the metric,
its derivative, the Christoffel symbols and the family's rotated
integrand), the theta sweeps of the structure equations and of
psi_theta, the bundle residuals and the sublemma residual against their
einsum formulas, kept here as references: on random tensors (d = 2 and
4, n up to 9) and on fixture geometries."""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from plurimean import family, forms, gaussmaps, kaehler
from plurimean.chartcalc import (Jet3, contract_slots, form_parts,
                                 holomorphic_basis, standard_J, type_rows)
from plurimean.fixtures import fixture_names, get_immersion

FIXTURES = ["catenoid", "veronese", "product-spheres", "ellipsoid"]
THETAS = [0.0, np.pi / 8, np.pi / 3, np.pi / 2, np.pi]
RANDOM_SHAPES = [(2, 3), (2, 9), (4, 6), (4, 9)]   # (d, n)
TOL = 1e-12


# ------------------------------------------------------ einsum references

def induced_metric_ref(d1):
    return np.einsum("gix,gjx->gij", d1, d1)


def metric_derivative_ref(d1, d2):
    """dg[g,i,j,l] = d_i g_jl = <d2_ij, d1_l> + <d1_j, d2_il>."""
    return (np.einsum("gijx,glx->gijl", d2, d1)
            + np.einsum("gjx,gilx->gijl", d1, d2))


def christoffel_ref(dg, ginv):
    sym = (dg + np.einsum("gjil->gijl", dg) - np.einsum("glij->gijl", dg))
    return 0.5 * np.einsum("gkl,gijl->gkij", ginv, sym)


def rotated_integrand_ref(R, d1, d2):
    """omega = df o R and a[g, i] = d_i omega_i (no sum)."""
    return (np.einsum("ki,gkx->gix", R, d1),
            np.einsum("ki,gikx->gix", R, d2))


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


def contract_slots_ref(T, m):
    """The (2,0)- and (1,1)-slot contractions of a real form T
    (..., d, d, n), each one einsum with the complex kron(B, B) and
    kron(B, conj B) and the values cast to complex."""
    B = holomorphic_basis(m)
    d = 2 * m
    return tuple(np.einsum("abij,...ijx->...abx", K.reshape(m, m, d, d),
                           T.astype(complex))
                 for K in (np.kron(B, B), np.kron(B, B.conj())))


def generator_derivatives_ref(geom):
    """(d11, d20) (G, d, m^2, n), the N° and N' generator derivatives of
    projector_derivatives, as one real product of d_v alpha with the
    rows of kron(B, conj B) and kron(B, B) laid out as columns, each
    column's real and imaginary parts interleaved, read as complex."""
    m = geom.imm.complex_dim
    G, d, _, n = geom.alpha.shape
    B = holomorphic_basis(m)
    K = np.concatenate([np.kron(B, B.conj()), np.kron(B, B)]).T
    cols = np.stack([K.real, K.imag], axis=-1).reshape(d * d, -1)
    dalpha = gaussmaps.alpha_derivative(geom).transpose(
        0, 4, 1, 2, 3).reshape(G * n * d, d * d)
    KdA = (dalpha @ cols).view(complex).reshape(G, n, d, 2, m * m)
    return tuple(KdA[:, :, :, f].transpose(0, 2, 3, 1) for f in (0, 1))


def basis_residuals_ref(geom):
    """gauss-levi, the (1,1)-part on the real basis, eq2, ppmc and
    rn-tprime, each with its slot contractions written out."""
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
    P_T, P_Nc = bun.T.P, bun.Nc
    P_Np, P_No, P_Npp = bun.Np.P, bun.No.P, bun.Np.P.conj()
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
    P_T, P_Nc = bun.T.P, bun.Nc
    P_Np, P_No, P_Npp = bun.Np.P, bun.No.P, bun.Np.P.conj()
    Psi = (P_T - P_Np + P_No - P_Npp + P_Nc - P_Np - P_No - P_Npp)
    return np.sum(np.linalg.eigvalsh(np.real(Psi - P_T)) < -0.5,
                  axis=1)


def sublemma_sides_ref(geom):
    m = geom.imm.complex_dim
    B = holomorphic_basis(m)
    Bc = B.conj()
    alpha_c = geom.alpha.astype(complex)
    beta = np.einsum("ai,bj,gijx->gabx", B, Bc, alpha_c)
    # R(d_i, d_j) d_k = Rop[i, j, k, l] d_l
    Rop = np.einsum("gijka,gal->gijkl", geom.R, geom.ginv).astype(complex)
    Rprime = np.einsum("ak,gijkl->gijal", B, Rop)
    Rsecond = np.einsum("bk,gijkl->gijbl", Bc, Rop)
    rhs = (np.einsum("gijal,bq,glqx->gijabx", Rprime, Bc, alpha_c)
           + np.einsum("gijbl,ap,gplx->gijabx", Rsecond, B, alpha_c))
    frame = geom.frame.astype(complex)
    beta_coeff = np.einsum("gabx,gcx->gabc", beta, frame)
    lhs = np.einsum("gabc,gijcd,gdx->gijabx", beta_coeff,
                    geom.RN.astype(complex), frame)
    return lhs, rhs


def _outside(P_target, dP, P_source):
    """sup |P_target dP_v P_source| as the derivative pass of
    gaussmaps.Bundles forms it: one product for the right factor, one
    for the target."""
    return float(gaussmaps._target_max(
        P_target, gaussmaps._right_product(dP, P_source)))


def outside_residual_ref(P_target, dP, P_source):
    M = np.einsum("gxy,gvyz,gzw->gvxw", P_target.astype(complex),
                  dP.astype(complex), P_source.astype(complex))
    return float(np.max(np.abs(M))) if M.size else 0.0


# ----------------------------------------- broadcast (per-direction) forms
# The bundle layer's products as they were grouped before the direction
# or field axis was folded into one product per point: one small
# product per point and per direction (or field).

def outside_residual_broadcast_ref(P_target, dP, P_source):
    M = P_target[:, None] @ dP @ P_source[:, None]
    return float(np.max(np.abs(M))) if M.size else 0.0


def projector_derivative_broadcast_ref(gens, dgens, scale=0.0):
    ur, sr, vr = gaussmaps._ranked_svd(gens, scale)
    n = gens.shape[2]
    P = np.einsum("gkx,gky->gxy", vr, vr.conj())
    pinv = ((vr.conj().transpose(0, 2, 1) / sr[:, None, :])
            @ ur.conj().transpose(0, 2, 1))
    X = ((np.eye(n) - P)[:, None]
         @ (pinv[:, None] @ dgens).transpose(0, 1, 3, 2))
    return P, vr.shape[1], X + X.conj().transpose(0, 1, 3, 2)


def shape_operators_broadcast_ref(alpha, ginv, xi):
    G, d, _, n = alpha.shape
    M = xi @ alpha.reshape(G, d * d, n).transpose(0, 2, 1)
    return ginv[:, None] @ M.reshape(G, xi.shape[1], d, d)


def projector_derivatives_broadcast_ref(geom):
    """{field: (P, dP)} for T, tau', N° and N' with the generator
    derivatives as broadcast complex products."""
    m = geom.imm.complex_dim
    G, d, _, n = geom.alpha.shape
    d1 = geom.jet.d1
    B = holomorphic_basis(m)
    dP_T = ((geom.ginv[:, None] @ geom.alpha).transpose(0, 1, 3, 2)
            @ d1[:, None])
    out = {"T": (geom.P_T, dP_T + dP_T.transpose(0, 1, 3, 2))}
    tp_gens = np.einsum("ai,gix->gax", 2.0 * B, d1.astype(complex))
    P, _, dP = projector_derivative_broadcast_ref(tp_gens,
                                                  (2.0 * B) @ geom.jet.d2)
    out["taup"] = (P, dP)
    dalpha = gaussmaps.alpha_derivative(geom).reshape(G, d, d * d, n)
    scale = float(np.max(np.abs(geom.alpha)))
    for name, a, K in (("No", geom.alpha11, np.kron(B, B.conj())),
                       ("Np", geom.alpha20, np.kron(B, B))):
        P, _, dP = projector_derivative_broadcast_ref(
            a.reshape(G, m * m, n), K @ dalpha, scale)
        out[name] = (P, dP)
    return out


# ----------------------------------------------------------- random data

def _random_jet(seed, d, n, G=7):
    """An order-2 jet with a full-rank d1 and a symmetric d2."""
    rng = np.random.default_rng(seed)
    d2 = rng.standard_normal((G, d, d, n))
    return Jet3(value=rng.standard_normal((G, n)),
                d1=rng.standard_normal((G, d, n)),
                d2=0.5 * (d2 + d2.transpose(0, 2, 1, 3)), d3=None)


def _random_geometry(seed, d, n, G=7):
    """A stand-in with the fields structure_equation_residuals reads.
    R is the curvature of alpha, as GeometryData.R is; D alpha and RN
    are unrelated random tensors, so the Codazzi and Ricci legs are
    O(1) at every angle (_assert_legs_fit)."""
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
        R=gauss_curvature_ref(alpha),
        RN=rng.standard_normal((G, d, d, n - d, n - d)))


@pytest.fixture(scope="module")
def fixture_geoms():
    imms = [get_immersion(name) for name in fixture_names()]
    return {imm.name: forms.compute_geometry(imm, imm.grid(5, margin=0.05))
            for imm in imms}


def _random_normal_geometry(seed, d, n, G=7):
    """A stand-in with the fields the sublemma oracle reads: alpha is
    normal to a random d1, g = d1 d1^T, RN is the frame-based one of
    alpha and R is random, so the sublemma residual is O(1)."""
    rng = np.random.default_rng(seed)
    d1 = rng.standard_normal((G, d, n))
    q, _ = np.linalg.qr(d1.transpose(0, 2, 1), mode="complete")
    frame = q[:, :, d:].transpose(0, 2, 1)
    coeff = rng.standard_normal((G, d, d, n - d))
    alpha = (coeff + coeff.transpose(0, 2, 1, 3)) @ frame[:, None]
    g = induced_metric_ref(d1)
    ginv = np.linalg.inv(g)
    return SimpleNamespace(
        imm=SimpleNamespace(complex_dim=d // 2), alpha=alpha, g=g,
        ginv=ginv, frame=frame, R=rng.standard_normal((G, d, d, d, d)),
        RN=normal_curvature_ref(alpha, g, ginv, frame))


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


def _assert_metric_matches_einsum(jet, pts):
    g, ginv, dg, Gamma = kaehler.metric_data(jet, pts)
    assert _max_diff(g, induced_metric_ref(jet.d1)) < TOL
    assert _max_diff(dg, metric_derivative_ref(jet.d1, jet.d2)) < TOL
    assert _max_diff(Gamma, christoffel_ref(dg, ginv)) < TOL


@pytest.mark.parametrize("d,n", RANDOM_SHAPES)
def test_metric_and_christoffel_match_einsum_on_random_tensors(d, n):
    jet = _random_jet(4, d, n)
    # the chart points only name a point the regularity gate rejects
    _assert_metric_matches_einsum(jet, np.zeros((jet.d1.shape[0], d)))


@pytest.mark.parametrize("name", fixture_names())
def test_metric_and_christoffel_match_einsum_on_fixtures(fixture_geoms,
                                                         name):
    geom = fixture_geoms[name]
    _assert_metric_matches_einsum(geom.jet, geom.pts)


@pytest.mark.parametrize("n", [3, 9])
@pytest.mark.parametrize("theta", THETAS)
def test_family_rotations_equal_einsum_on_random_tensors(n, theta):
    # two-term sums round the same in either order: equal, not close
    jet = _random_jet(5, 2, n)
    R = family.rotation(standard_J(1), theta)
    for got, ref in zip(family._rotated_integrand(R, jet.d1, jet.d2),
                        rotated_integrand_ref(R, jet.d1, jet.d2)):
        assert np.array_equal(got, ref)


# the family integrates surfaces only (m = 1, d = 2)
@pytest.mark.parametrize("name", [n for n in fixture_names()
                                  if get_immersion(n).complex_dim == 1])
def test_family_rotations_equal_einsum_on_fixtures(fixture_geoms, name):
    jet = fixture_geoms[name].jet
    for theta in family.THETA_SWEEP:
        R = family.rotation(standard_J(1), theta)
        for got, ref in zip(family._rotated_integrand(R, jet.d1, jet.d2),
                            rotated_integrand_ref(R, jet.d1, jet.d2)):
            assert np.array_equal(got, ref)


@pytest.mark.parametrize("name", fixture_names())
def test_basis_residuals_match_einsum_on_fixtures(fixture_geoms, name):
    geom = fixture_geoms[name]
    gauss_levi, a11_real, eq2, ppmc, rn_tprime = basis_residuals_ref(geom)
    m = geom.imm.complex_dim
    assert abs(gaussmaps.gauss_levi_residual(geom) - gauss_levi) < TOL
    assert _max_diff(form_parts(geom.alpha)[0], a11_real) < TOL
    assert abs(forms.eq2_consistency_residual(geom) - eq2) < TOL
    assert abs(forms.ppmc_residual(geom) - ppmc) < TOL
    assert abs(kaehler.rn_tprime_residual(geom.RN, m) - rn_tprime) < TOL


@pytest.mark.parametrize("name", fixture_names())
def test_contract_slots_equals_complex_einsum_on_fixtures(fixture_geoms,
                                                          name):
    """The real product equals the complex one exactly (==, so an exact
    zero may differ in sign) on alpha, D alpha, R, R^N and d alpha, with
    both slot pairs: each component is a sum of two exact products."""
    geom = fixture_geoms[name]
    m = geom.imm.complex_dim
    G, d, _, n = geom.alpha.shape
    k = geom.RN.shape[-1]
    for T in (geom.alpha, geom.Dalpha, geom.R[..., None],
              geom.RN.reshape(G, d, d, k * k),
              gaussmaps.alpha_derivative(geom)):
        for K, ref in zip(type_rows(m), contract_slots_ref(T, m)):
            assert np.array_equal(contract_slots(K, T), ref)


@pytest.mark.parametrize("name", fixture_names())
def test_generator_derivatives_equal_interleaved_columns_on_fixtures(
        fixture_geoms, monkeypatch, name):
    """The N° and N' generator derivatives that projector_derivatives
    hands to projector_derivative equal the interleaved-column route
    exactly (==).  tau' and each stack of positive rank take the shared
    derivative formula _span_derivative; a stack negligible against
    alpha is rank 0 and takes neither its generator derivative nor
    projector_derivative."""
    geom = fixture_geoms[name]
    dgens, spans = [], []

    def spy(gens, dg, scale=0.0, _f=gaussmaps.projector_derivative):
        dgens.append(dg)
        return _f(gens, dg, scale)

    def span_spy(*args, _f=gaussmaps._span_derivative):
        spans.append(args)
        return _f(*args)
    monkeypatch.setattr(gaussmaps, "projector_derivative", spy)
    monkeypatch.setattr(gaussmaps, "_span_derivative", span_spy)
    bun = gaussmaps.projector_derivatives(geom)
    G, _, _, n = geom.alpha.shape
    scale = float(np.max(np.abs(geom.alpha)))
    refs = [ref for A, ref in zip((geom.alpha11, geom.alpha20),
                                  generator_derivatives_ref(geom))
            if not gaussmaps._negligible(A.reshape(G, -1, n), scale)]
    assert len(dgens) == len(refs)
    assert len(spans) == 1 + sum(bun.ranks[k] > 0 for k in ("N°", "N'"))
    for got, ref in zip(dgens, refs):
        assert got.shape == ref.shape and np.array_equal(got, ref)


@pytest.mark.parametrize("m", [1, 2])
def test_kaehler_curvature_identity_matches_einsum_on_random_tensors(m):
    # a random R has a (2,0)-part in its last slot pair of order 1
    d = 2 * m
    R = np.random.default_rng(m).standard_normal((5, d, d, d, d))
    B = holomorphic_basis(m)
    ref = float(np.max(np.abs(np.einsum("ak,bl,gijkl->gijab", B, B, R))))
    assert ref > 0.1
    assert abs(kaehler.kaehler_curvature_identity_residual(R, m)
               - ref) < TOL


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

def _assert_legs_fit(ref, thetas, d):
    """The random stand-ins fit no leg that can be nonzero: Codazzi and
    Ricci at every angle, and Gauss on a 4-manifold at the angles off
    the multiples of pi.  A surface's Gauss leg is 0 at every angle, as
    Lambda^2 R_theta = 1 on its one pair, and every Gauss leg is 0
    where R_theta = +-I."""
    ref = np.asarray(ref)
    assert ref[:, 1:].min() > 1e-3
    if d == 4:
        assert np.all(ref[~np.isclose(np.sin(thetas), 0.0), 0] > 1e-3)


@pytest.mark.parametrize("d,n", RANDOM_SHAPES)
@pytest.mark.parametrize("theta", THETAS)
def test_structure_equation_residuals_match_einsum_on_random_tensors(
        d, n, theta):
    geom = _random_geometry(3, d, n)
    got = family.structure_equation_residuals(geom, [theta])[0]
    ref = structure_equation_residuals_ref(geom, theta)
    _assert_legs_fit([ref], [theta], d)
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
    # RN and D alpha without symmetries; n = 3 gives a rank-1 normal
    # bundle, where only the diagonal of RN enters the Ricci term
    ref = _assert_sweep_matches_reference(_random_geometry(5, d, n))
    _assert_legs_fit(ref, family.THETA_SWEEP, d)


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
        return dataclasses.replace(
            bun, Np=gaussmaps.Bundle(*map(np.conj, bun.Np)))
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
    """The residual, formed without a frame, is the sup of the two
    einsum sides, formed through it."""
    geom = _random_normal_geometry(4, d, n)
    ref = _max_diff(*sublemma_sides_ref(geom))
    assert ref > 1e-3   # the random R does not intertwine
    assert abs(kaehler.sublemma_residual(geom) - ref) < TOL * ref


@pytest.mark.parametrize("name", FIXTURES)
def test_sublemma_sides_match_einsum_on_fixtures(fixture_geoms, name):
    ref = _max_diff(*sublemma_sides_ref(fixture_geoms[name]))
    assert abs(kaehler.sublemma_residual(fixture_geoms[name]) - ref) < TOL


# ------------------------------------------------------ outside residual

@pytest.mark.parametrize("n,D", [(3, 2), (6, 4), (9, 3)])
def test_outside_residual_matches_einsum_on_random_tensors(n, D):
    rng = np.random.default_rng(n * 10 + D)
    G = 5

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    P_t, dP, P_s = cplx(G, n, n), cplx(G, D, n, n), cplx(G, n, n)
    assert abs(_outside(P_t, dP, P_s)
               - outside_residual_ref(P_t, dP, P_s)) < TOL
    # a real target projector against complex derivatives
    assert abs(_outside(P_t.real, dP, P_s)
               - outside_residual_ref(P_t.real, dP, P_s)) < TOL


@pytest.mark.parametrize("name", FIXTURES)
def test_outside_residual_matches_einsum_on_fixtures(fixture_geoms, name):
    geom = fixture_geoms[name]
    bun = gaussmaps.projector_derivatives(geom)
    taup, No = bun.taup, bun.No
    Bc = holomorphic_basis(geom.imm.complex_dim).conj()
    n = geom.imm.ambient_dim
    P_out = np.eye(n, dtype=complex)[None] - taup.P
    cases = [(taup.P.conj(), taup.dP, taup.P),
             (P_out, np.einsum("ak,gkxy->gaxy", Bc, taup.dP), taup.P),
             (bun.Nc - No.P, No.dP, No.P)]
    for P_t, dP_s, P_s in cases:
        assert abs(_outside(P_t, dP_s, P_s)
                   - outside_residual_ref(P_t, dP_s, P_s)) < TOL


# ------------------------------------- one product per point vs broadcast

def _cplx(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _rel_diff(got, ref):
    """The largest entrywise difference over the largest reference entry,
    or over 1 where that is smaller (a projector's own scale, and the
    derivative of a field that does not move)."""
    return _max_diff(got, ref) / max(float(np.max(np.abs(ref))), 1.0)


@pytest.mark.parametrize("n", [3, 6])
@pytest.mark.parametrize("D", [1, 2, 4])
def test_outside_residual_matches_broadcast_on_random_operands(n, D):
    """Non-Hermitian complex operands, and a real target."""
    rng = np.random.default_rng(10 * n + D)
    P_t, dP, P_s = _cplx(rng, 5, n, n), _cplx(rng, 5, D, n, n), \
        _cplx(rng, 5, n, n)
    for target in (P_t, P_t.real):
        ref = outside_residual_broadcast_ref(target, dP, P_s)
        assert ref > 1.0
        assert abs(_outside(target, dP, P_s) - ref) < TOL * ref


@pytest.mark.parametrize("n", [3, 6])
@pytest.mark.parametrize("D", [1, 2, 4])
@pytest.mark.parametrize("K,r", [(2, 2), (3, 2)])
def test_projector_derivative_matches_broadcast_on_random_operands(n, D,
                                                                   K, r):
    """Complex generators of rank r (K = 3 rows of rank 2: a rank-
    deficient stack) and non-Hermitian complex derivatives."""
    rng = np.random.default_rng(100 * n + 10 * D + K)
    gens = _cplx(rng, 5, K, r) @ _cplx(rng, 5, r, n)
    dgens = _cplx(rng, 5, D, K, n)
    P, rank, dP = gaussmaps.projector_derivative(gens, dgens)
    P_ref, rank_ref, dP_ref = projector_derivative_broadcast_ref(gens,
                                                                 dgens)
    assert rank == rank_ref == r
    assert _rel_diff(P, P_ref) < TOL
    assert _rel_diff(dP, dP_ref) < TOL


@pytest.mark.parametrize("d,n", RANDOM_SHAPES)
@pytest.mark.parametrize("K", [1, 3, 16])
def test_shape_operators_match_broadcast_on_random_tensors(d, n, K):
    geom = _random_geometry(5, d, n)
    xi = np.random.default_rng(K).standard_normal((7, K, n))
    ref = shape_operators_broadcast_ref(geom.alpha, geom.ginv, xi)
    assert _rel_diff(kaehler.shape_operators(geom.alpha, geom.ginv, xi),
                     ref) < TOL


@pytest.mark.parametrize("name", fixture_names())
def test_bundle_products_match_broadcast_on_fixtures(fixture_geoms,
                                                     fixture_bundles, name):
    """Every projector and derivative, every outside residual between
    two of the fields, and the shape operators of the frame and of the
    alpha values.  A residual that vanishes is round-off, so residuals
    are held to TOL times the product of their operands' largest
    entries."""
    geom, bun = fixture_geoms[name], fixture_bundles[name]
    for field, (P_ref, dP_ref) in \
            projector_derivatives_broadcast_ref(geom).items():
        P, dP = getattr(bun, field)
        assert _rel_diff(P, P_ref) < TOL and _rel_diff(dP, dP_ref) < TOL
    taupp, Npp = (gaussmaps.Bundle(*map(np.conj, S))
                  for S in (bun.taup, bun.Np))
    fields = [bun.T, bun.taup, taupp, bun.No, bun.Np, Npp]
    for S in fields:
        for target in fields:
            scale = np.prod([np.max(np.abs(a), initial=0.0)
                             for a in (target.P, S.dP, S.P)])
            got = _outside(target.P, S.dP, S.P)
            ref = outside_residual_broadcast_ref(target.P, S.dP, S.P)
            assert abs(got - ref) <= TOL * scale
    G, d, _, n = geom.alpha.shape
    for xi in (geom.frame, geom.alpha.reshape(G, d * d, n)):
        ref = shape_operators_broadcast_ref(geom.alpha, geom.ginv, xi)
        got = kaehler.shape_operators(geom.alpha, geom.ginv, xi)
        assert _rel_diff(got, ref) < TOL
