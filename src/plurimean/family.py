"""Rotated second fundamental forms, structure-equation residuals for
all theta, explicit integration of the associated family of pluriminimal
surfaces, rigid matching, and the normal-bundle automorphism psi_theta.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import forms, kernels
from .chartcalc import ChartedImmersion
from .gaussmaps import BundleProjectors

THETA_SWEEP = tuple(k * np.pi / 8 for k in range(9))


def rotation(J: np.ndarray, theta: float) -> np.ndarray:
    """R_theta = cos(theta) I + sin(theta) J on the chart."""
    return np.cos(theta) * np.eye(J.shape[0]) + np.sin(theta) * J


def rotate_form(alpha: np.ndarray, J: np.ndarray,
                theta: float) -> np.ndarray:
    """alpha_theta(x, y) = alpha(R_theta x, R_theta y)."""
    R = rotation(J, theta)
    return np.einsum("ai,bj,gabx->gijx", R, R, alpha)


def rotate_form_component_residual(geom: forms.GeometryData,
                                   theta: float) -> float:
    """Check alpha_theta = e^{2it} a20 + a11 + e^{-2it} a02 on the real
    basis, with the (p,q)-parts extended complex-bilinearly."""
    J = geom.imm.J
    d = J.shape[0]
    Pp = 0.5 * (np.eye(d) - 1j * J)  # pi' on chart components
    Pq = Pp.conj()
    ac = geom.alpha.astype(complex)
    a20r = np.einsum("ai,bj,gabx->gijx", Pp, Pp, ac)
    a11r = (np.einsum("ai,bj,gabx->gijx", Pp, Pq, ac)
            + np.einsum("ai,bj,gabx->gijx", Pq, Pp, ac))
    recon = (np.exp(2j * theta) * a20r + a11r
             + np.exp(-2j * theta) * np.conj(a20r))
    return float(np.max(np.abs(recon - rotate_form(ac, J, theta))))


def structure_equation_residuals(geom: forms.GeometryData, theta: float):
    """(gauss, codazzi, ricci) residuals with the curvatures of f on the
    left and the rotated form alpha_theta on the right."""
    J = geom.imm.J
    R = rotation(J, theta)
    alpha_t = rotate_form(geom.alpha, J, theta)
    gauss = kernels.gauss_residual(geom.R, alpha_t)

    # Codazzi: (D alpha_theta)(k; i, j) symmetric in (k, i)
    Dat = np.einsum("ai,bj,gkabx->gkijx", R, R, geom.Dalpha)
    codazzi = float(np.max(np.abs(Dat - Dat.transpose(0, 2, 1, 3, 4))))

    # Ricci: commutators of the rotated shape operators
    from .kaehler import normal_curvature
    RN_t = normal_curvature(alpha_t, geom.g, geom.ginv, geom.frame)
    ricci = float(np.max(np.abs(geom.RN - RN_t)))
    return gauss, codazzi, ricci


def closedness_residual(geom: forms.GeometryData, theta: float) -> float:
    """Closedness of the 1-form omega = df o R_theta:
    sup | d_i omega_j - d_j omega_i |."""
    R = rotation(geom.imm.J, theta)
    # d_i omega_j = sum_k R_kj d2_{ik}
    dw = np.einsum("kj,gikx->gijx", R, geom.jet.d2)
    return float(np.max(np.abs(dw - dw.transpose(0, 2, 1, 3))))


@dataclass
class FamilyMember:
    theta: float
    pts: np.ndarray         # (G, 2m) chart points of the tensor grid
    shape: tuple            # per-axis point counts
    values: np.ndarray      # (G, n) integrated immersion, anchored at 0
    metric_deviation: float  # sup |R^T g R - g| (exact-form route)
    geom: forms.GeometryData  # geometry of imm on pts


def integrate_family(imm: ChartedImmersion, theta: float,
                     per_axis: int = 41, closedness_tol: float = 1e-6
                     ) -> FamilyMember:
    """Quadrature of df_theta = df o R_theta on a tensor grid (surfaces).

    Row-major staircase paths with a derivative-corrected trapezoid rule
    (the h^2/12 endpoint-derivative term), which brings the quadrature
    error to O(h^4) per step; a plain trapezoid would dominate the
    Procrustes comparison at desk-scale grids.
    """
    if imm.complex_dim != 1:
        raise NotImplementedError("family integration implemented for "
                                  "surface fixtures (m = 1)")
    pts = imm.grid(per_axis)
    geom = forms.compute_geometry(imm, pts)
    closed = closedness_residual(geom, theta)
    if closed > closedness_tol:
        raise ValueError(f"{imm.name}: df o R_theta is not closed "
                         f"(residual {closed:.2e}); the fixture is not "
                         f"pluriminimal")
    R = rotation(imm.J, theta)
    n = imm.ambient_dim
    N = per_axis
    # omega[g, i] = df(R e_i); a[g, i] = d_i omega_i (no sum): the
    # derivative of the integrand along each axis
    w = np.einsum("ki,gkx->gix", R, geom.jet.d1).reshape(N, N, 2, n)
    a = np.einsum("ki,gikx->gix", R, geom.jet.d2).reshape(N, N, 2, n)
    hu = (imm.domain[0, 1] - imm.domain[0, 0]) / (N - 1)
    hv = (imm.domain[1, 1] - imm.domain[1, 0]) / (N - 1)

    F = np.zeros((N, N, n))
    # integrate along the first column (v fixed at index 0)
    wu, au = w[:, 0, 0], a[:, 0, 0]
    steps = (0.5 * hu * (wu[:-1] + wu[1:])
             - hu**2 / 12.0 * (au[1:] - au[:-1]))
    F[1:, 0, :] = np.cumsum(steps, axis=0)
    # then along each row (u fixed)
    wv, av = w[:, :, 1], a[:, :, 1]
    steps = (0.5 * hv * (wv[:, :-1] + wv[:, 1:])
             - hv**2 / 12.0 * (av[:, 1:] - av[:, :-1]))
    F[:, 1:, :] = F[:, :1, :] + np.cumsum(steps, axis=1)

    g_t = np.einsum("ki,gkl,lj->gij", R, geom.g, R)
    metric_dev = float(np.max(np.abs(g_t - geom.g)))
    return FamilyMember(theta=theta, pts=pts, shape=(N, N),
                        values=F.reshape(-1, n),
                        metric_deviation=metric_dev, geom=geom)


def rigid_match(A: np.ndarray, B: np.ndarray):
    """Orthogonal Procrustes (reflections allowed): returns (Q, t, rms)
    with Q A_i + t ~ B_i in the least-squares sense."""
    A = np.asarray(A, float)
    B = np.asarray(B, float)
    if A.shape != B.shape:
        raise ValueError("point clouds must have matching shapes")
    ca, cb = A.mean(axis=0), B.mean(axis=0)
    Ac, Bc = A - ca, B - cb
    H = Ac.T @ Bc
    U, _, Vt = np.linalg.svd(H)
    Q = Vt.T @ U.T
    t = cb - Q @ ca
    rms = float(np.sqrt(np.mean(np.sum((Ac @ Q.T - Bc) ** 2, axis=1))))
    return Q, t, rms


# ------------------------------------------------------------- psi_theta

@dataclass
class NormalAutomorphism:
    theta: float
    Psi: np.ndarray            # (G, n, n) complex, identity on tangent
    eq8_residual: float
    unitarity: float
    minus_one_dim: Optional[int]   # -1-eigenspace dim of psi_{pi/2}
    identity_on_N: float           # sup |(Psi - I) restricted to N|


def build_psi(geom: forms.GeometryData, bun: BundleProjectors,
              theta: float) -> NormalAutomorphism:
    """psi_theta = e^{2it} on N', 1 on N° and the flat remainder,
    e^{-2it} on N''; extended by the identity on the tangent bundle so
    it can be applied directly to ambient alpha values."""
    n = geom.imm.ambient_dim
    eye = np.eye(n, dtype=complex)[None]
    P_rest = bun.P_rest
    Psi = (bun.P_T + np.exp(2j * theta) * bun.P_Np + bun.P_No
           + np.exp(-2j * theta) * bun.P_Npp + P_rest)

    alpha_t = rotate_form(geom.alpha, geom.imm.J, theta)
    applied = np.einsum("gxy,gijy->gijx", Psi, geom.alpha.astype(complex))
    eq8 = float(np.max(np.abs(applied - alpha_t)))

    unit = float(np.max(np.abs(
        np.einsum("gxy,gzy->gxz", Psi, Psi.conj()) - eye)))

    ident = float(np.max(np.abs(
        np.einsum("gxy,gyz->gxz", Psi - eye, bun.P_Nc))))

    minus_dim = None
    if abs(theta - np.pi / 2) < 1e-12:
        # psi_{pi/2} is real symmetric; on N it is +1 on N°+rest and -1
        # on the real points of N' + N''
        M = np.real(Psi - bun.P_T)  # 0 on tangent, +-1 on normal
        ev = np.linalg.eigvalsh(M)
        counts = np.sum(ev < -0.5, axis=1)
        if np.any(counts != counts[0]):
            raise ValueError("(-1)-eigenspace dimension varies over grid")
        minus_dim = int(counts[0])
    return NormalAutomorphism(theta=theta, Psi=Psi, eq8_residual=eq8,
                              unitarity=unit, minus_one_dim=minus_dim,
                              identity_on_N=ident)
