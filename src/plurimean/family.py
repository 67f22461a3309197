"""Rotated second fundamental forms, structure-equation residuals for
all theta, explicit integration of the associated family of pluriminimal
surfaces, rigid matching, and the normal-bundle automorphism psi_theta.

The rotated form is alpha_theta = u + cos 2theta v + sin 2theta w with
theta-independent parts u, v, w (rotation_parts), and psi_theta is
I + a P_N' + conj(a) P_N'' with a = e^{2i theta} - 1.  The structure
equations and psi_theta's residuals are swept over all angles from
terms formed once per geometry.
"""

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import forms
from .chartcalc import ChartedImmersion
from .gaussmaps import Bundles

THETA_SWEEP = tuple(k * np.pi / 8 for k in range(9))
_CLOSEDNESS_TOL = 1e-6   # integrate_family's bound on d(df o R_theta)


def rotation(J: np.ndarray, theta: float) -> np.ndarray:
    """R_theta = cos(theta) I + sin(theta) J on the chart."""
    return np.cos(theta) * np.eye(J.shape[0]) + np.sin(theta) * J


def rotation_parts(J: np.ndarray) -> np.ndarray:
    """(3, d^2, d^2): the constant matrices K_u, K_v, K_w with

        kron(R_theta^T, R_theta^T) = K_u + cos 2theta K_v + sin 2theta K_w,

    from cos^2 = (1 + cos 2theta) / 2, sin^2 = (1 - cos 2theta) / 2 and
    cos sin = sin 2theta / 2.  Applied to a form they give its parts
    u = a11 and v - i w = 2 a20 (the (p,q)-parts on the real basis,
    extended complex-bilinearly), so that
    alpha_theta = e^{2it} a20 + a11 + e^{-2it} a02 reads
    u + cos 2theta v + sin 2theta w.
    """
    d = J.shape[0]
    eye = np.eye(d)
    JJ = np.kron(J.T, J.T)
    return 0.5 * np.stack([np.eye(d * d) + JJ, np.eye(d * d) - JJ,
                           np.kron(J.T, eye) + np.kron(eye, J.T)])


def _codazzi_map(J: np.ndarray) -> np.ndarray:
    """(3, P d, d^3): D alpha -> the parts of X - X^{k<->i} on the P
    pairs k < i, where X is the u, v or w part of D alpha.

    Row (part, pair (k, i), j) takes X[k, i, j] - X[i, k, j]; the rows
    of k > i are their negatives and those of k = i vanish, so the pairs
    k < i carry the whole sup-norm.
    """
    d = J.shape[0]
    K = rotation_parts(J).reshape(3, d, d, d, d)   # [part, i, j, i', j']
    pairs = list(zip(*np.triu_indices(d, 1)))
    L = np.zeros((3, len(pairs), d, d, d, d))      # [part, pair, j, k', i', j']
    for p, (k, i) in enumerate(pairs):
        L[:, p, :, k] = K[:, i]
        L[:, p, :, i] = -K[:, k]
    return L.reshape(3, len(pairs) * d, d ** 3)


def _gauss_components(d: int):
    """The independent curvature components i < j, k < l as index
    arrays (i, j, k, l), each of length P^2 for P = d(d-1)/2."""
    iu, ju = np.triu_indices(d, 1)
    P = len(iu)
    return (np.repeat(iu, P), np.repeat(ju, P),
            np.tile(iu, P), np.tile(ju, P))


def structure_equation_residuals(geom: forms.GeometryData,
                                 thetas: Sequence[float]) -> np.ndarray:
    """(len(thetas), 3) residuals (gauss, codazzi, ricci) with the
    curvatures of f on the left and the rotated form alpha_theta on the
    right, one row per angle.

    alpha_theta = u + cos 2theta v + sin 2theta w (rotation_parts), so
    every term is a polynomial of degree <= 2 in (cos 2theta, sin
    2theta).  Its theta-independent parts are formed once; each angle
    then costs a few axpys and a max:

    * Gauss: the curvature of a form is bilinear, so it is six pieces
      of (u, v, w) on the components i < j, k < l.  Those are compared
      with R's four sign-arranged views R_ijkl, -R_jikl, -R_ijlk,
      R_jilk; on i = j or k = l the curvature of a form is 0, which
      leaves a theta-independent sup |R|.
    * Codazzi: sup |X - X^{k<->i}| for X = D alpha_theta, linear in the
      parts of D alpha antisymmetrised on the pairs k < i.
    * Ricci: the shape operators are linear in (u, v, w).  Commutators
      are formed per angle on the frame pairs a < b only: R^N_theta
      changes sign with (a, b) and vanishes on a = b, which leaves a
      theta-independent sup |R^N_aa|.

    The full-tensor sup-norms are kept for inputs without the index
    symmetries of R and R^N.
    """
    thetas = np.asarray(thetas, dtype=float).reshape(-1)
    c2, s2 = np.cos(2 * thetas), np.sin(2 * thetas)
    J = geom.imm.J
    G, d, _, n = geom.alpha.shape
    K = rotation_parts(J)
    alpha = geom.alpha.reshape(G, d * d, n)

    # Gauss: the pieces <X_il, Y_jk> - <X_ik, Y_jl> of the parts X, Y.
    # The rows are formed straight from the rows of K, with the grid
    # axis last so that the n-sums run over whole rows; one pair of row
    # sets is alive at a time.
    i, j, k, l = _gauss_components(d)
    a_t = np.ascontiguousarray(alpha.transpose(1, 2, 0)).reshape(
        d * d, n * G)

    def products(p, q):
        X = (K[:, p] @ a_t).reshape(3, -1, n, G)
        Y = (K[:, q] @ a_t).reshape(3, -1, n, G)
        return np.einsum("apxg,bpxg->abgp", X, Y)        # (3, 3, G, P^2)

    gram = (products(i * d + l, j * d + k)
            - products(i * d + k, j * d + l))
    del a_t
    pieces = np.stack([gram[0, 0], gram[1, 1], gram[2, 2],
                       gram[0, 1] + gram[1, 0], gram[0, 2] + gram[2, 0],
                       gram[1, 2] + gram[2, 1]])
    del gram
    gauss_coef = np.stack([np.ones_like(c2), c2 * c2, s2 * s2,
                           c2, s2, c2 * s2], axis=1)
    R = geom.R
    R_views = np.stack([R[:, i, j, k, l], -R[:, j, i, k, l],
                        -R[:, i, j, l, k], R[:, j, i, l, k]])
    gauss_zero = max(float(np.max(np.abs(R.diagonal(0, 1, 2)))),
                     float(np.max(np.abs(R.diagonal(0, 3, 4)))))

    # Codazzi: the antisymmetrised parts of D alpha, (3, G, P d, n)
    cod = _codazzi_map(J)[:, None] @ geom.Dalpha.reshape(1, G, d ** 3, n)

    # Ricci: shape operators A = g^{-1} <part, xi_a>, (G, 3, k, d, d)
    RN = geom.RN
    frames = RN.shape[-1]
    diag = np.arange(frames)
    ricci_diag = float(np.max(np.abs(RN[:, :, :, diag, diag]),
                              initial=0.0))
    a, b = np.triu_indices(frames, 1)
    if len(a):
        M = ((geom.frame @ alpha.transpose(0, 2, 1))
             @ K.reshape(3 * d * d, d * d).T)             # (G, k, 3 d^2)
        A = geom.ginv[:, None, None] @ M.reshape(
            G, frames, 3, d, d).transpose(0, 2, 1, 3, 4)
        RN_ab = RN[:, :, :, a, b].transpose(0, 3, 2, 1)     # [g, pair, j, i]
        RN_ba = RN[:, :, :, b, a].transpose(0, 3, 2, 1)

    out = np.empty((len(thetas), 3))
    for t in range(len(thetas)):
        Kt = np.tensordot(gauss_coef[t], pieces, axes=1)
        out[t, 0] = max(gauss_zero, float(np.max(np.abs(R_views - Kt))))
        out[t, 1] = np.max(np.abs(cod[0] + c2[t] * cod[1]
                                  + s2[t] * cod[2]))
        ricci = ricci_diag
        if len(a):
            At = A[:, 0] + c2[t] * A[:, 1] + s2[t] * A[:, 2]
            gc = geom.g[:, None] @ (At[:, a] @ At[:, b]
                                    - At[:, b] @ At[:, a])
            ricci = max(ricci, float(np.max(np.abs(RN_ab - gc))),
                        float(np.max(np.abs(RN_ba + gc))))
        out[t, 2] = ricci
    return out


def closedness_residual(geom: forms.GeometryData, theta: float) -> float:
    """Closedness of the 1-form omega = df o R_theta:
    sup | d_i omega_j - d_j omega_i | over the pairs i < j.

    d_i omega_j = sum_k R_kj d2_ik is summed elementwise in k order,
    the same float operations as an index loop: on the catenoid and the
    helicoid the residual reads exactly 0, where a matrix product
    leaves round-off.
    """
    R = rotation(geom.imm.J, theta)
    d2 = geom.jet.d2
    d = R.shape[0]

    def dw(i, j):
        return sum(R[k, j] * d2[:, i, k] for k in range(d))

    return max(float(np.max(np.abs(dw(i, j) - dw(j, i))))
               for i in range(d) for j in range(i + 1, d))


@dataclass
class FamilyMember:
    theta: float
    pts: np.ndarray         # (G, 2m) chart points of the tensor grid
    shape: tuple            # per-axis point counts
    values: np.ndarray      # (G, n) integrated immersion, anchored at 0
    metric_deviation: float  # sup |R^T g R - g| (exact-form route)
    closedness: float       # closedness_residual of df o R_theta
    geom: forms.GeometryData  # geometry of imm on pts


def integrate_family(imm: ChartedImmersion, theta: float,
                     per_axis: int = 41) -> FamilyMember:
    """Quadrature of df_theta = df o R_theta on a tensor grid (surfaces).

    Row-major staircase paths with a derivative-corrected trapezoid rule
    (the h^2/12 endpoint-derivative term), which brings the quadrature
    error to O(h^4) per step; a plain trapezoid would dominate the
    Procrustes comparison at desk-scale grids.
    """
    if imm.complex_dim != 1:
        raise NotImplementedError("family integration implemented for "
                                  "surface fixtures (m = 1)")
    if per_axis < 2:
        raise ValueError("family integration needs at least 2 grid "
                         "points per axis")
    pts = imm.grid(per_axis)
    geom = forms.compute_geometry(imm, pts)
    closed = closedness_residual(geom, theta)
    if closed > _CLOSEDNESS_TOL:
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

    g_t = R.T @ geom.g @ R
    metric_dev = float(np.max(np.abs(g_t - geom.g)))
    return FamilyMember(theta=theta, pts=pts, shape=(N, N),
                        values=F.reshape(-1, n),
                        metric_deviation=metric_dev, closedness=closed,
                        geom=geom)


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

def build_psi(geom: forms.GeometryData, bun: Bundles,
              thetas: Sequence[float]):
    """psi_theta = e^{2it} on N', 1 on N° and the flat remainder,
    e^{-2it} on N'' and 1 on the tangent bundle, at every angle.

    Returns the (len(thetas), 3) residuals (eq8, unitarity, identity on
    N) and the (-1)-eigenspace dimension of psi_{pi/2}.  With P = P_N',
    Q = P_N'' and a = e^{2it} - 1, psi_theta = I + a P + conj(a) Q, so
    the theta-independent terms are formed once: psi alpha - alpha_theta
    = X0 + cos 2t X1 + sin 2t X2 (alpha is real and Q = conj P, and
    alpha_theta comes from rotation_parts); psi psi* - I = C0 + E C1
    + E^2 P Q* + h.c. for E = e^{2it}, with P* and Q* kept, so that it
    holds for any P; (psi - I) P_Nc = 2 Re(a P P_Nc), as P_Nc is real.
    """
    thetas = np.asarray(thetas, dtype=float).reshape(-1)
    c2, s2 = np.cos(2 * thetas), np.sin(2 * thetas)
    E = np.exp(2j * thetas)
    G, d, _, n = geom.alpha.shape
    P, Q = bun.Np.P, bun.Npp.P
    Ph, Qh = (M.conj().transpose(0, 2, 1) for M in (P, Q))
    alpha = geom.alpha.reshape(G, d * d, n)
    u, v, w = (rotation_parts(geom.imm.J) @ alpha[:, None]).transpose(
        1, 0, 2, 3)
    Pa = alpha @ P.transpose(0, 2, 1)
    X = np.stack([alpha - 2 * Pa.real - u, 2 * Pa.real - v,
                  -2 * Pa.imag - w])

    PQh, PPh_QQh = P @ Qh, P @ Ph + Q @ Qh
    C0 = 2 * PPh_QQh - P - Qh - Ph - Q + PQh + PQh.conj().transpose(0, 2, 1)
    C1 = P + Qh - PPh_QQh - 2 * PQh
    M = P @ bun.Nc.P

    out = np.empty((len(thetas), 3))
    for t in range(len(thetas)):
        out[t, 0] = np.max(np.abs(X[0] + c2[t] * X[1] + s2[t] * X[2]))
        Y = E[t] * C1 + E[t] ** 2 * PQh
        out[t, 1] = np.max(np.abs(C0 + Y + Y.conj().transpose(0, 2, 1)))
        out[t, 2] = 2 * np.max(np.abs((c2[t] - 1) * M.real
                                      - s2[t] * M.imag))

    # psi_{pi/2} is real symmetric; on N it is +1 on N° + rest and -1 on
    # the real points of N' + N''
    half_turn = np.real(bun.Nc.P - 2 * (P + Q))
    counts = np.sum(np.linalg.eigvalsh(half_turn) < -0.5, axis=1)
    if np.any(counts != counts[0]):
        raise ValueError("(-1)-eigenspace dimension varies over grid")
    return out, int(counts[0])
