"""Rotated second fundamental forms, structure-equation residuals for
all theta, explicit integration of the associated family of pluriminimal
surfaces, rigid matching, and the normal-bundle automorphism psi_theta.

The rotated form is alpha_theta = u + cos 2theta v + sin 2theta w with
theta-independent parts u, v, w, which chartcalc's rotation_parts
defines and form_parts splits off; psi_theta is
I + a P_N' + conj(a) P_N'' with a = e^{2i theta} - 1.  The structure
equations and psi_theta's residuals are swept over all angles from
terms formed once per geometry.  rotation_parts, the structure equations
and psi_theta rotate alpha^{2,0} by e^{2i theta}; df o R_theta, which
integrate_family and closedness_residual take, is the member at theta/2.
"""

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import forms, kaehler
from .chartcalc import ChartedImmersion, form_parts, rotation_parts
from .gaussmaps import Bundles

THETA_SWEEP = tuple(k * np.pi / 8 for k in range(9))
_CLOSEDNESS_TOL = 1e-6   # integrate_family's bound on d(df o R_theta)


def rotation(J: np.ndarray, theta: float) -> np.ndarray:
    """R_theta = cos(theta) I + sin(theta) J on the chart."""
    return np.cos(theta) * np.eye(J.shape[0]) + np.sin(theta) * J


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

    alpha_theta = u + cos 2theta v + sin 2theta w (form_parts), so
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
    * Ricci: the shape operators of u, v, w (kaehler) are formed once
      in the normal frame, and R^N_theta of each angle by kaehler's
      Ricci equation; on a normal line R^N of every form is 0.

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
    gauss_zero = np.max([np.max(np.abs(R.diagonal(0, 1, 2))),
                         np.max(np.abs(R.diagonal(0, 3, 4)))])

    # Codazzi: the antisymmetrised parts of D alpha, (3, G, P d, n)
    cod = _codazzi_map(J)[:, None] @ geom.Dalpha.reshape(1, G, d ** 3, n)

    # Ricci: the shape operators of the parts; a normal line reads no frame
    RN = geom.RN
    normal_line = RN.shape[-1] == 1
    if not normal_line:
        A_u, A_v, A_w = (kaehler.shape_operators(p, geom.ginv, geom.frame)
                         for p in form_parts(J, geom.alpha))

    out = np.empty((len(thetas), 3))
    for t in range(len(thetas)):
        Kt = np.tensordot(gauss_coef[t], pieces, axes=1)
        # np.max, not max(): a NaN must reach the caller
        out[t, 0] = np.max([gauss_zero, np.max(np.abs(R_views - Kt))])
        out[t, 1] = np.max(np.abs(cod[0] + c2[t] * cod[1]
                                  + s2[t] * cod[2]))
        RN_t = 0.0 if normal_line else kaehler.ricci_commutators(
            A_u + c2[t] * A_v + s2[t] * A_w, geom.g)
        out[t, 2] = np.max(np.abs(RN - RN_t))
    return out


def closedness_residual(geom: forms.GeometryData, theta: float) -> float:
    """Closedness of omega = df o R_theta (the alpha-family member at
    theta/2): sup | d_i omega_j - d_j omega_i | over the pairs i < j.

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

    # np.max, not max(): a NaN must reach the caller
    return float(np.max([np.max(np.abs(dw(i, j) - dw(j, i)))
                         for i in range(d) for j in range(i + 1, d)]))


@dataclass
class FamilyMember:
    theta: float
    pts: np.ndarray         # (G, 2m) chart points of the tensor grid
    shape: tuple            # per-axis point counts
    values: np.ndarray      # (G, n) integrated immersion, anchored at 0
    metric_deviation: float  # sup |R^T g R - g| (exact-form route)
    closedness: float       # closedness_residual of df o R_theta
    geom: forms.GeometryData  # geometry of imm on pts


def _rotated_integrand(R: np.ndarray, d1: np.ndarray, d2: np.ndarray):
    """(omega, a), each (G, 2, n), on a surface chart: omega[g, i] =
    df(R e_i) and a[g, i] = d_i omega_i (no sum), the derivative of the
    integrand along each axis.  Each entry is a sum of two products over
    k, which rounds the same in either order, so the mesh does not
    depend on a BLAS summation order."""
    w = R[0, :, None] * d1[:, :1] + R[1, :, None] * d1[:, 1:]
    a = R[0, :, None] * d2[:, :, 0] + R[1, :, None] * d2[:, :, 1]
    return w, a


def integrate_family(imm: ChartedImmersion, theta: float,
                     per_axis: int = 41) -> FamilyMember:
    """Quadrature of df o R_theta, the alpha_theta member at theta/2.

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
    w, a = (x.reshape(N, N, 2, n)
            for x in _rotated_integrand(R, geom.jet.d1, geom.jet.d2))
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
    alpha_theta comes from form_parts); psi psi* - I = C0 + E C1
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
    u, v, w = form_parts(geom.imm.J, geom.alpha).reshape(3, G, d * d, n)
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
