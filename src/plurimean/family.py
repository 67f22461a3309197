"""Rotated second fundamental forms, structure-equation residuals for
all theta, explicit integration of the associated family of pluriminimal
surfaces, rigid matching, and the normal-bundle automorphism psi_theta.

The rotated form is alpha_theta = u + cos 2theta v + sin 2theta w with
theta-independent parts u, v, w, which chartcalc's rotation_parts
defines and form_parts splits off; psi_theta is
I + a P_N' + conj(a) P_N'' with a = e^{2i theta} - 1.  The structure
equations and psi_theta's residuals are swept over all angles from
terms formed once per geometry or per block: a leg that is linear in
the angle's trigonometric coefficients is one product of the angle
rows with its stacked terms (_row_max).  The Gauss term is the
geometry's R, the curvature of alpha, pulled back by Lambda^2 R_theta,
with no per-angle form built; the Ricci term takes a few axpys and a
commutator per angle.
The sweep's constant matrices are chart constants, built once per m
(chartcalc.chart_constant).  psi_theta's sweep and the structure
sweep's Codazzi leg run block by block of grid points
(chartcalc.grid_max), also where the family verb shares the structure
sweep at 201^2 points; its Gauss and Ricci legs run over the whole
grid.  Where N' is exactly 0 (an isotropic immersion), psi_theta = I
and psi's sweep forms no product of P_N': eq8 alone is left, as the
angle rows against [alpha - u, -v, -w].  rotation_parts,
the structure equations and psi_theta rotate alpha^{2,0} by
e^{2i theta}; df o R_theta, which integrate_family and
closedness_residual take, is the member at theta/2.
"""

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import forms, kaehler
from .chartcalc import (ChartedImmersion, chart_constant, form_parts,
                        grid_max, rotation_parts, vanishing_factor)
from .gaussmaps import Bundles

THETA_SWEEP = tuple(k * np.pi / 8 for k in range(9))
_CLOSEDNESS_TOL = 1e-6   # integrate_family's bound on d(df o R_theta)


def rotation(J: np.ndarray, theta: float) -> np.ndarray:
    """R_theta = cos(theta) I + sin(theta) J on the chart."""
    return np.cos(theta) * np.eye(J.shape[0]) + np.sin(theta) * J


@chart_constant
def _codazzi_map(m: int) -> np.ndarray:
    """(3, P d, d^3): D alpha -> the parts of X - X^{k<->i} on the P
    pairs k < i, where X is the u, v or w part of D alpha.

    Row (part, pair (k, i), j) takes X[k, i, j] - X[i, k, j]; the rows
    of k > i are their negatives and those of k = i vanish, so the pairs
    k < i carry the whole sup-norm.
    """
    d = 2 * m
    K = rotation_parts(m).reshape(3, d, d, d, d)   # [part, i, j, i', j']
    pairs = list(zip(*np.triu_indices(d, 1)))
    L = np.zeros((3, len(pairs), d, d, d, d))      # [part, pair, j, k', i', j']
    for p, (k, i) in enumerate(pairs):
        L[:, p, :, k] = K[:, i]
        L[:, p, :, i] = -K[:, k]
    return L.reshape(3, len(pairs) * d, d ** 3)


@chart_constant
def _gauss_components(m: int):
    """The independent curvature components i < j, k < l as index
    arrays (i, j, k, l), each of length P^2 for P = d(d-1)/2: the
    component (i, j, k, l) is entry (p, q) of a P x P pair matrix, p
    the pair (i, j) and q the pair (k, l)."""
    iu, ju = np.triu_indices(2 * m, 1)
    P = len(iu)
    return (np.repeat(iu, P), np.repeat(ju, P),
            np.tile(iu, P), np.tile(ju, P))


@chart_constant
def _pair_parts(m: int) -> np.ndarray:
    """(3, P, P): the parts of Lambda^2 R_theta^T on the pairs i < j,

        Lambda_theta = Lambda_u + cos 2theta Lambda_v + sin 2theta Lambda_w,

    Lambda_theta[(i, j), (a, b)] = R_ai R_bj - R_bi R_aj: the pair rows
    of rotation_parts, antisymmetrised in their columns.  A form's
    curvature pulls back on all four slots when the form does on two,
    so on the pairs the curvature of alpha_theta is
    Lambda_theta R_op Lambda_theta^T, R_op the pair matrix of alpha's
    curvature, geom.R."""
    d = 2 * m
    K = rotation_parts(m).reshape(3, d, d, d, d)
    iu, ju = np.triu_indices(d, 1)
    rows = K[:, iu, ju]                            # (3, P, d, d)
    return rows[:, :, iu, ju] - rows[:, :, ju, iu]


def _gauss_residuals(geom, c2: np.ndarray, s2: np.ndarray) -> np.ndarray:
    """The Gauss leg of structure_equation_residuals at the angles with
    cos 2theta = c2 and sin 2theta = s2, (T,).

    Lambda_theta (T, P, P) of every angle gives the products
    Lambda_theta[p, r] Lambda_theta[q, s] as the columns (t, p, q) of
    one (P^2, T P^2) matrix against the rows (r, s) of R_op, R's
    components i < j, k < l."""
    m = geom.alpha.shape[1] // 2
    i, j, k, l = _gauss_components(m)
    Lu, Lv, Lw = _pair_parts(m)
    Lt = Lu + c2[:, None, None] * Lv + s2[:, None, None] * Lw
    T, P = Lt.shape[:2]
    W = (Lt[:, :, None, :, None] * Lt[:, None, :, None, :]).transpose(
        3, 4, 0, 1, 2).reshape(P * P, T * P * P)
    R_op = geom.R[:, i, j, k, l]
    K_t = (R_op @ W).reshape(len(R_op), T, P * P)
    # |K_t - R_op| = |R_op - K_t| exactly, formed in place
    K_t -= R_op[:, None]
    return np.max(np.abs(K_t, out=K_t), axis=(0, 2))


def structure_equation_residuals(geom: forms.GeometryData,
                                 thetas: Sequence[float]) -> np.ndarray:
    """(len(thetas), 3) residuals (gauss, codazzi, ricci) with the
    curvatures of f on the left and the rotated form alpha_theta on the
    right, one row per angle.

    alpha_theta = alpha(R_theta ., R_theta .) = u + cos 2theta v
    + sin 2theta w (form_parts), so the theta-independent terms are
    formed once and the angles come from products with their rows:

    * Gauss: the curvature of alpha_theta is that of alpha pulled back
      on all four slots, Lambda_theta R_op Lambda_theta^T on the
      components i < j, k < l (_pair_parts), with R_op those components
      of geom.R, which is the Gauss curvature of alpha.  Every angle
      takes one (G, P^2) @ (P^2, T P^2) product, compared with R_op.
      R is antisymmetric in (i, j) and in (k, l), exactly as the kernel
      forms it, so these components carry the whole sup-norm.
    * Codazzi: sup |X - X^{k<->i}| for X = D alpha_theta, linear in the
      parts of D alpha antisymmetrised on the pairs k < i
      (_codazzi_sweep: two products per block of grid points).
    * Ricci: the shape operators of u, v, w (kaehler) are formed once
      in the normal frame, and R^N_theta of each angle by a few axpys
      and kaehler's Ricci equation; on a normal line R^N of every form
      is 0.

    The Ricci leg keeps the full-tensor sup-norm, for an R^N without
    its index symmetries.
    """
    thetas = np.asarray(thetas, dtype=float).reshape(-1)
    c2, s2 = np.cos(2 * thetas), np.sin(2 * thetas)
    m = geom.alpha.shape[1] // 2

    out = np.empty((len(thetas), 3))
    out[:, 0] = _gauss_residuals(geom, c2, s2)
    out[:, 1] = grid_max(functools.partial(
        _codazzi_sweep, _codazzi_map(m), _angle_rows(c2, s2)), geom.Dalpha)

    # Ricci: the shape operators of the parts; a normal line reads no frame
    RN = geom.RN
    normal_line = RN.shape[-1] == 1
    if not normal_line:
        A_u, A_v, A_w = (kaehler.shape_operators(p, geom.ginv, geom.frame)
                         for p in form_parts(geom.alpha))
    for t in range(len(thetas)):
        RN_t = 0.0 if normal_line else kaehler.ricci_commutators(
            A_u + c2[t] * A_v + s2[t] * A_w, geom.g)
        out[t, 2] = np.max(np.abs(RN - RN_t))
    return out


def _angle_rows(c2: np.ndarray, s2: np.ndarray) -> np.ndarray:
    """(T, 3) rows (1, cos 2theta, sin 2theta): one row per angle, against
    the parts u, v, w of a form, give the form's alpha_theta values."""
    return np.stack([np.ones_like(c2), c2, s2], axis=1)


def _row_max(rows: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """(T,): sup |rows_t . terms| for angle rows (T, k) against k stacked
    terms (k, ...), from one product."""
    Z = rows @ terms.reshape(len(terms), -1)
    # a real Z, the largest array of psi's block, takes its abs in place
    Z = np.abs(Z, out=Z) if Z.dtype.kind == "f" else np.abs(Z)
    return np.max(Z, axis=1)


def _codazzi_sweep(L: np.ndarray, rows: np.ndarray,
                   Dalpha: np.ndarray) -> np.ndarray:
    """The Codazzi leg (T,) on one block of grid points: the map L
    (3 P d, d^3) of _codazzi_map meets the block's D alpha values
    (d^3, G n) in one product, whose three parts the angle rows (T, 3)
    then meet in another (_row_max)."""
    G, d = Dalpha.shape[:2]
    n = Dalpha.shape[-1]
    D = np.ascontiguousarray(Dalpha.reshape(G, d ** 3, n).transpose(1, 0, 2))
    return _row_max(rows, L @ D.reshape(d ** 3, G * n))


def closedness_residual(geom: forms.GeometryData, theta: float) -> float:
    """Closedness of omega = df o R_theta (the alpha-family member at
    theta/2): sup | d_i omega_j - d_j omega_i | over the pairs i < j.

    d_i omega_j = sum_k R_kj d2_ik is summed elementwise in k order,
    the same float operations as an index loop: on the catenoid and the
    helicoid the residual reads exactly 0, where a matrix product
    leaves round-off.  The columns d2_ik (G, n) are copied to unit
    stride once, the n floats of a point moving as one item, so that
    each term streams contiguous rows.
    """
    R = rotation(geom.imm.J, theta)
    src = geom.jet.d2
    G, d, _, n = src.shape
    cells = src.view(np.dtype((np.void, src.itemsize * n)))[..., 0]
    d2 = np.ascontiguousarray(cells.transpose(1, 2, 0)).view(
        src.dtype).reshape(d, d, G, n)

    def dw(i, j):
        out = R[0, j] * d2[i, 0]
        for k in range(1, d):
            out += R[k, j] * d2[i, k]
        return out

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

def _unitarity_terms(P: np.ndarray) -> np.ndarray:
    """The terms (5, G, n, n) of psi psi* - I = C0 + E C1 + E^2 P Q*
    + h.c. (build_psi) for P = P_N' and Q = P_N'' = conj P, stacked
    against the angle rows (1, E, E^2, conj E, conj E^2)."""
    Q = P.conj()
    Ph, Qh = (M.conj().transpose(0, 2, 1) for M in (P, Q))
    PQh, PPh_QQh = P @ Qh, P @ Ph + Q @ Qh
    C0 = 2 * PPh_QQh - P - Qh - Ph - Q + PQh + PQh.conj().transpose(0, 2, 1)
    C1 = P + Qh - PPh_QQh - 2 * PQh
    return np.stack([C0, C1, PQh, C1.conj().transpose(0, 2, 1),
                     PQh.conj().transpose(0, 2, 1)])


def _psi_sweep(rows, alpha, P, P_Nc) -> np.ndarray:
    """build_psi's (T, 3) residuals on one block of grid points, each leg
    one product (_row_max) of its angle rows in rows = (eq8, unitarity,
    identity on N) with its theta-independent terms: alpha
    (G, d, d, n), P = P_N' and P_Nc (G, n, n), and Q = P_N'' = conj P.

    Where P vanishes on the block (N' of an isotropic immersion) and
    alpha and P_Nc are finite (vanishing_factor), psi_theta = I: the
    unitarity and identity legs are 0, and eq8 is the product of its
    angle rows with [alpha - u, -v, -w] alone."""
    eq8, unitarity, identity = rows
    G, d, _, n = alpha.shape
    out = np.zeros((len(eq8), 3))
    u, v, w = form_parts(alpha).reshape(3, G, d * d, n)
    alpha = alpha.reshape(G, d * d, n)
    if vanishing_factor(P, alpha, P_Nc):
        out[:, 0] = _row_max(eq8, np.stack([alpha - u, -v, -w]))
        return out
    Pa = alpha @ P.transpose(0, 2, 1)
    out[:, 0] = _row_max(eq8, np.stack([alpha - 2 * Pa.real - u,
                                        2 * Pa.real - v, -2 * Pa.imag - w]))
    del u, v, w, Pa

    # the angles in two halves: the (T, G n^2) complex product of all
    # of them at once would be the block's largest temporary
    terms = _unitarity_terms(P)
    half = (len(unitarity) + 1) // 2
    out[:, 1] = np.concatenate([_row_max(unitarity[:half], terms),
                                _row_max(unitarity[half:], terms)])
    del terms

    M = P @ P_Nc
    out[:, 2] = 2 * _row_max(identity, np.stack([M.real, M.imag]))
    return out


def build_psi(geom: forms.GeometryData, bun: Bundles,
              thetas: Sequence[float]):
    """psi_theta = e^{2it} on N', 1 on N° and the flat remainder,
    e^{-2it} on N'' and 1 on the tangent bundle, at every angle.

    Returns the (len(thetas), 3) residuals (eq8, unitarity, identity on
    N) and the (-1)-eigenspace dimension of psi_{pi/2}.  With P = P_N',
    Q = P_N'' and a = e^{2it} - 1, psi_theta = I + a P + conj(a) Q, so
    the theta-independent terms are formed once per block and each leg
    is one product of its angle rows with them: psi alpha - alpha_theta
    = X0 + cos 2t X1 + sin 2t X2 (alpha is real and Q = conj P, and
    alpha_theta comes from form_parts); psi psi* - I = C0 + E C1
    + E^2 P Q* + h.c. for E = e^{2it}, with P* and Q* kept, so that it
    holds for any P; (psi - I) P_Nc = 2 Re(a P P_Nc)
    = 2 ((cos 2t - 1) Re M - sin 2t Im M) for M = P P_Nc, as P_Nc is
    real.  The sweep runs block by block of grid points (_psi_sweep
    over grid_max), the eigenspace count over the whole grid.
    """
    thetas = np.asarray(thetas, dtype=float).reshape(-1)
    c2, s2 = np.cos(2 * thetas), np.sin(2 * thetas)
    E = np.exp(2j * thetas)
    rows = (_angle_rows(c2, s2),
            np.stack([np.ones_like(E), E, E ** 2, E.conj(), E.conj() ** 2],
                     axis=1),
            np.stack([c2 - 1, -s2], axis=1))
    P = bun.Np.P
    out = grid_max(functools.partial(_psi_sweep, rows),
                   geom.alpha, P, bun.Nc)

    # psi_{pi/2} = Re(P_Nc - 2 (P + Q)), as P + Q = 2 Re P, is real
    # symmetric; on N it is +1 on N° + rest and -1 on the real points of
    # N' + N''
    half_turn = bun.Nc.real - 4 * P.real
    counts = np.sum(np.linalg.eigvalsh(half_turn) < -0.5, axis=1)
    if np.any(counts != counts[0]):
        raise ValueError("(-1)-eigenspace dimension varies over grid")
    return out, int(counts[0])
