"""Induced metric, Levi-Civita connection, Kaehler residuals, curvature.

The intrinsic curvature is DEFINED through the Gauss equation of the
isometric immersion (all fixtures are immersions into flat space), which
avoids fourth derivatives of f; a finite-difference-of-metric oracle is
kept in the tests as a slow cross-check.  The normal curvature is
defined through the Ricci equation, R^N(X,Y) xi = alpha(X, A_xi Y) -
alpha(Y, A_xi X), with the Weingarten maps A_xi of shape_operators:
ricci_commutators reads it in a normal frame, the sublemma without one.
The sublemma runs block by block of grid points (chartcalc.grid_max),
so its (G, d, d, 2m^2, n) terms are formed one block at a time.
"""

import functools

import numpy as np

from . import kernels
from .chartcalc import (Jet3, RankError, _check_rank, chart_constant,
                        contract_slots, grid_max, type_rows)


def induced_metric(jet: Jet3) -> np.ndarray:
    """g_ij = <d1_i, d1_j>, shape (G, 2m, 2m)."""
    return jet.d1 @ np.ascontiguousarray(jet.d1.transpose(0, 2, 1))


def _cholesky_inverse(L: np.ndarray) -> np.ndarray:
    """g^-1 = L^-T L^-1 (G, d, d) from the Cholesky factor L of g.

    M = L^-1 is lower triangular; forward substitution gives each of its
    d(d+1)/2 entries as one vector step over the grid axis,
    M_ij = -(sum_{j <= k < i} L_ik M_kj) / L_ii, and each entry of the
    symmetric g^-1 is sum_{k >= max(a, b)} M_ka M_kb, written to both
    triangles.  Small d and many points: this replaces one LAPACK call
    per 2 x 2 or 4 x 4 matrix."""
    d = L.shape[1]
    M = [[None] * d for _ in range(d)]
    for i in range(d):
        r = 1.0 / L[:, i, i]
        M[i][i] = r
        for j in range(i):
            M[i][j] = -r * sum(L[:, i, k] * M[k][j] for k in range(j, i))
    ginv = np.empty_like(L)
    for a in range(d):
        for b in range(a + 1):
            ginv[:, a, b] = ginv[:, b, a] = sum(M[k][a] * M[k][b]
                                                for k in range(a, d))
    return ginv


def regular_metric(jet: Jet3, pts: np.ndarray):
    """(g, ginv) at the chart points pts (G, d), certified regular: the
    one gate of the geometry and of eq4's shifted grids.  ValueError
    names the first point with a non-finite g; RankError marks lost rank,
    from Cholesky (g = d1 d1^T fails it exactly there) or _check_rank.
    ginv comes from the gate's own Cholesky factor (_cholesky_inverse)."""
    g = induced_metric(jet)
    bad = np.flatnonzero(~np.isfinite(g).all(axis=(1, 2)))
    if bad.size:
        raise ValueError("induced metric not finite at chart point ("
                         + ", ".join(f"{x:g}" for x in pts[bad[0]])
                         + f") (grid point {bad[0]})")
    try:
        L = np.linalg.cholesky(g)
    except np.linalg.LinAlgError as e:
        raise RankError("induced metric not positive definite: the "
                        "differential has lost rank") from e
    ginv = _cholesky_inverse(L)
    _check_rank(jet.d1, g, ginv)
    return g, ginv


def metric_data(jet: Jet3, pts: np.ndarray):
    """(g, ginv, dg, Gamma) with dg[g,i,j,l] = d_i g_{jl} and
    Gamma[g,k,i,j] = Gamma^k_{ij}, all from analytic jets at chart points
    pts (g and ginv from regular_metric, ginv from its Cholesky factor,
    so the geometry factors g once and inverts no matrix).

    dg_ijl = <d2_ij, d1_l> + <d1_j, d2_il> = T_ijl + T_ilj for the one
    product T = d2 d1^T over the (d^2, n) values of d2."""
    g, ginv = regular_metric(jet, pts)
    G, d, n = jet.d1.shape
    d1T = np.ascontiguousarray(jet.d1.transpose(0, 2, 1))
    T = (jet.d2.reshape(G, d * d, n) @ d1T).reshape(G, d, d, d)
    dg = T + T.swapaxes(2, 3)
    Gamma = kernels.christoffel(dg, ginv)
    return g, ginv, dg, Gamma


def kaehler_residual(J: np.ndarray, g: np.ndarray, Gamma: np.ndarray):
    """(orthogonality, parallelity) residuals of the chart structure J
    against the metric g and Christoffel symbols Gamma of metric_data.

    orth = sup |J^T g J - g|; parallel = sup |nabla J| which for the
    constant chart J reduces to the commutator with the connection
    matrices (Gamma_k)^l_a = Gamma^l_{ka}.
    """
    orth = float(np.max(np.abs(
        np.einsum("ki,gkl,lj->gij", J, g, J) - g)))
    # Gamma[g,l,k,a]: connection matrix in k is Gam_k[l,a] = Gamma[g,l,k,a]
    GJ = np.einsum("glka,aj->glkj", Gamma, J)
    JG = np.einsum("la,gakj->glkj", J, Gamma)
    par = float(np.max(np.abs(GJ - JG)))
    return orth, par


def curvature_from_gauss(alpha: np.ndarray) -> np.ndarray:
    """R[g,i,j,k,l] = <R(d_i,d_j)d_k, d_l> via the Gauss equation."""
    return kernels.gauss_curvature(alpha)


def curvature_symmetry_residual(R: np.ndarray) -> float:
    """Max violation of the four classical index symmetries."""
    r1 = np.max(np.abs(R + R.transpose(0, 2, 1, 3, 4)))
    r2 = np.max(np.abs(R + R.transpose(0, 1, 2, 4, 3)))
    r3 = np.max(np.abs(R - R.transpose(0, 3, 4, 1, 2)))
    # np.max, not max(): a NaN must reach the caller
    return float(np.max([r1, r2, r3]))


def kaehler_curvature_identity_residual(R: np.ndarray, m: int) -> float:
    """sup |<R(x,y)u,v>| over u,v in the (1,0) coordinate basis: the
    (2,0)-part of R's last slot pair."""
    K20, _ = type_rows(m)
    return float(np.max(np.abs(contract_slots(K20, R[..., None]))))


def shape_operators(alpha, ginv, xi):
    """The Weingarten maps A_xi = g^{-1} <alpha, xi>, (G, K, d, d), of a
    stack of K fields xi (G, K, n): A_xi d_j = sum_i A[..., i, j] d_i.
    Only the normal part of xi enters, since alpha is normal-valued.
    g^{-1} is applied to alpha once per point, then all K fields take
    one product xi (g^{-1} alpha)^T per point."""
    G, d, _, n = alpha.shape
    ga = (ginv @ alpha.reshape(G, d, d * n)).reshape(G, d * d, n)
    gaT = np.ascontiguousarray(ga.transpose(0, 2, 1))
    return (xi @ gaT).reshape(G, xi.shape[1], d, d)


def normal_frame(jet: Jet3) -> np.ndarray:
    """Orthonormal real normal frame (G, n-2m, n): the last n-2m columns
    of the complete QR factorisation of d1^T, whose first 2m span the
    tangent plane (d1 has full rank: regular_metric certifies it).
    Only R^N and the structure sweep read it, as GeometryData.frame, and
    only where the normal bundle has rank >= 2.  Its gauge is arbitrary
    per point, so only fully frame-contracted quantities may use it.
    """
    d = jet.chart_dim
    q, _ = np.linalg.qr(jet.d1.transpose(0, 2, 1), mode="complete")
    return np.ascontiguousarray(q[:, :, d:].transpose(0, 2, 1))


def ricci_commutators(A, g):
    """RN[g,i,j,a,b] = (g [A_a, A_b])[j, i] for the shape operators A
    (G, k, d, d) of a frame, one product per point: rows (i, a) hold A_a,
    read as (d, k d) they hold the columns (b, j); BA swaps the pairs."""
    G, k, d, _ = A.shape
    rows = np.ascontiguousarray(A.transpose(0, 2, 1, 3)).reshape(G, d * k, d)
    AB = (rows @ rows.reshape(G, d, k * d)).reshape(G, d, k * k, d)
    BA = AB.take(np.arange(k * k).reshape(k, k).T.ravel(), axis=2)
    gc = g @ (AB - BA).reshape(G, d, k * k * d)
    return gc.reshape(G, d, k, k, d).transpose(0, 4, 1, 2, 3)


def normal_curvature(alpha, g, ginv, frame):
    """RN[g,i,j,a,b] = <R^N(d_i,d_j) xi_a, xi_b> of the frame rows xi_a."""
    return ricci_commutators(shape_operators(alpha, ginv, frame), g)


def rn_tprime_residual(RN: np.ndarray, m: int) -> float:
    """sup |<R^N(x,y) xi, eta>| for x,y in the (1,0) basis (Lemma-style
    flatness of the normal curvature on T' x T')."""
    K20, _ = type_rows(m)
    G, d, _, k, _ = RN.shape
    res = contract_slots(K20, RN.reshape(G, d, d, k * k))
    return float(np.max(np.abs(res)))


@chart_constant
def _sublemma_rows(m: int):
    """(K, K_sym): the real and imaginary rows of kron(B, conj B)
    (type_rows) stacked, K (c, d^2) for c = 2 m^2, and
    K_sym[(p, c), q] = K[c, p, q] + K[c, q, p], (d c, d)."""
    d = 2 * m
    _, K11 = type_rows(m)
    K = np.concatenate([K11.real, K11.imag]).reshape(2 * m * m, d * d)
    K3 = K.reshape(-1, d, d)
    K_sym = (K3 + K3.transpose(0, 2, 1)).transpose(1, 0, 2).reshape(-1, d)
    return K, K_sym


def _sublemma_block(alpha, ginv, R, K, K_sym) -> float:
    """The sublemma residual on one block of grid points: alpha
    (G, d, d, n), ginv (G, d, d) and R (G, d, d, d, d), with the rows
    (K, K_sym) of _sublemma_rows."""
    G, d, _, n = alpha.shape
    c = len(K)
    rows = alpha.reshape(G, d, d * n)          # alpha(d_k, .): symmetric
    # S[c, j, i] = alpha(d_i, A_c d_j) for the fields beta_c = K alpha
    A = shape_operators(alpha, ginv, K @ alpha.reshape(G, d * d, n))
    S = (np.ascontiguousarray(A.transpose(0, 1, 3, 2)).reshape(
        G, c * d, d) @ rows).reshape(G, c, d, d, n)
    # U[i, j, c] = sum_pq K_sym[c,p,q] alpha(R_ij d_p, d_q): both R terms,
    # K_sym[c,p,q] = K[c,p,q] + K[c,q,p]; as R_ij d_p = R_ijpa g^{al} d_l,
    # U = sum_pa R_ijpa Y[a,p,c], Y[a,p,c] = sum_q K_sym[c,p,q] (g^-1 alpha)_aq
    Y = K_sym @ (ginv @ rows).reshape(G, d, d, n)
    U = R.swapaxes(3, 4).reshape(G, d * d, d * d) @ Y.reshape(
        G, d * d, c * n)
    diff = (S.transpose(0, 3, 2, 1, 4) - S.transpose(0, 2, 3, 1, 4)
            - U.reshape(G, d, d, c, n))
    return np.max(np.hypot(*np.split(diff, 2, axis=3)))


def sublemma_residual(geom) -> float:
    """Intertwining of tangent and normal curvatures through the
    pluri-mean form beta(x', y'') = alpha(x', conj(y')):

        R^N(x,y) beta(e) = beta(R(x,y) e)   for e in T' (x) T''.

    The difference of the sides is the (1,1)-contraction of the real
    T_ij(p,q) = R^N_ij alpha_pq - alpha(R_ij d_p, d_q) - alpha(d_p, R_ij d_q)
    with R^N_ij xi = alpha(d_i, A_xi d_j) - alpha(d_j, A_xi d_i) (Ricci
    equation).  Each term is contracted as it is formed, by the real and
    imaginary rows of kron(B, conj B) (_sublemma_rows); it reads alpha,
    ginv and R only, block by block of grid points (grid_max).
    """
    K, K_sym = _sublemma_rows(geom.imm.complex_dim)   # (c, d^2), c = 2 m^2
    return float(grid_max(
        functools.partial(_sublemma_block, K=K, K_sym=K_sym),
        geom.alpha, geom.ginv, geom.R))
