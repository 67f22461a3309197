"""Induced metric, Levi-Civita connection, Kaehler residuals, curvature.

The intrinsic curvature is DEFINED through the Gauss equation of the
isometric immersion (all fixtures are immersions into flat space), which
avoids fourth derivatives of f; a finite-difference-of-metric oracle is
kept in the tests as a slow cross-check.
"""

import numpy as np

from . import kernels
from .chartcalc import (Jet3, RankError, _check_rank, contract_slots,
                        holomorphic_basis)


def induced_metric(jet: Jet3) -> np.ndarray:
    """g_ij = <d1_i, d1_j>, shape (G, 2m, 2m)."""
    return jet.d1 @ np.ascontiguousarray(jet.d1.transpose(0, 2, 1))


def regular_metric(jet: Jet3, pts: np.ndarray):
    """(g, ginv) at the chart points pts (G, d), certified regular: the
    one gate of the geometry and of eq4's shifted grids.  ValueError
    names the first point with a non-finite g; RankError marks lost rank,
    from Cholesky (g = d1 d1^T fails it exactly there) or _check_rank."""
    g = induced_metric(jet)
    bad = np.flatnonzero(~np.isfinite(g).all(axis=(1, 2)))
    if bad.size:
        raise ValueError("induced metric not finite at chart point ("
                         + ", ".join(f"{x:g}" for x in pts[bad[0]])
                         + f") (grid point {bad[0]})")
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError as e:
        raise RankError("induced metric not positive definite: the "
                        "differential has lost rank") from e
    ginv = np.linalg.inv(g)
    _check_rank(jet.d1, g, ginv)
    return g, ginv


def metric_data(jet: Jet3, pts: np.ndarray):
    """(g, ginv, dg, Gamma) with dg[g,i,j,l] = d_i g_{jl} and
    Gamma[g,k,i,j] = Gamma^k_{ij}, all from analytic jets at chart points
    pts (g and ginv from regular_metric).

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
    """sup |<R(x,y)u,v>| over u,v in the (1,0) coordinate basis."""
    B = holomorphic_basis(m)
    res = np.einsum("ak,bl,gijkl->gijab", B, B, R)
    return float(np.max(np.abs(res)))


_NORMAL_TOL = 1e-9   # relative tangential part a normal field may have


def shape_operator(alpha, g, ginv, d1, xi):
    """A_xi = g^{-1} <alpha, xi> for a normal vector field xi (G, n)."""
    tangency = np.max(np.abs(np.einsum("gix,gx->gi", d1, xi)))
    if tangency > _NORMAL_TOL * max(1.0, float(np.max(np.abs(xi)))):
        raise ValueError(f"xi is not normal (tangential part {tangency:g})")
    M = np.einsum("gijx,gx->gij", alpha, xi)
    return np.einsum("gik,gkj->gij", ginv, M)


def normal_frame(jet: Jet3) -> np.ndarray:
    """Orthonormal real normal frame (G, n-2m, n) from the complete QR
    factorisation of d1^T: its first 2m columns span the tangent plane,
    the remaining n-2m its orthogonal complement.  d1 must have full
    rank, which compute_geometry certifies first (regular_metric).
    GeometryData.frame calls it on first read, which R^N of a normal
    bundle of rank >= 2 and the sublemma do; a normal line needs none.

    The gauge is arbitrary per point; only gauge-invariant (fully
    frame-contracted) quantities may be built from it, as
    normal_curvature and sublemma_residual do.
    """
    d = jet.chart_dim
    q, _ = np.linalg.qr(jet.d1.transpose(0, 2, 1), mode="complete")
    return np.ascontiguousarray(q[:, :, d:].transpose(0, 2, 1))


def normal_curvature(alpha, g, ginv, frame):
    """RN[g,i,j,a,b] = <R^N(d_i,d_j) xi_a, xi_b> via shape-operator
    commutators (the Ricci equation, which defines R^N here).

    Batched products over the grid: frame coefficients M_a = <alpha,
    xi_a>, shape operators A_a = g^{-1} M_a, commutators [A_a, A_b],
    and the g-contraction (g [A_a, A_b])[j, i] = RN[i, j, a, b].
    """
    G, d, _, n = alpha.shape
    M = frame @ alpha.reshape(G, d * d, n).transpose(0, 2, 1)
    A = ginv[:, None] @ M.reshape(G, frame.shape[1], d, d)
    AB = A[:, :, None] @ A[:, None, :]
    comm = AB - AB.transpose(0, 2, 1, 3, 4)
    return (g[:, None, None] @ comm).transpose(0, 4, 3, 1, 2)


def rn_tprime_residual(RN: np.ndarray, m: int) -> float:
    """sup |<R^N(x,y) xi, eta>| for x,y in the (1,0) basis (Lemma-style
    flatness of the normal curvature on T' x T')."""
    B = holomorphic_basis(m)
    G, d, _, k, _ = RN.shape
    res = contract_slots(B, B, RN.reshape(G, d, d, k * k))
    return float(np.max(np.abs(res)))


def curvature_operator(R: np.ndarray, ginv: np.ndarray) -> np.ndarray:
    """Rop[g,i,j,k,l]: R(d_i,d_j) d_k = sum_l Rop[...] d_l."""
    return np.einsum("gijka,gal->gijkl", R, ginv)


def sublemma_residual(geom) -> float:
    """Intertwining of tangent and normal curvatures through the
    pluri-mean form beta(x', y'') = alpha(x', conj(y')):

        R^N(x,y) beta(e) = beta(R(x,y) e)   for e in T' (x) T''.

    Expects a geometry bundle with jet, g, ginv, alpha, R, RN, frame.
    """
    lhs, rhs = _sublemma_sides(geom)
    return float(np.max(np.abs(lhs - rhs)))


def _sublemma_sides(geom):
    """The two sides R^N(d_i, d_j) beta[a, b] and beta(R(d_i, d_j)
    (d'_a (x) d''_b)) of the sublemma, each (G, d, d, m, m, n)."""
    m = geom.imm.complex_dim
    B = holomorphic_basis(m)
    Bc = B.conj()
    alpha_c = geom.alpha.astype(complex)
    G, d = alpha_c.shape[:2]
    n = alpha_c.shape[-1]
    # alpha with one slot on the (0,1) resp. (1,0) basis: (G, d, m, n)
    alpha_b = np.einsum("bq,glqx->glbx", Bc, alpha_c)
    alpha_a = np.einsum("ap,gplx->glax", B, alpha_c)
    # beta components: beta[a, b] = alpha(d'_a, d''_b), (G, m, m, n)
    beta = np.einsum("ai,gibx->gabx", B, alpha_b)

    Rop = curvature_operator(geom.R, geom.ginv)
    # tangent curvature acting on the (1,0)/(0,1) coordinate basis:
    # R(d_i,d_j) d'_a = sum over chart basis, then re-contract into alpha
    Rprime = np.einsum("ak,gijkl->gijal", B, Rop.astype(complex))
    Rsecond = np.einsum("bk,gijkl->gijbl", Bc, Rop.astype(complex))
    rhs = ((Rprime.reshape(G, d * d * m, d)
            @ alpha_b.reshape(G, d, m * n)).reshape(G, d, d, m, m, n)
           + (Rsecond.reshape(G, d * d * m, d)
              @ alpha_a.reshape(G, d, m * n)).reshape(G, d, d, m, m, n)
           .transpose(0, 1, 2, 4, 3, 5))

    # normal curvature as an operator through the real orthonormal frame
    frame = geom.frame.astype(complex)
    k = frame.shape[1]
    beta_coeff = beta.reshape(G, m * m, n) @ frame.transpose(0, 2, 1)
    lhs = (beta_coeff[:, None]
           @ (geom.RN.reshape(G, d * d, k, k) @ frame[:, None])
           ).reshape(G, d, d, m, m, n)
    return lhs, rhs
