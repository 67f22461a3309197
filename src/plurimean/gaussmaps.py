"""Gauss maps as projector fields.

The real Gauss map is the field of orthogonal projections P onto the
tangent planes; the complex Gauss map and the normal subbundles N', N°,
N'' are Hermitian projectors built from SVDs of generator stacks.  All
derivative residuals are measured gauge-free as

    || P_target . (d_v P_source) . P_source ||

which equals the norm of the target-component of the derivative of any
orthonormal section of the source bundle, independent of the frame
gauge (for a section s of S: P_T d_v s = P_T (d_v P_S) s).

Each projector field travels with its real-chart derivative as one
Bundle(P, dP); projector_derivatives returns them all as one Bundles,
which derives tau'' = conj tau', N'' = conj N' and N^c = I - P_T once.
The derivatives are closed forms in the order-3 jets of the centre
grid: d_v P_T from alpha, and the generator bundles tau', N°, N' from
the derivative of a projector onto a constant-rank span
(projector_derivative) with the generator derivatives built from d2
and d_v alpha (alpha_derivative).  Only eq4's second route takes a
finite difference (fd_tangent_projector_derivatives, on the shared
stencil chartcalc.central_differences); its shifted grids take
order-1 jets and pass the geometry's regularity gate.

Every batched product of the bundle layer is one product per grid
point: the chart directions (or generator fields) are folded into the
rows or columns of the matmul, never broadcast as one small n x n
product per point and per direction, and no einsum runs.  The layer
itself is built over the whole grid; the derivative residuals, all
through outside_residual, run block by block of grid points
(chartcalc.grid_max).
"""

import functools
from dataclasses import dataclass
from typing import Dict, NamedTuple

import numpy as np

from . import forms, kaehler
from .chartcalc import (RankError, _check_boundary, central_differences,
                        contract_slots, eval_jet, grid_max,
                        holomorphic_basis, type_rows)


# ----------------------------------------------------------- Grassmannian

def grassmann_invariants(P: np.ndarray, dim: int):
    """(idempotency, symmetry, trace) residuals of a projector field."""
    idem = float(np.max(np.abs(P @ P - P)))
    symm = float(np.max(np.abs(P - P.transpose(0, 2, 1).conj())))
    tr = float(np.max(np.abs(np.trace(P, axis1=1, axis2=2) - dim)))
    return idem, symm, tr


def dgauss_check(geom: forms.GeometryData, dP_T: np.ndarray) -> float:
    """Two-route differential of the Gauss map:

        (d_i P) . d1_j  vs  alpha(d_i, d_j)

    with d P the chart derivatives (G, 2m, n, n) of the tangent
    projector.  The pipeline passes the central differences of
    fd_tangent_projector_derivatives: the closed form of
    projector_derivatives is built from alpha, so against it the two
    routes would agree identically.  All directions take one product
    per point, rows (i, x) against d1^T.
    """
    G, d, n, _ = dP_T.shape
    d1T = np.ascontiguousarray(geom.jet.d1.transpose(0, 2, 1))
    dP_d1 = (dP_T.real.reshape(G, d * n, n) @ d1T).reshape(G, d, n, d)
    return float(np.max(np.abs(dP_d1 - geom.alpha.transpose(0, 1, 3, 2))))


def fd_tangent_projector_derivatives(geom: forms.GeometryData,
                                     h: float) -> np.ndarray:
    """Central-difference chart derivatives (G, 2m, n, n) of the tangent
    projector: the 2·2m shifted grids take one order-1 jet call and the
    regularity gate (kaehler.regular_metric).  Raises BoundaryError
    within 3h of the domain boundary, and as the gate does where a
    shifted differential is not finite or drops rank."""
    imm = geom.imm
    _check_boundary(imm, geom.pts, h)

    def tangent_projector(q):
        jet = eval_jet(imm, q, order=1)
        _, ginv = kaehler.regular_metric(jet, q)
        return forms.tangent_projector(jet.d1, ginv)

    return central_differences(tangent_projector, geom.pts, h)


def gauss_levi_residual(geom: forms.GeometryData) -> float:
    """Levi form of the Gauss map under the df identification:
    sup |(D_k alpha)(X', Y'')| over (1,0)x(0,1) basis pairs."""
    _, K11 = type_rows(geom.imm.complex_dim)
    return float(np.max(np.abs(contract_slots(K11, geom.Dalpha))))


# ------------------------------------------------------ projector algebra

_RANK_REL_TOL = 1e-8   # generator rank, relative to the largest value


def _ranked_svd(gens: np.ndarray, scale: float):
    """Thin SVD (u, s, vh) of gens (G, K, n) cut to its numerical rank r:
    the singular values above _RANK_REL_TOL times the larger of the
    global largest one and scale.  r must be constant over the grid
    (RankError otherwise).  The scale lets an exactly-degenerate stack
    (for example vanishing alpha^{(2,0)} values) classify as rank 0
    instead of amplifying round-off."""
    u, sv, vh = np.linalg.svd(gens.astype(complex), full_matrices=False)
    smax = float(np.max(sv)) if sv.size else 0.0
    r = 0
    if max(smax, scale) > 0.0:
        ranks = np.sum(sv > _RANK_REL_TOL * max(smax, scale), axis=1)
        r = int(ranks[0])
        if np.any(ranks != r):
            raise RankError(f"generator rank varies over the grid: "
                            f"{sorted(set(int(x) for x in ranks))}")
    return u[:, :, :r], sv[:, :r], vh[:, :r, :]


def _span_projector(vr: np.ndarray) -> np.ndarray:
    """P = V_r^T conj(V_r) (G, n, n) for orthonormal rows vr (G, r, n)."""
    return np.ascontiguousarray(vr.transpose(0, 2, 1)) @ vr.conj()


def projector_derivative(gens: np.ndarray, dgens: np.ndarray,
                         scale: float = 0.0):
    """(P, r, dP): the Hermitian projector P (G, n, n) onto the row span
    of gens (G, K, n), its numerical rank r, constant over the grid
    (_ranked_svd, with the caller's scale), and the derivatives dP
    (G, D, n, n) of P along the D derivatives dgens (G, D, K, n) of the
    generators.

    P projects onto the column span of A^T for A = gens; for constant
    rank (Golub & Pereyra, SIAM J. Numer. Anal. 10, 1973)

        dP = X + X^H,   X = (I - P) (A+ dA)^T = (I - P) dA^T (A+)^T,

    with A+ = V_r S_r^-1 U_r^H.  All D directions go through one product
    per point: (I - P) against the dA_v^T side by side (G, n, D K), whose
    rows (x, v) then meet (A+)^T (G, K, n).  A rank-0 stack has dP = 0.
    """
    ur, sr, vr = _ranked_svd(gens, scale)
    G, D, K, n = dgens.shape
    P = _span_projector(vr)
    pinvT = ur.conj() @ (vr.conj() / sr[:, :, None])       # (A+)^T
    dAT = dgens.transpose(0, 3, 1, 2).reshape(G, n, D * K)
    X = ((np.eye(n) - P) @ dAT).reshape(G, n * D, K) @ pinvT
    dP = np.ascontiguousarray(X.reshape(G, n, D, n).transpose(0, 2, 1, 3))
    dP += dP.conj().transpose(0, 1, 3, 2)
    return P, vr.shape[1], dP


def outside_residual(P_target: np.ndarray, dP: np.ndarray,
                     P_source: np.ndarray) -> float:
    """sup || P_target (dP_source) P_source || over grid/directions.

    dP has shape (G, D, n, n) for D (possibly complex) directions; the
    products run block by block of grid points (grid_max).
    """
    return float(grid_max(_outside_block, P_target, dP, P_source))


def _outside_block(P_target, dP, P_source):
    """outside_residual on one block of grid points: two products per
    point, Y = dP P_source with the D blocks stacked as rows (G, D n, n),
    then P_target against them side by side (G, n, D n)."""
    G, D, n, _ = dP.shape
    Y = dP.reshape(G, D * n, n) @ P_source
    Y = Y.reshape(G, D, n, n).transpose(0, 2, 1, 3).reshape(G, n, D * n)
    M = P_target @ Y
    return np.max(np.abs(M)) if M.size else 0.0


class Bundle(NamedTuple):
    """A projector field P (G, n, n) with its real-chart derivatives
    dP (G, 2m, n, n)."""

    P: np.ndarray
    dP: np.ndarray

    def conj(self) -> "Bundle":
        return Bundle(self.P.conj(), self.dP.conj())


@dataclass
class Bundles:
    """All projector fields of one geometry grid, each with its chart
    derivative.

    Only the independent fields are stored; tau'' and N'' (conjugates)
    and N^c (I - P_T, with derivative -dP_T) are derived once, on first
    read."""

    T: Bundle        # tangent bundle, real
    taup: Bundle     # tau' = df(T')
    No: Bundle       # span of alpha^{(1,1)} values
    Np: Bundle       # span of alpha^{(2,0)} values
    ranks: Dict[str, int]

    @functools.cached_property
    def taupp(self) -> Bundle:
        return self.taup.conj()

    @functools.cached_property
    def Npp(self) -> Bundle:
        return self.Np.conj()

    @functools.cached_property
    def Nc(self) -> Bundle:
        """Complexified normal bundle."""
        n = self.T.P.shape[-1]
        return Bundle(np.eye(n, dtype=complex)[None] - self.T.P, -self.T.dP)


# Kept for the benchmark's span table, which binds it; nothing in the
# package calls it, since each projector carries its derivative.
def bundle_projectors(geom: forms.GeometryData) -> Bundles:
    return projector_derivatives(geom)


def alpha_derivative(geom: forms.GeometryData) -> np.ndarray:
    """Ambient chart derivatives of alpha, (G, d, d, d, n) with
    [v, i, j] = d_v alpha_ij:

        (D_v alpha)_ij + Gamma^l_vi alpha_lj + Gamma^l_vj alpha_il
            - df(A_{alpha_ij} d_v).

    The Gamma terms undo the connection terms of D alpha in the normal
    part; the tangential part is the Weingarten term, as
    <d_v alpha_ij, d1_b> = -<alpha_ij, d2_vb> = -<alpha_ij, alpha_vb>.
    """
    G, d, _, n = geom.alpha.shape
    alpha = geom.alpha
    # GA[v, i, j] = Gamma^l_vi alpha_lj; its (i, j) swap is the third term
    GA = (geom.Gamma.transpose(0, 2, 3, 1).reshape(G, d * d, d)
          @ alpha.reshape(G, d, d * n)).reshape(G, d, d, d, n)
    # A[ij, b, v] = (A_{alpha_ij})^b_v, taken to [v, ij, b]
    A = kaehler.shape_operators(alpha, geom.ginv,
                                alpha.reshape(G, d * d, n))
    tangential = (A.transpose(0, 3, 1, 2).reshape(G, d ** 3, d)
                  @ geom.jet.d1).reshape(G, d, d, d, n)
    return geom.Dalpha + GA + GA.transpose(0, 1, 3, 2, 4) - tangential


def projector_derivatives(geom: forms.GeometryData):
    """Bundle projectors at geom's points and their chart derivatives,
    in closed form from geom alone (no shifted grids).

        d_v P_T = sum_ab g^{ab} (alpha_va d1_b^T + d1_b alpha_va^T)

    stays real; tau', N° and N' go through projector_derivative with
    the generator derivatives 2B d2_v, B conj(B) d_v alpha and
    B B d_v alpha.
    """
    m = geom.imm.complex_dim
    G, d, _, n = geom.alpha.shape
    d1 = geom.jet.d1
    B = holomorphic_basis(m)

    # [v] = sum_a alpha_va (g^{-1} d1)_a^T, rows (v, x) in one product,
    # then its transpose added
    dP_T = (geom.alpha.transpose(0, 1, 3, 2).reshape(G, d * n, d)
            @ (geom.ginv @ d1)).reshape(G, d, n, n)
    dP_T = dP_T + dP_T.transpose(0, 1, 3, 2)

    # tau' generators: df(d'_a), scaled by 2 for conditioning; their
    # derivatives 2B d2_v take d2's rows i against its columns (v, x),
    # as d2 is symmetric in (v, i)
    dtp = ((2.0 * B) @ geom.jet.d2.reshape(G, d, d * n)).reshape(G, m, d, n)
    P_taup, r_tp, dP_taup = projector_derivative(
        (2.0 * B) @ d1, dtp.transpose(0, 2, 1, 3))
    if r_tp != m:
        raise RankError(f"tau' rank {r_tp} != m = {m}")

    # the N° and N' generator derivatives kron(B, conj B) d_v alpha and
    # kron(B, B) d_v alpha, in projector_derivative's (G, D, K, n) layout
    dalpha = alpha_derivative(geom)
    K20, K11 = type_rows(m)
    d11, d20 = (contract_slots(K, dalpha).reshape(G, d, m * m, n)
                for K in (K11, K20))
    alpha_scale = float(np.max(np.abs(geom.alpha)))
    P_No, r_no, dP_No = projector_derivative(
        geom.alpha11.reshape(G, m * m, n), d11, scale=alpha_scale)
    P_Np, r_np, dP_Np = projector_derivative(
        geom.alpha20.reshape(G, m * m, n), d20, scale=alpha_scale)
    return Bundles(T=Bundle(geom.P_T, dP_T), taup=Bundle(P_taup, dP_taup),
                   No=Bundle(P_No, dP_No), Np=Bundle(P_Np, dP_Np),
                   ranks={"tau'": r_tp, "N°": r_no, "N'": r_np})


# -------------------------------------------------------------- residuals

def superhorizontality_residual(bun: Bundles) -> float:
    """tau''-component of the derivative of tau' in every real chart
    direction (must vanish for every Kaehler immersion)."""
    return outside_residual(bun.taupp.P, bun.taup.dP, bun.taup.P)


def lift_grading_residual(bun: Bundles) -> float:
    """Superhorizontality of the flag lift in orbit coordinates: the
    pointwise canonical element is xi(p) = i (P_tau' - P_tau''); its
    chart derivative must have no g_{+-2} components, i.e. no
    tau'<->tau'' blocks.

    tau'' = conj tau', so d xi = -2 Im dP_tau' is real and the
    tau'' -> tau' block is the entrywise conjugate of the tau' -> tau''
    one, with the same max bit for bit: only the latter is formed."""
    dxi = -2.0 * bun.taup.dP.imag
    return outside_residual(bun.taup.P, dxi, bun.taupp.P)


def holomorphicity_residuals(geom: forms.GeometryData, bun: Bundles):
    """(route1, route2): sup |alpha^{(1,1)}| and the (0,1)-derivative of
    tau' escaping tau' (both vanish iff the flag lift is holomorphic)."""
    route1 = forms.pluriminimal_residual(geom)
    m = geom.imm.complex_dim
    n = geom.imm.ambient_dim
    # the (0,1) directions d''_a = (d/dx_a + i d/dy_a) / 2
    dbar = (holomorphic_basis(m).conj()
            @ bun.taup.dP.reshape(-1, 2 * m, n * n)).reshape(-1, m, n, n)
    P_out = np.eye(n, dtype=complex)[None] - bun.taup.P
    route2 = outside_residual(P_out, dbar, bun.taup.P)
    return route1, route2


def half_isotropy_residual(geom: forms.GeometryData, bun: Bundles) -> float:
    """Hermitian component of alpha(T',T') inside N°; the half-isotropy
    check pairs it with the ppmc residual."""
    G = geom.pts.shape[0]
    m = geom.imm.complex_dim
    a20 = geom.alpha20.reshape(G, m * m, -1)
    return float(np.max(np.abs(
        a20 @ bun.No.P.transpose(0, 2, 1)))) if m else 0.0


@dataclass
class IsotropyReport:
    ranks: Dict[str, int]
    orthogonality: float
    parallelity: float


def isotropy_decomposition(bun: Bundles) -> IsotropyReport:
    """Theorem-8 style splitting N^c = N' + N° + N''.

    orthogonality: mutual Hermitian products of the three projectors;
    parallelity: normal-connection derivative of each subbundle escaping
    into the rest of N^c.
    """
    pairs = [(bun.Np.P, bun.No.P), (bun.Np.P, bun.Npp.P),
             (bun.No.P, bun.Npp.P)]
    # np.max, not max(): a NaN must reach the caller
    orth = float(np.max([np.max(np.abs(A @ B)) for A, B in pairs]))
    # N'' = conj N' and P_Nc is real, so the residual of N'' is the
    # entrywise conjugate of that of N', with the same max bit for bit:
    # it is not formed
    par = float(np.max([outside_residual(bun.Nc.P - S.P, S.dP, S.P)
                        for S in (bun.Np, bun.No)]))
    return IsotropyReport(ranks=dict(bun.ranks), orthogonality=orth,
                          parallelity=par)


def differential_chain_residuals(geom: forms.GeometryData, bun: Bundles):
    """(1,0)-derivative chain N'' -> tau'' -> N° -> tau' -> N' -> 0:
    for each bundle the d'-derivative may leave it only into the next
    link.  Returns a dict arrow -> residual."""
    m = geom.imm.complex_dim
    n = geom.imm.ambient_dim
    B = holomorphic_basis(m)
    eye = np.eye(n, dtype=complex)[None]
    chain = [("N''->tau''", bun.Npp, bun.taupp),
             ("tau''->N°", bun.taupp, bun.No),
             ("N°->tau'", bun.No, bun.taup),
             ("tau'->N'", bun.taup, bun.Np),
             ("N'->0", bun.Np, None)]
    out = {}
    for label, S, nxt in chain:
        dprime = (B @ S.dP.reshape(-1, 2 * m, n * n)).reshape(-1, m, n, n)
        P_out = eye - S.P
        if nxt is not None:
            P_out = P_out - nxt.P
        out[label] = outside_residual(P_out, dprime, S.P)
    return out


def gauss_section_check(geom: forms.GeometryData, bun: Bundles,
                        mc: forms.MeanCurvatureData):
    """Forward conditions for a spherical ppmc immersion: f - m is a
    normal section of constant length whose differential maps T' to
    tau'.  Returns (normality, holomorphic-tangency, length spread)."""
    if not mc.spherical:
        raise ValueError(f"{geom.imm.name}: not spherical; no section")
    sec = geom.jet.value - mc.center[None]
    normality = float(np.max(np.abs(geom.jet.d1 @ sec[:, :, None])))
    # d(f - m)(d'_a) = df(d'_a) must lie in tau'
    dfp = holomorphic_basis(geom.imm.complex_dim) @ geom.jet.d1
    n = geom.imm.ambient_dim
    P_out = np.eye(n, dtype=complex)[None] - bun.taup.P
    tangency = float(np.max(np.abs(dfp @ P_out.transpose(0, 2, 1))))
    return normality, tangency, mc.radius_spread

