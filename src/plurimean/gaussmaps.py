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
finite difference (fd_tangent_projector_derivatives); it reads only
d1, so its shifted grids take order-1 jets.
"""

import functools
from dataclasses import dataclass
from typing import Dict, NamedTuple

import numpy as np

from . import forms, kaehler
from .chartcalc import (RankError, _check_rank, contract_slots, eval_jet,
                        holomorphic_basis)


# ----------------------------------------------------------- Grassmannian

def grassmann_invariants(P: np.ndarray, dim: int):
    """(idempotency, symmetry, trace) residuals of a projector field."""
    idem = float(np.max(np.abs(np.einsum("gxy,gyz->gxz", P, P) - P)))
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
    routes would agree identically.
    """
    # np.max, not max(): a NaN must reach the caller
    return float(np.max([
        np.max(np.abs(np.einsum("gxy,gjy->gjx", dP_T[:, v].real,
                                geom.jet.d1) - geom.alpha[:, v]))
        for v in range(geom.jet.chart_dim)]))


def fd_tangent_projector_derivatives(geom: forms.GeometryData,
                                     h: float) -> np.ndarray:
    """Central-difference chart derivatives (G, 2m, n, n) of the tangent
    projector.  Only d1 is read, so the 2·2m shifted grids pts +- h e_v
    are stacked into one order-1 jet call; the rank test, the metric,
    its inverse and the projector run on the stack, which is then split
    into the differences.  Raises RankError where the differential on a
    shifted grid drops rank."""
    imm, pts = geom.imm, geom.pts
    G, d = pts.shape
    n = imm.ambient_dim
    steps = h * np.eye(d)
    # [v, 0] = pts + h e_v, [v, 1] = pts - h e_v
    shifted = pts + np.stack([steps, -steps], axis=1)[:, :, None]
    jet = eval_jet(imm, shifted.reshape(2 * d * G, d), order=1)
    _check_rank(np.linalg.svd(jet.d1, compute_uv=False), d)
    ginv = np.linalg.inv(kaehler.induced_metric(jet))
    P = forms.tangent_projector(jet.d1, ginv).reshape(d, 2, G, n, n)
    return np.ascontiguousarray(
        ((P[:, 0] - P[:, 1]) / (2.0 * h)).transpose(1, 0, 2, 3))


def gauss_levi_residual(geom: forms.GeometryData) -> float:
    """Levi form of the Gauss map under the df identification:
    sup |(D_k alpha)(X', Y'')| over (1,0)x(0,1) basis pairs."""
    m = geom.imm.complex_dim
    B = holomorphic_basis(m)
    return float(np.max(np.abs(contract_slots(B, B.conj(), geom.Dalpha))))


# ------------------------------------------------------ projector algebra

_RANK_REL_TOL = 1e-8   # generator rank, relative to the largest value


def _ranked_svd(gens: np.ndarray, scale: float):
    """Thin SVD (u, s, vh) of gens (G, K, n) cut to its numerical rank r:
    the singular values above _RANK_REL_TOL times the larger of the
    global largest one and scale.  r must be constant over the grid."""
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


def projector_from_generators(gens: np.ndarray, scale: float = 0.0):
    """Hermitian projector (G, n, n) onto the row span of gens (G, K, n).

    The numerical rank (singular values above _RANK_REL_TOL times the
    larger of the global largest one and the caller's scale) must be
    constant over the grid; the scale lets an exactly-degenerate generator stack
    (for example vanishing alpha^{(2,0)} values) classify as rank 0
    instead of amplifying round-off.
    """
    _, _, vr = _ranked_svd(gens, scale)
    return np.einsum("gkx,gky->gxy", vr, vr.conj()), vr.shape[1]


def projector_derivative(gens: np.ndarray, dgens: np.ndarray,
                         scale: float = 0.0):
    """(P, r, dP): the projector and rank of projector_from_generators
    and the derivatives dP (G, D, n, n) of P along the D derivatives
    dgens (G, D, K, n) of the generators.

    P projects onto the column span of A^T for A = gens; for constant
    rank (Golub & Pereyra, SIAM J. Numer. Anal. 10, 1973)

        dP = X + X^H,   X = (I - P) (A+ dA)^T,   A+ = V_r S_r^-1 U_r^H.

    A rank-0 stack has dP = 0.
    """
    ur, sr, vr = _ranked_svd(gens, scale)
    n = gens.shape[2]
    P = np.einsum("gkx,gky->gxy", vr, vr.conj())
    pinv = ((vr.conj().transpose(0, 2, 1) / sr[:, None, :])
            @ ur.conj().transpose(0, 2, 1))
    X = ((np.eye(n) - P)[:, None]
         @ (pinv[:, None] @ dgens).transpose(0, 1, 3, 2))
    return P, vr.shape[1], X + X.conj().transpose(0, 1, 3, 2)


def outside_residual(P_target: np.ndarray, dP: np.ndarray,
                     P_source: np.ndarray) -> float:
    """sup || P_target (dP_source) P_source || over grid/directions.

    dP has shape (G, D, n, n) for D (possibly complex) directions; the
    two projectors are broadcast over the direction axis.
    """
    M = P_target[:, None] @ dP @ P_source[:, None]
    return float(np.max(np.abs(M))) if M.size else 0.0


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
            - g^{ab} <alpha_va, alpha_ij> d1_b.

    The Gamma terms undo the connection terms of D alpha in the normal
    part; the tangential part is <d_v alpha_ij, d1_b> =
    -<alpha_ij, d2_vb> = -<alpha_ij, alpha_vb>.
    """
    G, d, _, n = geom.alpha.shape
    alpha = geom.alpha
    # GA[v, i, j] = Gamma^l_vi alpha_lj; its (i, j) swap is the third term
    GA = (geom.Gamma.transpose(0, 2, 3, 1).reshape(G, d * d, d)
          @ alpha.reshape(G, d, d * n)).reshape(G, d, d, d, n)
    # W[v, b] = g^{ba} alpha_va; gram[v, b, ij] = <W_vb, alpha_ij>
    W = geom.ginv[:, None] @ alpha
    gram = W.reshape(G, d * d, n) @ alpha.reshape(G, d * d, n).transpose(
        0, 2, 1)
    tangential = (gram.reshape(G, d, d, d * d).transpose(0, 1, 3, 2)
                  @ geom.jet.d1[:, None]).reshape(G, d, d, d, n)
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

    # [v] = sum_ab g^{ab} alpha_va d1_b^T, then its transpose added
    dP_T = ((geom.ginv[:, None] @ geom.alpha).transpose(0, 1, 3, 2)
            @ d1[:, None])
    dP_T = dP_T + dP_T.transpose(0, 1, 3, 2)

    # tau' generators: df(d'_a), scaled by 2 for conditioning
    tp_gens = np.einsum("ai,gix->gax", 2.0 * B, d1.astype(complex))
    P_taup, r_tp, dP_taup = projector_derivative(tp_gens,
                                                 (2.0 * B) @ geom.jet.d2)
    if r_tp != m:
        raise RankError(f"tau' rank {r_tp} != m = {m}")

    dalpha = alpha_derivative(geom).reshape(G, d, d * d, n)
    alpha_scale = float(np.max(np.abs(geom.alpha)))
    P_No, r_no, dP_No = projector_derivative(
        geom.alpha11.reshape(G, m * m, n), np.kron(B, B.conj()) @ dalpha,
        scale=alpha_scale)
    P_Np, r_np, dP_Np = projector_derivative(
        geom.alpha20.reshape(G, m * m, n), np.kron(B, B) @ dalpha,
        scale=alpha_scale)
    return Bundles(T=Bundle(geom.P_T, dP_T), taup=Bundle(P_taup, dP_taup),
                   No=Bundle(P_No, dP_No), Np=Bundle(P_Np, dP_Np),
                   ranks={"tau'": r_tp, "N°": r_no, "N'": r_np})


def holo_directions(dP: np.ndarray, m: int, kind: str = "(1,0)"):
    """Combine real chart derivatives into d'_a or d''_a directions.

    dP: (G, 2m, n, n) -> (G, m, n, n).
    """
    s = -1j if kind == "(1,0)" else 1j
    return 0.5 * (dP[:, 0::2] + s * dP[:, 1::2])


# -------------------------------------------------------------- residuals

def superhorizontality_residual(bun: Bundles) -> float:
    """tau''-component of the derivative of tau' in every real chart
    direction (must vanish for every Kaehler immersion)."""
    return outside_residual(bun.taupp.P, bun.taup.dP, bun.taup.P)


def holomorphicity_residuals(geom: forms.GeometryData, bun: Bundles):
    """(route1, route2): sup |alpha^{(1,1)}| and the (0,1)-derivative of
    tau' escaping tau' (both vanish iff the flag lift is holomorphic)."""
    route1 = forms.pluriminimal_residual(geom)
    m = geom.imm.complex_dim
    dbar = holo_directions(bun.taup.dP, m, "(0,1)")
    n = geom.imm.ambient_dim
    P_out = np.eye(n, dtype=complex)[None] - bun.taup.P
    route2 = outside_residual(P_out, dbar, bun.taup.P)
    return route1, route2


def half_isotropy_residual(geom: forms.GeometryData, bun: Bundles):
    """(term1, term2): Hermitian component of alpha(T',T') inside N°,
    and the ppmc residual."""
    G = geom.pts.shape[0]
    m = geom.imm.complex_dim
    a20 = geom.alpha20.reshape(G, m * m, -1)
    term1 = float(np.max(np.abs(
        np.einsum("gxy,gky->gkx", bun.No.P, a20)))) if m else 0.0
    term2 = forms.ppmc_residual(geom)
    return term1, term2


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
    orth = max(float(np.max(np.abs(np.einsum("gxy,gyz->gxz", A, B))))
               for A, B in pairs)
    par = 0.0
    for S in (bun.Np, bun.No, bun.Npp):
        par = max(par, outside_residual(bun.Nc.P - S.P, S.dP, S.P))
    return IsotropyReport(ranks=dict(bun.ranks), orthogonality=orth,
                          parallelity=par)


def differential_chain_residuals(geom: forms.GeometryData, bun: Bundles):
    """(1,0)-derivative chain N'' -> tau'' -> N° -> tau' -> N' -> 0:
    for each bundle the d'-derivative may leave it only into the next
    link.  Returns a dict arrow -> residual."""
    m = geom.imm.complex_dim
    n = geom.imm.ambient_dim
    eye = np.eye(n, dtype=complex)[None]
    chain = [("N''->tau''", bun.Npp, bun.taupp),
             ("tau''->N°", bun.taupp, bun.No),
             ("N°->tau'", bun.No, bun.taup),
             ("tau'->N'", bun.taup, bun.Np),
             ("N'->0", bun.Np, None)]
    out = {}
    for label, S, nxt in chain:
        dprime = holo_directions(S.dP, m, "(1,0)")
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
    normality = float(np.max(np.abs(
        np.einsum("gix,gx->gi", geom.jet.d1, sec))))
    # d(f - m)(d'_a) = df(d'_a) must lie in tau'
    m_ = geom.imm.complex_dim
    B = holomorphic_basis(m_)
    dfp = np.einsum("ai,gix->gax", B, geom.jet.d1.astype(complex))
    n = geom.imm.ambient_dim
    P_out = np.eye(n, dtype=complex)[None] - bun.taup.P
    tangency = float(np.max(np.abs(
        np.einsum("gxy,gay->gax", P_out, dfp))))
    return normality, tangency, mc.radius_spread


def isotropy_invariants(bun: Bundles):
    """Structural residuals: conjugation symmetry of N''/N', conjugation
    invariance of N°, isotropy of tau'."""
    conj_sym = float(np.max(np.abs(bun.Npp.P - bun.Np.P.conj())))
    no_real = float(np.max(np.abs(bun.No.P - bun.No.P.conj())))
    # symmetric product on tau': P' J_sym P'^T with the plain transpose
    iso = float(np.max(np.abs(
        np.einsum("gxy,gzy->gxz", bun.taup.P, bun.taup.P))))
    return conj_sym, no_real, iso
