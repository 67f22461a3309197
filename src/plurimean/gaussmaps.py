"""Gauss maps as projector fields.

The real Gauss map is the field of orthogonal projections P onto the
tangent planes; the complex Gauss map and the normal subbundles N', N°,
N'' are Hermitian projectors built from SVDs of generator stacks.  All
derivative residuals are measured gauge-free as

    || P_target . (d_v P_source) . P_source ||

which equals the norm of the target-component of the derivative of any
orthonormal section of the source bundle, independent of the frame
gauge (for a section s of S: P_T d_v s = P_T (d_v P_S) s).

The chart derivatives d_v P are closed forms in the order-3 jets of
the centre grid: d_v P_T from alpha, and the generator bundles tau',
N°, N' from the derivative of a projector onto a constant-rank span
(projector_derivative) with the generator derivatives built from d2
and d_v alpha (alpha_derivative).  Only eq4's second route takes a
finite difference (fd_tangent_projector_derivatives); it reads only
d1, so its shifted grids take order-1 jets.
"""

from dataclasses import dataclass
from typing import Dict

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
    res = 0.0
    for v in range(geom.jet.chart_dim):
        lhs = np.einsum("gxy,gjy->gjx", dP_T[:, v].real, geom.jet.d1)
        res = max(res, float(np.max(np.abs(lhs - geom.alpha[:, v]))))
    return res


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

def _ranked_svd(gens: np.ndarray, rel_tol: float, scale: float):
    """Thin SVD (u, s, vh) of gens (G, K, n) cut to its numerical rank r:
    the singular values above rel_tol times the larger of the global
    largest one and scale.  r must be constant over the grid."""
    u, sv, vh = np.linalg.svd(gens.astype(complex), full_matrices=False)
    smax = float(np.max(sv)) if sv.size else 0.0
    r = 0
    if max(smax, scale) > 0.0:
        ranks = np.sum(sv > rel_tol * max(smax, scale), axis=1)
        r = int(ranks[0])
        if np.any(ranks != r):
            raise RankError(f"generator rank varies over the grid: "
                            f"{sorted(set(int(x) for x in ranks))}")
    return u[:, :, :r], sv[:, :r], vh[:, :r, :]


def projector_from_generators(gens: np.ndarray, rel_tol: float = 1e-8,
                              scale: float = 0.0):
    """Hermitian projector (G, n, n) onto the row span of gens (G, K, n).

    The numerical rank (singular values above rel_tol times the larger
    of the global largest one and the caller's scale) must be constant
    over the grid; the scale lets an exactly-degenerate generator stack
    (for example vanishing alpha^{(2,0)} values) classify as rank 0
    instead of amplifying round-off.
    """
    _, _, vr = _ranked_svd(gens, rel_tol, scale)
    return np.einsum("gkx,gky->gxy", vr, vr.conj()), vr.shape[1]


def projector_derivative(gens: np.ndarray, dgens: np.ndarray,
                         rel_tol: float = 1e-8, scale: float = 0.0):
    """(P, r, dP): the projector and rank of projector_from_generators
    and the derivatives dP (G, D, n, n) of P along the D derivatives
    dgens (G, D, K, n) of the generators.

    P projects onto the column span of A^T for A = gens; for constant
    rank (Golub & Pereyra, SIAM J. Numer. Anal. 10, 1973)

        dP = X + X^H,   X = (I - P) (A+ dA)^T,   A+ = V_r S_r^-1 U_r^H.

    A rank-0 stack has dP = 0.
    """
    ur, sr, vr = _ranked_svd(gens, rel_tol, scale)
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


@dataclass
class BundleProjectors:
    """All projector fields derived from one geometry grid.

    Only the independent fields are stored; tau'', N'' (conjugates) and
    N^c (I - P_T) are derived on each read."""

    P_T: np.ndarray      # tangent projector, real
    P_taup: np.ndarray   # tau' = df(T')
    P_No: np.ndarray     # span of alpha^{(1,1)} values
    P_Np: np.ndarray     # span of alpha^{(2,0)} values
    ranks: Dict[str, int]

    @property
    def P_taupp(self) -> np.ndarray:
        return self.P_taup.conj()

    @property
    def P_Npp(self) -> np.ndarray:
        return self.P_Np.conj()

    @property
    def P_Nc(self) -> np.ndarray:
        """Complexified normal bundle."""
        n = self.P_T.shape[-1]
        return np.eye(n, dtype=complex)[None] - self.P_T


@dataclass
class BundleDerivatives:
    """Real-chart derivatives (G, 2m, n, n) of the bundle projectors,
    read as dP[name] with BundleProjectors' field names.  As there, only
    the independent fields are stored: d P_taupp and d P_Npp are
    conjugates, d P_Nc = -d P_T."""

    P_T: np.ndarray      # real
    P_taup: np.ndarray
    P_No: np.ndarray
    P_Np: np.ndarray

    def __getitem__(self, name: str) -> np.ndarray:
        if name == "P_taupp":
            return self.P_taup.conj()
        if name == "P_Npp":
            return self.P_Np.conj()
        if name == "P_Nc":
            return -self.P_T
        if name in ("P_T", "P_taup", "P_No", "P_Np"):
            return getattr(self, name)
        raise KeyError(name)


def bundle_projectors(geom: forms.GeometryData) -> BundleProjectors:
    """The bundle projectors of projector_derivatives without their
    derivatives."""
    return projector_derivatives(geom)[0]


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

    Returns (BundleProjectors, BundleDerivatives).
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
    bun = BundleProjectors(P_T=geom.tangent_projector(), P_taup=P_taup,
                           P_No=P_No, P_Np=P_Np,
                           ranks={"tau'": r_tp, "N°": r_no, "N'": r_np})
    return bun, BundleDerivatives(P_T=dP_T, P_taup=dP_taup, P_No=dP_No,
                                  P_Np=dP_Np)


def holo_directions(dP: np.ndarray, m: int, kind: str = "(1,0)"):
    """Combine real chart derivatives into d'_a or d''_a directions.

    dP: (G, 2m, n, n) -> (G, m, n, n).
    """
    s = -1j if kind == "(1,0)" else 1j
    return 0.5 * (dP[:, 0::2] + s * dP[:, 1::2])


# -------------------------------------------------------------- residuals

def superhorizontality_residual(bun: BundleProjectors, dP) -> float:
    """tau''-component of the derivative of tau' in every real chart
    direction (must vanish for every Kaehler immersion)."""
    return outside_residual(bun.P_taupp, dP["P_taup"], bun.P_taup)


def holomorphicity_residuals(geom: forms.GeometryData,
                             bun: BundleProjectors, dP):
    """(route1, route2): sup |alpha^{(1,1)}| and the (0,1)-derivative of
    tau' escaping tau' (both vanish iff the flag lift is holomorphic)."""
    route1 = forms.pluriminimal_residual(geom)
    m = geom.imm.complex_dim
    dbar = holo_directions(dP["P_taup"], m, "(0,1)")
    n = geom.imm.ambient_dim
    P_out = np.eye(n, dtype=complex)[None] - bun.P_taup
    route2 = outside_residual(P_out, dbar, bun.P_taup)
    return route1, route2


def half_isotropy_residual(geom: forms.GeometryData,
                           bun: BundleProjectors):
    """(term1, term2): Hermitian component of alpha(T',T') inside N°,
    and the ppmc residual."""
    G = geom.pts.shape[0]
    m = geom.imm.complex_dim
    a20 = geom.alpha20.reshape(G, m * m, -1)
    term1 = float(np.max(np.abs(
        np.einsum("gxy,gky->gkx", bun.P_No, a20)))) if m else 0.0
    term2 = forms.ppmc_residual(geom)
    return term1, term2


@dataclass
class IsotropyReport:
    ranks: Dict[str, int]
    orthogonality: float
    parallelity: float


def isotropy_decomposition(geom: forms.GeometryData, bun: BundleProjectors,
                           dP) -> IsotropyReport:
    """Theorem-8 style splitting N^c = N' + N° + N''.

    orthogonality: mutual Hermitian products of the three projectors;
    parallelity: normal-connection derivative of each subbundle escaping
    into the rest of N^c.
    """
    pairs = [(bun.P_Np, bun.P_No), (bun.P_Np, bun.P_Npp),
             (bun.P_No, bun.P_Npp)]
    orth = max(float(np.max(np.abs(np.einsum("gxy,gyz->gxz", A, B))))
               for A, B in pairs)
    par = 0.0
    for nm, P_S in (("P_Np", bun.P_Np), ("P_No", bun.P_No),
                    ("P_Npp", bun.P_Npp)):
        P_out = bun.P_Nc - P_S
        par = max(par, outside_residual(P_out, dP[nm], P_S))
    return IsotropyReport(ranks=dict(bun.ranks), orthogonality=orth,
                          parallelity=par)


def differential_chain_residuals(geom: forms.GeometryData,
                                 bun: BundleProjectors, dP):
    """(1,0)-derivative chain N'' -> tau'' -> N° -> tau' -> N' -> 0:
    for each bundle the d'-derivative may leave it only into the next
    link.  Returns a dict arrow -> residual."""
    m = geom.imm.complex_dim
    n = geom.imm.ambient_dim
    eye = np.eye(n, dtype=complex)[None]
    chain = [("N''->tau''", "P_Npp", bun.P_Npp, bun.P_taupp),
             ("tau''->N°", "P_taupp", bun.P_taupp, bun.P_No),
             ("N°->tau'", "P_No", bun.P_No, bun.P_taup),
             ("tau'->N'", "P_taup", bun.P_taup, bun.P_Np),
             ("N'->0", "P_Np", bun.P_Np, None)]
    out = {}
    for label, nm, P_S, P_next in chain:
        dprime = holo_directions(dP[nm], m, "(1,0)")
        P_out = eye - P_S
        if P_next is not None:
            P_out = P_out - P_next
        out[label] = outside_residual(P_out, dprime, P_S)
    return out


def gauss_section_check(geom: forms.GeometryData, bun: BundleProjectors,
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
    P_out = np.eye(n, dtype=complex)[None] - bun.P_taup
    tangency = float(np.max(np.abs(
        np.einsum("gxy,gay->gax", P_out, dfp))))
    return normality, tangency, mc.radius_spread


def isotropy_invariants(bun: BundleProjectors):
    """Structural residuals: conjugation symmetry of N''/N', conjugation
    invariance of N°, isotropy of tau'."""
    conj_sym = float(np.max(np.abs(bun.P_Npp - bun.P_Np.conj())))
    no_real = float(np.max(np.abs(bun.P_No - bun.P_No.conj())))
    # symmetric product on tau': P' J_sym P'^T with the plain transpose
    iso = float(np.max(np.abs(
        np.einsum("gxy,gzy->gxz", bun.P_taup, bun.P_taup))))
    return conj_sym, no_real, iso
