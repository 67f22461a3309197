"""Gauss maps as projector fields.

The real Gauss map is the field of orthogonal projections P onto the
tangent planes; the complex Gauss map and the normal subbundles N', N°,
N'' are Hermitian projectors built from SVDs of generator stacks.  All
derivative residuals are measured gauge-free as

    || P_target . (d_v P_source) . P_source ||

which equals the norm of the target-component of the derivative of any
orthonormal section of the source bundle, independent of the frame
gauge (for a section s of S: P_T d_v s = P_T (d_v P_S) s).
"""

from dataclasses import dataclass
from typing import Dict

import numpy as np

from . import forms
from .chartcalc import RankError, holomorphic_basis


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

    with d P the central-difference chart derivatives (G, 2m, n, n) of
    the tangent projector, as projector_derivatives(geom) returns them
    in dP["P_T"] (real values in complex storage): the check reuses the
    bundle pass's shifted jets instead of evaluating its own.
    """
    res = 0.0
    for v in range(geom.jet.chart_dim):
        lhs = np.einsum("gxy,gjy->gjx", dP_T[:, v].real, geom.jet.d1)
        res = max(res, float(np.max(np.abs(lhs - geom.alpha[:, v]))))
    return res


def gauss_levi_residual(geom: forms.GeometryData) -> float:
    """Levi form of the Gauss map under the df identification:
    sup |(D_k alpha)(X', Y'')| over (1,0)x(0,1) basis pairs."""
    m = geom.imm.complex_dim
    B = holomorphic_basis(m)
    mixed = np.einsum("ai,bj,gkijx->gkabx", B, B.conj(),
                      geom.Dalpha.astype(complex))
    return float(np.max(np.abs(mixed)))


# ------------------------------------------------------ projector algebra

def projector_from_generators(gens: np.ndarray, rel_tol: float = 1e-8,
                              scale: float = 0.0):
    """Hermitian projector (G, n, n) onto the row span of gens (G, K, n).

    The numerical rank (singular values above rel_tol times the larger
    of the global largest one and the caller's scale) must be constant
    over the grid; the scale lets an exactly-degenerate generator stack
    (for example vanishing alpha^{(2,0)} values) classify as rank 0
    instead of amplifying round-off.
    """
    G, K, n = gens.shape
    _, sv, vh = np.linalg.svd(gens.astype(complex), full_matrices=False)
    smax = float(np.max(sv)) if sv.size else 0.0
    if max(smax, scale) == 0.0:
        return np.zeros((G, n, n), dtype=complex), 0
    ranks = np.sum(sv > rel_tol * max(smax, scale), axis=1)
    r = int(ranks[0])
    if np.any(ranks != r):
        raise RankError(f"generator rank varies over the grid: "
                        f"{sorted(set(int(x) for x in ranks))}")
    if r == 0:
        return np.zeros((G, n, n), dtype=complex), 0
    vr = vh[:, :r, :]
    return np.einsum("gkx,gky->gxy", vr, vr.conj()), r


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
    """All projector fields derived from one geometry grid."""

    P_T: np.ndarray      # tangent projector, real: dP["P_T"] is then a
                         # real difference quotient, as eq4 always took
    P_taup: np.ndarray   # tau' = df(T')
    P_taupp: np.ndarray
    P_Nc: np.ndarray     # complexified normal bundle
    P_No: np.ndarray     # span of alpha^{(1,1)} values
    P_Np: np.ndarray     # span of alpha^{(2,0)} values
    P_Npp: np.ndarray
    ranks: Dict[str, int]

    @property
    def P_rest(self) -> np.ndarray:
        """Flat remainder of N^c outside N' + N° + N''."""
        return self.P_Nc - self.P_Np - self.P_No - self.P_Npp


def bundle_projectors(geom: forms.GeometryData) -> BundleProjectors:
    m = geom.imm.complex_dim
    G = geom.pts.shape[0]
    n = geom.imm.ambient_dim
    d1c = geom.jet.d1.astype(complex)
    B = holomorphic_basis(m)
    # tau' generators: df(d'_a), scaled by 2 for conditioning
    tp_gens = np.einsum("ai,gix->gax", 2.0 * B, d1c)
    P_taup, r_tp = projector_from_generators(tp_gens)
    if r_tp != m:
        raise RankError(f"tau' rank {r_tp} != m = {m}")
    P_taupp = P_taup.conj()
    P_T = geom.tangent_projector()
    P_Nc = np.eye(n, dtype=complex)[None] - P_T

    no_gens = geom.alpha11.reshape(G, m * m, n)
    np_gens = geom.alpha20.reshape(G, m * m, n)
    alpha_scale = float(np.max(np.abs(geom.alpha)))
    P_No, r_no = projector_from_generators(no_gens, scale=alpha_scale)
    P_Np, r_np = projector_from_generators(np_gens, scale=alpha_scale)
    P_Npp = P_Np.conj()
    return BundleProjectors(
        P_T=P_T, P_taup=P_taup, P_taupp=P_taupp, P_Nc=P_Nc,
        P_No=P_No, P_Np=P_Np, P_Npp=P_Npp,
        ranks={"tau'": r_tp, "N°": r_no, "N'": r_np})


def projector_derivatives(geom: forms.GeometryData, h: float = 1e-4):
    """Bundle projectors at geom's points and their central-difference
    chart derivatives.

    The centre bundles are built from geom itself; each of the 2*2m
    shifted geometries is built, reduced to its projectors and dropped
    before the next one, so none of them outlives this call.

    Returns (bundles at geom.pts, dict name -> dP of shape (G, 2m, n, n)).
    """
    imm, pts = geom.imm, geom.pts
    d = imm.chart_dim
    center = bundle_projectors(geom)
    names = ["P_T", "P_taup", "P_taupp", "P_Nc", "P_No", "P_Np", "P_Npp"]
    G = pts.shape[0]
    n = imm.ambient_dim
    dP = {nm: np.zeros((G, d, n, n), dtype=complex) for nm in names}
    for v in range(d):
        ev = np.zeros(d)
        ev[v] = h
        bp = bundle_projectors(forms.compute_geometry(imm, pts + ev))
        bm = bundle_projectors(forms.compute_geometry(imm, pts - ev))
        for nm in names:
            dP[nm][:, v] = (getattr(bp, nm) - getattr(bm, nm)) / (2.0 * h)
        del bp, bm   # the next pair is built without this one alive
    return center, dP


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
    isotropic: bool


def isotropy_decomposition(geom: forms.GeometryData, bun: BundleProjectors,
                           dP, tol_orth: float = 1e-8,
                           tol_par: float = 1e-5) -> IsotropyReport:
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
                          parallelity=par,
                          isotropic=(orth < tol_orth and par < tol_par))


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
