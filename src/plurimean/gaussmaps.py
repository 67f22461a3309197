"""Gauss maps as projector fields.

The real Gauss map is the field of orthogonal projections P onto the
tangent planes; the complex Gauss map and the normal subbundles N', N°,
N'' are Hermitian projectors onto the spans of generator stacks.  All
derivative residuals are measured gauge-free as

    || P_target . (d_v P_source) . P_source ||

the norm of the target-component of the derivative of any orthonormal
section s of the source bundle S, as P_T d_v s = P_T (d_v P_S) s.

Each projector field travels with its real-chart derivative as one
Bundle(P, dP) of one Bundles (projector_derivatives), which derives the
projector P_Nc = I - P_T once, alone, with no derivative; N'' = conj N'.
The derivatives are closed forms in the order-3 jets of the centre
grid: d_v P_T from alpha, and tau', N°, N' from the derivative of a
projector onto a constant-rank span (_span_derivative), with generator
derivatives from d2 and d_v alpha (alpha_derivative).  tau' has rank m
wherever the metric passed its gate, so its pseudo-inverse comes from
its m x m Gram matrix; N° and N' take an SVD for their rank.  Rank 0
is decided without one in one place, projector_derivatives' pre-filter:
a stack negligible against alpha (_negligible) has P = dP = 0 and takes
no generator derivative (no d alpha where both are, as on the plane).
The span formulas cover r = 0 too, their products running over an
empty axis.  Only eq4's second route takes a finite difference
(fd_tangent_projector_derivatives, on chartcalc.central_differences).

Every batched product of the bundle layer is one product per grid
point: the chart directions (or generator fields) are folded into the
rows or columns of the matmul, never broadcast per point and direction,
and no einsum runs.  The residuals run block by block of grid points
(chartcalc.grid_max), all eleven in one pass, Bundles.residuals: the
one table that superhorizontality, lift-grading, pluriminimal,
isotropy, the chain and psi's admission guard index.  A zero N'
(isotropic) or N° (pluriminimal) enters no product of that pass where
the other factors are finite (chartcalc.vanishing_factor).
"""

import functools
from dataclasses import dataclass
from typing import Dict, NamedTuple

import numpy as np

from . import forms, kaehler
from .chartcalc import (RankError, _check_boundary, central_differences,
                        contract_slots, eval_jet, grid_max,
                        holomorphic_basis, type_rows, vanishing_factor)


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


def _negligible(gens: np.ndarray, scale: float) -> bool:
    """Whether the stack gens (G, K, n) has |gens_p|_F <= _RANK_REL_TOL
    scale at every point p of a nonempty grid: each singular value is at
    most that norm, so _ranked_svd's cut would keep none (with scale = 0
    only an all-zero stack passes; a NaN or an inf fails, even under an
    inf scale).  projector_derivatives' pre-filter, the one place that
    decides rank 0 without an SVD."""
    norms = np.sqrt(np.sum(np.abs(gens) ** 2, axis=(1, 2)))
    return bool(len(gens) and np.all(np.isfinite(norms))
                and np.max(norms) <= _RANK_REL_TOL * scale)


def _rank_zero(G: int, D: int, n: int):
    """(P, r, dP) of a stack the pre-filter finds negligible: P (G, n, n)
    and dP (G, D, n, n) zero, formed with no product."""
    return (np.zeros((G, n, n), complex), 0,
            np.zeros((G, D, n, n), complex))


def _ranked_svd(gens: np.ndarray, scale: float):
    """Thin SVD (u, s, vh) of gens (G, K, n) cut to its numerical rank r:
    the singular values above _RANK_REL_TOL times the larger of the
    global largest one and scale.  r must be constant over the grid
    (RankError otherwise, and where LAPACK returns a singular value that
    is not finite, as for an inf entry).  The scale lets an exactly-
    degenerate stack (for example vanishing alpha^{(2,0)} values) classify
    as rank 0 instead of amplifying round-off; rank 0 with no SVD is
    decided only by projector_derivatives' pre-filter (_negligible)."""
    u, sv, vh = np.linalg.svd(gens.astype(complex), full_matrices=False)
    if not np.all(np.isfinite(sv)):
        raise RankError("generator singular values not finite")
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
    generators (_span_derivative), with A+ = V_r S_r^-1 U_r^H.  At r = 0
    the span formulas give exact complex zeros, summing over an empty
    axis, and a NaN in dgens still reaches dP.
    """
    ur, sr, vr = _ranked_svd(gens, scale)
    P = _span_projector(vr)
    pinvT = ur.conj() @ (vr.conj() / sr[:, :, None])       # (A+)^T
    return P, vr.shape[1], _span_derivative(P, pinvT, dgens)


def gram_projector_derivative(gens: np.ndarray, dgens: np.ndarray):
    """(P, dP) of projector_derivative for a stack gens (G, K, n) of
    full rank K at every point, with no SVD: for H = A A^H (A = gens),

        (A+)^T = conj(H)^-1 conj(A),    P = A^T (A+)^T,

    conj(H)^-1 from its Cholesky factor in vector steps
    (kaehler.hermitian_inverse).  RankError where that inverse is not
    finite, as it is not where the rank drops."""
    Ac = gens.conj()
    Hinv = kaehler.hermitian_inverse(Ac @ gens.transpose(0, 2, 1))
    if not np.all(np.isfinite(Hinv)):
        raise RankError("generator Gram matrix is not invertible: the "
                        "stack has lost rank")
    pinvT = Hinv @ Ac
    P = gens.transpose(0, 2, 1) @ pinvT
    return P, _span_derivative(P, pinvT, dgens)


def _span_derivative(P: np.ndarray, pinvT: np.ndarray,
                     dgens: np.ndarray) -> np.ndarray:
    """Derivatives dP (G, D, n, n) of the projector P onto the column
    span of A^T, for A (G, K, n) with the D derivatives dgens
    (G, D, K, n) and (A+)^T = pinvT (G, K, n); for constant rank
    (Golub & Pereyra, SIAM J. Numer. Anal. 10, 1973)

        dP = X + X^H,   X = (I - P) (A+ dA)^T = (I - P) dA^T (A+)^T.

    All D directions go through one product per point: (I - P) against
    the dA_v^T side by side (G, n, D K), whose rows (x, v) then meet
    (A+)^T."""
    G, D, K, n = dgens.shape
    dAT = dgens.transpose(0, 3, 1, 2).reshape(G, n, D * K)
    X = ((np.eye(n) - P) @ dAT).reshape(G, n * D, K) @ pinvT
    dP = np.ascontiguousarray(X.reshape(G, n, D, n).transpose(0, 2, 1, 3))
    dP += dP.conj().transpose(0, 1, 3, 2)
    return dP


def _right_product(dP, P):
    """Y = dP P (G, D, n, n): one product per point, the D blocks of dP
    stacked as rows (G, D n, n)."""
    G, D, n, _ = dP.shape
    return (dP.reshape(G, D * n, n) @ P).reshape(G, D, n, n)


def _target_max(P_target, Y):
    """sup |P_target Y_v| over the points and the D blocks of Y
    (G, D, n, n): one product per point, P_target against the blocks
    side by side (G, n, D n)."""
    G, D, n, _ = Y.shape
    M = P_target @ Y.transpose(0, 2, 1, 3).reshape(G, n, D * n)
    return np.max(np.abs(M)) if M.size else 0.0


def _directions(C, Y):
    """The combinations C (k, D) of the D direction blocks of Y
    (G, D, n, n), as (G, k, n, n)."""
    G, D, n, _ = Y.shape
    return (C @ Y.reshape(G, D, n * n)).reshape(G, len(C), n, n)


# the arrows of the (1,0)-derivative chain, in the order they are read
CHAIN = ("N''->tau''", "tau''->N°", "N°->tau'", "tau'->N'", "N'->0")
# Bundles.residuals' keys, in _residual_block's order
RESIDUALS = ("superhorizontality", "frame_route", "parallelity N'",
             "parallelity N°", *CHAIN, "lift-grading", "orthogonality")


def _residual_block(taup, dtaup, No, dNo, Np, dNp, Nc):
    """Bundles.residuals on one block of grid points, in the order of
    RESIDUALS: the projectors (G, n, n) and the chart derivatives
    (G, 2m, n, n) of tau', N° and N', and P_Nc.

    Each source S takes one product, Y = dP_S P_S over its real
    directions; its (1,0) and (0,1) directions are the combinations
    B Y and conj(B) Y of those blocks.  tau'' and N'' are the
    conjugates of tau' and N', so their (1,0) blocks are the conjugated
    (0,1) blocks of tau' and N': a target T meets them as conj(T) meets
    those blocks, |T conj(Y)| = |conj(T) Y|, conjugation being exact.
    Lift-grading takes one more product of tau', of its derivative's
    imaginary part against P_tau'', and orthogonality, last, the mutual
    products of N', N° and N'' = conj N'.

    A source whose projector vanishes on the block, N' of an isotropic
    immersion or N° of a pluriminimal one, takes no product where the
    other fields of the block are finite: each of its legs is 0 there
    (vanishing_factor, tested once per block), and so is each mutual
    product with a zero factor.  A zero N° subtracts nothing from
    tau''->N°'s target, frame_route's, whose value that arrow reads."""
    G, d, n, _ = dtaup.shape
    B = holomorphic_basis(d // 2)
    eye = np.eye(n)
    out = {}
    zero_Np = vanishing_factor(Np, dNp, Nc, taup, No)
    zero_No = vanishing_factor(No, dNo, Nc, taup, Np)

    Y = _right_product(dtaup, taup)
    out["superhorizontality"] = _target_max(taup.conj(), Y)
    Yb, Yc = _directions(B, Y), _directions(B.conj(), Y)
    del Y
    off_taup = eye - taup
    out["frame_route"] = _target_max(off_taup, Yc)
    out["tau''->N°"] = (out["frame_route"] if zero_No
                        else _target_max(off_taup - No.conj(), Yc))
    del Yc
    out["tau'->N'"] = _target_max(off_taup - Np, Yb)
    del Yb, off_taup
    # the flag lift xi = i (P_tau' - P_tau'') has d xi = -2 Im dP_tau',
    # real, so its tau'' -> tau' block is the entrywise conjugate of the
    # tau' -> tau'' one, with the same max bit for bit: only the latter
    # is formed
    out["lift-grading"] = _target_max(
        taup, _right_product(-2.0 * dtaup.imag, taup.conj()))

    if zero_Np:
        out["parallelity N'"] = out["N'->0"] = out["N''->tau''"] = 0.0
    else:
        Y = _right_product(dNp, Np)
        out["parallelity N'"] = _target_max(Nc - Np, Y)
        Yb, Yc = _directions(B, Y), _directions(B.conj(), Y)
        del Y
        out["N'->0"] = _target_max(eye - Np, Yb)
        del Yb
        out["N''->tau''"] = _target_max(eye - Np - taup, Yc)
        del Yc

    if zero_No:
        out["parallelity N°"] = out["N°->tau'"] = 0.0
    else:
        Y = _right_product(dNo, No)
        out["parallelity N°"] = _target_max(Nc - No, Y)
        out["N°->tau'"] = _target_max(eye - No - taup, _directions(B, Y))
        del Y

    conj_Np = Np.conj()     # P_N''
    pairs = [] if zero_Np else [(Np, conj_Np)]
    if not (zero_Np or zero_No):
        pairs += [(Np, No), (No, conj_Np)]
    # np.max, not max(): a NaN must reach the table
    out["orthogonality"] = np.max([np.max(np.abs(A @ C)) for A, C in pairs],
                                  initial=0.0)
    return np.array([out[k] for k in RESIDUALS])


class Bundle(NamedTuple):
    """A projector field P (G, n, n) with its real-chart derivatives
    dP (G, 2m, n, n)."""

    P: np.ndarray
    dP: np.ndarray


@dataclass
class Bundles:
    """All projector fields of one geometry grid, each with its chart
    derivative.

    Only the independent fields are stored; the projector P_Nc = I - P_T
    is derived once, on first read, and N'' and tau'' are conj N' and
    conj tau' where they are read."""

    T: Bundle        # tangent bundle, real
    taup: Bundle     # tau' = df(T')
    No: Bundle       # span of alpha^{(1,1)} values
    Np: Bundle       # span of alpha^{(2,0)} values
    ranks: Dict[str, int]

    @functools.cached_property
    def Nc(self) -> np.ndarray:
        """The projector (G, n, n), complex, onto the complexified normal
        bundle, alone: none of its readers reads a derivative."""
        n = self.T.P.shape[-1]
        return np.eye(n, dtype=complex)[None] - self.T.P

    @functools.cached_property
    def residuals(self) -> Dict[str, float]:
        """The residuals of the bundles, keyed as RESIDUALS, from one pass
        over blocks of grid points (_residual_block); all but the last
        are P_target (d P_S) P_S, S among tau', N° and N' or conjugates:

        - superhorizontality: the tau''-component of d tau', zero for
          every Kaehler immersion;
        - frame_route: the (0,1)-derivative of tau' escaping tau', zero
          iff the flag lift is holomorphic;
        - the parallelity of N' and of N°: their derivatives escaping
          into the rest of N^c;
        - the arrows of the (1,0)-derivative chain
          N'' -> tau'' -> N° -> tau' -> N' -> 0: each d'-derivative
          leaves its bundle only into the next link;
        - lift-grading: the g_{+-2} components of the derivative of the
          flag lift xi = i (P_tau' - P_tau'');
        - orthogonality: the mutual Hermitian products of the projectors
          of the splitting N^c = N' + N° + N'' (Theorem 8)."""
        res = grid_max(_residual_block, self.taup.P, self.taup.dP,
                       self.No.P, self.No.dP, self.Np.P, self.Np.dP,
                       self.Nc)
        return dict(zip(RESIDUALS, res.tolist()))


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

    stays real; tau' goes through gram_projector_derivative and N°
    and N' through projector_derivative, with the generator derivatives
    2B d2_v, B conj(B) d_v alpha and B B d_v alpha.
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
    # as d2 is symmetric in (v, i).  tau' has rank m wherever the metric
    # passed its gate, so it takes the Gram route
    dtp = ((2.0 * B) @ geom.jet.d2.reshape(G, d, d * n)).reshape(G, m, d, n)
    try:
        P_taup, dP_taup = gram_projector_derivative(
            (2.0 * B) @ d1, dtp.transpose(0, 2, 1, 3))
    except RankError as e:
        raise RankError(f"tau' rank below m = {m}: {e}") from e

    # the N° and N' generator derivatives kron(B, conj B) d_v alpha and
    # kron(B, B) d_v alpha, in projector_derivative's (G, D, K, n) layout,
    # contracted only for a stack that is not negligible against alpha:
    # one that is has rank 0, and alpha_derivative runs only if one is not
    alpha_scale = float(np.max(np.abs(geom.alpha)))
    K20, K11 = type_rows(m)
    stacks = [(A.reshape(G, m * m, n), K)
              for A, K in ((geom.alpha11, K11), (geom.alpha20, K20))]
    live = [not _negligible(A, alpha_scale) for A, _ in stacks]
    dalpha = alpha_derivative(geom) if any(live) else None
    (P_No, r_no, dP_No), (P_Np, r_np, dP_Np) = (
        projector_derivative(
            A, contract_slots(K, dalpha).reshape(G, d, m * m, n),
            scale=alpha_scale) if keep else _rank_zero(G, d, n)
        for (A, K), keep in zip(stacks, live))
    return Bundles(T=Bundle(geom.P_T, dP_T), taup=Bundle(P_taup, dP_taup),
                   No=Bundle(P_No, dP_No), Np=Bundle(P_Np, dP_Np),
                   ranks={"tau'": m, "N°": r_no, "N'": r_np})


# -------------------------------------------------------------- residuals

def half_isotropy_residual(geom: forms.GeometryData, bun: Bundles) -> float:
    """Hermitian component of alpha(T',T') inside N°; the half-isotropy
    check pairs it with the ppmc residual."""
    G = geom.pts.shape[0]
    m = geom.imm.complex_dim
    a20 = geom.alpha20.reshape(G, m * m, -1)
    return float(np.max(np.abs(
        a20 @ bun.No.P.transpose(0, 2, 1)))) if m else 0.0


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

