"""Second fundamental form, (p,q)-decomposition, covariant derivatives,
and the scalar residuals classifying an immersion (ppmc, pluriminimal,
mean-curvature sphere reduction).

The geometry is built from the order-3 jets as batched `@` products over
the grid axis: the metric d1 d1^T and its derivative from one product
d2 d1^T (kaehler.metric_data), the tangent projector d1^T (g^{-1} d1),
the Christoffel contractions of alpha and D alpha with Gamma laid out
as a (d^2, d) matrix per point, and the normal projection as a product
with P_T^T; a transposed operand is copied to unit stride first, so
numpy takes BLAS rather than its strided loop.  g and g^{-1} come from
the regularity gate kaehler.regular_metric, which certifies the rank of
d1 from the two, so no point runs an SVD unless its metric is
ill-conditioned.  The normal frame (a QR of d1^T) is formed only when
read, by R^N of a normal bundle of rank >= 2: on a normal line R^N is 0
in closed form, so nothing run on a surface in R^3 forms a QR.
Both slots of a form are contracted at once, as one product of a
Kronecker matrix with the (d^2, n) values (chartcalc.contract_slots):
kron(B, B) and kron(B, conj B) for the (2,0)- and (1,1)-parts, and
kron(J^T, J^T) for the J-rotation.
"""

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import kaehler
from .chartcalc import (ChartedImmersion, Jet3, contract_slots, eval_jet,
                        holomorphic_basis)


@dataclass
class GeometryData:
    """Everything computable pointwise from the order-3 jets on a grid."""

    imm: ChartedImmersion
    pts: np.ndarray
    jet: Jet3
    g: np.ndarray        # (G, d, d)
    ginv: np.ndarray
    P_T: np.ndarray      # (G, n, n) tangent projector: the real Gauss map
    Gamma: np.ndarray    # (G, d, d, d), Gamma[g,k,i,j] = Gamma^k_{ij}
    alpha: np.ndarray    # (G, d, d, n)
    Dalpha: np.ndarray   # (G, d, d, d, n), [k,i,j] = (D_k alpha)(i,j)
    alpha20: np.ndarray  # (G, m, m, n) complex: alpha(d'_a, d'_b)
    alpha11: np.ndarray  # (G, m, m, n) complex: alpha(d'_a, d''_b)

    # the normal frame and the curvatures are computed on first read: a
    # fixture that the kaehler check rejects never reads them, and a
    # normal line reads no frame
    @functools.cached_property
    def frame(self) -> np.ndarray:
        """(G, n-d, n) real orthonormal normal frame."""
        return kaehler.normal_frame(self.jet)

    @functools.cached_property
    def R(self) -> np.ndarray:
        return kaehler.curvature_from_gauss(self.alpha)

    @functools.cached_property
    def RN(self) -> np.ndarray:
        G, d, _, n = self.alpha.shape
        if n - d == 1:
            # a skew endomorphism of a normal line is 0 (Ricci equation)
            return np.zeros((G, d, d, 1, 1))
        return kaehler.normal_curvature(self.alpha, self.g, self.ginv,
                                        self.frame)


def tangent_projector(d1: np.ndarray, ginv: np.ndarray) -> np.ndarray:
    """P = d1^T g^{-1} d1: orthogonal projection onto the tangent plane."""
    return np.ascontiguousarray(d1.transpose(0, 2, 1)) @ (ginv @ d1)


def compute_geometry(imm: ChartedImmersion, pts: np.ndarray) -> GeometryData:
    jet = eval_jet(imm, pts)
    g, ginv, _, Gamma = kaehler.metric_data(jet, pts)
    G, d, n = jet.d1.shape
    # Gamma as (G, d^2, d): row (i, j), column a holds Gamma^a_ij
    Gam = Gamma.transpose(0, 2, 3, 1).reshape(G, d * d, d)

    # alpha_ij = d2_ij - Gamma^a_ij d1_a (the tangential part of d2 is
    # exactly the Christoffel contraction for an isometric immersion)
    alpha = jet.d2 - (Gam @ jet.d1).reshape(G, d, d, n)

    # (D_k alpha)(i,j): ambient derivative of alpha, normally projected,
    # minus the two Christoffel corrections.  No derivative of Gamma is
    # needed: the d(Gamma)*d1 term is tangential and dies in the
    # projection.  Each step updates one array in place, so at most two
    # arrays of D alpha's size are alive at once.
    P_T = tangent_projector(jet.d1, ginv)
    Dalpha = jet.d3 - (Gam[:, None] @ jet.d2).reshape(G, d, d, d, n)
    amb = Dalpha.reshape(G, d ** 3, n)
    amb -= amb @ np.ascontiguousarray(P_T.transpose(0, 2, 1))
    # [k,i,j] = Gamma^l_ki alpha_lj; the second correction
    # Gamma^l_kj alpha_il is its (i, j) transpose, because alpha and
    # Gamma are exactly symmetric in their lower indices
    corr = (Gam @ alpha.reshape(G, d, d * n)).reshape(G, d, d, d, n)
    Dalpha -= corr
    Dalpha -= corr.transpose(0, 1, 3, 2, 4)

    B = holomorphic_basis(imm.complex_dim)
    alpha20 = contract_slots(B, B, alpha)
    alpha11 = contract_slots(B, B.conj(), alpha)

    return GeometryData(imm=imm, pts=pts, jet=jet, g=g, ginv=ginv,
                        P_T=P_T, Gamma=Gamma, alpha=alpha, Dalpha=Dalpha,
                        alpha20=alpha20, alpha11=alpha11)


# ------------------------------------------------------------- residuals

def normal_valued_residual(geom: GeometryData) -> float:
    """sup |<alpha(d_i,d_j), d1_k>| (alpha must be normal-valued)."""
    return float(np.max(np.abs(
        np.einsum("gijx,gkx->gijk", geom.alpha, geom.jet.d1))))


def alpha11_on_real(alpha: np.ndarray, J: np.ndarray) -> np.ndarray:
    """alpha^{(1,1)}(d_i, d_j) on the real basis:
    (alpha(x,y) + alpha(Jx,Jy)) / 2."""
    return 0.5 * (alpha + contract_slots(J.T, J.T, alpha))


def eq2_consistency_residual(geom: GeometryData) -> float:
    """Real-basis pluri-mean values vs the complex (1,1)-components."""
    m = geom.imm.complex_dim
    B = holomorphic_basis(m)
    recon = contract_slots(B, B.conj(),
                           alpha11_on_real(geom.alpha, geom.imm.J))
    return float(np.max(np.abs(recon - geom.alpha11)))


def ppmc_residual(geom: GeometryData) -> float:
    """sup |D(alpha^{(1,1)})|: covariant derivative of the pluri-mean
    part, the (1,1)-part of D(alpha) in (i,j), since J is parallel."""
    return float(np.max(np.abs(alpha11_on_real(geom.Dalpha, geom.imm.J))))


def pluriminimal_residual(geom: GeometryData) -> float:
    """sup |alpha^{(1,1)}| over the complex basis."""
    return float(np.max(np.abs(geom.alpha11)))


def codazzi_residual(geom: GeometryData) -> float:
    """sup |(D_i alpha)(j,k) - (D_j alpha)(i,k)| (flat ambient space)."""
    return float(np.max(np.abs(
        geom.Dalpha - geom.Dalpha.transpose(0, 2, 1, 3, 4))))


@dataclass(frozen=True)
class MeanCurvatureData:
    eta: np.ndarray            # (G, n)
    kappa: float
    off_identity: float        # sup |A_eta - kappa I|
    center: Optional[np.ndarray]       # (n,) when spherical
    center_spread: float       # grid constancy of f + eta/kappa
    radius: Optional[float]
    radius_spread: float
    spherical: bool


_SPHERE_TOL = 1e-6   # A_eta = kappa I and kappa != 0 within this
_NORMAL_TOL = 1e-9   # relative tangential part eta may have


def mean_curvature_and_sphere_reduction(geom: GeometryData
                                        ) -> MeanCurvatureData:
    """eta = (1/2m) trace_g alpha; if the shape operator A_eta is a
    multiple kappa of the identity, the point m = f + eta/kappa is a
    common sphere center and |f - m| the radius.  ValueError if eta has
    a tangential part (alpha is then not normal-valued) or is not finite."""
    d = geom.jet.chart_dim
    eta = np.einsum("gij,gijx->gx", geom.ginv, geom.alpha) / d
    tangency = np.max(np.abs(np.einsum("gix,gx->gi", geom.jet.d1, eta)))
    # not (tangency <= tol < inf): a NaN or an inf in eta fails too
    if not tangency <= _NORMAL_TOL * max(1.0, np.abs(eta).max()) < np.inf:
        raise ValueError(f"eta is not normal or not finite (tangential "
                         f"part {tangency:g})")
    A_eta = kaehler.shape_operators(geom.alpha, geom.ginv,
                                    eta[:, None])[:, 0]
    kappa = float(np.mean(np.trace(A_eta, axis1=1, axis2=2)) / d)
    off = float(np.max(np.abs(A_eta - kappa * np.eye(d))))
    spherical = off < _SPHERE_TOL and abs(kappa) > _SPHERE_TOL
    if spherical:
        centers = geom.jet.value + eta / kappa
        center = centers.mean(axis=0)
        center_spread = float(np.max(np.abs(centers - center)))
        radii = np.linalg.norm(geom.jet.value - center, axis=1)
        radius = float(radii.mean())
        radius_spread = float(np.max(np.abs(radii - radius)))
    else:
        center, center_spread = None, np.inf
        radius, radius_spread = None, np.inf
    return MeanCurvatureData(eta=eta, kappa=kappa, off_identity=off,
                             center=center, center_spread=center_spread,
                             radius=radius, radius_spread=radius_spread,
                             spherical=spherical)


# --------------------------------------------- complex-bilinear evaluation

def alpha_complex(geom: GeometryData, x: np.ndarray, y: np.ndarray
                  ) -> np.ndarray:
    """Complex-bilinear extension alpha(x, y) for chart vectors (d,)."""
    return np.einsum("i,j,gijx->gx", np.asarray(x, complex),
                     np.asarray(y, complex), geom.alpha.astype(complex))


def alpha_part(geom: GeometryData, x, y, part: str) -> np.ndarray:
    """(p,q)-part of alpha on (possibly complex) chart vectors.

    part in {"20", "11", "02"}; the (1,1)-part is
    alpha(pi'x, pi''y) + alpha(pi''x, pi'y).
    """
    J = geom.imm.J.astype(complex)
    x = np.asarray(x, complex)
    y = np.asarray(y, complex)
    xp, xq = 0.5 * (x - 1j * (J @ x)), 0.5 * (x + 1j * (J @ x))
    yp, yq = 0.5 * (y - 1j * (J @ y)), 0.5 * (y + 1j * (J @ y))
    if part == "20":
        return alpha_complex(geom, xp, yp)
    if part == "02":
        return alpha_complex(geom, xq, yq)
    if part == "11":
        return (alpha_complex(geom, xp, yq)
                + alpha_complex(geom, xq, yp))
    raise ValueError(f"unknown part {part!r}")


def cross_term_identity_residual(geom: GeometryData, x1, x2) -> float:
    """| |alpha^{(1,1)}(x1,x2)| - |alpha^{(2,0)}(x1,x2)| | pointwise sup
    for tangent vectors from different product factors."""
    n11 = np.linalg.norm(alpha_part(geom, x1, x2, "11"), axis=-1)
    n20 = np.linalg.norm(alpha_part(geom, x1, x2, "20"), axis=-1)
    return float(np.max(np.abs(n11 - n20)))


def conjugate_cross_residual(geom: GeometryData, y1, y2) -> float:
    """| |alpha(y1, conj(y2))| - |alpha(y1, y2)| | for complexified
    cross-factor tangent pairs."""
    na = np.linalg.norm(alpha_complex(geom, y1, np.conj(y2)), axis=-1)
    nb = np.linalg.norm(alpha_complex(geom, y1, y2), axis=-1)
    return float(np.max(np.abs(na - nb)))
