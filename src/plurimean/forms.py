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
The (p,q)-types of a form come from chartcalc: contract_slots, one
real product with the real and imaginary parts of the slot pairs
kron(B, B) or kron(B, conj B) of type_rows, on the (1,0) basis,
form_parts on the real basis, both built once per m, and chart
vectors (x, y), complex ones too, meet a form as one product of
kron(x, y) with its (d^2, n) values.
"""

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import kaehler
from .chartcalc import (ChartedImmersion, Jet3, contract_slots, eval_jet,
                        form_parts, grid_max, rotation_parts, type_rows)


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

    # the (p,q)-components, the normal frame and the curvatures are
    # computed on first read: the family path reads no (p,q)-component,
    # a fixture that the kaehler check rejects reads no curvature, and a
    # normal line reads no frame
    @functools.cached_property
    def alpha20(self) -> np.ndarray:
        """(G, m, m, n) complex: alpha(d'_a, d'_b)."""
        return contract_slots(type_rows(self.imm.complex_dim)[0],
                              self.alpha)

    @functools.cached_property
    def alpha11(self) -> np.ndarray:
        """(G, m, m, n) complex: alpha(d'_a, d''_b)."""
        return contract_slots(type_rows(self.imm.complex_dim)[1],
                              self.alpha)

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
    # arrays of D alpha's size are alive at once: the Christoffel
    # correction is written over the tangential part once that is
    # subtracted.
    P_T = tangent_projector(jet.d1, ginv)
    Dalpha = (Gam[:, None] @ jet.d2).reshape(G, d, d, d, n)
    np.subtract(jet.d3, Dalpha, out=Dalpha)
    amb = Dalpha.reshape(G, d ** 3, n)
    tangential = amb @ np.ascontiguousarray(P_T.transpose(0, 2, 1))
    amb -= tangential
    # [k,i,j] = Gamma^l_ki alpha_lj; the second correction
    # Gamma^l_kj alpha_il is its (i, j) transpose, because alpha and
    # Gamma are exactly symmetric in their lower indices
    corr = np.matmul(Gam, alpha.reshape(G, d, d * n),
                     out=tangential.reshape(G, d * d, d * n)
                     ).reshape(G, d, d, d, n)
    Dalpha -= corr
    Dalpha -= corr.transpose(0, 1, 3, 2, 4)

    return GeometryData(imm=imm, pts=pts, jet=jet, g=g, ginv=ginv,
                        P_T=P_T, Gamma=Gamma, alpha=alpha, Dalpha=Dalpha)


# ------------------------------------------------------------- residuals

def normal_valued_residual(geom: GeometryData) -> float:
    """sup |<alpha(d_i,d_j), d1_k>| (alpha must be normal-valued)."""
    return float(np.max(np.abs(
        np.einsum("gijx,gkx->gijk", geom.alpha, geom.jet.d1))))


def eq2_consistency_residual(geom: GeometryData) -> float:
    """Real-basis pluri-mean values vs the complex (1,1)-components."""
    _, K11 = type_rows(geom.imm.complex_dim)
    recon = contract_slots(K11, form_parts(geom.alpha)[0])
    return float(np.max(np.abs(recon - geom.alpha11)))


def ppmc_residual(geom: GeometryData) -> float:
    """sup |D(alpha^{(1,1)})|: covariant derivative of the pluri-mean
    part, the (1,1)-part of D(alpha) in (i,j), since J is parallel.
    Only the u rows of rotation_parts are applied, the rows of
    form_parts' first part, which round alike; block by block of grid
    points (grid_max)."""
    _, d, _, _, n = geom.Dalpha.shape
    K = rotation_parts(d // 2)[0]
    return float(grid_max(
        lambda Dalpha: np.max(np.abs(
            K @ Dalpha.reshape(len(Dalpha), d, d * d, n))),
        geom.Dalpha))


def pluriminimal_residual(geom: GeometryData) -> float:
    """sup |alpha^{(1,1)}| over the complex basis."""
    return float(np.max(np.abs(geom.alpha11)))


def codazzi_residual(geom: GeometryData) -> float:
    """sup |(D_i alpha)(j,k) - (D_j alpha)(i,k)| (flat ambient space),
    block by block of grid points (grid_max)."""
    return float(grid_max(
        lambda Dalpha: np.max(np.abs(
            Dalpha - Dalpha.transpose(0, 2, 1, 3, 4))),
        geom.Dalpha))


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


SPHERE_TOL = 1e-6    # A_eta = kappa I and kappa != 0 within this
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
    spherical = off < SPHERE_TOL and abs(kappa) > SPHERE_TOL
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


# ------------------------------------------------ cross-factor identities

def cross_term_identity_residual(geom: GeometryData, x1, x2) -> float:
    """| |alpha^{(1,1)}(x1,x2)| - |alpha^{(2,0)}(x1,x2)| | pointwise sup
    for tangent vectors from different product factors: the parts u and
    (v - i w)/2 of form_parts, evaluated at (x1, x2)."""
    G, d, _, n = geom.alpha.shape
    parts = form_parts(geom.alpha).reshape(3, G, d * d, n)
    u, v, w = np.kron(x1, x2) @ parts
    n11 = np.linalg.norm(u, axis=-1)
    n20 = np.linalg.norm(0.5 * (v - 1j * w), axis=-1)
    return float(np.max(np.abs(n11 - n20)))


def conjugate_cross_residual(geom: GeometryData, y1, y2) -> float:
    """| |alpha(y1, conj(y2))| - |alpha(y1, y2)| | for complexified
    cross-factor tangent pairs; alpha extends complex-bilinearly."""
    G, d, _, n = geom.alpha.shape
    alpha = geom.alpha.reshape(G, d * d, n)
    na = np.linalg.norm(np.kron(y1, np.conj(y2)) @ alpha, axis=-1)
    nb = np.linalg.norm(np.kron(y1, y2) @ alpha, axis=-1)
    return float(np.max(np.abs(na - nb)))
