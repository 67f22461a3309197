"""Hot per-grid-point tensor kernels, written as numpy einsums.

Array layout: a leading grid axis ``G``, then chart indices (``d = 2m``),
then the ambient axis ``n`` where applicable.
"""

import numpy as np


def gauss_curvature(alpha):
    """Curvature tensor from the Gauss equation of a flat-ambient immersion.

    R[g,i,j,k,l] = <alpha_il, alpha_jk> - <alpha_ik, alpha_jl>.
    """
    a = np.asarray(alpha)
    il_jk = np.einsum("gilx,gjkx->gijkl", a, a)
    ik_jl = np.einsum("gikx,gjlx->gijkl", a, a)
    return il_jk - ik_jl


def christoffel(dg, ginv):
    """Levi-Civita symbols Gamma[g,k,i,j] from dg[g,i,j,l] = d_i g_{jl}."""
    sym = (dg + np.einsum("gjil->gijl", dg) - np.einsum("glij->gijl", dg))
    return 0.5 * np.einsum("gkl,gijl->gkij", ginv, sym)


def gauss_residual(R, alpha_theta):
    """Sup-norm residual of the Gauss equation with a rotated right side."""
    rhs = gauss_curvature(alpha_theta)
    return float(np.max(np.abs(R - rhs)))


# Kept for the benchmark's environment record and tracer self-test,
# which read them; the kernels have no other implementation.
USING_NUMBA = False
gauss_curvature_numpy = gauss_curvature
