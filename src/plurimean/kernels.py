"""Hot per-grid-point tensor kernels.

Array layout: a leading grid axis ``G``, then chart indices (``d = 2m``),
then the ambient axis ``n`` where applicable.  Both kernels run as one
batched ``@`` product over the grid axis plus index permutations taken
as transposed views (an ``einsum`` would evaluate them as an index
loop).  gauss_curvature gives R of a geometry, which the theta sweep
(family.py) pulls back by Lambda^2 R_theta for every angle; it and
christoffel run once per geometry.
"""

import numpy as np


def gauss_curvature(alpha):
    """Curvature tensor from the Gauss equation of a flat-ambient immersion.

    R[g,i,j,k,l] = <alpha_il, alpha_jk> - <alpha_ik, alpha_jl>, read off
    the Gram matrix M[g,(i,l),(j,k)] = <alpha_il, alpha_jk> of the d^2
    values of alpha at each point.  The difference is formed in M's own
    (i, l, j, k) order and returned as a permuted view.
    """
    a = np.asarray(alpha)
    G, d, _, n = a.shape
    A = a.reshape(G, d * d, n)
    # a contiguous A^T: matmul is about twice as slow on the strided view
    M = (A @ A.transpose(0, 2, 1).copy()).reshape(G, d, d, d, d)
    return (M - M.transpose(0, 1, 4, 3, 2)).transpose(0, 1, 3, 4, 2)


def christoffel(dg, ginv):
    """Levi-Civita symbols Gamma[g,k,i,j] from dg[g,i,j,l] = d_i g_{jl}:
    Gamma^k_ij = g^{kl} S_ijl / 2 with S_ijl = d_i g_jl + d_j g_il
    - d_l g_ij, contracted as ginv @ S over the (d^2, d) values of S."""
    G, d = ginv.shape[:2]
    sym = dg + dg.transpose(0, 2, 1, 3) - dg.transpose(0, 2, 3, 1)
    return 0.5 * (ginv @ sym.reshape(G, d * d, d).transpose(0, 2, 1)
                  ).reshape(G, d, d, d)


# Kept for the benchmark's span table, which binds it and counts its
# arguments; nothing in the package calls it since the sweep rewrite.
def gauss_residual(R, alpha_theta):
    """Sup-norm residual of the Gauss equation with a rotated right side."""
    rhs = gauss_curvature(alpha_theta)
    return float(np.max(np.abs(R - rhs)))


# Kept for the benchmark's environment record and tracer self-test,
# which read them; the kernels have no other implementation.
USING_NUMBA = False
gauss_curvature_numpy = gauss_curvature
