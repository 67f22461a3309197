"""Hot per-grid-point tensor kernels.

Array layout: a leading grid axis ``G``, then chart indices (``d = 2m``),
then the ambient axis ``n`` where applicable.  The Gauss-equation
curvature runs as one batched ``@`` product over the grid axis followed
by index permutations (an ``einsum`` evaluates it as an index loop).
It runs once per geometry; the theta sweep (family.py) does not call
these kernels but builds its Gauss term from the theta-independent
parts of the rotated form.  ``christoffel`` keeps its single
two-operand ``einsum``: it too runs once per geometry.
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
    """Levi-Civita symbols Gamma[g,k,i,j] from dg[g,i,j,l] = d_i g_{jl}."""
    sym = (dg + np.einsum("gjil->gijl", dg) - np.einsum("glij->gijl", dg))
    return 0.5 * np.einsum("gkl,gijl->gkij", ginv, sym)


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
