"""Tensor kernels against explicit index loops on random tensors: the
einsum path and the loop path must agree."""

import itertools

import numpy as np
import pytest

from plurimean import kernels


def _random_data(seed, G=3, d=4, n=5):
    rng = np.random.default_rng(seed)
    alpha = rng.standard_normal((G, d, d, n))
    alpha = 0.5 * (alpha + alpha.transpose(0, 2, 1, 3))  # symmetric in (i,j)
    dg = rng.standard_normal((G, d, d, d))
    A = rng.standard_normal((G, d, d))
    g = np.einsum("gik,gjk->gij", A, A) + 4.0 * np.eye(d)
    ginv = np.linalg.inv(g)
    return alpha, dg, ginv


def _gauss_curvature_loops(alpha):
    G, d, _, n = alpha.shape
    R = np.zeros((G, d, d, d, d))
    for g, i, j, k, l in itertools.product(range(G), *[range(d)] * 4):
        R[g, i, j, k, l] = sum(alpha[g, i, l, x] * alpha[g, j, k, x]
                               - alpha[g, i, k, x] * alpha[g, j, l, x]
                               for x in range(n))
    return R


@pytest.mark.parametrize("seed", range(5))
def test_gauss_curvature_paths_agree(seed):
    alpha, _, _ = _random_data(seed)
    R = kernels.gauss_curvature(alpha)
    assert np.max(np.abs(R - _gauss_curvature_loops(alpha))) < 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_christoffel_paths_agree(seed):
    _, dg, ginv = _random_data(seed)
    G, d = dg.shape[:2]
    ref = np.zeros((G, d, d, d))
    for g, k, i, j in itertools.product(range(G), *[range(d)] * 3):
        ref[g, k, i, j] = 0.5 * sum(
            ginv[g, k, l] * (dg[g, i, j, l] + dg[g, j, i, l] - dg[g, l, i, j])
            for l in range(d))
    assert np.max(np.abs(kernels.christoffel(dg, ginv) - ref)) < 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_gauss_residual_paths_agree(seed):
    alpha, _, _ = _random_data(seed)
    rng = np.random.default_rng(100 + seed)
    R_noisy = (_gauss_curvature_loops(alpha)
               + 1e-3 * rng.standard_normal((3, 4, 4, 4, 4)))
    ref = float(np.max(np.abs(R_noisy - _gauss_curvature_loops(alpha))))
    assert abs(kernels.gauss_residual(R_noisy, alpha) - ref) < 1e-12
    # exact input gives a zero residual
    assert kernels.gauss_residual(kernels.gauss_curvature(alpha),
                                  alpha) < 1e-12


def test_gauss_curvature_first_bianchi():
    alpha, _, _ = _random_data(11, G=7, d=4, n=6)
    R = kernels.gauss_curvature(alpha)
    bianchi = (R + R.transpose(0, 1, 3, 4, 2) + R.transpose(0, 1, 4, 2, 3))
    assert np.max(np.abs(bianchi)) < 1e-12
