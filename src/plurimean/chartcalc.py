"""Charted immersions, their jets, and the chart's type algebra.

Coordinates on a chart of complex dimension m are ordered
(x1, y1, ..., xm, ym), so the complex structure J acts as a constant
block matrix with J(d/dx_k) = d/dy_k.  All jet arrays carry a leading
grid axis ``G`` followed by chart indices (``d = 2m``) and the ambient
axis ``n``.

The (p,q)-types of a form live here: form_parts splits it on the real
basis into the parts u, v, w of rotation_parts, and contract_slots
reads it on the (1,0) basis through the real slot pairs of type_rows.
Each chart constant is built once per m, read-only (chart_constant),
so no grid pass rebuilds one.

A residual that is a max of pointwise values may run block by block of
grid points through grid_max, which folds the blocks' maxima with
np.max: its values stay bit for bit those of one full-grid pass, while
its temporaries shrink to one block's.  A block body skips a product
whose factor vanishes there (vanishing_factor) and writes its 0.
"""

import functools
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np


class BoundaryError(ValueError):
    """Point too close to (or outside) the chart domain for the stencil."""


class RankError(ValueError):
    """The differential does not have full rank 2m at some point."""


def standard_J(m: int) -> np.ndarray:
    """Constant chart complex structure: J(d/dx_k) = d/dy_k."""
    J = np.zeros((2 * m, 2 * m))
    for k in range(m):
        J[2 * k + 1, 2 * k] = 1.0
        J[2 * k, 2 * k + 1] = -1.0
    return J


@dataclass(frozen=True)
class Jet3:
    """Value and symmetric derivative arrays at grid points, up to the
    jet's order (1, 2 or 3); the arrays above it are None.

    value: (G, n); d1: (G, 2m, n); d2: (G, 2m, 2m, n) or None at order 1;
    d3: (G, 2m, 2m, 2m, n) or None at orders 1 and 2.
    """

    value: np.ndarray
    d1: np.ndarray
    d2: Optional[np.ndarray]
    d3: Optional[np.ndarray]

    @property
    def chart_dim(self) -> int:
        return self.d1.shape[1]


@dataclass
class ChartedImmersion:
    """Evaluator for an immersion f: U in R^{2m} -> R^n on a box chart."""

    name: str
    ambient_dim: int
    complex_dim: int
    domain: np.ndarray  # (2m, 2) array of [lo, hi] per coordinate
    eval_fn: Callable[[np.ndarray], np.ndarray]  # (G, 2m) -> (G, n)
    jet_fn: Callable[[np.ndarray, int], Jet3]  # (G, 2m), order -> jet
    J: np.ndarray = field(init=False)

    def __post_init__(self):
        self.domain = np.asarray(self.domain, dtype=float)
        self.J = standard_J(self.complex_dim)

    @property
    def chart_dim(self) -> int:
        return 2 * self.complex_dim

    def evaluate(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return self.eval_fn(pts)

    def grid(self, per_axis: int = 9, margin: float = 0.0) -> np.ndarray:
        """Tensor-product grid of chart points, shape (per_axis^{2m}, 2m).

        margin shrinks each axis by the given fraction of its length at
        both ends (used when finite-difference stencils are involved).
        """
        axes = []
        for lo, hi in self.domain:
            pad = margin * (hi - lo)
            axes.append(np.linspace(lo + pad, hi - pad, per_axis))
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)


def _check_boundary(imm: ChartedImmersion, pts: np.ndarray, h: float):
    lo = imm.domain[:, 0] + 3.0 * h
    hi = imm.domain[:, 1] - 3.0 * h
    if np.any(pts < lo) or np.any(pts > hi):
        raise BoundaryError(
            f"{imm.name}: points within 3h={3 * h:g} of the domain boundary")


_RANK_FACTOR = 1e-9   # smallest singular value relative to the largest
# sigma_1^2 <= |g|_F and sigma_d^-2 <= |g^-1|_F for g = d1 d1^T (Golub &
# Van Loan, Matrix Computations, sec. 2.3), so a point with
# |g|_F |g^-1|_F below this has sigma_d / sigma_1 > 1e-4, far above
# _RANK_FACTOR; computed inverses of such well-conditioned g are accurate
_CERTIFIED_COND = 1e8


def _check_rank(d1: np.ndarray, g: np.ndarray, ginv: np.ndarray):
    """Raise RankError at the grid points where the differential d1
    (G, d, n) has its smallest singular value below _RANK_FACTOR times
    its largest.

    g = d1 d1^T and its inverse ginv (G, d, d) certify most points
    without an SVD: their Frobenius norms bound sigma_1^2 and
    sigma_d^-2 from above (a trace of ginv would not: at d >= 3 it can
    cancel on a numerically singular, indefinite g).  Only the points
    that fail the certificate, NaN ones included, go through the exact
    SVD of d1."""
    cond = np.linalg.norm(g, axis=(1, 2)) * np.linalg.norm(ginv, axis=(1, 2))
    open_pts = ~(cond < _CERTIFIED_COND)
    if not np.any(open_pts):
        return
    d = d1.shape[1]
    sv = np.linalg.svd(d1[open_pts], compute_uv=False)
    bad = sv[:, d - 1] < _RANK_FACTOR * sv[:, 0]
    if np.any(bad):
        raise RankError(f"differential rank below {d} at "
                        f"{int(bad.sum())} grid point(s)")


def central_differences(fn: Callable[[np.ndarray], np.ndarray],
                        pts: np.ndarray, h: float) -> np.ndarray:
    """(fn(pts + h e_k) - fn(pts - h e_k)) / 2h, (G, d, ...) with [:, k]
    along chart axis k, from one call of fn (points (P, d) -> values
    (P, ...)) on the 2d shifted grids stacked.  It checks no domain:
    each caller checks once for its stencil's full reach
    (_check_boundary, 3h), also when it nests differences."""
    G, d = pts.shape
    steps = h * np.eye(d)
    # [k, 0] = pts + h e_k, [k, 1] = pts - h e_k
    out = fn((pts + np.stack([steps, -steps], axis=1)[:, :, None]
              ).reshape(2 * d * G, d))
    out = out.reshape(d, 2, G, *out.shape[1:])
    return np.ascontiguousarray(
        np.moveaxis((out[:, 0] - out[:, 1]) / (2.0 * h), 0, 1))


_BLOCK = 128   # grid points per block of grid_max, chosen by measurement


def grid_max(fn: Callable[..., np.ndarray], *fields: np.ndarray):
    """np.max over blocks of _BLOCK grid points of fn(*blocks), each
    field sliced on its leading grid axis: elementwise for array results
    (all blocks alike in shape), so a NaN in any block reaches the
    result.  For a pointwise fn whose result is a max over the points
    this equals fn(*fields) bit for bit, and its temporaries are those
    of one block, which stay in cache, instead of multi-MB arrays that a
    warm pass would fault in afresh.  A grid of at most _BLOCK points,
    an empty one too, runs the loop once."""
    G = len(fields[0])
    # np.max, not max(): a NaN must reach the caller
    return np.max([fn(*(f[s:s + _BLOCK] for f in fields))
                   for s in range(0, max(G, 1), _BLOCK)], axis=0)


def vanishing_factor(P: np.ndarray, *others: np.ndarray) -> bool:
    """Whether every product of P with the other factors is exactly 0,
    so that it need not be formed: P is all zeros (a NaN counts as
    nonzero) and every other factor is finite.  A non-finite factor
    times 0 is NaN, not 0, so there the product is formed as usual."""
    return not P.any() and all(np.isfinite(f).all() for f in others)


def fd_d1(imm: ChartedImmersion, pts: np.ndarray,
          h: float = 1e-4) -> np.ndarray:
    """Central-difference first derivatives (G, 2m, n),
    (f(p + h e_k) - f(p - h e_k)) / 2h, 2nd-order accurate."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    _check_boundary(imm, pts, h)
    return central_differences(imm.evaluate, pts, h)


def fd_jet_oracle(imm: ChartedImmersion, pts: np.ndarray,
                  h: float = 1e-4) -> Jet3:
    """Central-difference jet, 2nd-order accurate; test oracle only.

    Each order is the central difference of the order below, so d3
    reads f at offsets up to 3h along each axis, and carries the usual
    eps/h^3 round-off: callers use a larger step for d3 comparisons.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    _check_boundary(imm, pts, h)
    d1 = functools.partial(central_differences, imm.evaluate, h=h)
    d2 = functools.partial(central_differences, d1, h=h)
    return Jet3(value=imm.evaluate(pts), d1=d1(pts), d2=d2(pts),
                d3=central_differences(d2, pts, h))


def eval_jet(imm: ChartedImmersion, pts: np.ndarray,
             order: int = 3) -> Jet3:
    """Jet of the given order (1, 2 or 3) at chart points from the
    fixture's closed-form jets.  It runs no rank test: the geometry
    certifies the rank from the metric and its inverse
    (kaehler.regular_metric)."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    return imm.jet_fn(pts, order)


def holomorphic_basis(m: int) -> np.ndarray:
    """Rows are the (1,0) coordinate directions d'_a = (d/dx_a - i d/dy_a)/2.

    Shape (m, 2m) complex; conjugate rows span the (0,1) directions.
    """
    B = np.zeros((m, 2 * m), dtype=complex)
    for a in range(m):
        B[a, 2 * a] = 0.5
        B[a, 2 * a + 1] = -0.5j
    return B


def chart_constant(build):
    """Decorator for a constant of the chart of complex dimension m:
    build(m), an array or a tuple of arrays, runs once per m, and its
    arrays are read-only, so a caller cannot change what the next call
    reads.  Every chart's J is standard_J(m), so these constants depend
    on m alone."""
    @functools.cache
    @functools.wraps(build)
    def once(m: int):
        out = build(m)
        for a in out if isinstance(out, tuple) else (out,):
            a.flags.writeable = False
        return out
    return once


@chart_constant
def type_rows(m: int):
    """(K20, K11), each (2, m, m, 2m, 2m) real: the real and imaginary
    parts of K20[a, b] = d'_a (x) d'_b and K11[a, b] = d'_a (x) d''_b,
    on which contract_slots reads a real form's (2,0)- and (1,1)-parts
    in the (1,0) basis; two entries +-1/4 per row, so each rounds once."""
    B = holomorphic_basis(m)
    d = 2 * m
    return tuple(np.stack([K.real, K.imag]).reshape(2, m, m, d, d)
                 for K in (np.kron(B, B), np.kron(B, B.conj())))


def contract_slots(K: np.ndarray, T: np.ndarray) -> np.ndarray:
    """out[..., a, b, x] = sum_ij (K[0] + i K[1])[a, b, i, j] T[..., i, j, x].

    Contracts both slots of a real form T at once with slot pairs K
    (2, a, b, d, d) given by their real and imaginary parts, such as
    those of type_rows, carrying any leading axes along: one real
    product of K as a (2 a b, d^2) matrix with the (d^2, n) values,
    whose halves are written as the result's real and imaginary parts
    (re + 1j*im would make an infinite im a NaN real part).
    """
    *lead, di, dj, n = T.shape
    a, b = K.shape[1:3]
    parts = (K.reshape(2 * a * b, di * dj) @ T.reshape(*lead, di * dj, n)
             ).reshape(*lead, 2, a, b, n)
    out = np.empty((*lead, a, b, n), dtype=complex)
    out.real, out.imag = parts[..., 0, :, :, :], parts[..., 1, :, :, :]
    return out


@chart_constant
def rotation_parts(m: int) -> np.ndarray:
    """(3, d^2, d^2): the constant matrices K_u, K_v, K_w with

        kron(R_theta^T, R_theta^T) = K_u + cos 2theta K_v + sin 2theta K_w

    for R_theta = cos(theta) I + sin(theta) J, J = standard_J(m), from
    cos^2 = (1 + cos 2theta) / 2, sin^2 = (1 - cos 2theta) / 2 and
    cos sin = sin 2theta / 2.  Applied to a form they give its parts
    u = a11 and v - i w = 2 a20 (the (p,q)-parts on the real basis,
    extended complex-bilinearly), so that
    alpha_theta = e^{2it} a20 + a11 + e^{-2it} a02 reads
    u + cos 2theta v + sin 2theta w (the e^{2i theta} convention).
    """
    J = standard_J(m)
    d = 2 * m
    eye = np.eye(d)
    JJ = np.kron(J.T, J.T)
    return 0.5 * np.stack([np.eye(d * d) + JJ, np.eye(d * d) - JJ,
                           np.kron(J.T, eye) + np.kron(eye, J.T)])


def form_parts(T: np.ndarray) -> np.ndarray:
    """(3, ..., d, d, n): the parts u, v, w (rotation_parts) of a form T
    (..., d, d, n) in its last two chart axes, on the standard chart of
    dimension d, leading axes carried along: u is the (1,1)-part, v - i w
    twice the (2,0)-part.  One product of the stacked (3 d^2, d^2)
    matrix with the (d^2, n) values; each row has two entries +-1/2, so
    each part rounds once."""
    T = np.asarray(T)
    *lead, d, _, n = T.shape
    parts = (rotation_parts(d // 2).reshape(3 * d * d, d * d)
             @ T.reshape(*lead, d * d, n))
    return np.moveaxis(parts.reshape(*lead, 3, d, d, n), -4, 0)


def convergence_order(imm: ChartedImmersion, pts: np.ndarray,
                      jet: Jet3, h: float = 1e-3) -> float:
    """Measured convergence order of central-difference first
    derivatives against the analytic ones at pts, from jet =
    eval_jet(imm, pts): its d1 (G, 2m, n) and its values.

    Returns log2(err_h / err_{h/2}), each error at least the round-off
    floor 1e-12 max(1, max |d1|) + eps max |f| / h, so no log of 0 or of
    inf is taken.  The second term is the round-off of a central
    difference at step h/2 of values of size |f|, which a translation
    of the image raises while d1 stays put.  Where the chart is affine
    in some coordinates both errors can hit round-off, and a pair within
    the floor is reported as order 2.
    """
    floor = (1e-12 * max(1.0, float(np.max(np.abs(jet.d1))))
             + np.finfo(float).eps * float(np.max(np.abs(jet.value))) / h)
    e1, e2 = (np.max(np.abs(fd_d1(imm, pts, s) - jet.d1)) for s in (h, h / 2))
    if e1 <= floor and e2 <= floor:
        return 2.0
    # np.maximum, not max(): a NaN error must reach the caller
    return float(np.log2(np.maximum(e1, floor) / np.maximum(e2, floor)))
