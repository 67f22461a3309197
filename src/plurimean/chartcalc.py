"""Charted immersions, their jets, and (1,0)/(0,1) tangent projections.

Coordinates on a chart of complex dimension m are ordered
(x1, y1, ..., xm, ym), so the complex structure J acts as a constant
block matrix with J(d/dx_k) = d/dy_k.  All jet arrays carry a leading
grid axis ``G`` followed by chart indices (``d = 2m``) and the ambient
axis ``n``.
"""

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
    def npts(self) -> int:
        return self.value.shape[0]

    @property
    def chart_dim(self) -> int:
        return self.d1.shape[1]

    @property
    def ambient_dim(self) -> int:
        return self.value.shape[1]


@dataclass(frozen=True)
class ComplexTangent:
    """Tangent vector in chart coordinates, possibly complexified."""

    components: np.ndarray  # (2m,) complex
    type_tag: str = "general"  # one of {"general", "(1,0)", "(0,1)"}


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


def _check_rank(sv: np.ndarray, d: int):
    """Raise RankError at the grid points whose singular values sv
    (G, d) of the differential, in descending order, have the last
    below _RANK_FACTOR times the first."""
    bad = sv[:, d - 1] < _RANK_FACTOR * sv[:, 0]
    if np.any(bad):
        raise RankError(f"differential rank below {d} at "
                        f"{int(bad.sum())} grid point(s)")


def fd_d1(imm: ChartedImmersion, pts: np.ndarray,
          h: float = 1e-4) -> np.ndarray:
    """Central-difference first derivatives (G, 2m, n),
    (f(p + h e_k) - f(p - h e_k)) / 2h, 2nd-order accurate."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    _check_boundary(imm, pts, h)
    G, d = pts.shape
    d1 = np.empty((G, d, imm.ambient_dim))
    for k in range(d):
        ek = np.zeros(d)
        ek[k] = h
        d1[:, k] = (imm.evaluate(pts + ek)
                    - imm.evaluate(pts - ek)) / (2.0 * h)
    return d1


def fd_jet_oracle(imm: ChartedImmersion, pts: np.ndarray,
                  h: float = 1e-4) -> Jet3:
    """Central-difference jet, 2nd-order accurate; test oracle only.

    Third derivatives are central differences of the FD second
    derivatives and carry the usual eps/h^3 round-off, so callers use a
    larger step for d3 comparisons.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    _check_boundary(imm, pts, h)
    G, d = pts.shape
    f = imm.evaluate
    n = imm.ambient_dim

    def d2_at(q):
        """FD second derivatives at points q, shape (G, d, d, n)."""
        out = np.empty((q.shape[0], d, d, n))
        f0 = f(q)
        for i in range(d):
            ei = np.zeros(d)
            ei[i] = h
            out[:, i, i] = (f(q + ei) - 2.0 * f0 + f(q - ei)) / h**2
            for j in range(i + 1, d):
                ej = np.zeros(d)
                ej[j] = h
                mixed = (f(q + ei + ej) - f(q + ei - ej)
                         - f(q - ei + ej) + f(q - ei - ej)) / (4.0 * h**2)
                out[:, i, j] = mixed
                out[:, j, i] = mixed
        return out

    value = f(pts)
    d1 = fd_d1(imm, pts, h)
    d3 = np.empty((G, d, d, d, n))
    for k in range(d):
        ek = np.zeros(d)
        ek[k] = h
        d3[:, k] = (d2_at(pts + ek) - d2_at(pts - ek)) / (2.0 * h)
    d2 = d2_at(pts)
    # symmetrize d3 over all index permutations
    d3 = (d3 + d3.transpose(0, 2, 1, 3, 4) + d3.transpose(0, 2, 3, 1, 4)
          + d3.transpose(0, 3, 1, 2, 4) + d3.transpose(0, 3, 2, 1, 4)
          + d3.transpose(0, 1, 3, 2, 4)) / 6.0
    return Jet3(value=value, d1=d1, d2=d2, d3=d3)


def eval_jet(imm: ChartedImmersion, pts: np.ndarray,
             order: int = 3) -> Jet3:
    """Jet of the given order (1, 2 or 3) at chart points from the
    fixture's closed-form jets.  It runs no rank test: the geometry
    takes it from the QR of its normal frame (kaehler.normal_frame)."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    return imm.jet_fn(pts, order)


def project_type(v: ComplexTangent, which: str, m: int) -> ComplexTangent:
    """(1,0)/(0,1) projections pi'(v) = (v - iJv)/2, pi''(v) = (v + iJv)/2."""
    J = standard_J(m)
    comp = np.asarray(v.components, dtype=complex)
    if which == "(1,0)":
        return ComplexTangent(0.5 * (comp - 1j * (J @ comp)), "(1,0)")
    if which == "(0,1)":
        return ComplexTangent(0.5 * (comp + 1j * (J @ comp)), "(0,1)")
    raise ValueError(f"unknown projection type {which!r}")


def holomorphic_basis(m: int) -> np.ndarray:
    """Rows are the (1,0) coordinate directions d'_a = (d/dx_a - i d/dy_a)/2.

    Shape (m, 2m) complex; conjugate rows span the (0,1) directions.
    """
    B = np.zeros((m, 2 * m), dtype=complex)
    for a in range(m):
        B[a, 2 * a] = 0.5
        B[a, 2 * a + 1] = -0.5j
    return B


def contract_slots(A: np.ndarray, B: np.ndarray,
                   T: np.ndarray) -> np.ndarray:
    """out[..., a, b, x] = sum_ij A[a, i] B[b, j] T[..., i, j, x].

    Contracts both slots of a bilinear form at once; any leading axes
    (the grid, a derivative direction) are carried along.  This is one
    product of the constant matrix A (x) B with the (d^2, n) values.
    """
    T = np.asarray(T)
    *lead, di, dj, n = T.shape
    flat = T.reshape(*lead, di * dj, n)
    return (np.kron(A, B) @ flat).reshape(*lead, A.shape[0], B.shape[0], n)


def convergence_order(imm: ChartedImmersion, pts: np.ndarray,
                      d1: np.ndarray, h: float = 1e-3) -> float:
    """Measured convergence order of central-difference first
    derivatives against the analytic ones, d1 (G, 2m, n) at pts, as
    eval_jet(imm, pts).d1 gives them.

    Returns log2(err_h / err_{h/2}); for fixtures whose chart is affine
    in some coordinates both errors can hit round-off, in which case the
    pair of errors below 1e-12 is reported as order 2.
    """
    e1 = float(np.max(np.abs(fd_d1(imm, pts, h) - d1)))
    e2 = float(np.max(np.abs(fd_d1(imm, pts, h / 2) - d1)))
    if e1 < 1e-12 and e2 < 1e-12:
        return 2.0
    return float(np.log2(e1 / e2))
