"""Canonical elements of unitary and orthogonal Lie algebras, their
ad-eigenspace gradings, the C1/C2 conditions, Cartan splits,
superhorizontal spaces, and the splitting algorithm for a pair of
orthogonal complex structures.

The complexified algebras are represented concretely: gl(n, C) for the
unitary case and complex skew-symmetric matrices for the orthogonal
case, with Hilbert-Schmidt orthonormal bases per grading level.

The bracket checks run as batched products: every commutator of two
basis stacks comes from two matrix products (_commutators), for the
grading and Cartan residuals (_bracket_escape) and for the C2 closure.
The closure is graded: it grows level by level, bracketing only the
directions each round adds at level k against g_1 and g_{-1}, and
keeps its part at level k in the coordinates of g_k's basis.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

UNITARY = "unitary"
ORTHOGONAL = "orthogonal"

_EIG_TOL = 1e-8     # eigenvalue clustering
_RANK_TOL = 1e-9    # singular-value rank threshold
_ORTHO_TOL = 1e-10  # orthonormality of frames and complex structures
_MERGE_GAP = 1e-7   # eigenvalue gap merging A^2 clusters in a split


# ------------------------------------------------------ canonical elements

@dataclass(frozen=True)
class CanonicalElement:
    tag: str
    n: int
    xi: np.ndarray                 # (n, n) complex; -i xi is Hermitian
    levels: Tuple[float, ...]      # eigenvalues of -i xi, ascending
    frames: Tuple[np.ndarray, ...]  # orthonormal row stacks per level
    lambda0: float = 0.0

    @property
    def algebra_dim(self) -> int:
        return self.n * self.n if self.tag == UNITARY \
            else self.n * (self.n - 1) // 2


def _check_orthonormal(frames, n):
    stack = np.concatenate([f for f in frames if f.shape[0]], axis=0)
    gram = stack @ stack.conj().T
    if stack.shape[0] > n or \
            np.max(np.abs(gram - np.eye(stack.shape[0]))) > _ORTHO_TOL:
        raise ValueError("frames are not jointly orthonormal")
    return stack


def canonical_unitary(dims, lambda0: float = 0.0,
                      frames=None) -> CanonicalElement:
    """xi = i (lambda0 I + sum_j j E_j) for an orthogonal decomposition
    C^n = E_1 + ... + E_k with the given dimensions."""
    dims = [int(d) for d in dims]
    if any(d <= 0 for d in dims):
        raise ValueError("subspace dimensions must be positive")
    n = sum(dims)
    if frames is None:
        eye = np.eye(n, dtype=complex)
        frames, pos = [], 0
        for d_ in dims:
            frames.append(eye[pos:pos + d_])
            pos += d_
    frames = [np.asarray(f, dtype=complex) for f in frames]
    if [f.shape[0] for f in frames] != dims:
        raise ValueError("frame sizes do not match dims")
    for f in frames:
        if f.ndim != 2 or f.shape[1] != n:
            raise ValueError(f"frame rows have width {f.shape[-1]}, "
                             f"expected n = sum(dims) = {n}")
    _check_orthonormal(frames, n)
    xi = np.zeros((n, n), dtype=complex)
    for j, fr in enumerate(frames, start=1):
        xi += 1j * (lambda0 + j) * (fr.T @ fr.conj())
    levels = tuple(float(lambda0 + j) for j in range(1, len(dims) + 1))
    return CanonicalElement(tag=UNITARY, n=n, xi=xi, levels=levels,
                            frames=tuple(frames), lambda0=float(lambda0))


def canonical_orthogonal(pos_frames: Dict[float, np.ndarray], n: int,
                         real_frame: Optional[np.ndarray] = None
                         ) -> CanonicalElement:
    """xi = i sum_j j E_j with E_{-j} = conj(E_j) and a real E_0.

    pos_frames maps a positive level j (integer or half-integer) to an
    orthonormal row stack of isotropic vectors; xi comes out real skew.
    """
    levels, frames = [], []
    for j in sorted(pos_frames):
        if j <= 0:
            raise ValueError("pos_frames keys must be positive")
        fr = np.asarray(pos_frames[j], dtype=complex)
        levels += [float(j), -float(j)]
        frames += [fr, fr.conj()]
    if real_frame is not None and np.size(real_frame):
        fr0 = np.asarray(real_frame, dtype=complex)
        if np.max(np.abs(fr0.imag)) > 1e-12:
            raise ValueError("E_0 frame must be real")
        levels.append(0.0)
        frames.append(fr0)
    order = np.argsort(levels)
    levels = [levels[i] for i in order]
    frames = [frames[i] for i in order]
    stack = _check_orthonormal(frames, n)
    if stack.shape[0] != n:
        raise ValueError(f"frames span dim {stack.shape[0]} != n = {n}")
    xi = np.zeros((n, n), dtype=complex)
    for lv, fr in zip(levels, frames):
        xi += 1j * lv * (fr.T @ fr.conj())
    if np.max(np.abs(xi.imag)) > 1e-12:
        raise ValueError("xi is not real; check E_{-j} = conj(E_j) and "
                         "the isotropy of the positive frames")
    if np.max(np.abs(xi + xi.T)) > 1e-12:
        raise ValueError("xi is not skew")
    xi = xi.real.astype(complex)
    return CanonicalElement(tag=ORTHOGONAL, n=n, xi=xi,
                            levels=tuple(levels), frames=tuple(frames))


def standard_isotropic_frame(n: int, pairs) -> np.ndarray:
    """Rows (e_{2k-1} - i e_{2k}) / sqrt(2) for the requested pair
    indices (0-based pair index k uses coordinates 2k, 2k+1)."""
    rows = []
    for k in pairs:
        b = np.zeros(n, dtype=complex)
        b[2 * k] = 1 / np.sqrt(2)
        b[2 * k + 1] = -1j / np.sqrt(2)
        rows.append(b)
    return np.array(rows) if rows else np.zeros((0, n), dtype=complex)


# ---------------------------------------------------------------- grading

def _orthonormalize_stack(mats: np.ndarray):
    """HS-orthonormal basis of the span of a stack (K, n, n), or of the
    rows of a (K, d) coordinate block."""
    K = mats.shape[0]
    if K == 0:
        return mats
    flat = mats.reshape(K, -1)
    _, s, vh = np.linalg.svd(flat, full_matrices=False)
    r = int(np.sum(s > _RANK_TOL * s[0])) if s.size and s[0] > 0 else 0
    return vh[:r].reshape((r,) + mats.shape[1:])


@dataclass
class Grading:
    elem: CanonicalElement
    spaces: Dict[float, np.ndarray]   # gap -> HS-orthonormal (d, n, n)
    c1_pass: bool
    c1_deviation: float               # max distance of a gap to Z
    a3_residual: float

    @property
    def height(self) -> float:
        return max(abs(k) for k in self.spaces)

    def dims(self) -> Dict[float, int]:
        return {k: v.shape[0] for k, v in sorted(self.spaces.items())}

    def space(self, k: float) -> np.ndarray:
        for key, v in self.spaces.items():
            if abs(key - k) < _EIG_TOL:
                return v
        n = self.elem.n
        return np.zeros((0, n, n), dtype=complex)


def grade(elem: CanonicalElement) -> Grading:
    """Eigenspaces of (1/i) ad(xi) on the complexified algebra, built
    from the eigenflag: Hom(E_j, E_k) sits at gap lambda_k - lambda_j
    (skew-symmetrized in the orthogonal case)."""
    n = elem.n
    xi = elem.xi
    buckets: Dict[float, List[np.ndarray]] = {}
    for lk, fk in zip(elem.levels, elem.frames):
        for lj, fj in zip(elem.levels, elem.frames):
            gap = lk - lj
            # every outer product u w^H, u in E_k, w in E_j, as one stack
            L = (fk[:, None, :, None] * fj.conj()[None, :, None, :]
                 ).reshape(-1, n, n)
            if elem.tag != UNITARY:
                L = L - L.transpose(0, 2, 1)
                L = L[np.max(np.abs(L), axis=(1, 2)) >= 1e-14]
            if L.shape[0] == 0:
                continue
            key = next((k for k in buckets if abs(k - gap) < _EIG_TOL),
                       gap)
            buckets.setdefault(key, []).append(L)

    a3 = 0.0
    spaces = {}
    for k, mats in buckets.items():
        stack = _orthonormalize_stack(np.concatenate(mats, axis=0))
        if stack.shape[0] == 0:
            continue
        ad = xi @ stack - stack @ xi
        a3 = max(a3, float(np.max(np.abs(ad - 1j * k * stack))))
        spaces[k] = stack

    total = sum(v.shape[0] for v in spaces.values())
    if total != elem.algebra_dim:
        raise ValueError(f"grading dims sum to {total}, expected "
                         f"{elem.algebra_dim}")
    c1_dev = max((abs(k - round(k)) for k in spaces), default=0.0)
    c1 = c1_dev <= 1e-9
    if c1:
        spaces = {float(round(k)): v for k, v in spaces.items()}
    return Grading(elem=elem, spaces=spaces, c1_pass=c1,
                   c1_deviation=float(c1_dev), a3_residual=float(a3))


def _commutators(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Every commutator [a, b], a in the stack A (p, n, n) and b in B
    (q, n, n), as a (p, q, n, n) array.

    The p q products a b are one (p n, n) @ (n, q n) product of A's
    stacked rows against B's side-by-side columns, and the products b a
    one more the other way round.
    """
    p, n, _ = A.shape
    q = B.shape[0]
    AB = A.reshape(p * n, n) @ B.transpose(1, 0, 2).reshape(n, q * n)
    BA = B.reshape(q * n, n) @ A.transpose(1, 0, 2).reshape(n, p * n)
    return (AB.reshape(p, n, q, n).transpose(0, 2, 1, 3)
            - BA.reshape(q, n, p, n).transpose(2, 0, 1, 3))


def _bracket_escape(A: np.ndarray, B: np.ndarray, T: np.ndarray) -> float:
    """Largest entry of the part of any commutator [a, b], a in the
    stack A (p, n, n) and b in B (q, n, n), outside the span of the
    HS-orthonormal stack T; 0.0 when A or B is empty.

    The projection onto T is one pair of matrix products on the
    flattened (p q, n^2) stack of commutators.  When B is A, only the
    pairs a < b are projected: [b, a] = -[a, b] and [a, a] = 0.
    """
    if A.shape[0] == 0 or B.shape[0] == 0:
        return 0.0
    n = A.shape[-1]
    C = _commutators(A, B)
    if B is A:
        C = C[np.triu_indices(A.shape[0], 1)]
        if C.shape[0] == 0:
            return 0.0
    C = C.reshape(-1, n * n)
    if T.shape[0]:
        Tf = T.reshape(-1, n * n)
        C = C - (C @ Tf.conj().T) @ Tf
    return float(np.max(np.abs(C)))


def bracket_grading_residual(grading: Grading) -> float:
    """sup over basis pairs of the component of [g_j, g_k] outside
    g_{j+k} (zero space when j+k is not a grading level).  Since
    [g_k, g_j] = -[g_j, g_k], each unordered pair of levels is
    bracketed once."""
    items = list(grading.spaces.items())
    return max((_bracket_escape(Sj, Sk, grading.space(j + k))
                for i, (j, Sj) in enumerate(items)
                for k, Sk in items[i:]), default=0.0)


@dataclass(frozen=True)
class C2Report:
    closure_dim: int
    center_dim: int
    algebra_dim: int
    passed: bool


def generation_check(grading: Grading) -> C2Report:
    """Bracket closure of g_1 + g_{-1}, built level by level.

    The generators are homogeneous, so the subalgebra they generate is
    graded: W = sum_k W_k with W_k in g_k.  W_k is kept as orthonormal
    coordinate rows in g_k's HS-orthonormal basis.  Each round brackets
    the directions the previous round added at level k against g_1 and
    g_{-1}, writes each bracket in the coordinates of g_{k+1} or
    g_{k-1}, projects those coordinates off that level's closure so far
    (twice, which keeps the basis orthonormal to round-off) and keeps
    the singular directions of the remainder above _RANK_TOL times the
    round's largest bracket norm, taken over the full n x n brackets of
    every level.  Brackets landing at different levels are
    HS-orthogonal, so the per-level singular values together are those
    of the whole round's remainder.  A cut relative to the remainder
    would count the round-off of a saturated closure as new directions.
    It stops when a round adds nothing or the closure fills the
    algebra.  The result is the whole generated subalgebra, the same
    span as re-bracketing the closure with itself until it stops
    growing: right-normed brackets [g_1, [g_2, [..., g_k]]] of the
    generators span it (Reutenauer, Free Lie Algebras, 1993, ch. 0),
    and if W_k is the span of those of length up to k and N_k spans
    what W_k adds to W_{k-1}, then W_{k+1} = W_k + [N_k, G].

    Two parts of a bracket are dropped: a bracket whose level k +- 1 is
    not a grading level, and the part of a bracket outside g_{k+-1}.
    Both vanish on an ad-grading, and both are exactly what
    bracket_grading_residual measures.

    The grading's spaces must span the algebra (ValueError otherwise):
    the closure needs the full g_1, g_{-1} and targets, and with a
    partial grading every bracket of a round can be round-off, which the
    round-relative cut would keep.  On full gradings no round's largest
    bracket norm was below 0.69 in a scan of every unitary eigenspace
    profile with n <= 8 and every orthogonal element with n <= 11 and
    isotropic rank r <= n/2, each with standard and with random frames.

    Commutators are traceless, so in the unitary case the closure can
    reach at most sl(n); C2 passes when closure plus the center of the
    algebra fills the whole complexified algebra.  The center I/sqrt(n)
    lies in g_0: its g_0 coordinates are appended to W_0 and the rank
    of the stack is taken.
    """
    elem = grading.elem
    n = elem.n
    spanned = sum(v.shape[0] for v in grading.spaces.values())
    if spanned != elem.algebra_dim:
        raise ValueError(f"grading spaces span {spanned} dimensions, "
                         f"expected algebra_dim = {elem.algebra_dim}")
    # the closure steps by +-1 from +-1, so only integer levels matter
    flat = {round(k): v.reshape(-1, n * n)
            for k, v in grading.spaces.items() if abs(k - round(k)) < _EIG_TOL}
    gens = {k: grading.space(float(k)) for k in (1, -1)
            if grading.space(float(k)).shape[0]}
    W = {k: np.eye(g.shape[0], dtype=complex) for k, g in gens.items()}
    new = dict(W)
    while new and sum(w.shape[0] for w in W.values()) < elem.algebra_dim:
        coords: Dict[int, List[np.ndarray]] = {}
        scale = 0.0
        for k, N in new.items():
            mats = (N @ flat[k]).reshape(-1, n, n)
            for step, G in gens.items():
                T = flat.get(k + step)
                if T is None:
                    continue
                C = _commutators(mats, G).reshape(-1, n * n)
                scale = max(scale, float(np.max(np.linalg.norm(C, axis=1))))
                coords.setdefault(k + step, []).append(C @ T.conj().T)
        if scale == 0.0:
            break
        new = {}
        for k, blocks in coords.items():
            C = np.concatenate(blocks, axis=0)
            Wk = W.get(k)
            if Wk is not None:
                for _ in range(2):
                    C = C - (C @ Wk.conj().T) @ Wk
            _, s, vh = np.linalg.svd(C, full_matrices=False)
            vh = vh[:int(np.sum(s > _RANK_TOL * scale))]
            if vh.shape[0]:
                W[k] = vh if Wk is None else np.concatenate([Wk, vh])
                new[k] = vh
    closure_dim = sum(w.shape[0] for w in W.values())
    full = closure_dim
    center_dim = 0
    if elem.tag == UNITARY:
        center_dim = 1
        g0 = flat[0]
        W0 = W.get(0, np.zeros((0, g0.shape[0]), dtype=complex))
        c = (np.eye(n, dtype=complex).reshape(1, n * n) / np.sqrt(n)
             ) @ g0.conj().T
        full += (_orthonormalize_stack(np.concatenate([W0, c])).shape[0]
                 - W0.shape[0])
    return C2Report(closure_dim=closure_dim, center_dim=center_dim,
                    algebra_dim=elem.algebra_dim,
                    passed=(full == elem.algebra_dim))


def cartan_split(grading: Grading):
    """(k-part, p-part, residuals of the Cartan relations)."""
    n = grading.elem.n
    evens = [v for k, v in grading.spaces.items() if round(k) % 2 == 0]
    odds = [v for k, v in grading.spaces.items() if round(k) % 2 == 1]
    kc = np.concatenate(evens, axis=0) if evens \
        else np.zeros((0, n, n), dtype=complex)
    pc = np.concatenate(odds, axis=0) if odds \
        else np.zeros((0, n, n), dtype=complex)
    res = {"[k,k] in k": _bracket_escape(kc, kc, kc),
           "[k,p] in p": _bracket_escape(kc, pc, pc),
           "[p,p] in k": _bracket_escape(pc, pc, kc)}
    return kc, pc, res


def superhorizontal_space(grading: Grading):
    """g_1 (superhorizontal (1,0)-space), the full odd/horizontal part,
    and the positive part T'."""
    n = grading.elem.n
    pos = [v for k, v in grading.spaces.items() if k > _EIG_TOL]
    odd = [v for k, v in grading.spaces.items() if round(k) % 2 == 1]
    return {
        "g1": grading.space(1.0),
        "horizontal": np.concatenate(odd, axis=0) if odd
        else np.zeros((0, n, n), dtype=complex),
        "t_prime": np.concatenate(pos, axis=0) if pos
        else np.zeros((0, n, n), dtype=complex),
    }


def corollary_even_space(elem: CanonicalElement):
    """Appendix-corollary checks on E_even.

    Integer spectrum (case a): E_even must be conjugation-invariant.
    Half-integer spectrum on even n (case b): E_even must be a maximal
    isotropic subspace.  Returns a dict with the case tag, dims and the
    relevant residual.
    """
    lv = np.array(elem.levels)
    integer = np.max(np.abs(lv - np.round(lv))) < 1e-9
    half = np.max(np.abs(lv - np.round(lv) )) > 1e-9 and \
        np.max(np.abs(2 * lv - np.round(2 * lv))) < 1e-9
    base = lv.min()
    cls = np.round(lv - base).astype(int) % 2
    rows = [fr for c, fr in zip(cls, elem.frames) if c == 0]
    E = np.concatenate(rows, axis=0)
    P = E.T @ E.conj()
    out = {"dims": E.shape[0], "n": elem.n}
    if integer:
        out["case"] = "a"
        out["conjugation_residual"] = float(np.max(np.abs(P - P.conj())))
    elif half:
        out["case"] = "b"
        out["isotropy_residual"] = float(np.max(np.abs(E @ E.T)))
        out["maximal"] = (2 * E.shape[0] == elem.n)
    else:
        out["case"] = "none"
    return out


def lift_grading_residual(bun) -> float:
    """Superhorizontality of the flag lift in orbit coordinates: the
    pointwise canonical element is xi(p) = i (P_tau' - P_tau''); its
    chart derivative must have no g_{+-2} components, i.e. no
    tau'<->tau'' blocks."""
    from .gaussmaps import outside_residual
    dxi = 1j * (bun.taup.dP - bun.taupp.dP)
    up = outside_residual(bun.taup.P, dxi, bun.taupp.P)
    down = outside_residual(bun.taupp.P, dxi, bun.taup.P)
    return max(up, down)


# ------------------------------------- two commuting complex structures

@dataclass
class StructureBlock:
    basis: np.ndarray       # (dim_block, d) orthonormal real rows
    kind: str               # "+J" | "-J" | "quaternionic"
    s: float                # |anticommuting part| on the block
    J1: Optional[np.ndarray] = None
    J2: Optional[np.ndarray] = None
    J3: Optional[np.ndarray] = None


@dataclass
class SplitResult:
    blocks: List[StructureBlock]
    reconstruction_error: float
    identity_residuals: Dict[str, float]
    warnings: List[str] = field(default_factory=list)


def _validate_complex_structure(M, name="J"):
    d = M.shape[0]
    if np.max(np.abs(M @ M + np.eye(d))) > _ORTHO_TOL:
        raise ValueError(f"{name}^2 != -I")
    if np.max(np.abs(M.T @ M - np.eye(d))) > _ORTHO_TOL:
        raise ValueError(f"{name} is not orthogonal")


def split_two_complex_structures(J: np.ndarray, Jt: np.ndarray
                                 ) -> SplitResult:
    """Decompose R^d into blocks on which a second orthogonal complex
    structure Jt either equals +-J or forms a quaternionic triple with
    J.

    Uses the J-commuting part L = (Jt - J Jt J)/2 and the
    J-anticommuting part A = (Jt + J Jt J)/2, which satisfy
    L^2 + A^2 = -I and LA + AL = 0; the blocks are eigenspaces of the
    symmetric operator A^2 = -s^2 (s = 0: Jt = +-J; s > 0:
    quaternionic with J2 = A/s).
    """
    J = np.asarray(J, float)
    Jt = np.asarray(Jt, float)
    d = J.shape[0]
    _validate_complex_structure(J, name="J")
    _validate_complex_structure(Jt, name="Jt")
    L = 0.5 * (Jt - J @ Jt @ J)
    A = 0.5 * (Jt + J @ Jt @ J)
    ident = {
        "L^2+A^2+I": float(np.max(np.abs(L @ L + A @ A + np.eye(d)))),
        "LA+AL": float(np.max(np.abs(L @ A + A @ L))),
    }

    ev, V = np.linalg.eigh(A @ A)  # eigenvalues in [-1, 0]
    warnings = []
    clusters = []  # list of (mean eigenvalue, column indices)
    for idx in range(d):
        if clusters and ev[idx] - clusters[-1][1][-1][1] < _MERGE_GAP:
            clusters[-1][1].append((idx, ev[idx]))
        else:
            clusters.append((ev[idx], [(idx, ev[idx])]))
    if any(abs(c[1][0][1] - c[1][-1][1]) > 10 * _MERGE_GAP
           for c in clusters):
        warnings.append("near-degenerate eigenvalue clusters merged")

    blocks = []
    for mean_ev, members in clusters:
        cols = [i for i, _ in members]
        B = V[:, cols]  # (d, k) orthonormal
        s2 = float(np.clip(-np.mean([e for _, e in members]), 0.0, 1.0))
        s = float(np.sqrt(s2))
        Jb = B.T @ J @ B
        Jtb = B.T @ Jt @ B
        if s < 1e-6:
            # commuting block: K = -J Jt is symmetric with eigenvalues
            # +-1 separating Jt = +J from Jt = -J
            K = -Jb @ Jtb
            evk, Vk = np.linalg.eigh(K)
            for sign, kind in ((1.0, "+J"), (-1.0, "-J")):
                sel = np.abs(evk - sign) < 0.5
                if not np.any(sel):
                    continue
                Bs = B @ Vk[:, sel]
                blocks.append(StructureBlock(basis=Bs.T, kind=kind, s=0.0))
        else:
            Ab = B.T @ A @ B
            J2 = Ab / s
            J3 = Jb @ J2
            blocks.append(StructureBlock(basis=B.T, kind="quaternionic",
                                         s=s, J1=Jb, J2=J2, J3=J3))

    recon = np.zeros((d, d))
    for b in blocks:
        P = b.basis.T @ b.basis
        recon += P @ Jt @ P
    err = float(np.max(np.abs(recon - Jt)))
    return SplitResult(blocks=blocks, reconstruction_error=err,
                       identity_residuals=ident, warnings=warnings)
