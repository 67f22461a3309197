"""Canonical elements of unitary and orthogonal Lie algebras, their
ad-eigenspace gradings, the C1/C2 conditions, Cartan splits,
superhorizontal spaces, and the splitting algorithm for a pair of
orthogonal complex structures.

The complexified algebras are represented concretely: gl(n, C) for the
unitary case and complex skew-symmetric matrices for the orthogonal
case, with Hilbert-Schmidt orthonormal bases per grading level.

A canonical element xi lies in the compact form u(n) or o(n), whose
conjugation sigma(X) = -X^H commutes with ad xi, so it maps g_k onto
g_-k and is an automorphism of the bracket (Helgason, Differential
Geometry, Lie Groups, and Symmetric Spaces, 1978).  grade
orthonormalises each positive level by SVD and sets g_-k to sigma of
that basis, exactly; g_0 gets a basis of sigma-fixed elements from one
real SVD (_sigma_fixed_basis).

Every commutator of two basis stacks comes from two matrix products,
and of a stack with itself from one (_commutators).  Each grading has
one table (Grading.bracket_table) with an entry per pair of its levels:
the escapes off the target level and, for the pairs with a level +-1,
coordinates in its basis.  A sigma-symmetric grading brackets each
orbit {(j, k), (-k, -j)} once and reads the other pair off it; any
other grading brackets every pair.  Each bracket is projected once
onto its target; its Cartan escape takes that remainder on through the
other levels of the target's parity stack.  The grading and Cartan
residuals fold its escapes; the C2 closure grows level by level in its
coordinates, with no n x n bracket inside a round and no SVD of a
remainder too small to add a direction.
"""

import functools
import itertools
from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, List, Mapping, NamedTuple, Optional, Tuple

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

    @property
    def algebra_dim(self) -> int:
        return self.n * self.n if self.tag == UNITARY \
            else self.n * (self.n - 1) // 2


def _check_orthonormal(frames, n):
    stack = np.concatenate([f for f in frames if f.shape[0]], axis=0)
    gram = stack @ stack.conj().T
    # not (dev <= tol): a NaN frame fails too
    if stack.shape[0] > n or \
            not np.max(np.abs(gram - np.eye(stack.shape[0]))) <= _ORTHO_TOL:
        raise ValueError("frames are not jointly orthonormal")
    return stack


def _xi(levels, frames, n) -> np.ndarray:
    """xi = i sum_j lambda_j E_j, E_j the projector onto frames[j]."""
    xi = np.zeros((n, n), dtype=complex)
    for lv, fr in zip(levels, frames):
        xi += 1j * lv * (fr.T @ fr.conj())
    return xi


def canonical_unitary(dims, lambda0: float = 0.0,
                      frames=None) -> CanonicalElement:
    """xi = i (lambda0 I + sum_j j E_j) for an orthogonal decomposition
    C^n = E_1 + ... + E_k with the given dimensions."""
    if not np.isfinite(lambda0):
        raise ValueError(f"lambda0 must be finite, got {lambda0}")
    dims = [int(d) for d in dims]
    if not dims or any(d <= 0 for d in dims):
        raise ValueError(f"need one or more positive dims, got {dims}")
    n = sum(dims)
    if frames is None:
        frames = np.split(np.eye(n, dtype=complex), np.cumsum(dims)[:-1])
    frames = [np.asarray(f, dtype=complex) for f in frames]
    if [f.shape[0] for f in frames] != dims:
        raise ValueError("frame sizes do not match dims")
    for f in frames:
        if f.ndim != 2 or f.shape[1] != n:
            raise ValueError(f"frame rows have width {f.shape[-1]}, "
                             f"expected n = sum(dims) = {n}")
    _check_orthonormal(frames, n)
    levels = tuple(float(lambda0 + j) for j in range(1, len(dims) + 1))
    return CanonicalElement(tag=UNITARY, n=n, xi=_xi(levels, frames, n),
                            levels=levels, frames=tuple(frames))


def canonical_orthogonal(pos_frames: Dict[float, np.ndarray], n: int,
                         real_frame: Optional[np.ndarray] = None
                         ) -> CanonicalElement:
    """xi = i sum_j j E_j with E_{-j} = conj(E_j) and a real E_0.

    pos_frames maps a positive level j (integer or half-integer) to an
    orthonormal row stack of isotropic vectors; xi comes out real skew.
    """
    levels, frames = [], []
    for j in sorted(pos_frames):
        if not 0 < j < np.inf:
            raise ValueError("pos_frames keys must be positive and finite")
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
    xi = _xi(levels, frames, n)
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
    k = np.array(list(pairs), dtype=int)
    if n < 1 or np.any((k < 0) | (k >= n // 2)):
        raise ValueError(f"need n >= 1 and pair indices in [0, n // 2), "
                         f"got n={n}, pairs {k.tolist()}")
    rows = np.zeros((k.size, n), dtype=complex)
    rows[np.arange(k.size), 2 * k] = 1 / np.sqrt(2)
    rows[np.arange(k.size), 2 * k + 1] = -1j / np.sqrt(2)
    return rows


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


class Bracket(NamedTuple):
    """[g_j, g_k] for levels j <= k, one entry of Grading.bracket_table.
    coords is kept only where j or k is the level +-1, the pairs that
    generation_check reads, and is None elsewhere."""
    # [a_j, b_k] in g_{j+k}'s basis, (d_j, d_k, d_j+k), or None
    coords: Optional[np.ndarray]
    escape: float         # largest entry of a basis bracket off g_{j+k}
    cartan_escape: float  # off its Cartan target: k for j = k mod 2, else p


@dataclass(frozen=True)
class Grading:
    """The graded pieces of one element.  bracket_table is cached from
    the spaces, so the grading is frozen, and grade makes the spaces
    and their mapping read-only."""

    elem: CanonicalElement
    spaces: Mapping[float, np.ndarray]  # gap -> HS-orthonormal (d, n, n)
    c1_pass: bool
    c1_deviation: float               # max distance of a gap to Z
    a3_residual: float

    def dims(self) -> Dict[float, int]:
        return {k: v.shape[0] for k, v in sorted(self.spaces.items())}

    def space(self, k: float) -> np.ndarray:
        for key, v in self.spaces.items():
            if abs(key - k) < _EIG_TOL:
                return v
        return np.zeros((0,) + self.elem.xi.shape, dtype=complex)

    @functools.cached_property
    def bracket_table(self) -> Dict[Tuple[float, float], Bracket]:
        """(j, k) -> Bracket for each pair of levels j <= k; coords has
        width 0 when j + k is not a level, and is None unless j or k is
        +-1.  Within one level only a < b is bracketed and the rest
        filled antisymmetrically.  Built once, on first read.

        A sigma-symmetric grading (_sigma_symmetric: g_-k = sigma(g_k)
        bit for bit and g_0 sigma-fixed, as grade builds them) has
        [sigma b, sigma a] = -sigma [a, b], and sigma keeps HS norms and
        conjugates HS inner products.  So each orbit {(j, k), (-k, -j)} is
        bracketed once, at j + k >= 0, by one _commutators call, and the
        pair (-k, -j) reads the same escapes and the coordinates
        -conj(coords) with a and b swapped.  Any other grading, such as a
        relabelled or tampered one, brackets every pair.

        Each bracket block C is projected once, onto its target T =
        g_{j+k}: S = C T^H are the coordinates and R = C - S T the
        escape.  Where T lies in the pair's Cartan stack K, the rest of
        K (its other levels) finishes the Cartan residual from R, since
        C K^H K = C T^H T + C K_rest^H K_rest row by row; elsewhere (no
        target, or a relabelled or half-integer grading that puts T in
        the other stack) it is C - (C K^H) K."""
        n = self.elem.n
        flat = {k: v.reshape(-1, n * n) for k, v in self.spaces.items()}
        flat_h = {k: f.conj().T for k, f in flat.items()}
        parity = {k: round(k) % 2 for k in flat}
        rest = {}  # level -> the other levels of its Cartan stack, and ^H
        for t in flat:
            K = np.concatenate(
                [np.zeros((0, n * n), dtype=complex)]
                + [f for k, f in flat.items()
                   if k != t and parity[k] == parity[t]])
            rest[t] = (K, K.conj().T)
        cartan = [c.reshape(-1, n * n) for c in _cartan_parts(self)]
        symmetric = _sigma_symmetric(self.spaces)
        table = {}
        for j, k in itertools.combinations_with_replacement(sorted(flat), 2):
            if symmetric and j + k < 0:
                continue  # read off below from (-k, -j)
            C = _commutators(self.spaces[j], self.spaces[k])
            p, q = C.shape[:2]
            if j == k:  # [b, a] = -[a, b] and [a, a] = 0
                upper = np.triu_indices(p, 1)
                C = C[upper]
            C = C.reshape(-1, n * n)
            t = next((key for key in flat if abs(key - (j + k)) < _EIG_TOL),
                     None)
            if t is None:
                S, R = np.zeros((C.shape[0], 0), dtype=complex), C
            else:
                S = C @ flat_h[t]
                R = C - S @ flat[t]
            pair = (parity[j] + parity[k]) % 2
            if t is not None and parity[t] == pair:
                K, Kh = rest[t]
                off = R - (C @ Kh) @ K if K.shape[0] else R
            else:
                K = cartan[pair]
                off = C - (C @ K.conj().T) @ K
            # np.max, not max(): a NaN must reach the caller
            escapes = [float(np.max(np.abs(X), initial=0.0)) for X in (R, off)]
            coords = None
            if min(abs(abs(j) - 1.0), abs(abs(k) - 1.0)) < _EIG_TOL:
                if j == k:
                    S, rows = np.zeros((p, p, S.shape[1]), dtype=complex), S
                    S[upper], S[upper[::-1]] = rows, -rows
                coords = S.reshape(p, q, S.shape[-1])
            table[j, k] = Bracket(coords, *escapes)
        if symmetric:
            for (j, k), b in list(table.items()):
                if j + k > 0:  # 0.0 - x: no level is keyed -0.0
                    table[0.0 - k, 0.0 - j] = b._replace(
                        coords=None if b.coords is None
                        else -b.coords.conj().transpose(1, 0, 2))
        return table


def grade(elem: CanonicalElement) -> Grading:
    """Eigenspaces of (1/i) ad(xi) on the complexified algebra, built
    from the eigenflag: Hom(E_j, E_k) sits at gap lambda_k - lambda_j
    (skew-symmetrized in the orthogonal case).

    sigma maps Hom(E_j, E_k) onto Hom(E_k, E_j), so only the gaps above
    -_EIG_TOL are built.  Each positive gap k is orthonormalised by SVD
    and g_-k is sigma of that basis; the gaps within _EIG_TOL of 0 make
    g_0, whose basis is sigma-fixed (_sigma_fixed_basis).  A gap that
    is not a number has no partner and is orthonormalised alone."""
    n = elem.n
    xi = elem.xi
    buckets: Dict[float, List[np.ndarray]] = {}
    for lk, fk in zip(elem.levels, elem.frames):
        for lj, fj in zip(elem.levels, elem.frames):
            gap = lk - lj
            if gap <= -_EIG_TOL:
                continue
            # every outer product u w^H, u in E_k, w in E_j, as one stack
            L = (fk[:, None, :, None] * fj.conj()[None, :, None, :]
                 ).reshape(-1, n, n)
            if elem.tag != UNITARY:
                L = L - L.transpose(0, 2, 1)
                L = L[np.max(np.abs(L), axis=(1, 2)) >= 1e-14]
            if L.shape[0] == 0:
                continue
            key = 0.0 if abs(gap) < _EIG_TOL else next(
                (k for k in buckets if abs(k - gap) < _EIG_TOL), gap)
            buckets.setdefault(key, []).append(L)

    a3, spaces = [0.0], {}
    for k, mats in buckets.items():
        mats = np.concatenate(mats, axis=0)
        stack = _sigma_fixed_basis(mats, elem.tag) if k == 0.0 \
            else _orthonormalize_stack(mats)
        if stack.shape[0] == 0:
            continue
        spaces[k] = stack
        if k > 0:
            spaces[-k] = _sigma(stack)
    for k, stack in spaces.items():
        ad = xi @ stack - stack @ xi
        a3.append(np.max(np.abs(ad - 1j * k * stack)))
        stack.setflags(write=False)

    total = sum(v.shape[0] for v in spaces.values())
    if total != elem.algebra_dim:
        raise ValueError(f"grading dims sum to {total}, expected "
                         f"{elem.algebra_dim}")
    # np.max, not max(): a NaN must reach the caller
    gaps = np.array(list(spaces))
    c1_dev = float(np.max(np.abs(gaps - np.round(gaps)), initial=0.0))
    c1 = c1_dev <= 1e-9
    spaces = {float(round(k)) if c1 else k: spaces[k] for k in sorted(spaces)}
    return Grading(elem=elem, spaces=MappingProxyType(spaces), c1_pass=c1,
                   c1_deviation=c1_dev, a3_residual=float(np.max(a3)))


def _sigma(stack: np.ndarray) -> np.ndarray:
    """sigma(X) = -X^H on each matrix of a stack (K, n, n): the
    conjugation of the compact form u(n), or o(n), where it conjugates
    a skew matrix entrywise.  It commutes with ad xi, so it maps g_k onto
    g_-k, and [sigma a, sigma b] = sigma [a, b].  It only negates and
    moves entries, so it is exact."""
    return np.ascontiguousarray(-stack.conj().transpose(0, 2, 1))


def _sigma_symmetric(spaces: Mapping[float, np.ndarray]) -> bool:
    """Whether every level's partner space is exactly sigma of it, g_0
    (its own partner) included, as grade builds them."""
    return all(-k in spaces for k in spaces) and all(
        np.array_equal(spaces[-k], _sigma(v))
        for k, v in spaces.items() if k >= 0)


def _sigma_fixed_basis(mats: np.ndarray, tag: str) -> np.ndarray:
    """HS-orthonormal basis of the span of a stack (K, n, n) that sigma
    maps onto itself up to sign, as the gap-0 outer products of grade,
    whose elements are exactly sigma-fixed.

    The sigma-fixed parts of W = (1 + i) X are P(X) = (W + sigma W)/2
    and Q(X) = (W - sigma W)/2i = P(sigma X), so over such a stack the
    real span of the P alone is the span's sigma-fixed form, and a real
    orthonormal basis of that spans the whole over C.  P is
    skew-Hermitian, and one real SVD of the P in coordinates that keep
    the HS norm gives the basis.  In u(n) these are, per upper entry z,
    x = Re z + Im z and y = Im z - Re z, and the diagonal's imaginary
    parts; with X's upper entries a, its lower entries b (transposed)
    and its diagonal d they are, up to a common factor 2, Re a + Im b,
    Im a + Re b and Re d + Im d.  In o(n) P is real skew, with the upper
    entries Re a - Im a.  A matrix unit of u(n) has a coordinate axis as
    its P, so on standard frames the basis has the entries (+-1 +-i)/2
    and i, whose products, and so brackets and HS inner products, are
    exact."""
    n = mats.shape[-1]
    i, j = np.triu_indices(n, 1)
    a, b = mats[:, i, j], mats[:, j, i]
    if tag == UNITARY:
        d = np.diagonal(mats, axis1=1, axis2=2)
        vh = _orthonormalize_stack(np.concatenate(
            [a.real + b.imag, a.imag + b.real, d.real + d.imag], axis=1))
        x, y = vh[:, :i.size], vh[:, i.size:2 * i.size]
        z, diagonal = ((x - y) + 1j * (x + y)) / 2, 1j * vh[:, 2 * i.size:]
    else:
        vh = _orthonormalize_stack(a.real - a.imag)
        # an upper entry counts twice in the HS norm
        z, diagonal = vh / np.sqrt(2.0), 0.0
    basis = np.zeros((vh.shape[0], n, n), dtype=complex)
    basis[:, i, j], basis[:, j, i] = z, -z.conj()
    basis[:, range(n), range(n)] = diagonal
    return basis


def _commutators(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Every commutator [a, b], a in the stack A (p, n, n) and b in B
    (q, n, n), as a (p, q, n, n) array.

    The p q products a b are one (p n, n) @ (n, q n) product of A's
    stacked rows against B's side-by-side columns, and the products b a
    one more the other way round.  A stack with itself (B is A) takes
    the one product P, as [a_i, a_j] = P[i, j] - P[j, i].
    """
    p, n, _ = A.shape
    q = B.shape[0]
    AB = (A.reshape(p * n, n) @ B.transpose(1, 0, 2).reshape(n, q * n)
          ).reshape(p, n, q, n).transpose(0, 2, 1, 3)
    if B is A:
        return AB - AB.transpose(1, 0, 2, 3)
    BA = B.reshape(q * n, n) @ A.transpose(1, 0, 2).reshape(n, p * n)
    return AB - BA.reshape(q, n, p, n).transpose(2, 0, 1, 3)


def bracket_grading_residual(grading: Grading) -> float:
    """sup over basis pairs of the component of [g_j, g_k] outside
    g_{j+k} (zero space when j+k is not a grading level), folded from
    the grading's bracket table."""
    return float(np.max([b.escape for b in grading.bracket_table.values()],
                        initial=0.0))


@dataclass(frozen=True)
class C2Report:
    closure_dim: int
    center_dim: int
    algebra_dim: int
    passed: bool


def generation_check(grading: Grading) -> C2Report:
    """Bracket closure of g_1 + g_{-1}, built level by level in the
    coordinates of the grading's bracket table.

    The closure of homogeneous generators is graded, W = sum_k W_k, and
    each W_k is kept as orthonormal coordinate rows in g_k's basis.  A
    round contracts the rows N added at level k with the level-k axis of
    the table entry of (k, +-1): [N, g_{+-1}] in g_{k+-1}'s coordinates,
    up to a sign that does not change the span.  These are projected
    off W_{k+-1} twice (orthonormal to round-off), and the singular
    directions of the remainder above _RANK_TOL times the round's
    largest coordinate-row norm are kept (none, with no SVD, where its
    Frobenius norm is within that cut); a cut relative to the
    remainder would count a saturated closure's round-off as new.
    Brackets at different levels are HS-orthogonal, so the per-level
    singular values together are the round's.  It stops when a round
    adds nothing, its scale is 0 or NaN, or W fills the algebra; W is
    then the generated subalgebra, spanned by right-normed brackets
    (Reutenauer, Free Lie Algebras, 1993, ch. 0), and if N_k spans what
    brackets of length k add, W_{k+1} = W_k + [N_k, g_1 + g_{-1}].

    The coordinates drop a bracket's part off g_{k+-1} (all of it when
    k+-1 is not a level), which vanishes on an ad-grading and is what
    bracket_grading_residual measures; a coordinate-row norm differs from
    the n x n bracket norm by it alone.  The spaces must span the algebra
    (ValueError otherwise): with a partial grading a whole round can be
    round-off, which the relative cut would keep.  Over 1140 full gradings
    (every unitary profile with n <= 8 and lambda0 in {0, 1/2}; orthogonal
    n <= 11, 1 <= r <= n/2, integer and half-integer levels; standard and
    random frames) no round's largest coordinate-row norm was below 0.69.

    Commutators are traceless, so a unitary closure reaches at most
    sl(n), and the center I/sqrt(n) is HS-orthogonal to it: C2 passes
    when the closure plus the center's one dimension fills the
    complexified algebra.
    """
    elem = grading.elem
    spanned = sum(v.shape[0] for v in grading.spaces.values())
    if spanned != elem.algebra_dim:
        raise ValueError(f"grading spaces span {spanned} dimensions, "
                         f"expected algebra_dim = {elem.algebra_dim}")
    # the closure steps by +-1 from +-1, so only integer levels matter
    level = {round(k): k for k in grading.spaces
             if abs(k - round(k)) < _EIG_TOL}
    W = {k: np.eye(grading.spaces[level[k]].shape[0], dtype=complex)
         for k in (1, -1) if k in level}
    new = dict(W)
    while new and sum(w.shape[0] for w in W.values()) < elem.algebra_dim:
        coords: Dict[int, List[np.ndarray]] = {}
        scale = 0.0
        for (k, N), step in itertools.product(new.items(), (1, -1)):
            if step in level and k + step in level:
                S = grading.bracket_table[tuple(sorted(
                    (level[k], level[step])))].coords
                C = np.tensordot(N, S, (1, int(k > step)))
                C = C.reshape(-1, S.shape[2])
                scale = np.maximum(scale, np.max(np.linalg.norm(C, axis=1)))
                coords.setdefault(k + step, []).append(C)
        if not scale > 0.0:
            break
        new = {}
        for k, blocks in coords.items():
            C = np.concatenate(blocks, axis=0)
            Wk = W.get(k, np.zeros((0, C.shape[1]), dtype=complex))
            for _ in range(2):
                C = C - (C @ Wk.conj().T) @ Wk
            # every singular value is at most |C|_F; <=, so a NaN goes on
            if np.linalg.norm(C) <= _RANK_TOL * scale:
                continue
            _, s, vh = np.linalg.svd(C, full_matrices=False)
            vh = vh[:int(np.sum(s > _RANK_TOL * scale))]
            if vh.shape[0]:
                W[k] = np.concatenate([Wk, vh])
                new[k] = vh
    closure_dim = sum(w.shape[0] for w in W.values())
    center_dim = int(elem.tag == UNITARY)
    return C2Report(closure_dim=closure_dim, center_dim=center_dim,
                    algebra_dim=elem.algebra_dim,
                    passed=(closure_dim + center_dim == elem.algebra_dim))


def _stack(grading: Grading, keep) -> np.ndarray:
    """The spaces of the levels k with keep(k), in one stack."""
    empty = np.zeros((0,) + grading.elem.xi.shape, dtype=complex)
    return np.concatenate(
        [empty] + [v for k, v in grading.spaces.items() if keep(k)])


def _cartan_parts(grading: Grading):
    """(k, p): the spaces of the levels with round(k) even, and odd."""
    return tuple(_stack(grading, lambda k: round(k) % 2 == p) for p in (0, 1))


def cartan_split(grading: Grading):
    """(k-part, p-part, residuals of the Cartan relations).  Levels j, k
    fall under relation round(j) % 2 + round(k) % 2, whose residual
    folds their Cartan escapes in the bracket table."""
    names = ("[k,k] in k", "[k,p] in p", "[p,p] in k")
    escapes = [[0.0], [0.0], [0.0]]
    for (j, k), b in grading.bracket_table.items():
        escapes[round(j) % 2 + round(k) % 2].append(b.cartan_escape)
    return (*_cartan_parts(grading),
            {name: float(np.max(e)) for name, e in zip(names, escapes)})


def superhorizontal_space(grading: Grading):
    """g_1 (superhorizontal (1,0)-space), the full odd/horizontal part,
    and the positive part T'."""
    return {"g1": grading.space(1.0),
            "horizontal": _cartan_parts(grading)[1],
            "t_prime": _stack(grading, lambda k: k > _EIG_TOL)}


def corollary_even_space(elem: CanonicalElement):
    """Appendix-corollary checks on E_even.

    Integer spectrum (case a): E_even must be conjugation-invariant.
    Half-integer spectrum on even n (case b): E_even must be a maximal
    isotropic subspace.  Returns a dict with the case tag, dims and the
    relevant residual.
    """
    lv = np.array(elem.levels)
    integer = np.max(np.abs(lv - np.round(lv))) < 1e-9
    half = not integer and np.max(np.abs(2 * lv - np.round(2 * lv))) < 1e-9
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


def _validate_complex_structure(M, name="J"):
    d = M.shape[0]
    if not np.max(np.abs(M @ M + np.eye(d))) <= _ORTHO_TOL:  # NaN fails too
        raise ValueError(f"{name}^2 != -I")
    if not np.max(np.abs(M.T @ M - np.eye(d))) <= _ORTHO_TOL:
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

    ev, V = np.linalg.eigh(A @ A)  # eigenvalues in [-1, 0], ascending
    # clusters split where neighbours are not within _MERGE_GAP; not
    # (gap < _MERGE_GAP), so a NaN gap splits rather than merges
    gaps = ~(np.diff(ev) < _MERGE_GAP)
    blocks = []
    for cols in np.split(np.arange(d), np.flatnonzero(gaps) + 1):
        B = V[:, cols]  # (d, k) orthonormal
        s2 = float(np.clip(-np.mean(ev[cols]), 0.0, 1.0))
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
                       identity_residuals=ident)
