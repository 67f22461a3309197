"""The batched bracket algebra of flags against the per-pair loops it
replaced, kept here as references: the grading, the bracket-grading
residual, the Cartan relations and the C2 bracket closure, on the 25
flag elements of the benchmark's flag pass (two controls, 13 unitary
eigenspace profiles with seeded random frames, orthogonal n = 6..10
with r = 1 and r = n // 2)."""

import dataclasses
from typing import Dict, List

import numpy as np
import pytest

from plurimean import flags

TOL = 1e-12

UNITARY_DIMS = ((1, 2), (1, 1, 1), (2, 2), (1, 3), (2, 3), (1, 1, 1, 1, 1),
                (3, 3), (1, 2, 2, 1), (3, 4), (2, 2, 2, 1), (2, 3, 3),
                (4, 5), (3, 3, 3))
ORTHOGONAL_SHAPES = tuple((n, r) for n in range(6, 11) for r in (1, n // 2))
# (levels, dims): integer gaps of 2 with an empty g_1 (C1 holds, C2
# fails) and a gap of 1.5 (C1 fails)
CONTROLS = {"gap-2": ((0.0, 2.0), (2, 2)), "half-gap": ((0.0, 1.5), (2, 1))}

# closures that stop short of the algebra: o(2r) with levels +-1..+-r
# closes on a gl(r) of dimension r^2 - 1, the controls have no g_1
SATURATED = {"o6:r3": 8, "o8:r4": 15, "o10:r5": 24,
             "gap-2": 0, "half-gap": 0}


# ------------------------------------------------------------ references

def project_onto_ref(stack, M):
    if stack.shape[0] == 0:
        return np.zeros_like(M)
    coeff = np.einsum("dxy,xy->d", stack.conj(), M)
    return np.einsum("d,dxy->xy", coeff, stack)


def bracket_rel_ref(A_stack, B_stack, target):
    worst = 0.0
    for A in A_stack:
        for B in B_stack:
            C = A @ B - B @ A
            worst = max(worst, float(np.max(np.abs(
                C - project_onto_ref(target, C)))))
    return worst


def bracket_grading_residual_ref(grading):
    return max((bracket_rel_ref(Sj, Sk, grading.space(j + k))
                for j, Sj in grading.spaces.items()
                for k, Sk in grading.spaces.items()), default=0.0)


def cartan_relations_ref(kc, pc):
    return {"[k,k] in k": bracket_rel_ref(kc, kc, kc),
            "[k,p] in p": bracket_rel_ref(kc, pc, pc),
            "[p,p] in k": bracket_rel_ref(pc, pc, kc)}


def generation_check_ref(grading):
    """(closure dim, C2 verdict) from re-bracketing the whole closure
    with itself until its dimension stops growing."""
    elem = grading.elem
    n = elem.n
    parts = [grading.space(1.0), grading.space(-1.0)]
    V = np.concatenate([p for p in parts if p.shape[0]], axis=0) \
        if any(p.shape[0] for p in parts) \
        else np.zeros((0, n, n), dtype=complex)
    V = flags._orthonormalize_stack(V)
    dim = V.shape[0]
    for _ in range(elem.algebra_dim ** 2):
        if dim == 0:
            break
        brackets = (np.einsum("axy,byz->abxz", V, V)
                    - np.einsum("bxy,ayz->abxz", V, V)
                    ).reshape(-1, n, n)
        V = flags._orthonormalize_stack(
            np.concatenate([V, brackets], axis=0))
        if V.shape[0] == dim:
            break
        dim = V.shape[0]
    center = [np.eye(n, dtype=complex) / np.sqrt(n)] \
        if elem.tag == flags.UNITARY else []
    full = flags._orthonormalize_stack(
        np.concatenate([V] + [c[None] for c in center], axis=0)
        if center or dim else np.zeros((0, n, n), dtype=complex))
    return dim, full.shape[0] == elem.algebra_dim


def grade_spaces_ref(elem):
    """gap -> HS-orthonormal stack, one outer product at a time."""
    buckets: Dict[float, List[np.ndarray]] = {}
    for lk, fk in zip(elem.levels, elem.frames):
        for lj, fj in zip(elem.levels, elem.frames):
            gap = lk - lj
            for u in fk:
                for w in fj:
                    L = np.outer(u, w.conj())
                    if elem.tag != flags.UNITARY:
                        L = L - np.outer(w.conj(), u)
                        if np.max(np.abs(L)) < 1e-14:
                            continue
                    key = next((k for k in buckets
                                if abs(k - gap) < flags._EIG_TOL), gap)
                    buckets.setdefault(key, []).append(L)
    return {k: flags._orthonormalize_stack(np.array(mats))
            for k, mats in buckets.items()}


# -------------------------------------------------------------- elements

def _unitary_frames(dims, seed):
    n = sum(dims)
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q, _ = np.linalg.qr(M)
    rows = np.cumsum((0,) + tuple(dims))
    return [Q.conj().T[a:b] for a, b in zip(rows[:-1], rows[1:])]


def _orthogonal(n, r, rot=None):
    """The flag-demo element of o(n) with levels +-1..+-r, optionally
    conjugated by the real orthogonal matrix rot."""
    rot = np.eye(n) if rot is None else rot
    fr = flags.standard_isotropic_frame(n, range(r)) @ rot.T
    pos = {float(j): fr[j - 1:j] for j in range(1, r + 1)}
    rest = np.eye(n)[2 * r:] @ rot.T
    return flags.canonical_orthogonal(
        pos, n, real_frame=rest if rest.size else None)


def _control(levels, dims, seed):
    frames = _unitary_frames(dims, seed)
    xi = sum(1j * lv * (fr.T @ fr.conj()) for lv, fr in zip(levels, frames))
    return flags.CanonicalElement(tag=flags.UNITARY, n=xi.shape[0], xi=xi,
                                  levels=tuple(levels), frames=tuple(frames))


def _build(label):
    if label in CONTROLS:
        return _control(*CONTROLS[label], seed=7)
    if label.startswith("u"):
        dims = tuple(int(d) for d in label.split(":")[1].split(","))
        return flags.canonical_unitary(
            dims, frames=_unitary_frames(dims, seed=sum(dims)))
    n, r = (int(x) for x in label[1:].split(":r"))
    return _orthogonal(n, r)


LABELS = (list(CONTROLS)
          + [f"u{sum(d)}:" + ",".join(map(str, d)) for d in UNITARY_DIMS]
          + [f"o{n}:r{r}" for n, r in ORTHOGONAL_SHAPES])


@pytest.fixture(scope="module")
def gradings():
    return {label: flags.grade(_build(label)) for label in LABELS}


def _projectors(stack):
    flat = stack.reshape(stack.shape[0], -1)
    return flat.T @ flat.conj()


# ----------------------------------------------------------------- tests

def test_reference_list_has_the_25_benchmark_elements():
    assert len(LABELS) == 25 == len(set(LABELS))


@pytest.mark.parametrize("label", LABELS)
def test_grade_matches_per_vector_reference(label):
    elem = _build(label)
    grading = flags.grade(elem)
    ref = grade_spaces_ref(elem)
    assert len(grading.spaces) == len(ref)
    for k, stack in ref.items():
        mine = grading.space(k)
        assert mine.shape == stack.shape
        assert np.max(np.abs(_projectors(mine) - _projectors(stack))) < TOL


@pytest.mark.parametrize("label", LABELS)
def test_generation_check_matches_full_closure_reference(gradings, label):
    grading = gradings[label]
    rep = flags.generation_check(grading)
    closure_dim, passed = generation_check_ref(grading)
    assert rep.closure_dim == closure_dim
    assert rep.passed == passed
    if label.startswith("u"):
        assert closure_dim == grading.elem.n ** 2 - 1
    else:
        want = SATURATED.get(label, grading.elem.algebra_dim)
        assert closure_dim == want


@pytest.mark.parametrize("label", LABELS)
def test_bracket_residual_matches_reference(gradings, label):
    grading = gradings[label]
    got = flags.bracket_grading_residual(grading)
    assert abs(got - bracket_grading_residual_ref(grading)) < TOL
    assert got < 1e-12


@pytest.mark.parametrize("label", LABELS)
def test_cartan_relations_match_reference(gradings, label):
    kc, pc, res = flags.cartan_split(gradings[label])
    ref = cartan_relations_ref(kc, pc)
    assert res.keys() == ref.keys()
    for key in ref:
        assert abs(res[key] - ref[key]) < TOL


def test_bracket_table_sees_a_wrong_target(gradings):
    """[g_1, g_1] sits in g_2, [g_1, g_-1] in g_0 and [p, p] in k: in the
    bracket table of a grading whose g_2 is g_0's stack or missing, whose
    g_0 is missing, or whose levels are shifted by one, so that p is
    named k, the escape is O(1)."""
    grading = gradings["u3:1,1,1"]
    spaces = grading.spaces
    g0, g1, gm1 = spaces[0.0], spaces[1.0], spaces[-1.0]
    empty = np.zeros((0, 3, 3), dtype=complex)
    table = grading.bracket_table
    assert table[1.0, 1.0].escape < TOL and table[-1.0, 1.0].escape < TOL

    def table_of(relabelled):
        return dataclasses.replace(grading, spaces=relabelled).bracket_table

    without = {k: {j: v for j, v in spaces.items() if j != k}
               for k in (0.0, 2.0)}
    for target, relabelled in ((g0, {**spaces, 2.0: g0}),
                               (empty, without[2.0])):
        esc = table_of(relabelled)[1.0, 1.0].escape
        assert esc > 0.05 and abs(esc - bracket_rel_ref(g1, g1, target)) < TOL
    esc = table_of(without[0.0])[-1.0, 1.0].escape
    assert esc > 0.05 and abs(esc - bracket_rel_ref(g1, gm1, empty)) < TOL
    _, pc, _ = flags.cartan_split(grading)
    shifted = dataclasses.replace(
        grading, spaces={k + 1.0: v for k, v in spaces.items()})
    esc = flags.cartan_split(shifted)[2]["[k,k] in k"]
    assert esc > 0.05 and abs(esc - bracket_rel_ref(pc, pc, pc)) < TOL
    # one basis element brackets with nothing
    (key, single), = table_of({1.0: g1[:1]}).items()
    assert key == (1.0, 1.0) and single.coords.shape == (1, 1, 0)
    assert (single.escape, single.cartan_escape) == (0.0, 0.0)


@pytest.mark.parametrize("label", ["u3:1,1,1", "u9:3,3,3", "o8:r4",
                                   "half-gap"])
def test_bracket_table_coordinates_match_reference(gradings, label):
    """coords[a, b] of the pair (j, k) are the HS inner products of
    [a_j, b_k] with g_{j+k}'s basis, the within-level ones included.
    They are kept exactly for the pairs with a level +-1."""
    grading = gradings[label]
    for (j, k), entry in grading.bracket_table.items():
        assert (entry.coords is not None) == bool({j, k} & {-1.0, 1.0})
        if entry.coords is None:
            continue
        target = grading.space(j + k)
        A, B = grading.spaces[j], grading.spaces[k]
        ref = np.array([[[np.vdot(t, a @ b - b @ a) for t in target]
                         for b in B] for a in A]).reshape(entry.coords.shape)
        assert np.max(np.abs(entry.coords - ref), initial=0.0) < TOL


@pytest.mark.parametrize("label", ["u3:1,1,1", "u9:3,3,3", "o8:r4",
                                   "half-gap"])
def test_residuals_bracket_each_sigma_orbit_once(label, monkeypatch):
    """The C2 closure, cartan_split and bracket_grading_residual read one
    table: grade's gradings are sigma-symmetric, so each orbit
    {(j, k), (-k, -j)} of level pairs is bracketed once among them, as
    the pair with j + k >= 0, and nothing else is."""
    calls = []
    commutators = flags._commutators

    def spy(A, B):
        calls.append((A, B))
        return commutators(A, B)

    monkeypatch.setattr(flags, "_commutators", spy)
    grading = flags.grade(_build(label))
    flags.generation_check(grading)
    flags.cartan_split(grading)
    flags.bracket_grading_residual(grading)
    level = {id(v): k for k, v in grading.spaces.items()}
    assert all(id(X) in level for call in calls for X in call)
    pairs = [tuple(sorted(level[id(X)] for X in call)) for call in calls]
    levels = sorted(grading.spaces)
    assert sorted(pairs) == [(j, k) for i, j in enumerate(levels)
                             for k in levels[i:] if j + k >= 0]


def _rotated(label, seed):
    """The orthogonal element `label` conjugated by a seeded random
    rotation, which makes its bases dense."""
    n, r = (int(x) for x in label[1:].split(":r"))
    rot, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    return _orthogonal(n, r, rot)


ROTATED = [(label, seed) for label in ("o6:r3", "o8:r4", "o10:r5")
           for seed in (0, 1, 2)]


@pytest.mark.parametrize("label,seed", ROTATED)
def test_saturated_closure_ignores_round_off(label, seed):
    """Conjugated by a random rotation, the orthogonal elements have
    dense bases, so a saturated closure leaves a round-off remainder of
    about 1e-16 in every round; it must not count as new directions."""
    grading = flags.grade(_rotated(label, seed))
    rep = flags.generation_check(grading)
    assert rep.closure_dim == SATURATED[label]
    assert not rep.passed


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("label", ["gap-2", "half-gap"])
def test_controls_have_an_empty_closure(label, seed):
    rep = flags.generation_check(flags.grade(_control(*CONTROLS[label], seed)))
    assert rep.closure_dim == 0 and not rep.passed


@pytest.mark.parametrize("label,ref_dim", [("u5:1,1,1,1,1", 2),
                                           ("u4:1,3", 3), ("u8:2,3,3", 5)])
def test_generation_check_refuses_partial_gradings(gradings, label, ref_dim):
    """With g_1 cut to its first vector and g_-1 to its second (the
    first is sigma of g_1's, and on u8 that pair generates the algebra)
    the spaces no longer span the algebra, and every bracket of a round
    can be round-off; the full re-bracketing reference closes on
    ref_dim, while a round-relative cut would keep the noise, so the
    closure refuses."""
    grading = gradings[label]
    spaces = dict(grading.spaces)
    spaces[1.0], spaces[-1.0] = spaces[1.0][:1], spaces[-1.0][1:2]
    partial = dataclasses.replace(grading, spaces=spaces)
    assert generation_check_ref(partial) == (ref_dim, False)
    with pytest.raises(ValueError, match="expected algebra_dim"):
        flags.generation_check(partial)


# ------------------------------------------------------------------ sigma

def _sigma(stack):
    """sigma(X) = -X^H on each matrix of a stack."""
    return -stack.conj().transpose(0, 2, 1)


SIGMA_CASES = [pytest.param(label, None, id=label) for label in LABELS] + [
    pytest.param(label, seed, id=f"{label}-rotated-{seed}")
    for label, seed in ROTATED]


def _sigma_case(gradings, label, seed):
    return gradings[label] if seed is None \
        else flags.grade(_rotated(label, seed))


@pytest.mark.parametrize("label,seed", SIGMA_CASES)
def test_grade_sets_each_negative_level_to_sigma_of_its_partner(
        gradings, label, seed):
    """Every space grade returns is sigma of its partner exactly (equal
    values, np.array_equal), and g_0's elements are sigma-fixed."""
    spaces = _sigma_case(gradings, label, seed).spaces
    assert sorted(spaces) == sorted(-k for k in spaces)
    for k, v in spaces.items():
        assert np.array_equal(spaces[-k], _sigma(v)), k
    assert np.array_equal(_sigma(spaces[0.0]), spaces[0.0])


def _direct_table(grading, monkeypatch):
    """The bracket table of a copy of the grading with every pair
    bracketed, as for a grading that is not sigma-symmetric."""
    with monkeypatch.context() as m:
        m.setattr(flags, "_sigma_symmetric", lambda spaces: False)
        return dataclasses.replace(grading).bracket_table


@pytest.mark.parametrize("label,seed", SIGMA_CASES)
def test_entries_read_off_sigma_match_a_direct_bracketing(
        gradings, label, seed, monkeypatch):
    """Each entry (-k, -j) read off its orbit's (j, k) holds the escapes
    and coordinates of bracketing the pair itself, within TOL."""
    grading = _sigma_case(gradings, label, seed)
    table, direct = grading.bracket_table, _direct_table(grading, monkeypatch)
    assert table.keys() == direct.keys()
    read_off = [pair for pair in table if sum(pair) < 0]
    assert read_off
    for pair in read_off:
        got, want = table[pair], direct[pair]
        assert abs(got.escape - want.escape) < TOL
        assert abs(got.cartan_escape - want.cartan_escape) < TOL
        assert (got.coords is None) == (want.coords is None)
        if got.coords is not None:
            assert got.coords.shape == want.coords.shape
            assert np.max(np.abs(got.coords - want.coords),
                          initial=0.0) < TOL


def _with_g_minus_1(grading, g):
    return dataclasses.replace(grading, spaces={**grading.spaces, -1.0: g})


@pytest.mark.parametrize("label", ["u3:1,1,1", "u9:3,3,3", "o8:r4"])
def test_another_basis_of_g_minus_1_brackets_every_pair(
        gradings, label, monkeypatch):
    """g_-1 in another orthonormal basis of the same space (a seeded
    unitary mix of sigma(g_1)'s) is not sigma(g_1) bit for bit: the
    table brackets every pair, and its escapes and closure are still
    those of a grading."""
    grading = gradings[label]
    g = grading.spaces[-1.0]
    rng = np.random.default_rng(11)
    U, _ = np.linalg.qr(rng.standard_normal((len(g), len(g)))
                        + 1j * rng.standard_normal((len(g), len(g))))
    mixed = _with_g_minus_1(grading, np.tensordot(U, g, 1))
    calls = []
    commutators = flags._commutators
    monkeypatch.setattr(flags, "_commutators",
                        lambda A, B: calls.append(None) or commutators(A, B))
    levels = len(mixed.spaces)
    assert flags.bracket_grading_residual(mixed) < 1e-12
    assert len(calls) == levels * (levels + 1) // 2
    assert max(flags.cartan_split(mixed)[2].values()) < 1e-12
    assert flags.generation_check(mixed) == flags.generation_check(grading)


@pytest.mark.parametrize("label", ["u3:1,1,1", "u9:3,3,3", "o8:r4"])
def test_a_wrong_g_minus_1_shows_an_escape(gradings, label):
    """g_-1 set to a copy of g_1: [g_-1, g_1] = [g_1, g_1] lies in g_2
    and escapes g_0 by O(1), bracketed directly rather than read off
    the orbit of (-1, 1)."""
    grading = gradings[label]
    wrong = _with_g_minus_1(grading, grading.spaces[1.0].copy())
    table = wrong.bracket_table
    assert table[-1.0, 1.0].escape > 0.05
    assert abs(table[-1.0, 1.0].escape - bracket_rel_ref(
        wrong.spaces[-1.0], wrong.spaces[1.0], wrong.spaces[0.0])) < TOL
    assert flags.bracket_grading_residual(wrong) > 0.05


# ------------------------------------------------------------ mechanisms

@pytest.mark.parametrize("label", LABELS)
def test_a_level_with_itself_takes_one_product(gradings, label):
    """_commutators(A, A) reads [a_i, a_j] off the one product A A; a
    copy of A takes the two-product route, to round-off."""
    for A in gradings[label].spaces.values():
        one, two = flags._commutators(A, A), flags._commutators(A, A.copy())
        assert np.max(np.abs(one - two)) < 1e-15


def test_a_target_that_is_its_whole_cartan_stack_is_projected_once(gradings):
    """On u9:4,5 (levels -1, 0, 1) g_0 is all of k, so the pairs bracketing
    into it, (-1, 1) and (0, 0), read their Cartan escape off the same
    remainder as their escape, bit for bit."""
    table = gradings["u9:4,5"].bracket_table
    for pair in ((-1.0, 1.0), (0.0, 0.0)):
        assert table[pair].cartan_escape == table[pair].escape


def test_closure_takes_no_svd_of_a_negligible_remainder(monkeypatch):
    """Over the 25 elements, grade takes 88 SVDs, one per positive level
    and one for g_0 (g_-k is sigma(g_k)), and generation_check 75: a
    projected block whose Frobenius norm is within _RANK_TOL of the
    round's scale adds no direction without one (68 such blocks)."""
    calls = []
    svd = np.linalg.svd

    def spy(*args, **kwargs):
        calls.append(None)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    gradings = [flags.grade(_build(label)) for label in LABELS]
    assert len(calls) == 88
    for grading in gradings:
        flags.generation_check(grading)
    assert len(calls) == 88 + 75
