"""Canonical elements, ad-eigenspace gradings, C1/C2, Cartan splits,
and the two-complex-structure splitting algorithm."""

import dataclasses
import itertools

import numpy as np
import pytest

from plurimean import flags
from plurimean.chartcalc import standard_J


# --------------------------------------------------- construction helpers

def _unitary_profiles(n):
    """All ordered compositions of n with at least two parts."""
    out = []
    for cuts in range(1, n):
        for pattern in itertools.combinations(range(1, n), cuts):
            bounds = (0,) + pattern + (n,)
            out.append(tuple(b - a for a, b in zip(bounds, bounds[1:])))
    return out


def _orthogonal_element(n, r):
    fr = flags.standard_isotropic_frame(n, range(r))
    pos = {float(j): fr[j - 1:j] for j in range(1, r + 1)}
    rest = np.eye(n)[2 * r:]
    return flags.canonical_orthogonal(
        pos, n, real_frame=rest if rest.size else None)


def _random_complex_structure(d, rng):
    Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return Q @ standard_J(d // 2) @ Q.T


def _ad_spectrum_oracle(elem):
    """Brute-force: eigenvalues of ad(xi)/i on an explicit basis of the
    complexified algebra, with multiplicities."""
    n = elem.n
    basis = []
    if elem.tag == flags.UNITARY:
        for j in range(n):
            for k in range(n):
                E = np.zeros((n, n), dtype=complex)
                E[j, k] = 1.0
                basis.append(E)
    else:
        for j in range(n):
            for k in range(j + 1, n):
                E = np.zeros((n, n), dtype=complex)
                E[j, k], E[k, j] = 1.0, -1.0
                basis.append(E)
    dim = len(basis)
    M = np.zeros((dim, dim), dtype=complex)
    flat = np.array([b.ravel() for b in basis])
    inv = np.linalg.pinv(flat.T)
    for c, B in enumerate(basis):
        ad = (elem.xi @ B - B @ elem.xi) / 1j
        M[:, c] = inv @ ad.ravel()
    ev = np.linalg.eigvals(M)
    assert np.max(np.abs(ev.imag)) < 1e-9
    counts = {}
    for lam in np.sort(ev.real):
        for key in counts:
            if abs(key - lam) < 1e-7:
                counts[key] += 1
                break
        else:
            counts[round(float(lam), 6)] = 1
    return counts


# ------------------------------------------------------- canonical gradings

@pytest.mark.parametrize("n", [2, 3, 4])
def test_unitary_profiles_pass_c1_c2(n):
    for dims in _unitary_profiles(n):
        elem = flags.canonical_unitary(dims)
        grading = flags.grade(elem)
        assert grading.c1_pass
        assert grading.c1_deviation <= 1e-9
        assert grading.a3_residual <= 1e-12
        assert flags.bracket_grading_residual(grading) <= 1e-9
        rep = flags.generation_check(grading)
        assert rep.passed, dims
        assert rep.closure_dim + rep.center_dim == n * n


@pytest.mark.parametrize("n,r", [(4, 1), (5, 1), (6, 1), (5, 2), (6, 2)])
def test_orthogonal_elements_pass_c1_c2(n, r):
    grading = flags.grade(_orthogonal_element(n, r))
    assert grading.c1_pass
    assert grading.a3_residual <= 1e-12
    assert flags.bracket_grading_residual(grading) <= 1e-9
    assert flags.generation_check(grading).passed


def test_so4_rank2_fails_generation():
    # so(4) is not simple: with two isotropic levels the +-1 eigenspaces
    # close up inside a proper ideal
    grading = flags.grade(_orthogonal_element(4, 2))
    rep = flags.generation_check(grading)
    assert not rep.passed
    assert rep.closure_dim < rep.algebra_dim


def test_gap_two_unitary_counterexample_fails_c2():
    # spectrum (0, 0, 2, 2): integer gaps (C1 holds) but g_{+-1} is
    # empty, so the bracket closure cannot generate anything
    eye = np.eye(4, dtype=complex)
    elem = flags.CanonicalElement(
        tag=flags.UNITARY, n=4,
        xi=1j * np.diag([0.0, 0.0, 2.0, 2.0]).astype(complex),
        levels=(0.0, 2.0), frames=(eye[:2], eye[2:]))
    grading = flags.grade(elem)
    assert grading.c1_pass
    assert set(grading.dims()) == {-2.0, 0.0, 2.0}
    rep = flags.generation_check(grading)
    assert not rep.passed
    assert rep.closure_dim == 0


def test_non_integer_spectrum_fails_c1():
    elem = flags.canonical_unitary([1, 1], lambda0=0.0)
    shifted = flags.CanonicalElement(
        tag=flags.UNITARY, n=2, xi=1j * np.diag([0.5, 2.0]),
        levels=(0.5, 2.0), frames=elem.frames)
    grading = flags.grade(shifted)
    assert not grading.c1_pass
    assert grading.c1_deviation == pytest.approx(0.5)


def test_canonical_unitary_names_a_wrong_frame_width():
    frames = [np.eye(5, dtype=complex)[:1], np.eye(5, dtype=complex)[1:3]]
    with pytest.raises(ValueError,
                       match=r"width 5, expected n = sum\(dims\) = 3"):
        flags.canonical_unitary([1, 2], frames=frames)


@pytest.mark.parametrize("lambda0", [0.0, -1.0, 3.0])
def test_grading_is_invariant_under_spectrum_shift(lambda0):
    base = flags.grade(flags.canonical_unitary([1, 2]))
    shifted = flags.grade(flags.canonical_unitary([1, 2],
                                                  lambda0=lambda0))
    assert shifted.dims() == base.dims()


@pytest.mark.parametrize("dims", [(1, 2), (2, 2), (1, 1, 2)])
def test_grading_dims_match_bruteforce_ad_spectrum(dims):
    elem = flags.canonical_unitary(dims)
    counts = _ad_spectrum_oracle(elem)
    assert {float(k): v for k, v in counts.items()} == flags.grade(
        elem).dims()


@pytest.mark.parametrize("n,r", [(4, 1), (5, 2)])
def test_orthogonal_dims_match_bruteforce_ad_spectrum(n, r):
    elem = _orthogonal_element(n, r)
    counts = _ad_spectrum_oracle(elem)
    assert {float(k): v for k, v in counts.items()} == flags.grade(
        elem).dims()


def test_unitary_random_frames_keep_a3_exact():
    rng = np.random.default_rng(3)
    M = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    Q, _ = np.linalg.qr(M)
    frames = [Q.conj().T[:1], Q.conj().T[1:]]
    grading = flags.grade(flags.canonical_unitary([1, 2], frames=frames))
    assert grading.a3_residual < 1e-12
    assert flags.generation_check(grading).passed


def test_cartan_split_relations():
    for elem in (flags.canonical_unitary([1, 2]),
                 _orthogonal_element(5, 2)):
        grading = flags.grade(elem)
        kc, pc, res = flags.cartan_split(grading)
        assert max(res.values()) < 1e-12
        assert kc.shape[0] + pc.shape[0] == elem.algebra_dim


def _with_nan_in_g1(grading):
    """A copy of the grading with one NaN entry in g_1."""
    g1 = grading.spaces[1.0].copy()
    g1[0, 0, 0] = np.nan
    return dataclasses.replace(grading,
                               spaces={**grading.spaces, 1.0: g1})


def test_bracket_folds_keep_a_nan():
    grading = _with_nan_in_g1(flags.grade(flags.canonical_unitary([1, 2])))
    assert np.isnan(flags.bracket_grading_residual(grading))
    _, _, res = flags.cartan_split(grading)
    # g_1 is odd: it enters [k,p] and [p,p], not [k,k]
    assert np.isnan(res["[k,p] in p"]) and np.isnan(res["[p,p] in k"])
    assert res["[k,k] in k"] < 1e-12


def test_grading_attributes_cannot_be_replaced():
    """Replacing spaces after bracket_table's first read would leave the
    table stale, so the grading is frozen."""
    grading = flags.grade(flags.canonical_unitary([1, 2]))
    assert flags.bracket_grading_residual(grading) < 1e-12
    nan_grading = _with_nan_in_g1(grading)
    with pytest.raises(dataclasses.FrozenInstanceError):
        grading.spaces = nan_grading.spaces
    with pytest.raises(dataclasses.FrozenInstanceError):
        grading.a3_residual = 2e-8
    assert flags.generation_check(grading).passed
    assert np.isnan(flags.bracket_grading_residual(nan_grading))


def test_graded_spaces_are_read_only():
    """bracket_table is cached on first read, so a space written after
    it would leave a stale table: grade's spaces refuse the write."""
    grading = flags.grade(flags.canonical_unitary([1, 2]))
    assert flags.bracket_grading_residual(grading) < 1e-12
    for space in grading.spaces.values():
        with pytest.raises(ValueError, match="read-only"):
            space[0, 0, 0] = np.nan
    with pytest.raises(TypeError):
        grading.spaces[1.0] = np.zeros_like(grading.spaces[1.0])
    assert flags.generation_check(grading).passed


@pytest.mark.parametrize("lambda0", [np.nan, np.inf, -np.inf])
def test_canonical_unitary_rejects_a_lambda0_that_is_not_finite(lambda0):
    with pytest.raises(ValueError, match="lambda0 must be finite"):
        flags.canonical_unitary([1, 2], lambda0=lambda0)


@pytest.mark.parametrize("level", [0.0, -1.0, np.nan, np.inf])
def test_canonical_orthogonal_rejects_a_level_not_positive_and_finite(level):
    fr = flags.standard_isotropic_frame(4, range(1))
    with pytest.raises(ValueError, match="positive and finite"):
        flags.canonical_orthogonal({level: fr}, 4, real_frame=np.eye(4)[2:])


def test_grade_keeps_a_nan_in_xi():
    elem = flags.canonical_unitary([1, 2])
    xi = elem.xi.copy()
    xi[0, 1] = np.nan
    grading = flags.grade(dataclasses.replace(elem, xi=xi))
    assert np.isnan(grading.a3_residual) and grading.c1_pass


def test_grade_keeps_a_nan_level():
    elem = dataclasses.replace(flags.canonical_unitary([1, 2]),
                               levels=(np.nan, 2.0))
    grading = flags.grade(elem)
    assert np.isnan(grading.c1_deviation) and not grading.c1_pass
    assert np.isnan(grading.a3_residual)


@pytest.mark.parametrize("n,pairs", [(0, []), (4, [2]), (5, [2]),
                                     (4, [-1])])
def test_standard_isotropic_frame_names_a_bad_pair(n, pairs):
    with pytest.raises(ValueError, match=f"got n={n}, pairs"):
        flags.standard_isotropic_frame(n, pairs)


def test_nan_frames_are_not_orthonormal():
    frames = [np.eye(3, dtype=complex)[:1], np.eye(3, dtype=complex)[1:]]
    frames[1][0, 2] = np.nan
    with pytest.raises(ValueError, match="not jointly orthonormal"):
        flags.canonical_unitary([1, 2], frames=frames)
    fr = flags.standard_isotropic_frame(4, range(1))
    fr[0, 0] = np.nan
    with pytest.raises(ValueError, match="not jointly orthonormal"):
        flags.canonical_orthogonal({1.0: fr}, 4, real_frame=np.eye(4)[2:])


def test_superhorizontal_space_shapes():
    grading = flags.grade(flags.canonical_unitary([1, 2, 1]))
    sh = flags.superhorizontal_space(grading)
    dims = grading.dims()
    assert sh["g1"].shape[0] == dims[1.0]
    assert sh["horizontal"].shape[0] == dims[1.0] + dims[-1.0]
    assert sh["t_prime"].shape[0] == sum(
        d for k, d in dims.items() if k > 0)


def test_corollary_case_a_integer_spectrum():
    out = flags.corollary_even_space(_orthogonal_element(5, 2))
    assert out["case"] == "a"
    assert out["conjugation_residual"] < 1e-12


@pytest.mark.parametrize("n", [4, 6])
def test_corollary_case_b_half_integer_spectrum(n):
    fr = flags.standard_isotropic_frame(n, range(n // 2))
    pos = {j + 0.5: fr[j:j + 1] for j in range(n // 2)}
    elem = flags.canonical_orthogonal(pos, n)
    out = flags.corollary_even_space(elem)
    assert out["case"] == "b"
    assert out["isotropy_residual"] < 1e-12
    assert out["maximal"]


# -------------------------------------- two complex structures (splitting)

def test_split_degenerate_identical_and_opposite():
    J = standard_J(3)
    for sign, kind in ((1.0, "+J"), (-1.0, "-J")):
        res = flags.split_two_complex_structures(J, sign * J)
        assert res.reconstruction_error < 1e-12
        assert [b.kind for b in res.blocks] == [kind]
        assert res.blocks[0].basis.shape == (6, 6)


def test_split_explicit_anticommuting_pair():
    # right quaternion multiplication matrix: anticommutes with J
    J = standard_J(2)
    J2 = np.array([[0.0, 0.0, -1.0, 0.0],
                   [0.0, 0.0, 0.0, 1.0],
                   [1.0, 0.0, 0.0, 0.0],
                   [0.0, -1.0, 0.0, 0.0]])
    res = flags.split_two_complex_structures(J, J2)
    assert [b.kind for b in res.blocks] == ["quaternionic"]
    b = res.blocks[0]
    assert b.s == pytest.approx(1.0)
    for M in (b.J1, b.J2, b.J3):
        assert np.max(np.abs(M @ M + np.eye(4))) < 1e-12
    assert np.max(np.abs(b.J1 @ b.J2 - b.J3)) < 1e-12
    assert np.max(np.abs(b.J1 @ b.J2 + b.J2 @ b.J1)) < 1e-12


@pytest.mark.parametrize("d", [2, 4, 6])
def test_split_random_pairs(d):
    # ~34 seeds per dimension: 102 random pairs total across dims
    rng = np.random.default_rng(2024)
    for _ in range(34):
        J = _random_complex_structure(d, rng)
        Jt = _random_complex_structure(d, rng)
        res = flags.split_two_complex_structures(J, Jt)
        assert res.reconstruction_error < 1e-9
        assert max(res.identity_residuals.values()) < 1e-12
        total = sum(b.basis.shape[0] for b in res.blocks)
        assert total == d
        for b in res.blocks:
            if b.kind == "quaternionic":
                k = b.basis.shape[0]
                for M in (b.J1, b.J2, b.J3):
                    assert np.max(np.abs(M @ M + np.eye(k))) < 1e-9
                assert np.max(np.abs(b.J1 @ b.J2 - b.J3)) < 1e-9
                assert np.max(np.abs(b.J1 @ b.J2
                                     + b.J2 @ b.J1)) < 1e-9
            else:
                # on commuting blocks Jt restricts to +-J
                P = b.basis
                sign = 1.0 if b.kind == "+J" else -1.0
                assert np.max(np.abs(P @ Jt @ P.T
                                     - sign * P @ J @ P.T)) < 1e-9


def test_split_validates_inputs():
    J = standard_J(2)
    with pytest.raises(ValueError, match="Jt"):
        flags.split_two_complex_structures(J, 0.5 * J)


@pytest.mark.parametrize("which", ["J", "Jt"])
def test_split_rejects_a_nan_complex_structure(which):
    """A NaN compares false with the tolerance, so it must fail the
    check rather than pass it and stall the eigensolver later."""
    J = standard_J(2)
    bad = J.copy()
    bad[0, 1] = np.nan
    args = (bad, J) if which == "J" else (J, bad)
    with pytest.raises(ValueError, match=rf"^{which}\^2 != -I$"):
        flags.split_two_complex_structures(*args)
