"""Closed-form bundle derivatives against central differences of the
projectors on shifted geometries, plus mutants the comparison must
reject; tau''s Gram route against the SVD route, and the rank-0 stacks
that skip their SVD."""

import dataclasses
import functools
import inspect
import types
import warnings

import numpy as np
import pytest

from plurimean import forms, gaussmaps, pipeline
from plurimean.chartcalc import (RankError, contract_slots,
                                 holomorphic_basis, type_rows)
from plurimean.fixtures import fixture_names, get_fixture, registry
from test_controls import CONTROLS
from test_forms import _geom
from test_gaussmaps import _projector
from test_hot_path import _spy

ADMITTED = [r.name for r in registry() if r.flags["kaehler"]]
NAMES = ["T", "taup", "No", "Np"]   # the Bundle fields of Bundles
C = 100.0     # |analytic - FD(h)| <= C h^2; veronese's dP_T needs 31

_cache = {}
_geom = functools.lru_cache(maxsize=None)(_geom)


def _projectors(geom):
    """The four projector fields of geom that carry a derivative, built
    from the generator stacks alone (projector_derivative with no
    derivative direction)."""
    m = geom.imm.complex_dim
    G, _, _, n = geom.alpha.shape
    B = holomorphic_basis(m)
    P_T = geom.P_T
    P_taup, _ = _projector(
        np.einsum("ai,gix->gax", 2.0 * B, geom.jet.d1.astype(complex)))
    scale = float(np.max(np.abs(geom.alpha)))
    P_No, _ = _projector(geom.alpha11.reshape(G, m * m, n), scale=scale)
    P_Np, _ = _projector(geom.alpha20.reshape(G, m * m, n), scale=scale)
    return {"T": P_T, "taup": P_taup, "No": P_No, "Np": P_Np}


def fd_projector_derivatives(name, h):
    """Central differences (G, 2m, n, n) of every projector over the
    geometries at pts +- h e_v."""
    key = (name, h)
    if key not in _cache:
        geom = _geom(name)
        imm, pts = geom.imm, geom.pts
        d = imm.chart_dim
        steps = {nm: [] for nm in NAMES}
        for v in range(d):
            ev = np.zeros(d)
            ev[v] = h
            bp = _projectors(forms.compute_geometry(imm, pts + ev))
            bm = _projectors(forms.compute_geometry(imm, pts - ev))
            for nm in NAMES:
                steps[nm].append((bp[nm] - bm[nm]) / (2.0 * h))
        _cache[key] = {nm: np.stack(s, axis=1) for nm, s in steps.items()}
    return _cache[key]


def _errors(bun, name, h):
    fd = fd_projector_derivatives(name, h)
    return {nm: float(np.max(np.abs(getattr(bun, nm).dP - fd[nm])))
            for nm in NAMES}


def _agrees(bun, name, h=1e-4):
    return max(_errors(bun, name, h).values()) <= C * h * h


def _alpha_agrees(dalpha, name, h=1e-4):
    """d alpha against central differences of alpha, relative to its
    size (veronese's |d alpha| reaches 45)."""
    geom = _geom(name)
    d = geom.jet.chart_dim
    bound = C * h * h * max(1.0, float(np.max(np.abs(dalpha))))
    for v in range(d):
        ev = np.zeros(d)
        ev[v] = h
        ap = forms.compute_geometry(geom.imm, geom.pts + ev).alpha
        am = forms.compute_geometry(geom.imm, geom.pts - ev).alpha
        if np.max(np.abs(dalpha[:, v] - (ap - am) / (2.0 * h))) > bound:
            return False
    return True


@pytest.mark.parametrize("name", ADMITTED)
def test_analytic_derivatives_match_fd_at_second_order(name):
    geom = _geom(name)
    bun = gaussmaps.projector_derivatives(geom)
    e3 = _errors(bun, name, 1e-3)
    e4 = _errors(bun, name, 1e-4)
    n = geom.imm.ambient_dim
    for nm in NAMES:
        assert getattr(bun, nm).dP.shape == (len(geom.pts),
                                             geom.jet.chart_dim, n, n)
        assert e3[nm] <= C * 1e-6, (nm, e3[nm])
        assert e4[nm] <= C * 1e-8, (nm, e4[nm])
        # the error is the FD truncation: it falls as h^2
        if e3[nm] > 1e-9:
            assert 80.0 < e3[nm] / e4[nm] < 120.0, (nm, e3[nm], e4[nm])


@pytest.mark.parametrize("name", ADMITTED)
def test_alpha_derivative_matches_fd(name):
    assert _alpha_agrees(gaussmaps.alpha_derivative(_geom(name)), name)


def test_projector_derivative_of_rank_deficient_family():
    # A(s) = C(s) E(s): 3 generators of rank 2 in C^5 over 4 points,
    # with two derivative directions s_1, s_2
    rng = np.random.default_rng(7)

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    Cs, Es = cplx(3, 4, 3, 2), cplx(3, 4, 2, 5)

    def gens(s):
        return ((Cs[0] + s[0] * Cs[1] + s[1] * Cs[2])
                @ (Es[0] + s[0] * Es[1] + s[1] * Es[2]))

    dgens = np.stack([Cs[1] @ Es[0] + Cs[0] @ Es[1],
                      Cs[2] @ Es[0] + Cs[0] @ Es[2]], axis=1)
    P, r, dP = gaussmaps.projector_derivative(gens((0.0, 0.0)), dgens)
    P_ref, r_ref = _projector(gens((0.0, 0.0)))
    assert r == r_ref == 2
    assert np.array_equal(P, P_ref)
    h = 1e-5
    for k, e in enumerate(np.eye(2)):
        Pp, _ = _projector(gens(h * e))
        Pm, _ = _projector(gens(-h * e))
        assert np.max(np.abs(dP[:, k] - (Pp - Pm) / (2.0 * h))) < 1e-7
    # Hermitian, and P dP P = 0 for a projector of constant rank
    assert np.max(np.abs(dP - dP.conj().transpose(0, 1, 3, 2))) < 1e-12
    assert np.max(np.abs(P[:, None] @ dP @ P[:, None])) < 1e-12


def test_projector_derivative_rank_zero():
    noise = 1e-14 * np.random.default_rng(1).standard_normal((4, 2, 5))
    P, r, dP = gaussmaps.projector_derivative(
        noise.astype(complex), np.ones((4, 3, 2, 5)), scale=1.0)
    assert r == 0
    assert dP.shape == (4, 3, 5, 5)
    assert np.max(np.abs(P)) == 0.0 and np.max(np.abs(dP)) == 0.0


def _mutant(old, new):
    """gaussmaps with one source snippet replaced."""
    src = inspect.getsource(gaussmaps)
    assert src.count(old) == 1, old
    mod = types.ModuleType("plurimean._gaussmaps_mutant")
    mod.__package__ = "plurimean"
    exec(compile(src.replace(old, new), "<gaussmaps mutant>", "exec"),
         mod.__dict__)
    return mod


# (old snippet, new snippet, fixture it must fail on).  The Gamma alpha
# terms cancel in the projector derivatives of a Kaehler immersion
# (Gamma commutes with J, so they stay inside the generator's own
# bundle, which I - P removes): only the d alpha oracle sees them.
MUTANTS = {
    "alpha derivative without its tangential term": (
        "GA.transpose(0, 1, 3, 2, 4) - tangential",
        "GA.transpose(0, 1, 3, 2, 4)", "veronese"),
    "alpha derivative without the Gamma alpha terms": (
        "geom.Dalpha + GA + GA.transpose(0, 1, 3, 2, 4) - tangential",
        "geom.Dalpha - tangential", "veronese"),
    "conjugate transpose of A+ dA": (
        "((np.eye(n) - P) @ dAT).reshape(G, n * D, K) @ pinvT",
        "((np.eye(n) - P) @ dAT.conj()).reshape(G, n * D, K) @ pinvT.conj()",
        "sphere"),
    "dP_No forced to zero": (
        "No=Bundle(P_No, dP_No)", "No=Bundle(P_No, 0.0 * dP_No)",
        "veronese"),
}


def _passes_oracles(mod, name):
    geom = _geom(name)
    return (_agrees(mod.projector_derivatives(geom), name)
            and _alpha_agrees(mod.alpha_derivative(geom), name))


def test_unmutated_source_passes_the_oracles():
    mod = _mutant("def bundle_projectors", "def bundle_projectors")
    assert _passes_oracles(mod, "veronese")


@pytest.mark.parametrize("mutant", list(MUTANTS))
def test_fd_oracles_reject_mutant(mutant):
    old, new, name = MUTANTS[mutant]
    assert not _passes_oracles(_mutant(old, new), name)


# --------------------------------------- tau''s Gram route, rank-0 stacks

def _captured(monkeypatch, name, geom):
    """The (args, result) of every call projector_derivatives(geom)
    makes to gaussmaps.<name>, keywords as trailing arguments."""
    calls = []
    f = getattr(gaussmaps, name)

    def spy(*args, **kwargs):
        calls.append(((*args, *kwargs.values()), f(*args, **kwargs)))
        return calls[-1][1]

    monkeypatch.setattr(gaussmaps, name, spy)
    gaussmaps.projector_derivatives(geom)
    monkeypatch.undo()
    return calls


@functools.lru_cache(maxsize=None)
def _verify_geometry(name):
    """The geometry verify builds for a registry fixture or a control of
    test_controls."""
    rec = CONTROLS[name]() if name in CONTROLS else get_fixture(name)
    return pipeline.FixtureContext(rec, pipeline.RunConfig()).geom


def _assert_gram_matches_svd(gens, dgens):
    """The Gram route against _ranked_svd's route, within 1e-12."""
    P, dP = gaussmaps.gram_projector_derivative(gens, dgens)
    P_ref, r, dP_ref = gaussmaps.projector_derivative(gens, dgens)
    assert r == gens.shape[1]
    assert np.max(np.abs(P - P_ref)) < 1e-12
    assert np.max(np.abs(dP - dP_ref)) < 1e-12


@pytest.mark.parametrize("name", [*fixture_names(), *CONTROLS])
def test_tau_prime_gram_route_matches_svd_route(monkeypatch, name):
    geom = _verify_geometry(name)
    (((gens, dgens), (P, dP)),) = _captured(
        monkeypatch, "gram_projector_derivative", geom)
    assert gens.shape[1] == geom.imm.complex_dim
    _assert_gram_matches_svd(gens, dgens)


@pytest.mark.parametrize("m", [1, 2])
def test_gram_route_matches_svd_route_on_random_stacks(m):
    rng = np.random.default_rng(40 + m)

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    _assert_gram_matches_svd(cplx(9, m, 2 * m + 3), cplx(9, 2 * m, m,
                                                         2 * m + 3))


def test_tau_prime_without_an_inverse_is_a_rank_error():
    """A differential that vanishes at one point passes no regularity
    gate; handed to the bundle layer anyway, tau''s Gram matrix has no
    finite inverse there."""
    geom = _verify_geometry("sphere")
    d1 = geom.jet.d1.copy()
    d1[3] = 0.0
    geom = dataclasses.replace(geom,
                               jet=dataclasses.replace(geom.jet, d1=d1))
    with pytest.raises(RankError, match="tau' rank below m = 1"):
        gaussmaps.projector_derivatives(geom)


def ranked_svd_ref(gens, scale):
    """gaussmaps._ranked_svd with no shortcut: an SVD of every stack."""
    u, sv, vh = np.linalg.svd(gens.astype(complex), full_matrices=False)
    smax = float(np.max(sv)) if sv.size else 0.0
    r = 0
    if max(smax, scale) > 0.0:
        r = int(np.sum(sv > gaussmaps._RANK_REL_TOL * max(smax, scale),
                       axis=1)[0])
    return u[:, :, :r], sv[:, :r], vh[:, :r, :]


SVD = ((np.linalg, "svd"),)

# the N° and N' stacks negligible against alpha: rank 0 with no SVD
RANK_ZERO = {("plane", "N°"), ("plane", "N'"), ("sphere", "N'"),
             ("product-spheres", "N'"), ("standard-embedding", "N'"),
             ("catenoid", "N°"), ("helicoid", "N°"),
             ("holomorphic-curve", "N°")}


def test_rank_zero_stacks_equal_the_svd_route(monkeypatch):
    """Each N° and N' bundle equals the route through an SVD of its
    stack; a stack negligible against alpha takes no SVD in
    projector_derivatives, and no call of projector_derivative
    either."""
    seen = set()
    for name in ADMITTED:
        geom = _verify_geometry(name)
        calls = _captured(monkeypatch, "projector_derivative", geom)
        svds = _spy(monkeypatch, SVD)
        bun = gaussmaps.projector_derivatives(geom)
        monkeypatch.undo()
        m = geom.imm.complex_dim
        G, d, _, n = geom.alpha.shape
        scale = float(np.max(np.abs(geom.alpha)))
        dalpha = gaussmaps.alpha_derivative(geom)
        K20, K11 = type_rows(m)
        for field, A, K, got in (("N°", geom.alpha11, K11, bun.No),
                                 ("N'", geom.alpha20, K20, bun.Np)):
            gens = A.reshape(G, m * m, n)
            dgens = contract_slots(K, dalpha).reshape(G, d, m * m, n)
            ur, sr, vr = ranked_svd_ref(gens, scale)
            if vr.shape[1] == 0:
                seen.add((name, field))
            P_ref = gaussmaps._span_projector(vr)
            pinvT = ur.conj() @ (vr.conj() / sr[:, :, None])
            assert bun.ranks[field] == vr.shape[1]
            assert np.array_equal(got.P, P_ref)
            assert np.array_equal(got.dP, gaussmaps._span_derivative(
                P_ref, pinvT, dgens))
        live = [f for f in ("N°", "N'") if (name, f) not in RANK_ZERO]
        assert len(calls) == len(live)
        assert svds == ["svd"] * len(live)
    assert seen == RANK_ZERO


@pytest.mark.parametrize("factor,svds", [(1.0, 0), (1.0 + 1e-9, 1)])
def test_only_a_stack_within_the_cut_skips_the_svd(factor, svds):
    """A stack whose largest point norm is the cut itself is negligible,
    so projector_derivatives' pre-filter makes it rank 0 with no SVD;
    one just above it is not, and takes the SVD."""
    gens = np.zeros((4, 2, 5), complex)
    gens[:, 0, 0] = 3.0
    gens[2, 1, 1] = 4.0           # |gens_2|_F = 5, the largest
    scale = 5.0 / gaussmaps._RANK_REL_TOL / factor
    assert gaussmaps._negligible(gens, scale) == (not svds)


def test_a_nan_stack_reaches_the_svd(monkeypatch):
    gens = np.ones((4, 2, 5), complex)
    gens[1, 0, 3] = np.nan
    assert not gaussmaps._negligible(gens, 1e30)
    calls = _spy(monkeypatch, SVD)
    with pytest.raises(np.linalg.LinAlgError):
        gaussmaps._ranked_svd(gens, 1e30)
    assert calls == ["svd"]


def test_an_inf_stack_is_a_rank_error_not_rank_zero():
    """LAPACK returns NaN singular values for an inf entry without
    raising, and a cut against them would keep none.  The pre-filter
    passes no inf stack, not even under an inf scale, and the SVD
    raises on its singular values."""
    gens = np.ones((4, 2, 5), complex)
    gens[1, 0, 3] = np.inf
    assert not gaussmaps._negligible(gens, np.inf)
    assert not gaussmaps._negligible(np.full((4, 2, 5), np.inf), np.inf)
    with pytest.raises(RankError, match="not finite"):
        gaussmaps._ranked_svd(gens, np.inf)


def test_a_rank_zero_stack_past_the_pre_filter_has_zero_bundles(
        monkeypatch):
    """Two orthogonal rows of norm a under a cut of 1.2 a: the stack's
    norm, a sqrt 2, is above the cut, so it is not negligible and takes
    the SVD, whose cut keeps neither singular value a.  The span
    formulas then run over an empty rank axis and give exact complex
    zeros; a NaN in dgens reaches dP (NaN times 0), with no warning."""
    G, D, n, a = 4, 3, 5, 2.0
    gens = np.zeros((G, 2, n), complex)
    gens[:, 0, 0] = a
    gens[:, 1, 1] = 1j * a
    scale = 1.2 * a / gaussmaps._RANK_REL_TOL
    assert not gaussmaps._negligible(gens, scale)
    dgens = np.random.default_rng(5).standard_normal((G, D, 2, n))
    calls = _spy(monkeypatch, SVD)
    P, r, dP = gaussmaps.projector_derivative(gens, dgens, scale=scale)
    assert calls == ["svd"] and r == 0
    assert P.shape == (G, n, n) and dP.shape == (G, D, n, n)
    assert P.dtype == dP.dtype == complex
    assert not P.any() and not dP.any()
    dgens[2, 1, 0, 3] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, r, dP = gaussmaps.projector_derivative(gens, dgens, scale=scale)
    assert r == 0
    assert np.isnan(dP[2, 1]).any()
    dP[2, 1] = 0.0
    assert not dP.any()
