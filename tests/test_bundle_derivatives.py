"""Closed-form bundle derivatives against central differences of the
projectors on shifted geometries, plus mutants the comparison must
reject."""

import functools
import inspect
import types

import numpy as np
import pytest

from plurimean import forms, gaussmaps
from plurimean.chartcalc import holomorphic_basis
from plurimean.fixtures import registry
from test_forms import _geom
from test_gaussmaps import _projector

ADMITTED = [r.name for r in registry() if r.flags["kaehler"]]
NAMES = ["T", "taup", "taupp", "Nc", "No", "Np", "Npp"]   # Bundles fields
C = 100.0     # |analytic - FD(h)| <= C h^2; veronese's dP_T needs 31

_cache = {}
_geom = functools.lru_cache(maxsize=None)(_geom)


def _projectors(geom):
    """All seven projector fields of geom, built from the generator
    stacks alone (projector_derivative with no derivative direction)."""
    m = geom.imm.complex_dim
    G, _, _, n = geom.alpha.shape
    B = holomorphic_basis(m)
    P_T = geom.P_T
    P_taup, _ = _projector(
        np.einsum("ai,gix->gax", 2.0 * B, geom.jet.d1.astype(complex)))
    scale = float(np.max(np.abs(geom.alpha)))
    P_No, _ = _projector(geom.alpha11.reshape(G, m * m, n), scale=scale)
    P_Np, _ = _projector(geom.alpha20.reshape(G, m * m, n), scale=scale)
    return {"T": P_T, "taup": P_taup, "taupp": P_taup.conj(),
            "Nc": np.eye(n) - P_T, "No": P_No, "Np": P_Np,
            "Npp": P_Np.conj()}


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
